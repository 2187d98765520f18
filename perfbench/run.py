"""Benchmark of the diffrnn experiment loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-sweep --seed 1 --seconds 36 --trace 0

Every workload runs the paper's whole loop -- SGD training of each
architecture, ``diffrnn eval`` on checkpoints, single-sequence prediction,
derivative-energy inspection, gradient checking and boosting -- at its own
input shapes, with most of its time on the part it is named for.  Phases are
interleaved unit by unit over the run, so drift in host speed hits every
phase alike.  Inputs come from ``--seed``; the library is driven only through
its public functions; outputs are checked against independent oracles after
the timed region.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
the library's public functions are wrapped from outside (``spans.py``) and the
run reports per-layer metrics from the recorded spans.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7         # set-ups per run; setup_s takes their median
IMPORT_REPEATS = 7        # fresh interpreters timed importing the library
NOISE = 0.05
LEARNING_RATE = 0.003
EPOCHS = 3
ENSEMBLE_EPOCHS = 2
ENSEMBLE_MAX_ORDER = 2
CHECK_SAMPLE = 4          # sampled sequences per forward/energy check
HOST_SHARE = 0.10         # run time given to the host-speed calibration
CAL_STEPS = 600
PROBE_STEPS = 25          # calibration steps on each side of a predict call
CAL_REF_S = 0.006         # calibration unit time on the reference host
BRACKET_UNITS = 3         # calibration units on each side of a set-up
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
OVERHEAD_PAIRS = 6        # traced/untraced probe pairs for trace.overhead_frac
# The paper's architecture comparison; every workload trains all of them.
SWEEP = (("rnn", "full"), ("lstm", "full"), ("stacked:3", "full"),
         ("dos:2", "full"), ("drnn:2", "full"), ("d2rnn:3", "full"),
         ("d2rnn:3", "truncated"))
PREDICT_ARCH = "d2rnn:3"


def geometric(lo: int, hi: int, n: int) -> tuple[int, ...]:
    """n lengths spread evenly on a log scale from lo to hi."""
    return tuple(int(round(lo * (hi / lo) ** (i / (n - 1)))) for i in range(n))


@dataclass(frozen=True)
class Workload:
    why: str
    task: str
    classes: int
    dim: int
    units: int
    train_lengths: tuple[int, ...]   # one per training sequence
    eval_lengths: tuple[int, ...]    # one per evaluation sequence
    predict_lengths: tuple[int, ...]  # the same sequences, cut again for predict
    holdout: int        # shortest evaluation sequences scored after each sweep
    ensemble_size: int  # training sequences the ensemble fits, class-balanced
    infer_archs: tuple[str, ...]     # checkpoints written in set-up
    predict_passes: int              # predict_sequence calls per eval sequence
    gradcheck: tuple[tuple[str, int], ...]  # (arch, units) at T=5, input 4
    gradcheck_seeds: int
    shares: dict                     # time share of each phase but predict


# The predict phase is paced by count, not time: passes x eval sequences is
# at least 1000 calls, so at least ten samples lie beyond the p99 latency.
# Its inputs are spread on a log scale over a 13-20x range of lengths in every
# workload, so p99 is the latency of the longest inputs.  On equal lengths it
# was the share of calls hit by host stalls, and swung by 20% between runs.
WORKLOADS = {
    "train-sweep": Workload(
        why="per-timestep forward and backward loops of batch-1 SGD over seven "
            "configs at T=20, the path users wait on while training",
        task="acceleration", classes=2, dim=16, units=16,
        train_lengths=(20,) * 24, eval_lengths=(20,) * 32, predict_lengths=geometric(5, 80, 32),
        holdout=32, ensemble_size=12,
        infer_archs=("rnn", "lstm", "stacked:3", "dos:2", "drnn:2", "d2rnn:3"),
        predict_passes=64,
        gradcheck=(("lstm", 6),), gradcheck_seeds=1,
        shares=dict(train=0.50, eval=0.15, energy=0.05, gradcheck=0.12, ensemble=0.18)),
    "infer-ragged": Workload(
        why="forward-only eval and predict over lengths 10-200, where the "
            "recurrence dominates and padding would cost; batch vs latency",
        task="mixed", classes=3, dim=16, units=16,
        train_lengths=geometric(10, 40, 6), eval_lengths=geometric(10, 200, 51),
        predict_lengths=geometric(10, 200, 51), holdout=6, ensemble_size=6, infer_archs=("lstm", "drnn:3", "d2rnn:3"),
        predict_passes=20,
        gradcheck=(("lstm", 6),), gradcheck_seeds=1,
        shares=dict(train=0.12, eval=0.50, energy=0.16, gradcheck=0.10, ensemble=0.12)),
    "tiny-oracle": Workload(
        why="criterion-1 grad checks and a SAMME ensemble at tiny shapes, where "
            "per-call overhead and extended precision set the time",
        task="mixed", classes=3, dim=8, units=8,
        train_lengths=(10,) * 12, eval_lengths=(10,) * 24, predict_lengths=geometric(3, 40, 24),
        holdout=24, ensemble_size=12,
        infer_archs=("lstm", "dos:1", "dos:2", "drnn:2", "d2rnn:3"),
        predict_passes=100,
        gradcheck=(("lstm", 6), ("dos:1", 6), ("dos:2", 6), ("drnn:2", 6),
                   ("d2rnn:3", 5)), gradcheck_seeds=3,
        shares=dict(train=0.08, eval=0.04, energy=0.04, gradcheck=0.72, ensemble=0.12)),
}

END_TO_END = (
    ("setup_s", "s"), ("train_seq_per_s", "seq/s"), ("eval_frames_per_s", "frames/s"),
    ("predict_ms_p50", "ms"), ("predict_ms_p99", "ms"),
    ("energy_frames_per_s", "frames/s"), ("gradcheck_params_per_s", "params/s"),
    ("ensemble_fit_s", "s"), ("peak_rss_mb", "MiB"),
)

STEP_ARCHS = ("rnn", "lstm", "stacked3", "dos2", "drnn2", "d2rnn3")
# (metric, unit, span name, field).  Field "us_per_step:<tag>" is the mean
# duration per timestep of the spans with that architecture tag.
PER_LAYER = (
    ("cells.stack_forward.calls", "count", "cells.stack_forward", "calls"),
    ("cells.stack_forward.busy_s", "s", "cells.stack_forward", "busy_s"),
    *((f"cells.stack_forward.us_per_step.{a}", "us", "cells.stack_forward",
       f"us_per_step:{a}") for a in STEP_ARCHS),
    ("cells.dos.calls", "count", "cells.dos", "calls"),
    ("cells.dos.busy_s", "s", "cells.dos", "busy_s"),
    ("numerics.sigmoid.calls", "count", "numerics.sigmoid", "calls"),
    ("numerics.sigmoid.busy_s", "s", "numerics.sigmoid", "busy_s"),
    ("numerics.softmax.calls", "count", "numerics.softmax", "calls"),
    ("numerics.softmax.busy_s", "s", "numerics.softmax", "busy_s"),
    ("backprop.backward.calls", "count", "backprop.backward", "calls"),
    ("backprop.backward.busy_s", "s", "backprop.backward", "busy_s"),
    *((f"backprop.backward.us_per_step.{a}", "us", "backprop.backward",
       f"us_per_step:{a}") for a in STEP_ARCHS + ("d2rnn3-trunc",)),
    ("backprop.grad_check.calls", "count", "backprop.grad_check", "calls"),
    ("backprop.grad_check.busy_s", "s", "backprop.grad_check", "busy_s"),
    ("backprop.grad_check.params", "count", "backprop.grad_check", "amount"),
    ("train.apply_sgd_step.calls", "count", "train.apply_sgd_step", "calls"),
    ("train.apply_sgd_step.busy_s", "s", "train.apply_sgd_step", "busy_s"),
    ("train.loss.busy_s", "s", "train.loss", "busy_s"),
    ("train.sgd_epoch.self_s", "s", "train.sgd_epoch", "self_s"),
    ("train.evaluate.calls", "count", "train.evaluate", "calls"),
    ("train.evaluate.busy_s", "s", "train.evaluate", "busy_s"),
    ("train.evaluate.self_s", "s", "train.evaluate", "self_s"),
    ("train.checkpoint_load.busy_s", "s", "train.checkpoint_load", "busy_s"),
    ("data.load_jsonl.busy_s", "s", "data.load_jsonl", "busy_s"),
    ("data.jsonl.bytes", "B", "data.load_jsonl", "amount"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("data.gen_synthetic.busy_s", "s", "data.gen_synthetic", "busy_s"),
    ("data.save_jsonl.busy_s", "s", "data.save_jsonl", "busy_s"),
    ("data.make_splits.busy_s", "s", "data.make_splits", "busy_s"),
    ("train.checkpoint_save.busy_s", "s", "train.checkpoint_save", "busy_s"),
    ("train.checkpoint.bytes", "B", "train.checkpoint_save", "amount"),
    ("cells.dos_energy.busy_s", "s", "cells.dos_energy", "busy_s"),
    ("cells.dos_energy.self_s", "s", "cells.dos_energy", "self_s"),
    ("cells.predict_sequence.busy_s", "s", "cells.predict_sequence", "busy_s"),
    ("ensemble.fit_ernn.busy_s", "s", "ensemble.fit_ernn", "busy_s"),
    ("ensemble.fit_ernn.self_s", "s", "ensemble.fit_ernn", "self_s"),
    ("ensemble.samme_round.calls", "count", "ensemble.samme_round", "calls"),
    ("ensemble.predict_ensemble.busy_s", "s", "ensemble.predict_ensemble", "busy_s"),
    ("trace.overhead_frac", "ratio", None, None),
    ("host.calibration_ms", "ms", None, None),
)


# ---------------------------------------------------------------------------
# Statistics


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile of n samples (the guard
    keeps 99.9% of 10000 from rounding up to rank 9991)."""
    return max(math.ceil(q * n / 100.0 - 1e-9), 1)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    return sorted(samples)[rank(len(samples), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - rank(n, q)


def tail_percentile(samples):
    """Highest percentile of TAIL_LADDER with at least ten samples beyond
    it, as (q, value); None if not even the median has."""
    best = None
    for q in TAIL_LADDER:
        if beyond(len(samples), q) >= 10:
            best = (q, percentile(samples, q))
    return best


def cycle_rate(cycle: dict, cycle_work: float, count: dict, spent: dict) -> float:
    """Work per second of one full cycle, estimated from each key's own time.

    A cycle runs ``cycle[k]`` units of key k and does ``cycle_work`` in all.
    A run stops at an arbitrary point inside a cycle, so the cycle's time is
    estimated as the sum over keys of units per cycle times mean time per
    unit; with whole cycles this is total work over total time.
    """
    return cycle_work / sum(u * spent[k] / count[k] for k, u in cycle.items())


# ---------------------------------------------------------------------------
# Scheduling


class Phase:
    """One phase of the workload: a generator that yields a key after each
    unit of work; every unit's start, end and key are logged.

    ``cycle`` maps each key to its units in one full cycle of the phase, and
    ``cycle_work`` is the work one cycle does.  A phase is satisfied once
    every key has run at least once and, for a paced phase, once it has made
    ``target`` units.
    """

    def __init__(self, name, units, cycle, cycle_work=1.0, share=0.0, target=0):
        self.name = name
        self.units = units
        self.cycle = cycle
        self.cycle_work = cycle_work
        self.share = share
        self.target = target
        self.log: list[tuple[float, float, object]] = []
        self.spent = 0.0
        self.seen: set = set()
        self.alive = True

    @property
    def count(self) -> int:
        return len(self.log)

    def satisfied(self) -> bool:
        return not self.alive or (self.count >= self.target and self.seen >= set(self.cycle))

    def advance(self) -> None:
        t0 = time.perf_counter()
        key = next(self.units)
        t1 = time.perf_counter()
        self.log.append((t0, t1, key))
        self.spent += t1 - t0
        self.seen.add(key)

    def durations(self, slowdown=None) -> list[float]:
        """Unit durations, divided by the host slowdown around each unit."""
        return [(t1 - t0) / (slowdown(t0, t1) if slowdown else 1.0)
                for t0, t1, _key in self.log]

    def rate(self, slowdown=None) -> float:
        count = {k: 0 for k in self.cycle}
        spent = {k: 0.0 for k in self.cycle}
        for (_t0, _t1, key), dt in zip(self.log, self.durations(slowdown)):
            count[key] += 1
            spent[key] += dt
        return cycle_rate(self.cycle, self.cycle_work, count, spent)


def run_phases(phases, seconds: float, on_error) -> None:
    """Interleave phases unit by unit for ``seconds``, then finish what each
    still owes.  Paced phases keep up with ``target * elapsed / seconds``;
    the others share the rest of the time by their ``share``."""
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        live = [p for p in phases if p.alive]
        owing = [p for p in live if not p.satisfied()]
        if elapsed >= seconds:
            if not owing:
                return
            pool = owing
        else:
            pool = ([p for p in live if p.target and p.count < p.target * elapsed / seconds]
                    or [p for p in live if not p.target] or live)
        phase = min(pool, key=lambda p: p.spent / p.share if p.share else p.spent)
        try:
            phase.advance()
        except StopIteration:
            phase.alive = False
        except Exception as exc:  # a failed operation; the run goes on
            phase.alive = False
            on_error(f"{phase.name}: {type(exc).__name__}: {exc}", exc)


# ---------------------------------------------------------------------------
# Host speed
#
# The 2-vCPU VM the baseline was measured on shares its cores with other
# tenants: its speed swings by 1.3-1.7x, in spells from a fraction of a second
# to a minute or two, longer than a run.  Short calibration units that run no
# library code are interleaved with the workload (every ~0.1 s) and with each
# set-up.  Timed metrics are reported at the reference host speed: each unit
# of work is divided by the slowdown the calibration measured around it.  A
# change to the library moves the library's time but not the calibration's,
# so it still shows in full.


def calibration_unit(steps: int = CAL_STEPS) -> float:
    """Fixed work independent of the library: a 16-unit logistic/tanh
    recurrence of small numpy operations in a Python loop, the same mix of
    interpreter and small-array cost as the library's per-timestep loops."""
    w = np.cos(np.arange(256.0)).reshape(16, 16) / 4.0
    v = np.zeros(16)
    for _ in range(steps):
        z = w @ v + 0.5
        pos = z >= 0
        g = np.empty_like(z)
        g[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        e = np.exp(z[~pos])
        g[~pos] = e / (1.0 + e)
        v = g * np.tanh(z)
    return float(v.sum())


def host_units():
    while True:
        calibration_unit()
        yield "host"


def slowdown_from(host_log):
    """Slowdown around an interval: mean calibration time over CAL_REF_S of
    the calibration units within it and the one just before and just after
    it.  Host speed changes within a fraction of a second, so the nearest
    units track it best."""
    mids = np.array([(t0 + t1) / 2 for t0, t1, _k in host_log])
    ratio = np.array([(t1 - t0) / CAL_REF_S for t0, t1, _k in host_log])

    def slowdown(t0: float, t1: float) -> float:
        lo = max(np.searchsorted(mids, t0) - 1, 0)
        hi = np.searchsorted(mids, t1) + 1
        return float(ratio[lo:hi].mean())
    return slowdown


def bracketed(measure, repeats: int):
    """Call ``measure`` (which returns a time) ``repeats`` times, each
    between calibration units; returns (raw times, times at reference
    speed)."""
    def calibrate():
        t0 = time.perf_counter()
        for _ in range(BRACKET_UNITS):
            calibration_unit()
        return (time.perf_counter() - t0) / BRACKET_UNITS / CAL_REF_S

    cal = [calibrate()]
    raw = []
    for _ in range(repeats):
        raw.append(measure())
        cal.append(calibrate())
    return raw, [r / ((a + b) / 2) for r, a, b in zip(raw, cal, cal[1:])]


# ---------------------------------------------------------------------------
# Set-up


class Lib:
    """The library modules, imported from the checkout's ``src``."""

    def __init__(self):
        import importlib

        for name in ("cells", "data", "train", "backprop", "ensemble", "cli",
                     "numerics"):
            setattr(self, name, importlib.import_module(f"diffrnn.{name}"))


@dataclass
class Env:
    train_set: object
    eval_set: object
    predict_set: object
    holdout: object
    ensemble_set: object
    eval_jsonl: str
    checkpoints: dict          # arch -> path
    predict_model: object
    gradcheck: list            # (key, model, frames, label)


def ragged(lib, ds, lengths, rng):
    """The sequences of ``ds`` cut to ``lengths``, dealt in seeded order."""
    order = rng.permutation(len(lengths))
    seqs = []
    for seq, i in zip(ds.sequences, order):
        n = lengths[i]
        seqs.append(lib.data.Sequence(frames=seq.frames[:n], label=seq.label, id=seq.id,
                                      frame_labels=list(seq.frame_labels[:n])))
    return lib.data.Dataset(sequences=seqs, class_names=list(ds.class_names))


IMPORT_PROBE = """\
import time
import numpy as np
CAL_STEPS = {steps}
{calibration_unit}
def calibrate():
    t = time.perf_counter()
    for _ in range({units}):
        calibration_unit()
    return (time.perf_counter() - t) / {units} / {ref}
before = calibrate()
t = time.perf_counter()
import diffrnn.cli
took = time.perf_counter() - t
print(took, took / ((before + calibrate()) / 2))
"""


def import_time(src: Path) -> tuple[float, float]:
    """(raw, at reference speed) time a fresh interpreter takes to import the
    library once numpy is loaded.  Interpreter start-up and numpy's own
    import are left out: no change to the library moves them, and their disk
    and dynamic-linking time swings more than calibration can follow.  The
    child calibrates itself just before and after the import."""
    code = IMPORT_PROBE.format(steps=CAL_STEPS, units=BRACKET_UNITS, ref=CAL_REF_S,
                               calibration_unit=inspect.getsource(calibration_unit))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=120, check=True)
    raw, scaled = map(float, out.stdout.split())
    return raw, scaled


def setup(lib, w: Workload, seed: int, workdir: str) -> Env:
    """Data generation, JSONL and checkpoint writing, model builds."""
    data, cells, train, cli = lib.data, lib.cells, lib.train, lib.cli
    n_train, n_eval = len(w.train_lengths), len(w.eval_lengths)
    n = n_train + n_eval
    full = data.gen_synthetic(w.task, w.classes, n,
                              max(w.train_lengths + w.eval_lengths + w.predict_lengths),
                              w.dim, NOISE, seed)
    per_class = n_train // w.classes
    # stratified: exactly n_train / classes of every class go to training
    frac = (per_class + 0.5) / (n // w.classes)
    ((train_idx, eval_idx),) = data.make_splits(full, data.MonteCarlo(frac, 1, seed))
    rng = lib.numerics.seeded_rng(seed + 1)
    train_set = ragged(lib, full.subset(train_idx), w.train_lengths, rng)
    eval_set = ragged(lib, full.subset(eval_idx), w.eval_lengths, rng)
    predict_set = ragged(lib, full.subset(eval_idx), w.predict_lengths, rng)
    shortest = sorted(range(n_eval), key=lambda i: len(eval_set.sequences[i].frames))
    holdout = eval_set.subset(sorted(shortest[:w.holdout]))
    by_class = [[i for i, s in enumerate(train_set.sequences) if s.label == c]
                for c in range(w.classes)]
    ensemble_set = train_set.subset(sorted(
        i for idx in by_class for i in idx[:w.ensemble_size // w.classes]))

    eval_jsonl = os.path.join(workdir, "eval.jsonl")
    data.save_jsonl(eval_set, eval_jsonl)
    checkpoints = {}
    for i, arch in enumerate(w.infer_archs):
        model = cells.build_model(cli.build_config(arch, w.dim, w.units, w.classes),
                                  seed=seed + 10 + i)
        checkpoints[arch] = os.path.join(workdir, f"{arch.replace(':', '')}.json")
        train.checkpoint_save(model, checkpoints[arch])
    predict_model = train.checkpoint_load(checkpoints[PREDICT_ARCH])

    gradcheck = []
    for arch, units in w.gradcheck:
        for s in range(w.gradcheck_seeds):
            model = cells.build_model(cli.build_config(arch, 4, units, 3), seed=seed + s)
            frames = lib.numerics.seeded_rng(seed + 100 + s).normal(size=(5, 4))
            gradcheck.append((f"{arch}/{s}", model, frames, s % 3))
    return Env(train_set, eval_set, predict_set, holdout, ensemble_set, eval_jsonl, checkpoints,
               predict_model, gradcheck)


# ---------------------------------------------------------------------------
# Phases.  Each yields a key after a unit of work and stashes what the checks
# need in ``out``, replacing the previous call's output, so the checks see the
# last (warm) call of each kind.


def sweep_units(lib, w, env, seed, workdir, losses, out):
    """Every sweep config trains from scratch, interleaved epoch by epoch;
    then each is scored on the holdout and checkpointed.  Every sweep's epoch
    losses go to ``losses``."""
    train = lib.train
    while True:
        runs = []
        for i, (arch, trunc) in enumerate(SWEEP):
            cfg = lib.cli.build_config(arch, w.dim, w.units, w.classes)
            tc = train.TrainConfig(learning_rate=LEARNING_RATE, epochs=EPOCHS, mode="frame",
                                   truncation=trunc, seed=seed, shuffle=False)
            runs.append((f"{arch}/{trunc}", lib.cells.build_model(cfg, seed=seed + 20 + i),
                         tc, lib.numerics.seeded_rng(seed), []))
        for _epoch in range(EPOCHS):
            for key, model, tc, rng, epoch_losses in runs:
                epoch_losses.append(train.sgd_epoch(model, env.train_set, tc, rng).mean_loss)
                yield key, "epoch"
        for key, model, _tc, _rng, epoch_losses in runs:
            result = train.evaluate(model, env.holdout)
            name = key.replace(":", "").replace("/", "-")
            train.checkpoint_save(model, os.path.join(workdir, f"sweep-{name}.json"))
            losses.append((key, epoch_losses))
            out[key] = (model, result)
            yield key, "final"


def eval_units(lib, env, out):
    """``diffrnn eval`` in process, one call per checkpoint."""
    while True:
        for arch, path in env.checkpoints.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = lib.cli.main(["eval", "--checkpoint", path, "--data", env.eval_jsonl])
            out[arch] = (code, buf.getvalue())
            if code != 0:
                raise RuntimeError(f"diffrnn eval {arch} exited {code}")
            yield arch


def predict_units(lib, env, order, out, sample, latencies):
    """One predict_sequence call per unit, between two short calibration
    probes: host speed can change from one call to the next, and a tail
    percentile is made of the calls it slowed.  ``latencies`` gets (call
    seconds, mean probe slowdown) per call."""
    predict = lib.cells.predict_sequence
    seqs = env.predict_set.sequences
    probe_ref = CAL_REF_S * PROBE_STEPS / CAL_STEPS
    while True:
        for i in order:
            t0 = time.perf_counter()
            calibration_unit(PROBE_STEPS)
            t1 = time.perf_counter()
            pred, probs = predict(env.predict_model, seqs[i].frames)
            t2 = time.perf_counter()
            calibration_unit(PROBE_STEPS)
            t3 = time.perf_counter()
            latencies.append((t2 - t1, (t1 - t0 + t3 - t2) / 2 / probe_ref))
            if i in sample:
                out[i] = (pred, probs)
            yield "predict"


def energy_units(lib, env, order, out, sample):
    model = env.predict_model
    seqs = env.eval_set.sequences
    while True:
        for i in order:
            for layer in range(len(model.config.layers)):
                e = lib.cells.dos_energy(model, seqs[i].frames, layer)
                if i in sample:
                    out[(i, layer)] = e
                yield i, layer


def gradcheck_units(lib, env, out):
    while True:
        for key, model, frames, label in env.gradcheck:
            report = lib.backprop.grad_check(model, frames, label)
            out[key] = report
            yield key


def ensemble_units(lib, w, env, seed, out):
    """One fit_ernn of orders 0..2, then predict_ensemble on every training
    sequence; each unit's duration is one ensemble_fit_s sample."""
    tc = lib.train.TrainConfig(learning_rate=LEARNING_RATE, epochs=ENSEMBLE_EPOCHS,
                               mode="frame", seed=seed, shuffle=False)
    while True:
        ens = lib.ensemble.fit_ernn(env.ensemble_set, ENSEMBLE_MAX_ORDER, tc, w.units)
        votes = [lib.ensemble.predict_ensemble(ens, s.frames)
                 for s in env.ensemble_set.sequences]
        out[:] = [(ens, votes)]
        yield "fit"


# ---------------------------------------------------------------------------
# One run


@dataclass
class Result:
    env: Env
    imports: tuple            # (raw, at reference speed) import times
    setups: tuple             # (raw, at reference speed) set-up times
    phases: dict
    latencies: list           # (predict seconds, probe slowdown) per call
    attempted: int
    checker: object


def run_workload(lib, name: str, seed: int, seconds: float, workdir: str, ref,
                 checker, tracer=None) -> Result:
    w = WORKLOADS[name]
    imports = ([], [])
    if tracer is None:
        imports = tuple(zip(*(import_time(ROOT / "src") for _ in range(IMPORT_REPEATS))))
    latest = []   # only the last set-up's Env is kept

    def one_setup():
        d = tempfile.mkdtemp(prefix="setup", dir=workdir)
        latest.clear()
        t0 = time.perf_counter()
        latest.append(setup(lib, w, seed, d))
        return time.perf_counter() - t0

    setups = bracketed(one_setup, SETUP_REPEATS)
    env = latest[0]

    rng = np.random.default_rng(seed)
    n_eval = len(env.eval_set.sequences)
    order = [int(i) for i in rng.permutation(n_eval)]
    sample = {int(i) for i in rng.choice(n_eval, size=min(CHECK_SAMPLE, n_eval), replace=False)}
    losses, trained, evals, predicts, energies, reports, ensembles = [], {}, {}, {}, {}, {}, []
    latencies = []
    n_layers = len(env.predict_model.config.layers)
    eval_frames = sum(len(s.frames) for s in env.eval_set.sequences)
    configs = [f"{a}/{t}" for a, t in SWEEP]
    phases = {
        "train": Phase("train", sweep_units(lib, w, env, seed, workdir, losses, trained),
                       {**{(c, "epoch"): EPOCHS for c in configs},
                        **{(c, "final"): 1 for c in configs}},
                       len(configs) * EPOCHS * len(env.train_set.sequences), w.shares["train"]),
        "eval": Phase("eval", eval_units(lib, env, evals), {a: 1 for a in env.checkpoints},
                      eval_frames * len(env.checkpoints), w.shares["eval"]),
        "predict": Phase("predict", predict_units(lib, env, order, predicts, sample, latencies),
                         {"predict": 1}, target=w.predict_passes * n_eval),
        "energy": Phase("energy", energy_units(lib, env, order, energies, sample),
                        {(i, l): 1 for i in range(n_eval) for l in range(n_layers)},
                        eval_frames * n_layers, w.shares["energy"]),
        "gradcheck": Phase("gradcheck", gradcheck_units(lib, env, reports),
                           {k: 1 for k, _m, _f, _l in env.gradcheck},
                           sum(checks.param_count(m) for _k, m, _f, _l in env.gradcheck),
                           w.shares["gradcheck"]),
        "ensemble": Phase("ensemble", ensemble_units(lib, w, env, seed, ensembles),
                          {"fit": 1}, 1, w.shares["ensemble"]),
        "host": Phase("host", host_units(), {"host": 1}, 1, HOST_SHARE),
    }

    def on_error(line, exc):
        checker.check("operation", False, line)
        traceback.print_exception(exc, file=sys.stderr)

    run_phases(list(phases.values()), seconds, on_error)
    if tracer is not None:
        tracer.uninstall()
    attempted = sum(p.count for name, p in phases.items() if name != "host")

    # -- correctness, outside the timed region ----------------------------
    seqs = env.eval_set.sequences
    for i in sorted(sample):
        check_seq = seqs[i].frames
        for arch, path in env.checkpoints.items():
            model = lib.train.checkpoint_load(path)
            checks.check_logits(checker, ref, f"forward {arch} seq {i} (T={len(check_seq)})",
                                model, check_seq, lib.cells.stack_forward(model, check_seq).logits)
        if i in predicts:
            pred, probs = predicts[i]
            frames = env.predict_set.sequences[i].frames
            checks.check_predict(checker, ref, f"predict seq {i} (T={len(frames)})",
                                 env.predict_model, frames, pred, probs)
        for layer in range(n_layers):
            if (i, layer) in energies:
                checks.check_energy(checker, ref, f"dos_energy seq {i} layer {layer}",
                                    env.predict_model, check_seq, layer, energies[(i, layer)])
    for arch, (code, text) in evals.items():
        checks.check_eval_output(checker, ref, f"eval {arch}",
                                 lib.train.checkpoint_load(env.checkpoints[arch]),
                                 env.eval_set, code, text)
    for key, epoch_losses in losses:
        checks.check_loss_drop(checker, f"train {key} loss", epoch_losses)
    for key, (model, result) in trained.items():
        frames = env.holdout.sequences[0].frames
        checks.check_logits(checker, ref, f"trained {key} forward", model, frames,
                            lib.cells.stack_forward(model, frames).logits)
        checker.check(f"train {key} holdout", int(result.confusion.sum())
                      == len(env.holdout.sequences), f"confusion {result.confusion.tolist()}")
    for key, model, _frames, _label in env.gradcheck:
        if key in reports:
            checks.check_gradcheck(checker, f"grad_check {key}", model, reports[key])
    for ens, votes in ensembles:
        checks.check_ensemble(checker, ref, "ensemble", ens, env.ensemble_set, votes)
    return Result(env, imports, setups, phases, latencies, attempted, checker)


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(res: Result) -> tuple[dict, dict]:
    """(metrics at the reference host speed, raw measurements)."""
    p = res.phases
    slowdown = slowdown_from(p["host"].log)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = []
    for scaled, slow in ((0, None), (1, slowdown)):
        lat = [t / s if scaled else t for t, s in res.latencies]
        out.append({
            "setup_s": (statistics.median(res.imports[scaled]) if res.imports[scaled] else 0.0)
            + statistics.median(res.setups[scaled]),
            "train_seq_per_s": p["train"].rate(slow),
            "eval_frames_per_s": p["eval"].rate(slow),
            "predict_ms_p50": 1e3 * percentile(lat, 50),
            "predict_ms_p99": 1e3 * percentile(lat, 99),
            "energy_frames_per_s": p["energy"].rate(slow),
            "gradcheck_params_per_s": p["gradcheck"].rate(slow),
            "ensemble_fit_s": statistics.median(p["ensemble"].durations(slow)),
            "peak_rss_mb": rss,
        })
    return out[1], out[0]


def per_layer(summary: dict, extra: dict) -> dict:
    """Per-layer metrics from span summaries; metrics with no span come from
    ``extra``."""
    by_name: dict[str, dict] = {}
    for (name, _tag), s in summary.items():
        agg = by_name.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "amount": 0.0})
        for k in agg:
            agg[k] += s[k]
    out = {}
    for metric, _unit, span, field in PER_LAYER:
        if span is None:
            out[metric] = extra[metric]
        elif field.startswith("us_per_step:"):
            s = summary.get((span, field.split(":", 1)[1]))
            out[metric] = 1e6 * s["busy_s"] / s["amount"] if s and s["amount"] else 0.0
        else:
            out[metric] = by_name.get(span, {}).get(field, 0)
    return out


def measure_overhead(lib, env, w, seed) -> float:
    """Median over alternating pairs of traced / untraced time of one fixed
    probe (an lr-0 SGD epoch and an evaluate with a d2rnn:3 model), minus
    one.  Pairing cancels drift in host speed between the two sides."""
    model = lib.cells.build_model(lib.cli.build_config(PREDICT_ARCH, w.dim, w.units,
                                                       w.classes), seed=seed)
    tc = lib.train.TrainConfig(learning_rate=0.0, mode="frame", seed=seed, shuffle=False)

    def probe():
        t0 = time.perf_counter()
        lib.train.sgd_epoch(model, env.train_set, tc)
        lib.train.evaluate(model, env.holdout)
        return time.perf_counter() - t0

    ratios = []
    for _ in range(OVERHEAD_PAIRS):
        plain = probe()
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = probe()
        finally:
            tracer.uninstall()
        ratios.append(traced / plain)
    return statistics.median(ratios) - 1.0


# ---------------------------------------------------------------------------
# Provenance


def provenance(lib, name: str, seed: int, seconds: float, trace: int) -> dict:
    import ctypes
    import glob

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    for path in glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs",
                                       "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    w = WORKLOADS[name]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
        "numpy": np.__version__, "python": platform.python_version(),
        "commit": git_commit(ROOT),
        "inputs": {"task": w.task, "classes": w.classes, "dim": w.dim, "units": w.units,
                   "train_lengths": list(w.train_lengths),
                   "eval_lengths": list(w.eval_lengths),
                   "predict_lengths": list(w.predict_lengths), "holdout": w.holdout,
                   "sweep": [f"{a}/{t}" for a, t in SWEEP], "epochs": EPOCHS,
                   "infer_archs": list(w.infer_archs), "predict_arch": PREDICT_ARCH,
                   "gradcheck": [f"{a}x{u}" for a, u in w.gradcheck],
                   "gradcheck_seeds": w.gradcheck_seeds,
                   "ensemble_max_order": ENSEMBLE_MAX_ORDER},
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own git directory, read without running git;
    None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# Entry point


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    reference = ROOT / "tests" / "reference.py"
    if not (src / "diffrnn" / "__init__.py").is_file() or not reference.is_file():
        print(f"error: {ROOT} holds no diffrnn sources (src/diffrnn) and oracle "
              "(tests/reference.py); run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    lib = Lib()
    ref = checks.load_reference(reference)
    checker = checks.Checker()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        res = run_workload(lib, args.workload, args.seed, args.seconds, workdir, ref,
                           checker, tracer)
        if args.trace:
            host = res.phases["host"]
            metrics = per_layer(tracer.summary(), {
                "trace.overhead_frac": measure_overhead(lib, res.env, WORKLOADS[args.workload],
                                                        args.seed),
                "host.calibration_ms": 1e3 * host.spent / host.count})
            units = {m: u for m, u, _s, _f in PER_LAYER}
            raw = {}
        else:
            metrics, raw = end_to_end(res)
            units = dict(END_TO_END)

    print(json.dumps({"provenance": provenance(lib, args.workload, args.seed,
                                                 args.seconds, args.trace)}))
    if tracer is not None and tracer.absent:
        print("absent from the library (reported as 0): " + ", ".join(tracer.absent))
    lat = [t for t, _s in res.latencies]
    print(f"predict latency: {len(lat)} calls, {beyond(len(lat), 99)} beyond p99, "
          f"tail percentile with >=10 beyond: {tail_percentile(lat)}")
    failed = len(checker.failures)
    print(f"ops_attempted {res.attempted} checks {checker.checks} failed {failed} "
          f"ops_failed_frac {failed / max(res.attempted, 1):.6g}")
    host = res.phases["host"]
    print(f"host calibration: {1e3 * host.spent / host.count:.4g} ms per unit over the run, "
          f"{1e3 * CAL_REF_S:.4g} ms at reference speed"
          + ("; metrics below are at reference speed, raw values in brackets" if raw else ""))
    for name, value in metrics.items():
        note = f" [raw {raw[name]:.6g}]" if name in raw else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": failed == 0, "attempted": res.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
