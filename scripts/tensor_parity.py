#!/usr/bin/env python3
"""Bitwise check of the library's float results between two source trees.

The CLI cannot build tied or mixed stacks or call ``backward`` on its own,
so this dumps, under each tree, the library's results for a fixed set of
tiny seeded models and compares them bit for bit:

* 3-epoch training histories (loss, accuracy, confusion) and the trained
  parameters, for rnn, lstm, stacked:3, dos:0-2, drnn:2, d2rnn:3, a mixed
  rnn/drnn:1/lstm stack, dos:5 and drnn:6 (orders whose lags reach past
  the start of these short sequences), each with and without tied gate
  hidden weights, in full and truncated backprop, sequence and frame mode,
  with no clipping and with clip norm 0.5;
* per trained model, the logits, the gradients ``backward`` gives on a
  held-out sequence, ``evaluate`` on the held-out set and ``dos_energy`` of
  every gated layer, bottom up, then top down (``.../descending``), then,
  in a stack of two or more gated layers, a first call for the second of
  them on a fresh copy of the model (``.../cold``), then bottom up and top
  down on a longdouble copy of the model, both calls of each layer under
  one key (``.../longdouble``), then top down again after one in-place SGD
  step of the same model along those gradients (``.../stepped``);
* per trained model, ``evaluate`` and every sequence's logits on a ragged,
  unsorted set (lengths 1..LENGTH, with repeats), where sequences of
  different lengths share a time loop: the logits come from the set-level
  ``forward_set``;
* an ensemble ``fit_ernn`` fits on a ragged training set (its boosting scan
  runs on ragged sequences), with its member weights and parameters and
  each member's decisions on the ragged set (from ``predict_set``);
* per architecture, with and without tied gate hidden weights, the
  parameter vector of a freshly built model (``{arch}/tie={tie}/init``),
  which gates the initial draw order, and the bytes of its checkpoint
  document, ``json.dumps(model_to_doc(model))`` as uint8
  (``{arch}/tie={tie}/checkpoint``);
* per architecture, with and without tied gate hidden weights, the float64
  last-frame logits ``forward_rows`` gives for three perturbed parameter
  vectors of that fresh model stepped together as rows, each with its own
  weights (``{arch}/tie={tie}/rows``): the per-row weight path, derivative
  blocks and tied hidden blocks included, compared bitwise in float64;
* one ``grad_check`` report per architecture, with and without tied gate
  hidden weights (``{arch}/grad_check*`` and ``{arch}/tie=True/grad_check*``);
* the benchmark's criterion-1 ``grad_check`` reports at its exact shapes
  (input 4, T=5, 3 classes; lstm, dos:1, dos:2 and drnn:2 at 6 units,
  d2rnn:3 at 5), built as the benchmark builds them at run seed 0, for
  seeds 0-2, and of a tied rnn + drnn:2 stack (``criterion1/...`` keys);
* the PCA projection ``apply_preprocess`` gives on noisy 16-dim data, fitted
  at energies 0.9 and 1.0, so that every frame goes through a many-component
  projection;
* at the benchmark's training shapes (dim 16, 16 units, T=20, frame mode),
  3-epoch training histories and trained parameters, and the logits and
  ``backward`` gradients on a held-out sequence, for lstm, dos:2, drnn:2 and
  d2rnn:3, each with and without tied gate hidden weights, in full and
  truncated backprop (``bench/...`` keys);
* ``backward`` gradients of one fresh model per architecture at 64 units
  and T=50 (dim 64; lstm, dos:2, drnn:2 and d2rnn:3, full and truncated;
  ``wide/...`` keys), and of a drnn:3 layer over 1 and 2 frames, fewer
  than its highest order (``short/...`` keys).

    python3 scripts/tensor_parity.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories holding the ``diffrnn`` package
(a checkout's ``src``).  Prints the maximum absolute deviation of every key
that differs, and its ratio to the parent's largest magnitude under that
key, and exits 1 if any does, 0 if every key is bitwise equal.
Uses numpy and the standard library only and runs in well under a minute.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np

ARCHS = {
    "rnn": [("rnn", 0)],
    "lstm": [("lstm", 0)],
    "stacked:3": [("lstm", 0)] * 3,
    "dos:0": [("dos", 0)],
    "dos:1": [("dos", 1)],
    "dos:2": [("dos", 2)],
    "drnn:2": [("drnn", 2)],
    "d2rnn:3": [("dos", 0), ("dos", 1), ("dos", 2)],
    "mixed": [("rnn", 0), ("drnn", 1), ("lstm", 0)],
    # orders high enough that their derivative windows reach past the start
    "dos:5": [("dos", 5)],
    "drnn:6": [("drnn", 6)],
}
DIM, UNITS, CLASSES, LENGTH, COUNT = 3, 3, 3, 6, 9
# lengths of the ragged set, one per generated sequence: unsorted, repeated
RAGGED = (3, 6, 1, 4, 6, 2, 5, 3, 1, 6, 4, 2)
# the benchmark's training shapes: input dim, units, frames, sequences
BENCH_DIM, BENCH_UNITS, BENCH_LENGTH, BENCH_COUNT = 16, 16, 20, 8
BENCH_ARCHS = ("lstm", "dos:2", "drnn:2", "d2rnn:3")
# the benchmark's criterion-1 checks: (arch, units) at input 4, T=5, 3 classes
GRADCHECKS = (("lstm", 6), ("dos:1", 6), ("dos:2", 6), ("drnn:2", 6), ("d2rnn:3", 5))
# wide backward gradients: units (= input dim) and frames
WIDE_UNITS, WIDE_LENGTH = 64, 50


def exact(a: np.ndarray) -> np.ndarray:
    """A longdouble array as its float64 leading part and remainder, stacked:
    the value exactly, without the padding bytes a comparison of bytes
    would see."""
    hi = a.astype(np.float64)
    return np.stack([hi, (a - hi).astype(np.float64)])


def dump(path: str) -> None:
    """Write every result of the tree on ``sys.path`` to ``path`` (.npz)."""
    from diffrnn.backprop import backward, grad_check
    from diffrnn.cells import (CellKind, StackConfig, build_model, dos_energy, forward_rows,
                               forward_set, param_blocks, predict_set, stack_forward)
    from diffrnn.cli import build_config
    from diffrnn.data import Dataset, Sequence, apply_preprocess, fit_preprocess, gen_synthetic
    from diffrnn.ensemble import fit_ernn
    from diffrnn.numerics import seeded_rng
    from diffrnn.train import (TrainConfig, apply_sgd_step, evaluate, loss_frame,
                               model_to_doc, train)

    data = gen_synthetic("mixed", CLASSES, COUNT + CLASSES, LENGTH, DIM, 0.3, seed=7)
    train_set = Dataset(data.sequences[:COUNT], data.class_names)
    holdout = Dataset(data.sequences[COUNT:], data.class_names)
    probe = holdout.sequences[0]
    ragged = Dataset([Sequence(s.frames[:n], s.label, s.id)
                      for s, n in zip(data.sequences, RAGGED)], data.class_names)
    ragged_frames = [s.frames for s in ragged.sequences]
    out = {}

    def put_report(key, report):
        out[f"{key}/grad_check"] = np.array(
            [[e.analytic, e.numeric, e.rel_error] for e in report.entries])
        out[f"{key}/grad_check_summary"] = np.array([report.max_rel_error, report.passed])
        out[f"{key}/grad_check_names"] = np.array([e.name for e in report.entries])

    for ai, (arch, layers) in enumerate(ARCHS.items()):
        for tie in (False, True):
            config = StackConfig(tuple((CellKind(k, n), UNITS) for k, n in layers),
                                 DIM, CLASSES, tie_gate_hidden_weights=tie)
            for truncation in ("full", "truncated"):
                for mode in ("sequence", "frame"):
                    for clip in (None, 0.5):
                        key = f"{arch}/tie={tie}/{truncation}/{mode}/clip={clip}"
                        model = build_model(config, seed=ai)
                        history = train(model, train_set, TrainConfig(
                            learning_rate=0.1, epochs=3, mode=mode, truncation=truncation,
                            seed=3, clip_norm=clip))
                        out[key + "/history"] = np.array(
                            [[m.mean_loss, m.accuracy] for m in history])
                        out[key + "/confusion"] = np.array([m.confusion for m in history])
                        out[key + "/params"] = model.theta.copy()
                        tape = stack_forward(model, probe.frames)
                        out[key + "/logits"] = tape.logits
                        _, dlogits = loss_frame(tape.logits, probe.frame_labels)
                        out[key + "/grads"] = backward(model, tape, dlogits,
                                                       truncation == "truncated")
                        m = evaluate(model, holdout)
                        out[key + "/evaluate"] = np.array([m.mean_loss, m.accuracy])
                        out[key + "/evaluate_confusion"] = m.confusion
                        m = evaluate(model, ragged)
                        out[key + "/ragged_evaluate"] = np.array([m.mean_loss, m.accuracy])
                        out[key + "/ragged_evaluate_confusion"] = m.confusion
                        out[key + "/ragged_logits"] = np.concatenate(
                            forward_set(model, ragged_frames))
                        gated = [li for li, (kind, _units) in enumerate(config.layers)
                                 if kind.kind != "rnn"]
                        for li in gated:
                            out[f"{key}/dos_energy{li}"] = dos_energy(model, probe.frames, li)
                        # again top down, then after an in-place step of the
                        # same model object: what a model keeps of the last
                        # sequence's layers must never be served stale
                        for li in gated[::-1]:
                            out[f"{key}/dos_energy{li}/descending"] = dos_energy(
                                model, probe.frames, li)
                        # a first call for the second gated layer, on a copy
                        # that holds no states yet
                        if len(gated) > 1:
                            out[f"{key}/dos_energy{gated[1]}/cold"] = dos_energy(
                                replace(model), probe.frames, gated[1])
                        # a longdouble copy, bottom up then top down: its
                        # states are kept across calls as the float64 ones
                        ld = replace(model, theta=model.theta.astype(np.longdouble))
                        energies = {li: [] for li in gated}
                        for li in gated + gated[::-1]:
                            energies[li].append(exact(dos_energy(ld, probe.frames, li)))
                        for li in gated:
                            out[f"{key}/dos_energy{li}/longdouble"] = np.stack(energies[li])
                        apply_sgd_step(model, out[key + "/grads"], 0.1, clip)
                        for li in gated[::-1]:
                            out[f"{key}/dos_energy{li}/stepped"] = dos_energy(
                                model, probe.frames, li)
        for tie in (False, True):
            model = build_model(StackConfig(tuple((CellKind(k, n), UNITS) for k, n in layers),
                                            DIM, CLASSES, tie_gate_hidden_weights=tie), seed=ai)
            out[f"{arch}/tie={tie}/init"] = model.theta.copy()
            out[f"{arch}/tie={tie}/checkpoint"] = np.frombuffer(
                json.dumps(model_to_doc(model)).encode(), dtype=np.uint8)
            noise = np.random.default_rng(ai).normal(scale=0.1, size=(3, model.theta.size))
            vectors = model.theta + noise
            # the rows' last frame: a tree from before per-frame rows gives
            # it alone, as (rows, classes)
            rows = forward_rows(model, param_blocks(model.layout, vectors), probe.frames)
            out[f"{arch}/tie={tie}/rows"] = rows.reshape(len(vectors), -1, CLASSES)[:, -1]
            put_report(f"{arch}/tie=True" if tie else arch,
                       grad_check(model, probe.frames[:4], probe.label))
    tied = StackConfig(((CellKind("rnn"), 6), (CellKind("drnn", 2), 6)), 4, 3,
                       tie_gate_hidden_weights=True)
    for s in range(3):
        frames = seeded_rng(100 + s).normal(size=(5, 4))
        for arch, units in GRADCHECKS:
            model = build_model(build_config(arch, 4, units, 3), seed=s)
            put_report(f"criterion1/{arch}/{s}", grad_check(model, frames, s % 3))
        put_report(f"criterion1/rnn+drnn:2/tie=True/{s}",
                   grad_check(build_model(tied, seed=s), frames, s % 3))
    ensemble = fit_ernn(ragged, 2, TrainConfig(learning_rate=0.1, epochs=2, seed=3), UNITS)
    out["ensemble/alphas"] = np.array([alpha for _, alpha in ensemble.members])
    for mi, (model, _alpha) in enumerate(ensemble.members):
        out[f"ensemble/member{mi}/params"] = model.theta.copy()
        out[f"ensemble/member{mi}/decisions"] = np.array(predict_set(model, ragged_frames))
    noisy = gen_synthetic("mixed", CLASSES, 12, 20, 16, 1.0, seed=11)
    for energy in (0.9, 1.0):
        projected = apply_preprocess(fit_preprocess(noisy, energy), noisy)
        out[f"pca/energy={energy}"] = np.stack([s.frames for s in projected.sequences])
    bench = gen_synthetic("acceleration", 2, BENCH_COUNT + 1, BENCH_LENGTH, BENCH_DIM, 0.05,
                          seed=13)
    bench_train = Dataset(bench.sequences[:BENCH_COUNT], bench.class_names)
    bench_probe = bench.sequences[BENCH_COUNT]
    for ai, arch in enumerate(BENCH_ARCHS):
        for tie in (False, True):
            config = StackConfig(tuple((CellKind(k, n), BENCH_UNITS) for k, n in ARCHS[arch]),
                                 BENCH_DIM, 2, tie_gate_hidden_weights=tie)
            for truncation in ("full", "truncated"):
                key = f"bench/{arch}/tie={tie}/{truncation}"
                model = build_model(config, seed=20 + ai)
                history = train(model, bench_train, TrainConfig(
                    learning_rate=0.05, epochs=3, mode="frame", truncation=truncation, seed=3))
                out[key + "/history"] = np.array([[m.mean_loss, m.accuracy] for m in history])
                out[key + "/params"] = model.theta.copy()
                tape = stack_forward(model, bench_probe.frames)
                out[key + "/logits"] = tape.logits
                _, dlogits = loss_frame(tape.logits, bench_probe.frame_labels)
                out[key + "/grads"] = backward(model, tape, dlogits, truncation == "truncated")
    for ai, arch in enumerate(BENCH_ARCHS):
        config = StackConfig(tuple((CellKind(k, n), WIDE_UNITS) for k, n in ARCHS[arch]),
                             WIDE_UNITS, 3)
        model = build_model(config, seed=30 + ai)
        frames = seeded_rng(31 + ai).normal(size=(WIDE_LENGTH, WIDE_UNITS))
        tape = stack_forward(model, frames)
        _, dlogits = loss_frame(tape.logits, [t % 3 for t in range(WIDE_LENGTH)])
        for truncation in ("full", "truncated"):
            out[f"wide/{arch}/{truncation}"] = backward(model, tape, dlogits,
                                                        truncation == "truncated")
    model = build_model(StackConfig(((CellKind("drnn", 3), UNITS),), DIM, CLASSES), seed=40)
    for steps in (1, 2):
        tape = stack_forward(model, seeded_rng(41).normal(size=(steps, DIM)))
        _, dlogits = loss_frame(tape.logits, [1] * steps)
        for truncation in ("full", "truncated"):
            out[f"short/drnn:3/T={steps}/{truncation}"] = backward(model, tape, dlogits,
                                                                   truncation == "truncated")
    np.savez(path, **out)


def run_dump(src: str, path: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", path],
                   env=env, check=True)


def max_deviation(a: np.ndarray, b: np.ndarray) -> str:
    if a.shape != b.shape or a.dtype != b.dtype:
        return f"{a.dtype}{a.shape} vs {b.dtype}{b.shape}"
    if a.dtype.kind not in "fiub":
        return f"{int(np.sum(a != b))} entries differ"
    diff = np.nanmax(np.abs(a.astype(np.float64) - b.astype(np.float64)), initial=0.0)
    scale = np.nanmax(np.abs(a.astype(np.float64)), initial=0.0)
    return f"max |difference| {diff:.3e} ({diff / scale if scale else np.inf:.3e} of the largest)"


def compare(parent_path: str, change_path: str) -> int:
    with np.load(parent_path) as p, np.load(change_path) as c:
        parent, change = dict(p), dict(c)
    differ = 0
    for key in sorted(set(parent) | set(change)):
        if key not in parent or key not in change:
            print(f"DIFFERS {key}: only under the {'parent' if key in parent else 'change'}")
            differ += 1
        elif (parent[key].shape != change[key].shape or parent[key].dtype != change[key].dtype
              or parent[key].tobytes() != change[key].tobytes()):
            print(f"DIFFERS {key}: {max_deviation(parent[key], change[key])}")
            differ += 1
    if differ:
        print(f"{differ} of {len(set(parent) | set(change))} keys differ")
        return 1
    print(f"IDENTICAL: {len(parent)} keys")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", nargs="?")
    ap.add_argument("change_src", nargs="?")
    ap.add_argument("--dump", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return 0
    if not (args.parent_src and args.change_src):
        ap.error("need PARENT_SRC and CHANGE_SRC")
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{side}.npz") for side in ("parent", "change")]
        for src, path in zip((args.parent_src, args.change_src), paths):
            run_dump(src, path)
        return compare(*paths)


if __name__ == "__main__":
    sys.exit(main())
