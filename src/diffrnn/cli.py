"""Command-line surface.

Subcommands: synth, train, eval, gradcheck, dos-energy, ensemble.

Options resolve in three layers: built-in defaults, then a JSON config file
(--config), then explicit command-line flags (flags win).  The effective
configuration is echoed to the output directory so any run can be
reproduced from its artifacts alone.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import data as data_mod
from .backprop import grad_check
from .cells import (
    CellKind,
    StackConfig,
    build_model,
    d2rnn_config,
    dos_energy,
    predict_sequence,
    stacked_lstm_config,
)
from .data import DataFormatError, KFold, MonteCarlo
from .ensemble import ensemble_save, fit_ernn, predict_ensemble
from .train import (
    CheckpointError,
    TrainConfig,
    TrainingDivergedError,
    checkpoint_load,
    checkpoint_save,
    evaluate,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(ValueError):
    pass


@dataclass
class RunSpec:
    command: str
    config_path: str | None
    overrides: dict
    out: str | None
    flag_types: dict    # option name -> the type its flag parses

    def effective(self, defaults: dict) -> dict:
        cfg = dict(defaults)
        if self.config_path:
            try:
                with open(self.config_path) as fh:
                    file_cfg = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise DataFormatError(f"cannot read config {self.config_path}: {exc}")
            if not isinstance(file_cfg, dict):
                raise UsageError(f"config {self.config_path} is not a JSON object")
            unknown = set(file_cfg) - set(defaults)
            if unknown:
                raise UsageError(f"unknown config keys: {sorted(unknown)}")
            for key, value in file_cfg.items():
                # an int also fits a float flag; a bool fits only a bool
                parse = self.flag_types.get(key, type(defaults[key]))
                fits = (int, float) if parse is float else (parse,)
                unset = value is None and defaults[key] is None
                if type(value) not in fits and not unset:
                    raise UsageError(f"config key {key!r} must be "
                                     f"{parse.__name__}, got {value!r}")
            cfg.update(file_cfg)
        unknown = set(self.overrides) - set(defaults)
        if unknown:
            raise UsageError(f"unknown options: {sorted(unknown)}")
        cfg.update(self.overrides)
        return cfg


def parse_arch(spec: str):
    """Architecture string -> layer plan.

    lstm | rnn | stacked:L | drnn:N | d2rnn:L | dos:n
    d2rnn:L stacks single-order cells of orders 0..L-1.
    """
    name, _, arg = spec.partition(":")
    try:
        if name == "lstm" and not arg:
            return ("lstm", None)
        if name == "rnn" and not arg:
            return ("rnn", None)
        if name in ("stacked", "d2rnn", "drnn", "dos"):
            return (name, int(arg))
    except ValueError:
        pass
    raise UsageError(f"cannot parse architecture {spec!r}")


def build_config(arch: str, input_units: int, state_units: int, classes: int) -> StackConfig:
    kind, arg = parse_arch(arch)
    if kind == "lstm":
        return StackConfig(((CellKind("lstm"), state_units),), input_units, classes)
    if kind == "rnn":
        return StackConfig(((CellKind("rnn"), state_units),), input_units, classes)
    if kind == "stacked":
        return stacked_lstm_config(arg, input_units, state_units, classes)
    if kind == "d2rnn":
        return d2rnn_config(arg, input_units, state_units, classes)
    if kind == "drnn":
        return StackConfig(((CellKind("drnn", arg), state_units),), input_units, classes)
    return StackConfig(((CellKind("dos", arg), state_units),), input_units, classes)


def parse_split(spec: str, seed: int):
    if spec == "none":
        return None
    name, _, rest = spec.partition(":")
    try:
        if name == "kfold":
            return KFold(k=int(rest), seed=seed)
        if name == "mc":
            frac, _, trials = rest.partition(":")
            return MonteCarlo(train_fraction=float(frac),
                              trials=int(trials) if trials else 5, seed=seed)
    except ValueError:
        pass
    raise UsageError(f"cannot parse split {spec!r} (use kfold:K, mc:FRAC:TRIALS, none)")


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _echo_config(out_dir: str, spec: RunSpec, cfg: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    doc = {"command": spec.command, "config": cfg}
    with open(os.path.join(out_dir, "effective_config.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands


SYNTH_DEFAULTS = dict(task="velocity", classes=2, count=100, length=20, dim=16,
                      noise=0.05, seed=0)


def cmd_synth(spec: RunSpec) -> int:
    cfg = spec.effective(SYNTH_DEFAULTS)
    if spec.out is None:
        raise UsageError("synth requires --out FILE")
    if cfg["length"] < 4:
        print("warning: sequences shorter than 4 frames cannot fill the "
              "order-2 derivative window", file=sys.stderr)
    ds = data_mod.gen_synthetic(cfg["task"], cfg["classes"], cfg["count"],
                                cfg["length"], cfg["dim"], cfg["noise"],
                                cfg["seed"])
    data_mod.save_jsonl(ds, spec.out)
    counts = {}
    for seq in ds.sequences:
        counts[seq.label] = counts.get(seq.label, 0) + 1
    for label in sorted(counts):
        print(f"{ds.class_names[label]}: {counts[label]} sequences")
    print(f"wrote {len(ds.sequences)} sequences to {spec.out}")
    return EXIT_OK


TRAIN_DEFAULTS = dict(arch="d2rnn:3", state_units=16, split="none",
                      learning_rate=0.0001, epochs=50, mode="sequence",
                      truncation="full", seed=0, clip_norm=None,
                      shuffle=True, pca_energy=None)


def _splits_of(ds, split_spec, seed):
    plan = parse_split(split_spec, seed)
    if plan is None:
        idx = list(range(len(ds.sequences)))
        return [(idx, idx)]
    return data_mod.make_splits(ds, plan)


def _train_config(cfg) -> TrainConfig:
    return TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})


def _prepared(ds, train_idx, test_idx, pca_energy):
    train_set = ds.subset(train_idx)
    test_set = ds.subset(test_idx)
    if pca_energy is not None:
        t = data_mod.fit_preprocess(train_set, float(pca_energy))
        train_set = data_mod.apply_preprocess(t, train_set)
        test_set = data_mod.apply_preprocess(t, test_set)
    return train_set, test_set


def cmd_train(spec: RunSpec, data_path: str) -> int:
    cfg = spec.effective(TRAIN_DEFAULTS)
    if spec.out is None:
        raise UsageError("train requires --out DIR")
    ds = data_mod.load_jsonl(data_path)
    _echo_config(spec.out, spec, cfg)
    splits = _splits_of(ds, cfg["split"], cfg["seed"])
    tc = _train_config(cfg)
    loss_rows, metric_rows, accs = [], [], []
    for si, (train_idx, test_idx) in enumerate(splits):
        train_set, test_set = _prepared(ds, train_idx, test_idx, cfg["pca_energy"])
        model_cfg = build_config(cfg["arch"], train_set.feature_dim,
                                 cfg["state_units"], len(ds.class_names))
        model = build_model(model_cfg, seed=cfg["seed"] + si)
        history = train(model, train_set, tc)
        for ei, m in enumerate(history):
            loss_rows.append([si, ei, _fmt(m.mean_loss), _fmt(m.accuracy)])
        result = evaluate(model, test_set)
        metric_rows.append([si, len(test_set.sequences), _fmt(result.accuracy),
                            _fmt(result.mean_loss)])
        accs.append(result.accuracy)
        checkpoint_save(model, os.path.join(spec.out, f"checkpoint_split{si}.json"))
    metric_rows.append(["mean", sum(r[1] for r in metric_rows),
                        _fmt(float(np.mean(accs))), ""])
    _write_csv(os.path.join(spec.out, "loss_epochs.csv"),
               ["split", "epoch", "mean_loss", "train_accuracy"], loss_rows)
    _write_csv(os.path.join(spec.out, "metrics.csv"),
               ["split", "n_test", "accuracy", "mean_loss"], metric_rows)
    print(f"mean accuracy over {len(splits)} split(s): {float(np.mean(accs)):.4f}")
    return EXIT_OK


def cmd_eval(spec: RunSpec, checkpoint: str, data_path: str) -> int:
    model = checkpoint_load(checkpoint)
    ds = data_mod.load_jsonl(data_path)
    result = evaluate(model, ds)
    print(f"accuracy {result.accuracy:.4f} mean_loss {result.mean_loss:.6f}")
    k = len(ds.class_names)
    print("confusion matrix (rows = true class):")
    for r in range(k):
        print(" ".join(f"{int(result.confusion[r, c]):5d}" for c in range(k)))
    if spec.out:
        os.makedirs(spec.out, exist_ok=True)
        _write_csv(os.path.join(spec.out, "confusion.csv"),
                   ["true\\pred"] + list(ds.class_names),
                   [[ds.class_names[r]] + [int(v) for v in result.confusion[r]]
                    for r in range(k)])
        _write_csv(os.path.join(spec.out, "metrics.csv"),
                   ["accuracy", "mean_loss"],
                   [[_fmt(result.accuracy), _fmt(result.mean_loss)]])
    return EXIT_OK


GRADCHECK_DEFAULTS = dict(arch="dos:1", state_units=5, input_dim=4, classes=3,
                          length=5, seed=0)


def cmd_gradcheck(spec: RunSpec) -> int:
    cfg = spec.effective(GRADCHECK_DEFAULTS)
    model_cfg = build_config(cfg["arch"], cfg["input_dim"], cfg["state_units"],
                             cfg["classes"])
    model = build_model(model_cfg, seed=cfg["seed"])
    rng = np.random.Generator(np.random.PCG64(cfg["seed"] + 1))
    frames = rng.normal(size=(cfg["length"], cfg["input_dim"]))
    report = grad_check(model, frames, label=0)
    print(report.format())
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def cmd_dos_energy(spec: RunSpec, checkpoint: str, data_path: str,
                   layer: int, index: int) -> int:
    model = checkpoint_load(checkpoint)
    ds = data_mod.load_jsonl(data_path)
    if not 0 <= index < len(ds.sequences):
        raise DataFormatError(f"sequence index {index} out of range")
    energies = dos_energy(model, ds.sequences[index].frames, layer)
    orders = energies.shape[1]
    header = ["frame"] + [f"order{k}" for k in range(orders)]
    rows = [[t] + [_fmt(v) for v in energies[t]] for t in range(energies.shape[0])]
    if spec.out:
        _write_csv(spec.out, header, rows)
        print(f"wrote {energies.shape[0]} frames x {orders} orders to {spec.out}")
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(str(c) for c in row))
    return EXIT_OK


ENSEMBLE_DEFAULTS = dict(max_order=2, state_units=16, split="none",
                         learning_rate=0.0001, epochs=50, mode="sequence",
                         truncation="full", seed=0, clip_norm=None,
                         shuffle=True, pca_energy=None)


def cmd_ensemble(spec: RunSpec, data_path: str) -> int:
    cfg = spec.effective(ENSEMBLE_DEFAULTS)
    if spec.out is None:
        raise UsageError("ensemble requires --out DIR")
    ds = data_mod.load_jsonl(data_path)
    _echo_config(spec.out, spec, cfg)
    splits = _splits_of(ds, cfg["split"], cfg["seed"])
    tc = _train_config(cfg)
    n_members = cfg["max_order"] + 1
    member_accs = [[] for _ in range(n_members)]
    ens_accs = []
    for si, (train_idx, test_idx) in enumerate(splits):
        train_set, test_set = _prepared(ds, train_idx, test_idx, cfg["pca_energy"])
        ens = fit_ernn(train_set, cfg["max_order"], tc, cfg["state_units"])
        hits = [0] * n_members
        ens_hits = 0
        for seq in test_set.sequences:
            for mi, (model, _alpha) in enumerate(ens.members):
                if predict_sequence(model, seq.frames)[0] == seq.label:
                    hits[mi] += 1
            if predict_ensemble(ens, seq.frames)[0] == seq.label:
                ens_hits += 1
        n = len(test_set.sequences)
        for mi in range(n_members):
            member_accs[mi].append(hits[mi] / n)
        ens_accs.append(ens_hits / n)
        ensemble_save(ens, os.path.join(spec.out, f"ensemble_split{si}.json"))
    rows = [[f"dos:{mi}", _fmt(float(np.mean(member_accs[mi])))]
            for mi in range(n_members)]
    rows.append(["ensemble", _fmt(float(np.mean(ens_accs)))])
    _write_csv(os.path.join(spec.out, "metrics.csv"),
               ["model", "mean_accuracy"], rows)
    for name, acc in rows:
        print(f"{name:10s} {acc}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _add_common(p):
    p.add_argument("--config", help="JSON file of option defaults")
    p.add_argument("--seed", type=int, help="PRNG seed")
    p.add_argument("--out", help="output file or directory")


def _overrides(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def main(argv=None) -> int:
    parser = _Parser(prog="diffrnn",
                     description="differential recurrent network experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--task", choices=("velocity", "acceleration", "mixed"))
    p.add_argument("--classes", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--len", dest="length", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--noise", type=float)

    for name in ("train", "ensemble"):
        p = sub.add_parser(name, help=f"{name} on a dataset")
        _add_common(p)
        p.add_argument("--data", required=True)
        p.add_argument("--split")
        p.add_argument("--state-units", dest="state_units", type=int)
        p.add_argument("--lr", dest="learning_rate", type=float)
        p.add_argument("--epochs", type=int)
        p.add_argument("--mode", choices=("sequence", "frame"))
        p.add_argument("--truncation", choices=("full", "truncated"))
        p.add_argument("--clip-norm", dest="clip_norm", type=float)
        p.add_argument("--pca-energy", dest="pca_energy", type=float)
        if name == "train":
            p.add_argument("--arch")
        else:
            p.add_argument("--max-order", dest="max_order", type=int)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    _add_common(p)
    p.add_argument("--arch")
    p.add_argument("--state-units", dest="state_units", type=int)
    p.add_argument("--input-dim", dest="input_dim", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--len", dest="length", type=int)

    p = sub.add_parser("dos-energy", help="export per-frame derivative energies")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--index", type=int, default=0)

    args = parser.parse_args(argv)
    keys = {
        "synth": SYNTH_DEFAULTS, "train": TRAIN_DEFAULTS,
        "ensemble": ENSEMBLE_DEFAULTS, "gradcheck": GRADCHECK_DEFAULTS,
        "eval": {}, "dos-energy": {},
    }[args.command]
    spec = RunSpec(command=args.command, config_path=args.config,
                   overrides=_overrides(args, keys), out=args.out,
                   flag_types={a.dest: a.type or str
                               for a in sub.choices[args.command]._actions})
    try:
        if args.command == "synth":
            return cmd_synth(spec)
        if args.command == "train":
            return cmd_train(spec, args.data)
        if args.command == "eval":
            return cmd_eval(spec, args.checkpoint, args.data)
        if args.command == "gradcheck":
            return cmd_gradcheck(spec)
        if args.command == "dos-energy":
            return cmd_dos_energy(spec, args.checkpoint, args.data,
                                  args.layer, args.index)
        if args.command == "ensemble":
            return cmd_ensemble(spec, args.data)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, CheckpointError, FileNotFoundError, ValueError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergedError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
