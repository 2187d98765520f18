"""Command-line surface.

Subcommands: synth, train, eval, gradcheck, dos-energy, ensemble.

Each option is declared once, with its default, by its argparse flag.
synth, train, ensemble and gradcheck also read a JSON config file
(--config) keyed by those options' names; its values are parsed as the
command's preset values, and explicit flags still win.  The effective
configuration is echoed to the output directory so any run can be
reproduced from its artifacts alone.  An option value too large to
allocate is a usage error.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import data as data_mod
from .backprop import grad_check
from .cells import (
    CellKind,
    StackConfig,
    build_model,
    container_ends,
    d2rnn_config,
    dos_energy,
    layout,
    predict_set,
    stacked_lstm_config,
)
from .data import DataFormatError, KFold, MonteCarlo
from .ensemble import ensemble_save, fit_ernn, vote
from .numerics import pca_fit, seeded_rng
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


@contextlib.contextmanager
def _usage_errors():
    """A ValueError or MemoryError inside comes from option values alone,
    bad whatever the data: a usage error (exit 1), not a data error (exit 2)."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise UsageError(str(exc)) from exc


# Flags that name files: not config keys, and not echoed in the config.
FILE_FLAGS = ("config", "out", "data")


def _config_defaults(path: str, parser: argparse.ArgumentParser) -> dict:
    """The JSON object in ``path``, checked against ``parser``'s options:
    each key is an option name, and each value has the type its flag parses
    (an int also fits a float flag, a bool only a bool flag, and ``null``
    only an option whose default is unset) and is one of its choices."""
    try:
        with open(path) as fh:
            file_cfg = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # see train.checkpoint_load
        raise DataFormatError(f"cannot read config {path}: {exc}")
    if not isinstance(file_cfg, dict):
        raise UsageError(f"config {path} is not a JSON object")
    actions = {a.dest: a for a in parser._actions
               if a.default is not argparse.SUPPRESS and a.dest not in FILE_FLAGS}
    unknown = set(file_cfg) - set(actions)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in file_cfg.items():
        action = actions[key]
        parse = action.type or type(action.default)
        fits = (int, float) if parse is float else (parse,)
        unset = value is None and action.default is None
        if type(value) not in fits and not unset:
            raise UsageError(f"config key {key!r} must be "
                             f"{parse.__name__}, got {value!r}")
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"config key {key!r} must be one of "
                             f"{list(action.choices)}, got {value!r}")
    return file_cfg


def build_config(arch: str, input_units: int, state_units: int, classes: int) -> StackConfig:
    """Architecture string -> layer stack.

    lstm | rnn | stacked:L | drnn:N | d2rnn:L | dos:n
    d2rnn:L stacks single-order cells of orders 0..L-1.
    """
    name, _, arg = arch.partition(":")
    if name in ("lstm", "rnn") and not arg:
        return StackConfig(((CellKind(name), state_units),), input_units, classes)
    try:
        n = int(arg)
    except ValueError:
        name = None
    if name == "stacked":
        return stacked_lstm_config(n, input_units, state_units, classes)
    if name == "d2rnn":
        return d2rnn_config(n, input_units, state_units, classes)
    if name in ("drnn", "dos"):
        return StackConfig(((CellKind(name, n), state_units),), input_units, classes)
    raise UsageError(f"cannot parse architecture {arch!r}")


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
    except ValueError as exc:
        raise UsageError(f"bad split {spec!r}: {exc}") from exc
    raise UsageError(f"cannot parse split {spec!r} (use kfold:K, mc:FRAC:TRIALS, none)")


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _echo_config(args) -> None:
    os.makedirs(args.out, exist_ok=True)
    cfg = {k: v for k, v in vars(args).items()
           if k not in FILE_FLAGS + ("command", "run")}
    doc = {"command": args.command, "config": cfg}
    with open(os.path.join(args.out, "effective_config.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args) -> int:
    if args.out is None:
        raise UsageError("synth requires --out FILE")
    if args.length < 4:
        print("warning: sequences shorter than 4 frames cannot fill the "
              "order-2 derivative window", file=sys.stderr)
    with _usage_errors():
        ds = data_mod.gen_synthetic(args.task, args.classes, args.count,
                                    args.length, args.dim, args.noise, args.seed)
    data_mod.save_jsonl(ds, args.out)
    counts = {}
    for seq in ds.sequences:
        counts[seq.label] = counts.get(seq.label, 0) + 1
    for label in sorted(counts):
        print(f"{ds.class_names[label]}: {counts[label]} sequences")
    print(f"wrote {len(ds.sequences)} sequences to {args.out}")
    return EXIT_OK


def _run_settings(args, arch: str):
    """The set-up of a train or ensemble run of ``arch``: check ``--out`` and
    every option before any data is read (the model and PCA options on the
    smallest valid data: one input unit, two classes, two samples; that
    model's parameter vector is allocated, unfilled), read the
    data and echo the effective config.  Returns the train config, the
    dataset and each split's (train, test) sets, produced in split order,
    with PCA fitted on each training set as its split comes up."""
    if args.out is None:
        raise UsageError(f"{args.command} requires --out DIR")
    with _usage_errors():
        np.empty(container_ends(layout(build_config(arch, 1, args.state_units, 2)))[-1])
        seeded_rng(args.seed)
        if args.pca_energy is not None:
            pca_fit([[0.0], [1.0]], args.pca_energy)
        tc = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
        plan = parse_split(args.split, args.seed)
    ds = data_mod.load_jsonl(args.data)
    _echo_config(args)
    idx = list(range(len(ds.sequences)))
    splits = [(idx, idx)] if plan is None else data_mod.make_splits(ds, plan)

    def prepared():
        for train_idx, test_idx in splits:
            sets = ds.subset(train_idx), ds.subset(test_idx)
            if args.pca_energy is not None:
                t = data_mod.fit_preprocess(sets[0], float(args.pca_energy))
                sets = tuple(data_mod.apply_preprocess(t, s) for s in sets)
            yield sets
    return tc, ds, prepared()


def cmd_train(args) -> int:
    tc, ds, splits = _run_settings(args, args.arch)
    loss_rows, metric_rows, accs = [], [], []
    for si, (train_set, test_set) in enumerate(splits):
        model_cfg = build_config(args.arch, train_set.feature_dim,
                                 args.state_units, len(ds.class_names))
        model = build_model(model_cfg, seed=args.seed + si)
        history = train(model, train_set, tc)
        for ei, m in enumerate(history):
            loss_rows.append([si, ei, _fmt(m.mean_loss), _fmt(m.accuracy)])
        result = evaluate(model, test_set)
        metric_rows.append([si, len(test_set.sequences), _fmt(result.accuracy),
                            _fmt(result.mean_loss)])
        accs.append(result.accuracy)
        checkpoint_save(model, os.path.join(args.out, f"checkpoint_split{si}.json"))
    metric_rows.append(["mean", sum(r[1] for r in metric_rows),
                        _fmt(float(np.mean(accs))), ""])
    _write_csv(os.path.join(args.out, "loss_epochs.csv"),
               ["split", "epoch", "mean_loss", "train_accuracy"], loss_rows)
    _write_csv(os.path.join(args.out, "metrics.csv"),
               ["split", "n_test", "accuracy", "mean_loss"], metric_rows)
    print(f"mean accuracy over {len(accs)} split(s): {float(np.mean(accs)):.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = checkpoint_load(args.checkpoint)
    ds = data_mod.load_jsonl(args.data)
    result = evaluate(model, ds)
    print(f"accuracy {result.accuracy:.4f} mean_loss {result.mean_loss:.6f}")
    k = len(ds.class_names)
    print("confusion matrix (rows = true class):")
    for r in range(k):
        print(" ".join(f"{int(result.confusion[r, c]):5d}" for c in range(k)))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_csv(os.path.join(args.out, "confusion.csv"),
                   ["true\\pred"] + list(ds.class_names),
                   [[ds.class_names[r]] + [int(v) for v in result.confusion[r]]
                    for r in range(k)])
        _write_csv(os.path.join(args.out, "metrics.csv"),
                   ["accuracy", "mean_loss"],
                   [[_fmt(result.accuracy), _fmt(result.mean_loss)]])
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    with _usage_errors():   # every input is an option
        model_cfg = build_config(args.arch, args.input_dim, args.state_units,
                                 args.classes)
        model = build_model(model_cfg, seed=args.seed)
        rng = seeded_rng(args.seed + 1)
        frames = rng.normal(size=(args.length, args.input_dim))
        report = grad_check(model, frames, label=0)
    print(report.format())
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def cmd_dos_energy(args) -> int:
    model = checkpoint_load(args.checkpoint)
    ds = data_mod.load_jsonl(args.data)
    if not 0 <= args.index < len(ds.sequences):
        raise DataFormatError(f"sequence index {args.index} out of range")
    energies = dos_energy(model, ds.sequences[args.index].frames, args.layer)
    orders = energies.shape[1]
    header = ["frame"] + [f"order{k}" for k in range(orders)]
    rows = [[t] + [_fmt(v) for v in energies[t]] for t in range(energies.shape[0])]
    if args.out:
        _write_csv(args.out, header, rows)
        print(f"wrote {energies.shape[0]} frames x {orders} orders to {args.out}")
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(str(c) for c in row))
    return EXIT_OK


def cmd_ensemble(args) -> int:
    tc, _ds, splits = _run_settings(args, f"dos:{args.max_order}")
    n_members = args.max_order + 1
    member_accs = [[] for _ in range(n_members)]
    ens_accs = []
    for si, (train_set, test_set) in enumerate(splits):
        ens = fit_ernn(train_set, args.max_order, tc, args.state_units)
        # each member runs once over the test set; the ensemble votes on
        # their decisions, sequence by sequence
        frames = [seq.frames for seq in test_set.sequences]
        member_preds = [predict_set(m, frames) for m, _ in ens.members]
        decided = [(preds, seq.label)
                   for preds, seq in zip(zip(*member_preds), test_set.sequences)]
        n = len(decided)
        for mi in range(n_members):
            member_accs[mi].append(sum(preds[mi] == y for preds, y in decided) / n)
        ens_accs.append(sum(vote(ens, preds)[0] == y for preds, y in decided) / n)
        ensemble_save(ens, os.path.join(args.out, f"ensemble_split{si}.json"))
    rows = [[f"dos:{mi}", _fmt(float(np.mean(member_accs[mi])))]
            for mi in range(n_members)]
    rows.append(["ensemble", _fmt(float(np.mean(ens_accs)))])
    _write_csv(os.path.join(args.out, "metrics.csv"),
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


def _command(sub, name, run, help, config=True, out=True):
    p = sub.add_parser(name, help=help)
    p.set_defaults(run=run)
    if config:
        p.add_argument("--config", help="JSON file of option defaults")
        p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    if out:
        p.add_argument("--out", help="output file or directory")
    return p


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The command-line parser and its subcommands' parsers by name, built
    on first use and kept: building costs more than a small command runs."""
    parser = _Parser(prog="diffrnn",
                     description="differential recurrent network experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "synth", cmd_synth, "generate a synthetic dataset")
    p.add_argument("--task", choices=("velocity", "acceleration", "mixed"),
                   default="velocity")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--len", dest="length", type=int, default=20)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.05)

    for name, run in (("train", cmd_train), ("ensemble", cmd_ensemble)):
        p = _command(sub, name, run, f"{name} on a dataset")
        p.add_argument("--data", required=True)
        p.add_argument("--split", default="none")
        p.add_argument("--state-units", dest="state_units", type=int, default=16)
        p.add_argument("--lr", dest="learning_rate", type=float, default=0.0001)
        p.add_argument("--epochs", type=int, default=50)
        p.add_argument("--mode", choices=("sequence", "frame"), default="sequence")
        p.add_argument("--truncation", choices=("full", "truncated"), default="full")
        p.add_argument("--clip-norm", dest="clip_norm", type=float)
        p.add_argument("--pca-energy", dest="pca_energy", type=float)
        p.add_argument("--shuffle", action=argparse.BooleanOptionalAction,
                       default=True, help="shuffle the sequences every epoch")
        if name == "train":
            p.add_argument("--arch", default="d2rnn:3")
        else:
            p.add_argument("--max-order", dest="max_order", type=int, default=2)

    p = _command(sub, "eval", cmd_eval, "evaluate a checkpoint", config=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)

    p = _command(sub, "gradcheck", cmd_gradcheck,
                 "finite-difference gradient check", out=False)
    p.add_argument("--arch", default="dos:1")
    p.add_argument("--state-units", dest="state_units", type=int, default=5)
    p.add_argument("--input-dim", dest="input_dim", type=int, default=4)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--len", dest="length", type=int, default=5)

    p = _command(sub, "dos-energy", cmd_dos_energy,
                 "export per-frame derivative energies", config=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--index", type=int, default=0)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's checked values are the command's preset values;
            # argparse fills in only what they lack, so explicit flags win
            command = commands[args.command]
            preset = argparse.Namespace(command=args.command,
                                        **_config_defaults(args.config, command))
            args = command.parse_args(argv[1:], preset)
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, CheckpointError, OSError, ValueError,
            IndexError, MemoryError) as exc:   # too large for this data's width
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergedError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
