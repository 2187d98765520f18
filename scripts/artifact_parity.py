#!/usr/bin/env python3
"""Byte-identity check of the CLI's fixed-seed artifacts between two source trees.

Runs one fixed set of seeded ``diffrnn`` commands (synth; train in sequence
and frame mode, with full and truncated backprop, gradient clipping, PCA and
k-fold and Monte Carlo splits, and once from a config file that a flag
overrides; ensemble; gradcheck; eval; dos-energy; and
runs that must fail: a bad option value, a missing data file, a split too
large for the data, an unknown config key and ``eval`` of checkpoints that
each carry one defect) once under each tree, each
run in its own empty directory, and compares every exit code, stdout and
stderr and every file and directory the commands leave:

    python3 scripts/artifact_parity.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories holding the ``diffrnn`` package
(a checkout's ``src``).  Exits 0 if everything is byte-identical, 1 at the
first difference (naming it), and 2 if a command's exit code is not the one
it expects under either tree.
Uses the standard library only and runs in well under a minute.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile

DATA = ["--data", "data.jsonl"]
SMALL = ["--state-units", "6", "--lr", "0.05", "--epochs", "3", "--seed", "1"]
CHECKPOINT = ["--checkpoint", "seq_full/checkpoint_split0.json"]


def _misfit(path: tuple, value) -> str:
    """A hand-written checkpoint of one dos:1 layer, 1 unit over the data's
    5 dims, and 3 classes, whose document holds ``value`` at ``path``."""
    cell = {"type": "cell"}
    for g in "ifos":
        cell |= {f"w_{g}x": [[0.1] * 5], f"w_{g}h": [[0.2]], f"b_{g}": [0.0]}
    cell |= {f"w_{g}d": {"1": [[0.3]]} for g in "ifo"}
    doc = {"format_version": 1, "seed": 0,
           "config": {"layers": [["dos", 1, 1]], "input_units": 5, "output_classes": 3,
                      "tie_gate_hidden_weights": False},
           "layers": [cell], "output": {"w_yh": [[0.1]] * 3, "b_y": [0.0] * 3}}
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc) + "\n"


# checkpoints with one defect each, which ``eval`` must refuse
MISFITS = {
    "misfit_shape.json": _misfit(("layers", 0, "w_fx"), [[0.1] * 4]),
    "misfit_missing_order.json": _misfit(("layers", 0, "w_fd"), {}),
    "misfit_dict_for_array.json": _misfit(("layers", 0, "w_ix"), {"1": [[0.1] * 5]}),
    "misfit_order_key.json": _misfit(("layers", 0, "w_od"), {"01": [[0.3]]}),
    "misfit_non_finite.json": _misfit(("layers", 0, "b_o"), [float("inf")]),
    "misfit_missing_layer.json": _misfit(("config", "layers"), [["dos", 1, 1], ["lstm", 0, 1]]),
    "misfit_inflated_units.json": _misfit(("config", "layers", 0, 2), 10 ** 6),
}
# written into each run's directory before its first command
FILES = {"unknown_key.json": '{"epochs": 2, "no_such_option": 1}\n',
         "train_config.json": '{"arch": "dos:1", "mode": "frame", "epochs": 9}\n',
         **MISFITS}

# (expected exit code, command); each command runs in the directory of the
# one before it
COMMANDS = [(0, cmd) for cmd in [
    ["synth", "--task", "mixed", "--classes", "3", "--count", "18", "--len", "8",
     "--dim", "5", "--noise", "0.05", "--seed", "3", "--out", "data.jsonl"],
    ["train", *DATA, *SMALL, "--arch", "d2rnn:3", "--split", "kfold:3",
     "--out", "seq_full"],
    ["train", *DATA, *SMALL, "--arch", "rnn", "--truncation", "truncated",
     "--clip-norm", "0.5", "--out", "seq_trunc"],
    ["train", *DATA, *SMALL, "--arch", "stacked:2", "--mode", "frame",
     "--pca-energy", "0.9", "--split", "mc:0.7:2", "--out", "frame_full"],
    ["train", *DATA, *SMALL, "--arch", "drnn:2", "--mode", "frame",
     "--truncation", "truncated", "--clip-norm", "0.5", "--split", "kfold:2",
     "--out", "frame_trunc"],
    # the file sets arch, mode and epochs; SMALL's --epochs flag wins
    ["train", *DATA, "--config", "train_config.json", *SMALL, "--out", "from_config"],
    ["ensemble", *DATA, *SMALL, "--max-order", "2", "--mode", "frame",
     "--split", "kfold:2", "--out", "ensemble"],
    ["gradcheck", "--arch", "d2rnn:2", "--seed", "4"],
    ["gradcheck", "--arch", "rnn", "--classes", "2", "--len", "7"],
    ["eval", *CHECKPOINT, *DATA, "--out", "eval"],
    ["dos-energy", *CHECKPOINT, *DATA, "--layer", "2", "--index", "1"],
    ["dos-energy", *CHECKPOINT, *DATA, "--layer", "1", "--out", "energy.csv"],
]] + [
    # fail before the output directory is made
    (1, ["train", *DATA, *SMALL, "--epochs", "0", "--out", "bad_epochs"]),
    (2, ["train", "--data", "missing.jsonl", *SMALL, "--out", "missing"]),
    # 99 folds of 18 sequences: found after the config is echoed
    (2, ["ensemble", *DATA, *SMALL, "--split", "kfold:99", "--out", "k99"]),
    (1, ["train", *DATA, "--config", "unknown_key.json", "--out", "unknown"]),
] + [(2, ["eval", "--checkpoint", name, *DATA]) for name in MISFITS]


def run_tree(src: str, work: str) -> list:
    """(command, exit code, stdout, stderr) of each command, run in ``work``
    with the ``diffrnn`` package of ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for name, text in FILES.items():
        with open(os.path.join(work, name), "w") as fh:
            fh.write(text)
    results = []
    for _, cmd in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "diffrnn.cli", *cmd],
                              cwd=work, env=env, capture_output=True)
        results.append((" ".join(cmd), proc.returncode, proc.stdout, proc.stderr))
    return results


DIRECTORY = "directory"   # never equal to a file's bytes


def tree_files(root: str) -> dict:
    """Each file's bytes, and DIRECTORY for each directory, by relative path."""
    files = {}
    for dirpath, dirs, names in os.walk(root):
        for name in dirs:
            files[os.path.relpath(os.path.join(dirpath, name), root)] = DIRECTORY
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        works = [os.path.join(tmp, "parent"), os.path.join(tmp, "change")]
        runs = []
        for src, work in zip((args.parent_src, args.change_src), works):
            os.mkdir(work)
            runs.append(run_tree(src, work))
        for (expected, _), (cmd, rc_a, out_a, err_a), (_, rc_b, out_b, err_b) \
                in zip(COMMANDS, *runs):
            if rc_a != expected or rc_b != expected:
                print(f"FAILED: `diffrnn {cmd}` exited {rc_a} (parent), "
                      f"{rc_b} (change), expected {expected}\n"
                      f"{err_a.decode()}{err_b.decode()}")
                return 2
            for what, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
                if a != b:
                    print(f"DIFFERS: {what} of `diffrnn {cmd}`")
                    return 1
        files_a, files_b = tree_files(works[0]), tree_files(works[1])
        for name in sorted(set(files_a) | set(files_b)):
            if files_a.get(name) != files_b.get(name):
                print(f"DIFFERS: {name}")
                return 1
    n_files = sum(v is not DIRECTORY for v in files_a.values())
    print(f"IDENTICAL: {len(COMMANDS)} commands, {n_files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
