#!/usr/bin/env python3
"""Byte-identity check of the CLI's fixed-seed artifacts between two source trees.

Runs one fixed set of seeded ``diffrnn`` commands (synth; train in sequence
and frame mode, with full and truncated backprop, gradient clipping, PCA and
k-fold and Monte Carlo splits; ensemble; gradcheck; eval; dos-energy) once
under each tree, each run in its own empty directory, and compares every
exit code, stdout and stderr and every file the commands write:

    python3 scripts/artifact_parity.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories holding the ``diffrnn`` package
(a checkout's ``src``).  Exits 0 if everything is byte-identical, 1 at the
first difference (naming it), and 2 if a command fails under either tree.
Uses the standard library only and runs in well under a minute.
"""
import argparse
import os
import subprocess
import sys
import tempfile

DATA = ["--data", "data.jsonl"]
SMALL = ["--state-units", "6", "--lr", "0.05", "--epochs", "3", "--seed", "1"]
CHECKPOINT = ["--checkpoint", "seq_full/checkpoint_split0.json"]

# each command runs in the directory of the one before it
COMMANDS = [
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
    ["ensemble", *DATA, *SMALL, "--max-order", "2", "--mode", "frame",
     "--split", "kfold:2", "--out", "ensemble"],
    ["gradcheck", "--arch", "d2rnn:2", "--seed", "4"],
    ["gradcheck", "--arch", "rnn", "--classes", "2", "--len", "7"],
    ["eval", *CHECKPOINT, *DATA, "--out", "eval"],
    ["dos-energy", *CHECKPOINT, *DATA, "--layer", "2", "--index", "1"],
    ["dos-energy", *CHECKPOINT, *DATA, "--layer", "1", "--out", "energy.csv"],
]


def run_tree(src: str, work: str) -> list:
    """(command, exit code, stdout, stderr) of each command, run in ``work``
    with the ``diffrnn`` package of ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    results = []
    for cmd in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "diffrnn.cli", *cmd],
                              cwd=work, env=env, capture_output=True)
        results.append((" ".join(cmd), proc.returncode, proc.stdout, proc.stderr))
    return results


def tree_files(root: str) -> dict:
    files = {}
    for dirpath, _dirs, names in os.walk(root):
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
        for (cmd, rc_a, out_a, err_a), (_, rc_b, out_b, err_b) in zip(*runs):
            if rc_a != 0 or rc_b != 0:
                print(f"FAILED: `diffrnn {cmd}` exited {rc_a} (parent), "
                      f"{rc_b} (change)\n{err_a.decode()}{err_b.decode()}")
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
    print(f"IDENTICAL: {len(COMMANDS)} commands, {len(files_a)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
