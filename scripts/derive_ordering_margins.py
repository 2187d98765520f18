#!/usr/bin/env python3
"""Derive the architecture-ordering margins used by the acceptance suite.

Runs the acceleration-task comparison (d2rnn:3 vs stacked:3 vs lstm, matched
state units) over 5-fold cross-validation for several seeds and records the
per-seed accuracies and the mean margins to tests/data/ordering_margins.json.
The acceptance test replays one seed of this experiment and checks the
recorded numbers, so regenerate the file whenever the experiment config,
the generator, or the training loop changes:

    python3 scripts/derive_ordering_margins.py
"""
import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from diffrnn.cells import build_model
from diffrnn.cli import build_config
from diffrnn.data import KFold, gen_synthetic, make_splits
from diffrnn.train import TrainConfig, evaluate, train

EXPERIMENT = dict(
    task="acceleration", classes=2, count=40, length=10, dim=8,
    noise_sigma=0.3, data_seed=1,
    state_units=8, folds=5, seeds=[0, 1, 2, 3, 4],
    epochs=25, learning_rate=0.02, mode="frame",
)


# recorded name -> architecture string of ``diffrnn train --arch``
ARCHS = {"d2rnn3": "d2rnn:3", "stacked3": "stacked:3", "lstm": "lstm"}


def run_arch(name, dataset, seed, exp):
    """5-fold mean accuracy for one architecture and fold-shuffle seed."""
    tc = TrainConfig(epochs=exp["epochs"], learning_rate=exp["learning_rate"],
                     mode=exp["mode"], seed=0)
    accs = []
    for si, (train_idx, test_idx) in enumerate(
            make_splits(dataset, KFold(exp["folds"], seed=seed))):
        cfg = build_config(ARCHS[name], exp["dim"], exp["state_units"],
                           exp["classes"])
        model = build_model(cfg, seed=seed * 10 + si)
        train(model, dataset.subset(train_idx), tc)
        accs.append(evaluate(model, dataset.subset(test_idx)).accuracy)
    return float(np.mean(accs))


def derive(exp):
    dataset = gen_synthetic(exp["task"], exp["classes"], exp["count"],
                            exp["length"], exp["dim"], exp["noise_sigma"],
                            exp["data_seed"])
    per_seed = {name: [] for name in ARCHS}
    for seed in exp["seeds"]:
        for name in per_seed:
            acc = run_arch(name, dataset, seed, exp)
            per_seed[name].append(acc)
        print(f"seed {seed}: " + " ".join(
            f"{n}={per_seed[n][-1]:.3f}" for n in per_seed))
    means = {n: float(np.mean(v)) for n, v in per_seed.items()}
    return {
        "experiment": exp,
        "per_seed_accuracy": per_seed,
        "mean_accuracy": means,
        "margin_vs_stacked3": means["d2rnn3"] - means["stacked3"],
        "margin_vs_lstm": means["d2rnn3"] - means["lstm"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "..", "tests", "data",
        "ordering_margins.json"))
    args = parser.parse_args()
    result = derive(EXPERIMENT)
    print(f"mean accuracies: {result['mean_accuracy']}")
    print(f"margin vs stacked3: {result['margin_vs_stacked3']:+.4f}")
    print(f"margin vs lstm:     {result['margin_vs_lstm']:+.4f}")
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
