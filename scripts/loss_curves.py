#!/usr/bin/env python3
"""Training-loss curves for every architecture on the synthetic velocity task.

Trains each architecture under the standard protocol (50 epochs, lr 1e-4,
frame-level loss) and writes one CSV of per-epoch mean losses, suitable for
plotting convergence comparisons:

    python3 scripts/loss_curves.py --out loss_curves.csv
"""
import argparse
import csv
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from diffrnn.cells import build_model
from diffrnn.cli import build_config
from diffrnn.data import gen_synthetic
from diffrnn.train import TrainConfig, train

# CSV name -> architecture string of ``diffrnn train --arch``
ARCHS = {"rnn": "rnn", "lstm": "lstm", "stacked3": "stacked:3", "dos1": "dos:1",
         "drnn2": "drnn:2", "d2rnn3": "d2rnn:3"}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="loss_curves.csv")
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--lr", type=float, default=0.0001)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--length", type=int, default=20)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--state-units", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    dataset = gen_synthetic("velocity", 2, args.count, args.length, args.dim,
                            noise_sigma=0.05, seed=args.seed)
    tc = TrainConfig(epochs=args.epochs, learning_rate=args.lr, mode="frame",
                     seed=args.seed)
    rows = []
    for name, arch in ARCHS.items():
        model = build_model(build_config(arch, args.dim, args.state_units, 2),
                            seed=args.seed)
        t0 = time.time()
        history = train(model, dataset, tc)
        elapsed = time.time() - t0
        for epoch, metrics in enumerate(history):
            rows.append([name, epoch, repr(metrics.mean_loss),
                         repr(metrics.accuracy)])
        ratio = history[-1].mean_loss / history[0].mean_loss
        print(f"{name:10s} first={history[0].mean_loss:.4f} "
              f"final={history[-1].mean_loss:.4f} ratio={ratio:.3f} "
              f"({elapsed:.1f}s)")
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arch", "epoch", "mean_loss", "train_accuracy"])
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
