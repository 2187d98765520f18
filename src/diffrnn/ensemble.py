"""Boosted ensemble of single-order differential cells.

Weak learner m is a one-layer ``dos`` cell of derivative order m (orders
0..N), trained independently; multiclass AdaBoost in the SAMME form combines
them.  Because the SGD loop takes no per-example weights, each member is
trained on a seeded weighted resample of the training set; the boosting
weights themselves are exact.

Member weight: alpha_m = ln((1 - err_m) / err_m) + ln(k - 1), with err_m the
boosting-weighted error on the (unresampled) training set.  A member no
better than chance (err >= (k-1)/k) gets weight 0 and the example weights
are reset to uniform; a perfect member's alpha is capped at ln(1e6) to keep
weights finite.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cells import CellKind, Model, StackConfig, build_model, predict_sequence, predict_set
from .data import Dataset
from .numerics import seeded_rng
from .train import TrainConfig, model_to_doc, train

ALPHA_CAP = math.log(1e6)


@dataclass
class EnsembleModel:
    members: list[tuple[Model, float]]   # (model, alpha >= 0)
    n_classes: int

    def __post_init__(self):
        if not any(a > 0 for _, a in self.members):
            raise ValueError("ensemble needs at least one positively weighted member")
        for i, (model, _alpha) in enumerate(self.members):
            if model.config.output_classes != self.n_classes:
                raise ValueError(f"member {i} has {model.config.output_classes} classes, "
                                 f"the ensemble {self.n_classes}")
            if model.config.input_units != self.members[0][0].config.input_units:
                raise ValueError(f"member {i} takes {model.config.input_units} inputs, "
                                 f"member 0 {self.members[0][0].config.input_units}")


def samme_round(is_wrong: np.ndarray, weights: np.ndarray, k: int):
    """One boosting round.  Returns (alpha, updated weights).

    ``is_wrong`` flags the examples the member misclassifies; ``weights`` is
    the current example distribution (sums to 1).
    """
    is_wrong = np.asarray(is_wrong, dtype=bool)
    weights = np.asarray(weights, dtype=np.float64)
    err = float(np.sum(weights[is_wrong]))
    chance = (k - 1) / k
    if err >= chance:
        # degenerate learner: drop it, restart the distribution
        return 0.0, np.full(len(weights), 1.0 / len(weights))
    if err <= 0.0:
        alpha = ALPHA_CAP
    else:
        alpha = min(math.log((1.0 - err) / err) + math.log(k - 1), ALPHA_CAP)
    new_w = weights * np.exp(alpha * is_wrong)
    new_w /= np.sum(new_w)
    return alpha, new_w


def _weighted_resample(dataset: Dataset, weights: np.ndarray,
                       rng: np.random.Generator) -> Dataset:
    n = len(dataset.sequences)
    idx = rng.choice(n, size=n, replace=True, p=weights)
    return dataset.subset(sorted(int(i) for i in idx))


def fit_ernn(dataset: Dataset, max_order: int, config: TrainConfig,
             state_units: int) -> EnsembleModel:
    """Train members of orders 0..max_order in sequence, boosting between.

    The first member trains on the whole set, so with ``max_order == 0`` it
    is exactly the model ordinary training would produce.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if not dataset.sequences:
        raise ValueError("cannot fit an ensemble on an empty dataset")
    k = len(dataset.class_names)
    n = len(dataset.sequences)
    weights = np.full(n, 1.0 / n)
    rng = seeded_rng(config.seed)
    members = []
    for order in range(max_order + 1):
        cfg = StackConfig(layers=((CellKind("dos", order), state_units),),
                          input_units=dataset.feature_dim, output_classes=k)
        model = build_model(cfg, seed=config.seed + order)
        train_set = dataset if np.allclose(weights, 1.0 / n) \
            else _weighted_resample(dataset, weights, rng)
        train(model, train_set, config)
        decisions = predict_set(model, [seq.frames for seq in dataset.sequences])
        is_wrong = np.array([pred != seq.label
                             for pred, seq in zip(decisions, dataset.sequences)])
        alpha, weights = samme_round(is_wrong, weights, k)
        members.append((model, alpha))
    if not any(a > 0 for _, a in members):
        # keep the ensemble usable: fall back to the first member
        members[0] = (members[0][0], 1.0)
    return EnsembleModel(members=members, n_classes=k)


def vote(e: EnsembleModel, decisions) -> tuple[int, np.ndarray]:
    """Weighted vote over the members' class decisions, one per member in
    member order (``None`` for a member of weight 0); ties break toward the
    lowest class index."""
    scores = np.zeros(e.n_classes)
    for (_model, alpha), pred in zip(e.members, decisions):
        if alpha > 0:
            scores[pred] += alpha
    return int(np.argmax(scores)), scores


def predict_ensemble(e: EnsembleModel, frames) -> tuple[int, np.ndarray]:
    """The vote over member decisions; a member of weight 0 is not run."""
    return vote(e, [predict_sequence(model, frames)[0] if alpha > 0 else None
                    for model, alpha in e.members])


# ---------------------------------------------------------------------------
# Persistence: a run's record, one JSON document embedding the member
# checkpoints; nothing reads it whole, each member reads with model_from_doc


def ensemble_save(e: EnsembleModel, path) -> None:
    doc = {
        "format_version": 1,
        "n_classes": e.n_classes,
        "members": [{"alpha": alpha, "checkpoint": model_to_doc(model)}
                    for model, alpha in e.members],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")     # see train.checkpoint_save
