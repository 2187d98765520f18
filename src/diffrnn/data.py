"""Datasets: synthetic generators, JSONL persistence, PCA preprocessing,
and cross-validation splitters.

The synthetic tasks are built so that class identity lives in the *dynamics*
of a latent trajectory rather than in any single frame:

* velocity      — classes differ only in the drift rate of the latent
                  position (per-step delta norm separates them).
* acceleration  — classes share the initial drift but differ in a constant
                  curvature, so only second-order structure separates them.
* mixed         — class identity is encoded jointly in (drift, curvature);
                  drifts and curvatures individually repeat across classes.

The latent scalar position is emitted through a fixed random projection into
feature space, plus optional isotropic noise.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .numerics import PcaTransform, pca_apply, pca_fit, seeded_rng


class DataFormatError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


@dataclass
class Sequence:
    frames: np.ndarray                 # (T, dim)
    label: int
    id: str = ""
    frame_labels: list[int] | None = None
    group: str | None = None           # optional source-group id for grouped folds

    def __post_init__(self):
        try:
            self.frames = np.asarray(self.frames, dtype=np.float64)
        except ValueError:
            # numpy's text for a ragged or nested list names no frame
            frames = self.frames if isinstance(self.frames, list) else []
            if any(not isinstance(f, list) or any(isinstance(v, list) for v in f)
                   for f in frames):
                raise ValueError("each frame must be a list of at least one number") from None
            if len({len(f) for f in frames}) > 1:
                raise ValueError("frames of differing lengths") from None
            raise
        shape = self.frames.shape
        if not shape or not shape[0]:
            raise ValueError("a sequence needs at least one frame")
        if len(shape) != 2 or not shape[1]:
            raise ValueError("each frame must be a list of at least one number")
        if self.frame_labels is not None and len(self.frame_labels) != len(self.frames):
            raise ValueError("frame_labels length must match frame count")


def _check_labels(seq: Sequence, k: int) -> None:
    """Raise ValueError unless the label and each frame label of ``seq`` is a
    Python or numpy integer, not a bool, in [0, k)."""
    frame_labels = [] if seq.frame_labels is None else seq.frame_labels
    for what, labels in (("label", [seq.label]), ("frame label", frame_labels)):
        if set(map(type, labels)) <= {int} and set(labels) <= set(range(k)):
            continue    # plain ints in range: checked without a Python-level loop
        for c in labels:
            if type(c) is bool or not isinstance(c, (int, np.integer)) or not 0 <= c < k:
                raise ValueError(f"{what} {c!r} is not an integer in [0, {k})")


@dataclass
class Dataset:
    sequences: list[Sequence]
    class_names: list[str]

    def __post_init__(self):
        k = len(self.class_names)
        for seq in self.sequences:
            _check_labels(seq, k)
            if seq.frames.shape[1] != self.feature_dim:
                raise ValueError("all sequences must share one feature dimension")

    @property
    def feature_dim(self) -> int:
        return self.sequences[0].frames.shape[1] if self.sequences else 0

    def subset(self, indices) -> "Dataset":
        return Dataset(sequences=[self.sequences[i] for i in indices],
                       class_names=list(self.class_names))


# ---------------------------------------------------------------------------
# Synthetic generation

_TASKS = ("velocity", "acceleration", "mixed")


def _task_params(task: str, classes: int):
    """Per-class (drift, curvature) of the latent position a(t)."""
    if task == "velocity":
        return [(0.1 + 0.4 * c, 0.0) for c in range(classes)]
    if task == "acceleration":
        # shared initial drift, class-specific curvature (sign-alternating so
        # trajectories stay bounded-ish over short horizons)
        return [(0.2, 0.02 * (c + 1) * (-1) ** c) for c in range(classes)]
    # mixed: drift repeats with period 2, curvature with period 3, so neither
    # alone identifies the class once there are > 2 classes
    return [(0.15 * (c % 2 + 1), 0.02 * (c % 3 + 1)) for c in range(classes)]


def gen_synthetic(task: str, classes: int, count: int, length: int, dim: int,
                  noise_sigma: float, seed: int) -> Dataset:
    """``count`` sequences total, labels cycling through the classes."""
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}, expected one of {_TASKS}")
    if length < 2 or dim < 1 or classes < 2 or count < 1 or not 0 <= noise_sigma < np.inf:
        raise ValueError("need length >= 2, dim >= 1, classes >= 2, count >= 1 "
                         "and a finite noise >= 0")
    rng = seeded_rng(seed)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    params = _task_params(task, classes)
    sequences = []
    for i in range(count):
        label = i % classes
        drift, curv = params[label]
        t = np.arange(1, length + 1, dtype=np.float64)
        position = drift * t + 0.5 * curv * t * t
        frames = np.outer(position, direction)
        if noise_sigma > 0:
            frames = frames + rng.normal(scale=noise_sigma, size=frames.shape)
        sequences.append(Sequence(frames=frames, label=label, id=f"{task}-{i:05d}",
                                  frame_labels=[label] * length))
    class_names = [f"class{c}" for c in range(classes)]
    return Dataset(sequences=sequences, class_names=class_names)


# ---------------------------------------------------------------------------
# JSONL persistence
#
# Line 1 is a header {"classes": [...]}, then one sequence per line:
# {"id": str, "label": int, "frames": [[...], ...],
#  "frame_labels": [...]?, "group": str?}


def save_jsonl(dataset: Dataset, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"classes": dataset.class_names}) + "\n")
        for seq in dataset.sequences:
            rec = {"id": seq.id, "label": int(seq.label),
                   "frames": seq.frames.tolist()}
            if seq.frame_labels is not None:
                rec["frame_labels"] = [int(c) for c in seq.frame_labels]
            if seq.group is not None:
                rec["group"] = seq.group
            fh.write(json.dumps(rec) + "\n")


def load_jsonl(path) -> Dataset:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError("line 1: no sequences (empty file)")
    try:
        header = json.loads(lines[0])
        class_names = header["classes"]
        if not (isinstance(class_names, list)
                and all(isinstance(c, str) for c in class_names)):
            raise TypeError(f"classes must be a list of strings, got {class_names!r}")
    except (json.JSONDecodeError, RecursionError, KeyError, TypeError) as exc:
        raise DataFormatError(f"line 1: bad header, expected {{\"classes\": [...]}}: {exc}")
    sequences = []
    dim = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            seq = Sequence(frames=rec["frames"], label=rec["label"],
                           id=str(rec.get("id", f"seq-{lineno}")),
                           frame_labels=rec.get("frame_labels"),
                           group=rec.get("group"))
            if not np.all(np.isfinite(seq.frames)):
                raise ValueError("frames hold a non-finite value")
            _check_labels(seq, len(class_names))
        except (json.JSONDecodeError, RecursionError, KeyError, TypeError, ValueError,
                OverflowError) as exc:
            raise DataFormatError(f"line {lineno}: {exc}")
        if dim is None:
            dim = seq.frames.shape[1]
        elif seq.frames.shape[1] != dim:
            raise DataFormatError(
                f"line {lineno}: frame dimension {seq.frames.shape[1]} != {dim}")
        sequences.append(seq)
    if not sequences:
        raise DataFormatError("line 1: no sequences")
    return Dataset(sequences=sequences, class_names=class_names)


# ---------------------------------------------------------------------------
# Cross-validation splits


@dataclass(frozen=True)
class KFold:
    k: int
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")


@dataclass(frozen=True)
class MonteCarlo:
    train_fraction: float = 0.8
    trials: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


def make_splits(dataset: Dataset, plan) -> list[tuple[list[int], list[int]]]:
    """List of (train indices, test indices) pairs.

    KFold: seeded shuffle, then k disjoint exhaustive test folds (not
    stratified).  MonteCarlo: per-class stratified draws; floor(fraction *
    class size) examples of each class go to train, the remainder to test,
    independently per trial.  A trial with no training example is a
    ValueError; its test side is never empty, as the fraction is below 1.
    """
    n = len(dataset.sequences)
    if isinstance(plan, KFold):
        if plan.k > n:
            raise ValueError(f"k must be in [2, {n}], got {plan.k}")
        rng = seeded_rng(plan.seed)
        order = np.arange(n)
        rng.shuffle(order)
        folds = np.array_split(order, plan.k)
        out = []
        for i in range(plan.k):
            test = sorted(int(j) for j in folds[i])
            train = sorted(int(j) for f in folds[:i] + folds[i + 1:] for j in f)
            out.append((train, test))
        return out
    if isinstance(plan, MonteCarlo):
        rng = seeded_rng(plan.seed)
        by_class: dict[int, list[int]] = {}
        for i, seq in enumerate(dataset.sequences):
            by_class.setdefault(seq.label, []).append(i)
        out = []
        for trial in range(plan.trials):
            train, test = [], []
            for label in sorted(by_class):
                idx = np.array(by_class[label])
                rng.shuffle(idx)
                n_train = int(len(idx) * plan.train_fraction)
                train.extend(int(j) for j in idx[:n_train])
                test.extend(int(j) for j in idx[n_train:])
            if not train:
                raise ValueError(f"Monte Carlo trial {trial}: a train fraction of "
                                 f"{plan.train_fraction:g} leaves no training sequence")
            out.append((sorted(train), sorted(test)))
        return out
    raise TypeError(f"unknown split plan {type(plan)}")


# ---------------------------------------------------------------------------
# PCA preprocessing (fit on training frames only)


def fit_preprocess(train_split: Dataset, energy: float = 0.9) -> PcaTransform:
    frames = [seq.frames for seq in train_split.sequences]
    return pca_fit(np.concatenate(frames) if frames else [], energy)


def apply_preprocess(t: PcaTransform, dataset: Dataset) -> Dataset:
    sequences = [replace(seq, frames=pca_apply(t, seq.frames)) for seq in dataset.sequences]
    return Dataset(sequences=sequences, class_names=list(dataset.class_names))
