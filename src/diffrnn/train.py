"""Losses, plain SGD over sequences, metrics, and checkpointing.

Training follows the simplest protocol the method needs: one gradient step
per sequence (batch size 1), a fixed learning rate, a fixed epoch budget,
and optional max-norm gradient clipping.  Sequence-level classification
(loss and prediction at the final frame) is the default; frame mode sums
the per-frame losses instead.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .backprop import backward
from .cells import (
    CellKind,
    Model,
    StackConfig,
    class_decision,
    forward_set,
    layout,
    param_arrays,
    stack_forward,
)
from .numerics import ShapeMismatchError, seeded_rng, softmax


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; the epoch is aborted rather than skipped."""


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.0001
    epochs: int = 50
    mode: str = "sequence"            # "sequence" | "frame"
    truncation: str = "full"          # "full" | "truncated"
    seed: int = 0
    clip_norm: float | None = None
    shuffle: bool = True

    def __post_init__(self):
        # lr = 0 is allowed: a zero-rate epoch is a pure evaluation pass and
        # must leave the parameters untouched
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be a finite number >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.mode not in ("sequence", "frame"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.truncation not in ("full", "truncated"):
            raise ValueError(f"unknown truncation {self.truncation!r}")
        if self.clip_norm is not None and not 0 <= self.clip_norm < math.inf:
            raise ValueError("clip_norm must be a finite number >= 0")


@dataclass
class Metrics:
    mean_loss: float
    accuracy: float
    confusion: np.ndarray   # (k, k) counts, rows = true class


# ---------------------------------------------------------------------------
# Losses


def loss_frame(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Cross-entropy of the softmax read-out summed, in frame order, over the
    last ``len(labels)`` frames, and its float64 gradient at the (T, k)
    ``logits``: softmax minus one-hot on those frames, zero before them.
    Frame mode passes a label per frame; sequence mode ``[label]``, the
    final frame.  The probabilities are read as Python floats once, and the
    one-hot is subtracted there: the same float64 subtraction, without a
    numpy subscript per frame."""
    T, k = logits.shape
    n = len(labels)
    if n > T:
        raise ValueError(f"{n} labels for {T} frames")
    rows = softmax(logits[T - n:]).tolist()
    total = 0.0
    for row, c in zip(rows, labels):
        if not 0 <= c < k:
            raise IndexError(f"class index {c} out of range for {k} classes")
        total -= math.log(max(row[c], 1e-300))
        row[c] -= 1.0
    grad = np.zeros(logits.shape)
    grad[T - n:] = rows
    return total, grad


# ---------------------------------------------------------------------------
# Optimization


def apply_sgd_step(model: Model, grad: np.ndarray, lr: float,
                   clip_norm: float | None = None) -> None:
    """One step on the model's parameter vector along ``grad``, a gradient
    laid out like it, which is left as it is."""
    if clip_norm is not None:
        # a sum of per-array sums of squares, not one sum over the vector:
        # the two round differently
        norm = math.sqrt(sum(float(np.sum(a * a)) for _, a in param_arrays(model.layout, grad)))
        if norm > clip_norm:
            grad = grad * (clip_norm / norm)
    theta = model.theta
    theta -= lr * grad


def _zero_confusion(model: Model, dataset, verb: str) -> np.ndarray:
    """The (k, k) confusion matrix to fill, once ``dataset`` is known to be
    non-empty and to have the model's k classes."""
    if not dataset.sequences:
        raise ValueError(f"cannot {verb} on an empty dataset")
    k = len(dataset.class_names)
    if k != model.config.output_classes:
        raise ValueError(f"dataset has {k} classes but the model has "
                         f"{model.config.output_classes}")
    return np.zeros((k, k), dtype=np.int64)


def sgd_epoch(model: Model, dataset, config: TrainConfig,
              rng: np.random.Generator | None = None) -> Metrics:
    """One pass over the dataset, updating the model in place."""
    seqs = dataset.sequences
    confusion = _zero_confusion(model, dataset, "train")
    order = np.arange(len(seqs))
    if config.shuffle:
        if rng is None:
            rng = seeded_rng(config.seed)
        rng.shuffle(order)
    total_loss = 0.0
    truncated = config.truncation == "truncated"
    for idx in order:
        seq = seqs[idx]
        tape = stack_forward(model, seq.frames)
        labels = [seq.label] if config.mode == "sequence" else seq.frame_labels
        if labels is None:
            labels = [seq.label] * len(seq.frames)
        loss, dlogits = loss_frame(tape.logits, labels)
        if not math.isfinite(loss):
            raise TrainingDivergedError(
                f"non-finite loss on sequence {seq.id!r}: {loss}")
        total_loss += loss
        confusion[seq.label, class_decision(tape.logits)] += 1
        grad = backward(model, tape, dlogits, truncated=truncated)
        apply_sgd_step(model, grad, config.learning_rate, config.clip_norm)
    accuracy = float(np.trace(confusion)) / len(seqs)
    return Metrics(mean_loss=total_loss / len(seqs), accuracy=accuracy,
                   confusion=confusion)


def train(model: Model, dataset, config: TrainConfig) -> list[Metrics]:
    """Run the full epoch budget; returns per-epoch metrics."""
    rng = seeded_rng(config.seed)
    return [sgd_epoch(model, dataset, config, rng) for _ in range(config.epochs)]


def evaluate(model: Model, dataset) -> Metrics:
    """Accuracy and confusion matrix of the sequences' ``class_decision``.
    The whole set runs through one ``forward_set`` call; losses are summed
    in dataset order."""
    confusion = _zero_confusion(model, dataset, "evaluate")
    total_loss = 0.0
    all_logits = forward_set(model, [seq.frames for seq in dataset.sequences])
    for seq, logits in zip(dataset.sequences, all_logits):
        loss, _ = loss_frame(logits, [seq.label])
        total_loss += loss
        confusion[seq.label, class_decision(logits)] += 1
    n = len(dataset.sequences)
    return Metrics(mean_loss=total_loss / n,
                   accuracy=float(np.trace(confusion)) / n,
                   confusion=confusion)


# ---------------------------------------------------------------------------
# Checkpointing

CHECKPOINT_VERSION = 1


def _container_doc(theta: np.ndarray, fields) -> dict:
    """The arrays in ``theta`` of a container laid out as ``fields``
    (``layout``): plain arrays first, then the per-order dicts keyed by
    str(order)."""
    doc = {}
    for name, per_order, entries in sorted(fields, key=lambda f: f[1]):
        arrays = {n: theta[a:b].reshape(shape).tolist() for n, a, b, shape in entries}
        doc[name] = {str(n): m for n, m in arrays.items()} if per_order else arrays[None]
    return doc


def _typed(value, kind: type, what: str):
    """``value`` if its type is exactly ``kind``: neither ``true`` nor
    ``2.0`` passes as an int."""
    if type(value) is not kind:
        raise CheckpointError(f"{what} must be {kind.__name__}, got {value!r}")
    return value


def _orders_text(orders) -> str:
    """A sorted sequence of derivative orders in a few words, however long."""
    if len(orders) <= 4:
        return f"orders {list(orders)}"
    return f"{len(orders)} orders {orders[0]}..{orders[-1]}"


def _theta_from_doc(config: StackConfig, doc: dict) -> np.ndarray:
    """The parameter vector of a ``config`` model read from checkpoint
    ``doc``, in one walk over ``layout(config)``: per layer its type tag
    against its key in the layout, per field its JSON type, its ``str(n)``
    order keys and orders, and per array its shape.  Every array is checked
    before the vector is allocated.  A value that does not parse raises a
    CheckpointError, one that does not fit the config a ShapeMismatchError
    naming it."""
    lay = layout(config)
    # every layer must be an object with a type tag before the count means much
    tags = [d["type"] for d in doc["layers"]]
    if len(tags) != len(config.layers):
        raise ShapeMismatchError(f"config lists {len(config.layers)} layers, "
                                 f"got {len(tags)}")
    arrays = []
    for li, (key, fields, _) in enumerate(lay):
        if li < len(tags):
            (kind, _units), d, prefix = config.layers[li], doc["layers"][li], f"layer{li}."
            tag = tags[li]
            if tag not in ("cell", "rnn"):     # the layout keys of layers
                raise CheckpointError(f"unknown layer type {tag!r}")
            if tag != key:
                raise ShapeMismatchError(f"layer {li}: a {kind.kind} layer cannot hold "
                                         f"{tag!r} weights")
        else:
            d, prefix = doc["output"], "output."
        for name, per_order, entries in fields:
            value = d[name]
            if isinstance(value, dict) != per_order:
                raise CheckpointError(f"{name} must be " + (
                    "a dict of per-order matrices" if per_order else "an array"))
            if per_order:
                if any(n != str(int(n)) for n in value):
                    raise CheckpointError(f"{name} has keys {list(value)}, not all orders")
                have, need = sorted(map(int, value)), [n for n, *_ in entries]
                if have != need:
                    raise ShapeMismatchError(
                        f"layer {li}: {name} holds {_orders_text(have)}, "
                        f"{kind.kind}:{kind.order} needs {_orders_text(need)}")
            for n, _, _, shape in entries:
                a = np.asarray(value if n is None else value[str(n)], dtype=np.float64)
                if a.shape != shape:
                    where = prefix + name + ("" if n is None else f"[{n}]")
                    raise ShapeMismatchError(f"{where} has shape {a.shape}, expected {shape}")
                arrays.append(a.ravel())
    return np.concatenate(arrays)


def model_to_doc(model: Model) -> dict:
    return {
        "format_version": CHECKPOINT_VERSION,
        "seed": model.seed,
        "config": {
            "layers": [[kind.kind, kind.order, units]
                       for kind, units in model.config.layers],
            "input_units": model.config.input_units,
            "output_classes": model.config.output_classes,
            "tie_gate_hidden_weights": model.config.tie_gate_hidden_weights,
        },
        "layers": [{"type": key, **_container_doc(model.theta, fields)}
                   for key, fields, _ in model.layout[:-1]],
        "output": _container_doc(model.theta, model.layout[-1][1]),
    }


def model_from_doc(doc: dict) -> Model:
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise CheckpointError("not a checkpoint file")
    if type(doc["format_version"]) is not int or doc["format_version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {doc['format_version']}")
    try:
        cfg = doc["config"]
        # CellKind rejects a kind that is not one of its names (strings)
        config = StackConfig(
            layers=tuple((CellKind(kind, _typed(order, int, "layer order")),
                          _typed(units, int, "layer units"))
                         for kind, order, units in cfg["layers"]),
            input_units=_typed(cfg["input_units"], int, "input_units"),
            output_classes=_typed(cfg["output_classes"], int, "output_classes"),
            tie_gate_hidden_weights=_typed(cfg.get("tie_gate_hidden_weights", False), bool,
                                           "tie_gate_hidden_weights"),
        )
        seed = _typed(doc.get("seed", 0), int, "seed")
        theta = _theta_from_doc(config, doc)
    except CheckpointError:     # raised here on purpose: it says what is wrong
        raise
    except ShapeMismatchError as exc:   # it names the first array that does not fit
        raise CheckpointError(str(exc)) from exc
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    model = Model(config, theta, seed)
    if not np.isfinite(model.theta).all():
        name = next(name for name, a in param_arrays(model.layout, model.theta)
                    if not np.isfinite(a).all())
        raise CheckpointError(f"{name} holds a non-finite value")
    return model


def checkpoint_save(model: Model, path) -> None:
    """Write the model as one JSON document; floats are serialized with
    Python's shortest round-trip repr, so loading is bitwise lossless.
    ``json.dumps`` encodes in C, where ``json.dump`` to a file takes the
    pure-Python encoder: the same bytes in about half the time."""
    with open(path, "w") as fh:
        fh.write(json.dumps(model_to_doc(model)) + "\n")


def checkpoint_load(path) -> Model:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:    # RecursionError: nested too deep
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return model_from_doc(doc)
