"""Dense float64 math substrate: activations, softmax, PCA, seeded randomness.

Everything downstream (cells, training, data generation) goes through this
module so that numeric conventions live in one place:

* arrays are numpy float64, except that ``sigmoid`` and ``softmax`` keep
  their input's dtype so the forward pass and its read-out can also run in
  longdouble for gradient checks,
* randomness flows through numpy's PCG64 generator (O'Neill's permuted
  congruential generator, the documented default of ``numpy.random``),
  seeded explicitly, so a fixed seed reproduces every draw bit-for-bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes."""


class DegenerateDataError(ValueError):
    """Input data carries no usable variance."""


# bound once: one name lookup a call where ``np.exp`` takes two
_copysign, _exp, _sign, _fmax, _add, _divide = (
    np.copysign, np.exp, np.sign, np.fmax, np.add, np.divide)
# 0-d constants: a Python float operand takes numpy's slower weak-scalar
# promotion on every call
_MINUS_ONE, _ONE = np.array(-1.0), np.array(1.0)


def sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function, elementwise over a float64 or
    longdouble array ``v`` of one or more dimensions, in its dtype, written
    into ``out`` if given.  exp only ever sees -|v| (``copysign(v, -1)``),
    so it cannot overflow: 1 / (1 + e) for v >= 0, e / (1 + e) below.  The
    numerator max(sign v, e) picks between them without a branch, since
    e <= 1 and e = 1 at v = 0; every non-NaN input gives bitwise the
    two-branch result.  ``fmax`` serves as ``maximum`` (sign v and e are NaN
    for the same inputs) and, unlike it, takes ``out`` positionally, which
    is cheaper than by keyword."""
    e = _copysign(v, _MINUS_ONE)
    _exp(e, e)
    num = _sign(v, out)
    _fmax(num, e, num)
    _add(e, _ONE, e)
    return _divide(num, e, num)


def softmax(y: np.ndarray) -> np.ndarray:
    """Probabilities from confidence scores along the last axis, so one call
    reads out a (k,) score vector or a (T, k) sequence of them, in the dtype
    of ``y``; max-subtraction keeps exp from overflowing."""
    y = np.asarray(y)
    if y.ndim == 0 or y.shape[-1] == 0:
        raise ShapeMismatchError(f"softmax needs a nonempty last axis, got {y.shape}")
    z = np.exp(y - y.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# PCA


@dataclass(frozen=True)
class PcaTransform:
    """Projection onto the leading principal components of the fitted data.

    ``basis`` has one orthonormal row per retained component (components x
    input dim), sorted by decreasing eigenvalue.  The sign of each row is
    fixed so its largest-magnitude entry is positive, making the fit
    deterministic for a given input order.
    """

    mean: np.ndarray
    basis: np.ndarray

    @property
    def n_components(self) -> int:
        return self.basis.shape[0]

    @property
    def input_dim(self) -> int:
        return self.basis.shape[1]


def pca_fit(samples, energy: float = 0.9) -> PcaTransform:
    """Fit PCA to ``samples``, an (n, d) array of n samples or anything
    ``np.asarray`` makes one of, retaining the smallest component count
    whose cumulative eigenvalue mass reaches ``energy``."""
    if not 0.0 < energy <= 1.0:
        raise ValueError(f"energy must lie in (0, 1], got {energy}")
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DegenerateDataError("PCA needs at least 2 samples of equal dimension")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    total = float(np.sum(eigvals))
    if total <= 1e-12:
        raise DegenerateDataError("covariance is zero: all samples identical")
    cum = np.cumsum(eigvals) / total
    k = int(np.searchsorted(cum, energy - 1e-12) + 1)
    k = min(k, len(eigvals))
    basis = eigvecs[:, :k].T.copy()
    for row in basis:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaTransform(mean=mean, basis=basis)


def pca_apply(t: PcaTransform, v: np.ndarray) -> np.ndarray:
    """Project a (d,) vector, or each row of a (T, d) array, onto the basis.
    A batched matmul of one column per row keeps every row bitwise equal to
    ``basis @ (row - mean)``; ``(v - mean) @ basis.T`` would round
    differently."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != t.input_dim:
        raise ShapeMismatchError(
            f"transform expects (d,) or (T, d) with d = {t.input_dim}, got shape {v.shape}"
        )
    return np.matmul(t.basis, (v - t.mean)[..., None])[..., 0]


# ---------------------------------------------------------------------------
# Randomness


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic generator; PCG64 keyed through numpy's SeedSequence."""
    return np.random.Generator(np.random.PCG64(seed))
