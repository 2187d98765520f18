"""Reverse-mode gradients through a forward tape.

Two modes:

* full       — exact gradient of the loss, flowing through every path
               including the state-derivative terms in the gates.
* truncated  — identical except that gradient flow from the gate
               activations back INTO the state derivatives of order >= 1
               (velocity, acceleration, ...) is severed; errors may not
               re-enter the memory cell through those nodes.  Order-0 paths
               (the plain state term) are left intact so a cell with zeroed
               derivative matrices reduces to the conventional LSTM case.

Weight gradients for the derivative matrices themselves are computed in both
modes; truncation only stops the flow into the states behind the derivative.

``grad_check`` compares the full backward pass against central finite
differences parameter-by-parameter and is the module's own correctness
oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cells import (
    CellParams,
    Model,
    OutputParams,
    RnnParams,
    Tape,
    dos,
    gate_weight_stacks,
    lag_weights,
    param_fields,
    stack_forward,
)
from .numerics import softmax


@dataclass
class Gradients:
    """Shape-congruent mirror of a model's parameters."""

    layers: list
    output: OutputParams


def param_items(p, prefix=""):
    """Yield (name, array) for every array of a parameter container, in field
    order; a per-order dict field yields ``name[n]`` per order n, ascending."""
    for name, per_order in param_fields(type(p)):
        value = getattr(p, name)
        if per_order:
            for n in sorted(value):
                yield f"{prefix}{name}[{n}]", value[n]
        else:
            yield prefix + name, value


def map_params(fn, p):
    """A container of ``p``'s type holding ``fn(array)`` for each array."""
    kw = {}
    for name, per_order in param_fields(type(p)):
        value = getattr(p, name)
        kw[name] = {n: fn(m) for n, m in value.items()} if per_order else fn(value)
    return type(p)(**kw)


def model_param_items(obj):
    """Works for both Model and Gradients."""
    for li, p in enumerate(obj.layers):
        yield from param_items(p, f"layer{li}.")
    yield from param_items(obj.output, "output.")


def _cell_backward(params: CellParams, kind, ltape, dh_in, truncated, tie):
    """Backward through one gated layer.  ``dh_in`` is (T, units) gradient at
    the layer's hidden outputs; returns (grads, dx) with dx (T, input_units).

    The time loop only carries the recurrences (state and hidden gradients);
    all weight gradients are formed afterwards as single time-batched
    matmuls against the tape.  Truncation keeps only the order-0 DoS paths
    in the lag weights the state gradient flows through.
    """
    T = ltape.s.shape[0]
    u = params.units
    flow = tuple(n for n in kind.dos_orders if not truncated or n == 0)
    wx, wh, _bias = gate_weight_stacks(params, tie)
    lags, cur = lag_weights(params, flow)
    lags_t = lags.transpose(0, 2, 1)

    dz_all = np.empty((T, 4 * u))
    dh = dh_in.copy()
    # newest-first like the forward's states: row T-1-t is time t, and lags
    # reaching before the sequence land in the padding rows from T on
    ds = np.zeros((T + len(lags), u))
    i_a, f_a, o_a, g_a = ltape.i, ltape.f, ltape.o, ltape.g
    th_a, s_a = ltape.tanh_s, ltape.s

    for t in range(T - 1, -1, -1):
        r = T - 1 - t
        i_t, f_t, o_t, g_t, th = i_a[t], f_a[t], o_a[t], g_a[t], th_a[t]
        s_prev = s_a[t - 1] if t >= 1 else 0.0

        dht = dh[t]
        do = dht * th
        ds[r] += dht * o_t * (1.0 - th * th)
        dzo = do * o_t * (1.0 - o_t)
        if flow:
            ds[r] += cur.T @ dzo

        dst = ds[r]
        di = dst * g_t
        df = dst * s_prev
        dg = dst * i_t
        ds[r + 1] += dst * f_t

        dzg = dg * (1.0 - g_t * g_t)
        dzi = di * i_t * (1.0 - i_t)
        dzf = df * f_t * (1.0 - f_t)
        dz = np.concatenate([dzi, dzf, dzo, dzg])
        if flow:
            ds[r + 1:r + 1 + len(lags)] += (lags_t @ dz[:, None])[:, :, 0]
        dz_all[t] = dz
        if t >= 1:
            dh[t - 1] += wh.T @ dz

    h_prev_all = np.vstack([np.zeros(u), ltape.h[:-1]])
    gwx = (dz_all.T @ ltape.x).reshape(4, u, -1)
    gwh = (dz_all.T @ h_prev_all).reshape(4, u, u)
    if tie:
        gwh = (gwh[0] + gwh[1] + gwh[2], *np.zeros((2, u, u)), gwh[3])
    w_id, w_fd, w_od = {}, {}, {}
    for n in kind.dos_orders:
        d = dos(n, s_a)             # row t-1 is what the i/f gates see at t
        w_id[n], w_fd[n] = (dz_all[1:, :2 * u].T @ d[:-1]).reshape(2, u, u)
        w_od[n] = dz_all[:, 2 * u:3 * u].T @ d
    # the fused row blocks i, f, o, s are the fields' declaration order
    return (CellParams(*gwx, *gwh, w_id, w_fd, w_od, *dz_all.sum(axis=0).reshape(4, u)),
            dz_all @ wx)


def _rnn_backward(params: RnnParams, ltape, dh_in):
    T = ltape.h.shape[0]
    u = params.units
    dh = dh_in.copy()
    dz_all = np.empty((T, u))
    for t in range(T - 1, -1, -1):
        h_t = ltape.h[t]
        dz = dh[t] * (1.0 - h_t * h_t)
        dz_all[t] = dz
        if t >= 1:
            dh[t - 1] += params.w_hh.T @ dz
    h_prev_all = np.vstack([np.zeros(u), ltape.h[:-1]])
    return (RnnParams(w_hh=dz_all.T @ h_prev_all, w_hx=dz_all.T @ ltape.x,
                      b_h=dz_all.sum(axis=0)),
            dz_all @ params.w_hx)


def backward(model: Model, tape: Tape, dlogits: np.ndarray, truncated: bool) -> Gradients:
    """Gradient of the loss given its gradient at the post-tanh logits,
    one row per frame (rows may be zero for frames that carry no loss)."""
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != tape.logits.shape:
        raise ValueError(
            f"logit gradient shape {dlogits.shape} does not match tape "
            f"logits {tape.logits.shape}"
        )
    tie = model.config.tie_gate_hidden_weights
    du_all = dlogits * (1.0 - tape.logits ** 2)
    grads = Gradients(layers=[], output=OutputParams(
        w_yh=du_all.T @ tape.layers[-1].h, b_y=du_all.sum(axis=0)))
    dh = du_all @ model.output.w_yh

    for li in range(len(model.layers) - 1, -1, -1):
        kind, _units = model.config.layers[li]
        params = model.layers[li]
        ltape = tape.layers[li]
        if kind.kind == "rnn":
            g, dx = _rnn_backward(params, ltape, dh)
        else:
            g, dx = _cell_backward(params, kind, ltape, dh, truncated, tie)
        grads.layers.insert(0, g)
        dh = dx
    for name, arr in model_param_items(grads):
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError(f"non-finite gradient in {name}")
    return grads


def backward_full(model: Model, tape: Tape, dlogits) -> Gradients:
    return backward(model, tape, dlogits, truncated=False)


def backward_truncated(model: Model, tape: Tape, dlogits) -> Gradients:
    return backward(model, tape, dlogits, truncated=True)


@dataclass
class GradCheckEntry:
    name: str
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    max_rel_error: float
    worst: str
    passed: bool

    def format(self, limit: int = 20) -> str:
        lines = ["parameter analytic numeric rel_error"]
        worst_sorted = sorted(self.entries, key=lambda e: -e.rel_error)[:limit]
        for e in worst_sorted:
            lines.append(f"{e.name} {e.analytic:.10e} {e.numeric:.10e} {e.rel_error:.3e}")
        status = "PASS" if self.passed else "FAIL"
        lines.append(f"{status} max_rel_error={self.max_rel_error:.3e} worst={self.worst}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Finite-difference oracle


def grad_check(model: Model, frames: np.ndarray, label: int,
               h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Central finite differences vs. the full backward pass, every parameter.

    The numeric side runs ``stack_forward`` itself on a longdouble copy of
    the model: central differences of a float64 loss at h=1e-5 carry ~1e-11
    of cancellation noise, which would swamp honestly-tiny gradients deep in
    a stack.  Relative error is |g_a - g_n| / max(|g_a|, |g_n|, 1e-8); the
    check passes iff the maximum over all parameters is below ``tol``.
    """
    from .train import loss_frame   # train imports this module

    tape = stack_forward(model, frames)
    _, dlogits = loss_frame(tape.logits, [label])
    grads = backward_full(model, tape, dlogits)
    analytic = dict(model_param_items(grads))

    def to_ld(a):
        return a.astype(np.longdouble)

    ld_model = replace(model, layers=[map_params(to_ld, p) for p in model.layers],
                       output=map_params(to_ld, model.output))
    ld_frames = np.asarray(frames, dtype=np.longdouble)
    ld_shadow = dict(model_param_items(ld_model))
    hl = np.longdouble(h)

    def loss_now():
        return -np.log(softmax(stack_forward(ld_model, ld_frames).logits[-1])[label])

    entries = []
    for name, arr in model_param_items(model):
        ga = analytic[name]
        ld_arr = ld_shadow[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = ld_arr[idx]
            ld_arr[idx] = orig + hl
            lp = loss_now()
            ld_arr[idx] = orig - hl
            lm = loss_now()
            ld_arr[idx] = orig
            gn = float((lp - lm) / (2.0 * hl))
            if not (math.isfinite(gn) and math.isfinite(float(ga[idx]))):
                raise FloatingPointError(f"non-finite gradient at {name}{list(idx)}")
            rel = abs(float(ga[idx]) - gn) / max(abs(float(ga[idx])), abs(gn), 1e-8)
            entries.append(GradCheckEntry(
                name=f"{name}{list(idx)}", analytic=float(ga[idx]),
                numeric=gn, rel_error=rel))
    worst = max(entries, key=lambda e: e.rel_error)
    return GradCheckReport(entries=entries, max_rel_error=worst.rel_error,
                           worst=worst.name, passed=worst.rel_error < tol)
