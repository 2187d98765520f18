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
    MAX_ROWS,
    CellParams,
    Model,
    OutputParams,
    RnnParams,
    Tape,
    container_ends,
    dos,
    forward_rows,
    lag_weights,
    map_params,
    model_param_items,
    param_views,
    stack_forward,
)
from .numerics import softmax


@dataclass
class Gradients:
    """Shape-congruent mirror of a model's parameters: views into one
    ``vector`` laid out like the model's ``theta``."""

    layers: list
    output: OutputParams
    vector: np.ndarray


def _shifted(rows: np.ndarray) -> np.ndarray:
    """Row t holds row t-1 of ``rows``; row 0 is zero."""
    out = np.zeros_like(rows)
    out[1:] = rows[:-1]
    return out


def _cell_backward(params: CellParams, kind, ltape, dh_in, truncated, tie, grads, gblocks):
    """Backward through one gated layer.  ``dh_in`` is (T, units) gradient at
    the layer's hidden outputs; writes the weight gradients into ``grads``,
    whose arrays and fused blocks ``gblocks`` are views into one gradient
    vector, and returns dx (T, input_units).

    The time loop only carries the recurrences (state and hidden gradients);
    the gate derivative factors are formed for all T before it, and the
    weight gradients as single time-batched matmuls against the tape after
    it.  A step adds into held row views: ``dh[t - 1] += ...`` would fetch
    the row, add into it and then assign it back.  Truncation keeps only
    the order-0 DoS paths in the lag weights the state gradient flows
    through; otherwise the forward's lag weights serve, and with no DoS
    path left none are built.
    """
    T = ltape.s.shape[0]
    u = params.units
    flow = tuple(n for n in kind.dos_orders if not truncated or n == 0)
    if flow:
        lags, cur = ((ltape.lags, ltape.cur) if flow == kind.dos_orders
                     else lag_weights(params, flow))
        n_lags, cur_t = len(lags), cur.T
        # one product per step gives both dh[t-1] (block 0) and the lagged
        # state gradients (blocks 1..)
        back_t = np.concatenate([ltape.wh[None], lags]).transpose(0, 2, 1)
        back = np.empty((1 + n_lags, u, 1))
        back_h, back_lag = back[0, :, 0], back[1:, :, 0]
    else:
        n_lags, wh_t = 0, ltape.wh.T

    i_a, f_a, o_a, g_a, th_a = ltape.i, ltape.f, ltape.o, ltape.g, ltape.tanh_s
    d_th, d_o, d_g = 1.0 - th_a * th_a, 1.0 - o_a, 1.0 - g_a * g_a
    # the i and f gate gradients step as one (2, u) chain,
    # ((ds * [g, s_prev]) * [i, f]) * [1-i, 1-f]
    gs = np.empty((T, 2, u))
    gs[:, 0] = g_a
    gs[0, 1] = 0.0
    gs[1:, 1] = ltape.s[:-1]
    i_f = np.empty((T, 2, u))
    i_f[:, 0] = i_a
    i_f[:, 1] = f_a
    d_if = 1.0 - i_f
    dz_all = np.empty((T, 4 * u))
    dz_gates = dz_all.reshape(T, 4, u)
    dz_if, dzo_a, dzg_a = dz_gates[:, :2], dz_gates[:, 2], dz_gates[:, 3]
    dz_col = dz_all[:, :, None]
    dh = dh_in.copy()
    # newest-first like the forward's states: row T-1-t is time t, and lags
    # reaching before the sequence land in the padding rows from T on
    ds = np.zeros((T + n_lags, u))

    for t in range(T - 1, -1, -1):
        r = T - 1 - t
        dht, o_t, dst, dzo = dh[t], o_a[t], ds[r], dzo_a[t]
        dst += dht * o_t * d_th[t]
        np.multiply(dht, th_a[t], out=dzo)
        dzo *= o_t
        dzo *= d_o[t]
        if flow:
            dst += cur_t @ dzo
        dzif = np.multiply(dst, gs[t], out=dz_if[t])
        dzif *= i_f[t]
        dzif *= d_if[t]
        dzg = np.multiply(dst, i_a[t], out=dzg_a[t])
        dzg *= d_g[t]
        if t:       # nothing reaches before the sequence
            nxt, prev = ds[r + 1], dh[t - 1]
            nxt += dst * f_a[t]
            if flow:
                np.matmul(back_t, dz_col[t], out=back)
                prev += back_h
                win = ds[r + 1:r + 1 + n_lags]
                win += back_lag
            else:
                prev += wh_t @ dz_all[t]

    gwx, gwh, gb = gblocks
    np.matmul(dz_all.T, ltape.x, out=gwx)
    np.matmul(dz_all.T, _shifted(ltape.h), out=gwh)
    if tie:
        # w_ih serves the i, f and o rows, so it takes their summed gradient;
        # w_fh and w_oh are unused
        gwh[:u] += gwh[u:2 * u]
        gwh[:u] += gwh[2 * u:3 * u]
        gwh[u:3 * u] = 0.0
    for n in kind.dos_orders:
        d = dos(n, ltape.s)         # row t-1 is what the i/f gates see at t
        grads.w_id[n][...], grads.w_fd[n][...] = (dz_all[1:, :2 * u].T @ d[:-1]).reshape(2, u, u)
        np.matmul(dzo_a.T, d, out=grads.w_od[n])
    np.sum(dz_all, axis=0, out=gb)
    return dz_all @ ltape.wx


def _rnn_backward(params: RnnParams, ltape, dh_in, grads):
    T = ltape.h.shape[0]
    d_h = 1.0 - ltape.h * ltape.h
    w_hh_t = params.w_hh.T
    dh = dh_in.copy()
    dz_all = np.empty((T, params.units))
    for t in range(T - 1, -1, -1):
        dz = np.multiply(dh[t], d_h[t], out=dz_all[t])
        if t:
            prev = dh[t - 1]
            prev += w_hh_t @ dz
    np.matmul(dz_all.T, _shifted(ltape.h), out=grads.w_hh)
    np.matmul(dz_all.T, ltape.x, out=grads.w_hx)
    np.sum(dz_all, axis=0, out=grads.b_h)
    return dz_all @ params.w_hx


def backward(model: Model, tape: Tape, dlogits: np.ndarray, truncated: bool) -> Gradients:
    """Gradient of the loss given its gradient at the post-tanh logits,
    one row per frame (rows may be zero for frames that carry no loss).
    The gradients are views into one vector laid out like ``model.theta``."""
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != tape.logits.shape:
        raise ValueError(
            f"logit gradient shape {dlogits.shape} does not match tape "
            f"logits {tape.logits.shape}"
        )
    vector = np.empty(model.theta.size)
    (*layers, output), gates = param_views(model.layout, vector)
    du_all = dlogits * (1.0 - tape.logits ** 2)
    np.matmul(du_all.T, tape.layers[-1].h, out=output.w_yh)
    np.sum(du_all, axis=0, out=output.b_y)
    dh = du_all @ model.output.w_yh

    tie = model.config.tie_gate_hidden_weights
    for li in range(len(model.layers) - 1, -1, -1):
        kind, _units = model.config.layers[li]
        if kind.kind == "rnn":
            dh = _rnn_backward(model.layers[li], tape.layers[li], dh, layers[li])
        else:
            dh = _cell_backward(model.layers[li], kind, tape.layers[li], dh, truncated, tie,
                                layers[li], gates[li])
    grads = Gradients(layers=layers, output=output, vector=vector)
    if not np.isfinite(vector).all():
        for name, arr in model_param_items(grads):
            if not np.all(np.isfinite(arr)):
                raise FloatingPointError(f"non-finite gradient in {name}")
    return grads


# A chunk of grad_check rows holds at most MAX_ROWS perturbed models, and
# fewer where their working set would pass this many bytes; never fewer than
# one entry's two rows.
CHUNK_BYTES = 8 << 20


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

    The numeric side runs the production forward on a longdouble copy of
    the model: central differences of a float64 loss at h=1e-5 carry ~1e-11
    of cancellation noise, which would swamp honestly-tiny gradients deep in
    a stack.  Each entry's two perturbed models (+h and -h) are two rows of
    ``cells.forward_rows``, and up to ``MAX_ROWS`` rows step together, fewer
    where their working set would pass ``CHUNK_BYTES``.  A
    perturbation leaves the layers below its own unchanged, so a batch of
    rows starts at the layer of its first entry, from that layer's input in
    one unperturbed longdouble forward; output-layer entries cost only the
    last frame's projection.  Each row's loss is bitwise the one a
    whole-stack ``stack_forward`` of its model gives.  Relative error is
    |g_a - g_n| / max(|g_a|, |g_n|, 1e-8); the check passes iff the maximum
    over all parameters is below ``tol``.
    """
    from .train import loss_frame   # train imports this module

    tape = stack_forward(model, frames)
    _, dlogits = loss_frame(tape.logits, [label])
    analytic = backward(model, tape, dlogits, truncated=False).vector

    def to_ld(a):
        return a.astype(np.longdouble)

    ld_model = replace(model, layers=[map_params(to_ld, p) for p in model.layers],
                       output=map_params(to_ld, model.output))
    ld_tape = stack_forward(ld_model, frames)
    # the input of each layer and of the output projection, unperturbed
    inputs = [lt.x for lt in ld_tape.layers] + [ld_tape.layers[-1].h]
    # entry k lies in the first container (layer, or the output) ending past k
    ends = container_ends(model.layout)
    theta = ld_model.theta
    hl = np.longdouble(h)

    # entry k of both vectors is the k-th entry in C order of the arrays in
    # param_items order
    names = (f"{name}{list(idx)}" for name, arr in model_param_items(model)
             for idx in np.ndindex(arr.shape))
    entries = []
    # a row's working set: its parameter vector, the per-row weight stacks
    # its forward builds (lag weights, a tied hidden block: at most about
    # three times as large) and its activations, about 12 per unit and frame
    units = sum(u for _, u in model.config.layers)
    row_bytes = theta.itemsize * (4 * theta.size + 12 * len(frames) * units)
    per_call = max(1, min(MAX_ROWS, CHUNK_BYTES // row_bytes) // 2)
    for k0 in range(0, theta.size, per_call):
        ks = np.arange(k0, min(k0 + per_call, theta.size))
        plus = 2 * np.arange(len(ks))       # row 2i is entry ks[i] + h, row 2i+1 - h
        vectors = np.repeat(theta[None], 2 * len(ks), axis=0)
        vectors[plus, ks] = theta[ks] + hl
        vectors[plus + 1, ks] = theta[ks] - hl
        first = int(np.searchsorted(ends, k0, side="right"))
        logits = forward_rows(ld_model, vectors, inputs[first], first)
        loss = -np.log(softmax(logits)[:, label])
        numeric = (loss[plus] - loss[plus + 1]) / (2.0 * hl)
        for k, name, gn in zip(ks, names, numeric):
            gn, ga = float(gn), float(analytic[k])
            if not (math.isfinite(gn) and math.isfinite(ga)):
                raise FloatingPointError(f"non-finite gradient at {name}")
            rel = abs(ga - gn) / max(abs(ga), abs(gn), 1e-8)
            entries.append(GradCheckEntry(name=name, analytic=ga, numeric=gn, rel_error=rel))
    worst = max(entries, key=lambda e: e.rel_error)
    return GradCheckReport(entries=entries, max_rel_error=worst.rel_error,
                           worst=worst.name, passed=worst.rel_error < tol)
