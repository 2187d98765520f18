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

from dataclasses import dataclass, replace

import numpy as np

from .cells import (
    MAX_ROWS,
    Model,
    Tape,
    container_ends,
    forward_rows,
    lag_weights,
    param_arrays,
    param_blocks,
    stack_forward,
)
from .numerics import softmax


def _shifted(rows: np.ndarray) -> np.ndarray:
    """Row t holds row t-1 of ``rows``; row 0 is zero."""
    out = np.zeros_like(rows)
    out[1:] = rows[:-1]
    return out


def _cell_backward(wd, kind, ltape, dh_in, truncated, tie, gblocks):
    """Backward through one gated layer, whose derivative block is ``wd``.
    ``dh_in`` is (T, units) gradient at the layer's hidden outputs; writes
    the weight gradients into ``gblocks``, the layer's blocks (``layout``)
    in the gradient vector, and returns dx (T, input_units).

    The time loop only carries the recurrences (state and hidden gradients);
    the gate derivative factors are formed for all T before it, as blocks
    that let one product serve several gradients, and the weight gradients
    as single time-batched matmuls against the tape after it.  The loop
    iterates per-step views, newest step first, and adds into them in
    place: ``dh[t - 1] += ...`` would fetch the row, add into it and then
    assign it back.  The state gradient flows back through the DoS paths
    as ``lag_weights`` of ``wd``, whose transpose maps each step's gate
    gradients onto the states the derivatives read; truncation keeps only
    the order-0 paths, and with no DoS path left none are built.  The
    derivative weights' gradients read the forward's derivatives.
    """
    T, u = ltape.s.shape
    # either every order or a prefix of them: order 0, or none
    flow = tuple(n for n in kind.dos_orders if not truncated or n == 0)
    if flow:
        n_lags = max(flow) + 1
        # one product per step gives both dh[t-1] (block 0) and the lagged
        # state gradients (blocks 1..); the lag weights fill the stack in
        # place, as a copy would touch twice the fresh memory at width
        stack = np.zeros((1 + n_lags, 4 * u, u))
        stack[0] = ltape.wh
        cur_dot = lag_weights(wd, flow, stack[1:])[1].T.dot
        back_t = stack.transpose(0, 2, 1)
        back = np.empty((1 + n_lags, u, 1))
        back_h, back_lag = back[0, :, 0], back[1:, :, 0]
    else:
        n_lags, wh_dot = 0, ltape.wh.T.dot

    o_a, th_a = ltape.o, ltape.tanh_s
    # dh feeds one (2, u) chain, (dh * [o, tanh s]) * [1-tanh^2 s, o]: row 0
    # is the state gradient's term, row 1 times 1-o is the o gate's
    oth = np.empty((T, 3, u))
    oth[:, 0], oth[:, 1], oth[:, 2] = 1.0 - th_a * th_a, o_a, th_a
    d_o, d_g = 1.0 - o_a, 1.0 - ltape.g * ltape.g
    # one (4, u) product ds * [g, s_prev, f, i] feeds the i and f gates'
    # chain, ((ds * [g, s_prev]) * [i, f]) * [1-i, 1-f], the state gradient
    # carried back (ds * f) and the g gate's (ds * i) * (1-g^2)
    fac = np.empty((T, 4, u))
    fac[:, 0], fac[0, 1], fac[1:, 1] = ltape.g, 0.0, ltape.s[:-1]
    fac[:, 2], fac[:, 3] = ltape.f, ltape.i
    i_f = fac[:, 3:1:-1].copy()     # contiguous rows step faster
    dz_all = np.empty((T, 4 * u))
    dz_gates = dz_all.reshape(T, 4, u)
    dh = np.concatenate([np.zeros((1, u)), dh_in])    # row 0: what t = 0 sends back
    # newest-first like the forward's states: row T-1-t is time t, and lags
    # reaching before the sequence land in the padding rows from T on
    ds = np.zeros((T + n_lags + 1, u))
    # the step's product blocks and their rows, held across steps
    hb, sb, db = np.empty((2, u)), np.empty((4, u)), np.empty(u)
    (hb_s, hb_o), (sb_if, sb_s, sb_g) = hb, (sb[:2], sb[2], sb[3])
    multiply, matmul = np.multiply, np.matmul
    # per-step views, newest step first: the step's own rows, then the rows
    # its carried gradients go to
    steps = zip(dh[:0:-1], oth[::-1, 1:], oth[::-1, :2], d_o[::-1], dz_gates[::-1, 2], ds,
                fac[::-1], i_f[::-1], dz_gates[::-1, :2], (1.0 - i_f)[::-1], d_g[::-1],
                dz_gates[::-1, 3], ds[1:], dh[-2::-1])
    if flow:
        s0 = ds.strides[0]
        wins = np.ndarray((T, n_lags, u), ds.dtype, ds, s0, (s0, *ds.strides))
        for (dh_t, h_in, h_out, d_o_t, dzo, dst, fac_t, i_f_t, dzif, d_if, d_g_t, dzg, nxt,
             prev), dz_t, win in zip(steps, dz_all[::-1, :, None], wins):
            multiply(dh_t, h_in, hb)
            hb *= h_out
            dst += hb_s
            multiply(hb_o, d_o_t, dzo)
            dst += cur_dot(dzo, db)
            multiply(dst, fac_t, sb)
            multiply(sb_if, i_f_t, dzif)
            dzif *= d_if
            multiply(sb_g, d_g_t, dzg)
            nxt += sb_s
            matmul(back_t, dz_t, back)
            prev += back_h
            win += back_lag
    else:
        for (dh_t, h_in, h_out, d_o_t, dzo, dst, fac_t, i_f_t, dzif, d_if, d_g_t, dzg, nxt,
             prev), dz_t in zip(steps, dz_all[::-1]):
            multiply(dh_t, h_in, hb)
            hb *= h_out
            dst += hb_s
            multiply(hb_o, d_o_t, dzo)
            multiply(dst, fac_t, sb)
            multiply(sb_if, i_f_t, dzif)
            dzif *= d_if
            multiply(sb_g, d_g_t, dzg)
            nxt += sb_s
            prev += wh_dot(dz_t, db)

    gwx, gwh, gwd, gb = gblocks
    np.matmul(dz_all.T, ltape.x, out=gwx)
    np.matmul(dz_all.T, _shifted(ltape.h), out=gwh)
    if tie:
        # w_ih serves the i, f and o rows, so it takes their summed gradient;
        # w_fh and w_oh are unused
        gwh[:u] += gwh[u:2 * u]
        gwh[:u] += gwh[2 * u:3 * u]
        gwh[u:3 * u] = 0.0
    dzo_a = dz_gates[:, 2]
    for k in range(len(kind.dos_orders)):
        d = ltape.d[:, k]       # row t-1 is what the i/f gates see at t
        gwd[:2, k] = (dz_all[1:, :2 * u].T @ d[:-1]).reshape(2, u, u)
        np.matmul(dzo_a.T, d, out=gwd[2, k])
    np.add.reduce(dz_all, 0, out=gb)
    return dz_all @ ltape.wx


def _rnn_backward(blocks, ltape, dh_in, gblocks):
    T, u = ltape.h.shape
    w_hh, w_hx, _ = blocks
    d_h = 1.0 - ltape.h * ltape.h
    w_hh_dot = w_hh.T.dot
    dh = np.concatenate([np.zeros((1, u)), dh_in])    # row 0: what t = 0 sends back
    dz_all = np.empty((T, u))
    db = np.empty(u)
    multiply = np.multiply
    for dh_t, d_h_t, dz, prev in zip(dh[:0:-1], d_h[::-1], dz_all[::-1], dh[-2::-1]):
        prev += w_hh_dot(multiply(dh_t, d_h_t, dz), db)
    g_hh, g_hx, g_h = gblocks
    np.matmul(dz_all.T, _shifted(ltape.h), out=g_hh)
    np.matmul(dz_all.T, ltape.x, out=g_hx)
    np.add.reduce(dz_all, 0, out=g_h)
    return dz_all @ w_hx


def backward(model: Model, tape: Tape, dlogits: np.ndarray, truncated: bool) -> np.ndarray:
    """Gradient of the loss given its gradient at the post-tanh logits,
    one row per frame (rows may be zero for frames that carry no loss): a
    fresh float64 vector laid out like ``model.theta``, whose named arrays
    ``param_arrays(model.layout, grad)`` gives.  Each layer writes into its
    blocks (``param_blocks``) of the vector."""
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != tape.logits.shape:
        raise ValueError(
            f"logit gradient shape {dlogits.shape} does not match tape "
            f"logits {tape.logits.shape}"
        )
    lay = model.layout
    vector = np.empty(model.theta.size)
    *grads, (g_yh, g_y) = param_blocks(lay, vector)
    du_all = dlogits * (1.0 - tape.logits ** 2)
    np.matmul(du_all.T, tape.layers[-1].h, out=g_yh)
    np.add.reduce(du_all, 0, out=g_y)
    dh = du_all @ model.blocks[-1][0]

    tie = model.config.tie_gate_hidden_weights
    for li in range(len(grads) - 1, -1, -1):
        kind, _units = model.config.layers[li]
        if kind.kind == "rnn":
            dh = _rnn_backward(model.blocks[li], tape.layers[li], dh, grads[li])
        else:
            dh = _cell_backward(model.blocks[li][2], kind, tape.layers[li], dh, truncated,
                                tie, grads[li])
    if not np.isfinite(vector).all():
        name = next(name for name, a in param_arrays(lay, vector) if not np.isfinite(a).all())
        raise FloatingPointError(f"non-finite gradient in {name}")
    return vector


# A chunk of grad_check rows holds at most MAX_ROWS perturbed models, and
# fewer where their working set (per row, its copies of the blocks it
# perturbs, what the forward builds from them and its activations) would
# pass this many bytes; never fewer than one entry's two rows.
CHUNK_BYTES = 8 << 20

# grad_check's central-difference step and its pass bound on the relative error
GRAD_CHECK_H = 1e-5
GRAD_CHECK_TOL = 1e-4


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


def _perturbed(theta: np.ndarray, block, ks: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The rows of a ``theta`` block (start, stop, shape) for the entries
    ``ks``: a (2 len(ks), *shape) stack whose row 2i moves entry ks[i] by +h
    and row 2i+1 by -h where ks[i] lies in the block, the rest unmoved."""
    a, b, shape = block
    rows = np.repeat(theta[None, a:b], 2 * len(ks), axis=0)
    i = np.flatnonzero((a <= ks) & (ks < b))
    rows[2 * i, ks[i] - a] += h
    rows[2 * i + 1, ks[i] - a] -= h
    return rows.reshape(len(rows), *shape)


def grad_check(model: Model, frames: np.ndarray, label: int) -> GradCheckReport:
    """Central finite differences vs. the full backward pass, every parameter.

    The numeric side runs the production forward on a longdouble copy of
    the model: central differences of a float64 loss at h=1e-5
    (``GRAD_CHECK_H``) carry ~1e-11 of cancellation noise, which would
    swamp honestly-tiny gradients deep in a stack.  Each entry's two
    perturbed models (+h and -h) are two rows of ``cells.forward_rows``,
    and up to ``MAX_ROWS`` rows step together, fewer where their working
    set would pass ``CHUNK_BYTES``.  A perturbation leaves the layers below
    its own unchanged, so a batch of rows holds entries of one container
    and starts at its layer, from that layer's input in one unperturbed
    longdouble forward; output-layer entries cost only the projection.
    The rows carry per-row copies of the layout blocks holding their
    entries alone and share every other block with the model, so a layer
    computes its input terms, and lays out its derivative block by order,
    once where the rows leave the weights they read alone.  Each row's loss
    is read from the logits of its last frame, the only one projected,
    bitwise the one a whole-stack ``stack_forward`` of its model gives.
    Relative error is |g_a - g_n| / max(|g_a|, |g_n|, 1e-8); the check
    passes iff the maximum over all parameters is below ``GRAD_CHECK_TOL``.
    """
    from .train import loss_frame   # train imports this module

    tape = stack_forward(model, frames)
    _, dlogits = loss_frame(tape.logits, [label])
    analytic = backward(model, tape, dlogits, truncated=False)

    ld_model = replace(model, theta=model.theta.astype(np.longdouble))
    ld_tape = stack_forward(ld_model, frames)
    # the input of each layer and of the output projection, unperturbed
    inputs = [lt.x for lt in ld_tape.layers] + [ld_tape.layers[-1].h]
    lay, ends = model.layout, container_ends(model.layout)
    theta = ld_model.theta
    hl = np.longdouble(GRAD_CHECK_H)

    # a row's working set: its copies of the blocks it perturbs, all in its
    # chunk's container, the per-row weights its forward builds from them
    # (a derivative block laid out by order, a tied hidden block: at most
    # as large again) and its activations, about 12 per unit and frame and
    # one more per derivative order
    units = sum((12 + len(kind.dos_orders)) * u for kind, u in model.config.layers)
    activations = len(frames) * units
    # chunks stop at container ends: container ``first`` (a layer, or the
    # output) holds entries start..end-1
    chunks = []
    for first, (start, end) in enumerate(zip([0, *ends], ends)):
        row_bytes = theta.itemsize * (2 * (end - start) + activations)
        per_call = max(1, min(MAX_ROWS, CHUNK_BYTES // row_bytes) // 2)
        chunks += [(first, k0, min(k0 + per_call, end)) for k0 in range(start, end, per_call)]
    # entry k of both gradients is the k-th entry in C order of the arrays
    # in vector order
    numeric = np.empty(theta.size)
    for first, k0, k1 in chunks:
        ks = np.arange(k0, k1)
        # rows 2i and 2i+1 move entry ks[i] by +h and -h
        blocks = list(ld_model.blocks)
        blocks[first] = tuple(_perturbed(theta, block, ks, hl) if block[0] < k1 and k0 < block[1]
                              else own for own, block in zip(blocks[first], lay[first][2]))
        logits = forward_rows(ld_model, blocks, inputs[first], first, project=np.s_[-1:])
        loss = -np.log(softmax(logits[:, -1])[:, label])
        numeric[k0:k1] = (loss[0::2] - loss[1::2]) / (2.0 * hl)    # rounded to float64
    names = [f"{name}{list(idx)}" for name, arr in param_arrays(lay, theta)
             for idx in np.ndindex(arr.shape)]
    bad = ~(np.isfinite(numeric) & np.isfinite(analytic))
    if bad.any():
        raise FloatingPointError(f"non-finite gradient at {names[np.argmax(bad)]}")
    rel = np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic),
                                                             np.abs(numeric)), 1e-8)
    entries = [GradCheckEntry(*entry) for entry in zip(names, analytic.tolist(),
                                                       numeric.tolist(), rel.tolist())]
    worst = entries[np.argmax(rel)]
    return GradCheckReport(entries=entries, max_rel_error=worst.rel_error,
                           worst=worst.name, passed=worst.rel_error < GRAD_CHECK_TOL)
