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
That flow runs in derivative form, as the forward's gate terms do: the
gradient at each order's derivative of a state, spread by the binomial
weights over the states the derivative read.  Full and truncated mode share
every other product, so with zero derivative matrices they agree bitwise.

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
    _TIED_ROWS,
    _derivative_weights,
    container_ends,
    forward_rows,
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


# the [i, f, o, g] gate blocks of the layout in the order [i, f, g, o], and
# back again
_IFGO = np.array([0, 1, 3, 2])


def _cell_backward(blocks, kind, ltape, dh_in, truncated, tie, gblocks):
    """Backward through one gated layer under ``blocks``, the weight blocks
    (``layout``) its forward ran with.  ``dh_in`` is (T, units) gradient at
    the layer's hidden outputs; writes the weight gradients into ``gblocks``,
    the layer's blocks in the gradient vector, and returns dx (T, input_units).

    The time loop only carries the recurrences (state and hidden gradients).
    Every gate derivative factor is formed for all T before it, as per-step
    coefficient rows: dh times [o(1-o) tanh s, o(1-tanh^2 s)] gives the o
    gate's gradient and the state gradient's term, ds times [f, g i(1-i),
    s_prev f(1-f), i(1-g^2)] the state gradient carried back and the i, f
    and g gates'.  The products write straight into one buffer of the gate
    gradients, time t's as [i, f, g, o] at row t + 1: the state term into
    the g slot that the ds product overwrites later in the step, the
    carried gradient into the o slot of step t-1, not yet written.  So the
    gradients the DoS paths read, [o(t), i(t+1), f(t+1)], lie side by side,
    and the hidden block's rows, reordered to match once per call, meet one
    contiguous 4u block.  The state gradient flows back through the DoS
    paths in derivative form: one product of the stacked (K u, 3u)
    [w_od^T | w_id^T | w_fd^T] of the K orders it flows through gives the
    gradient at each order's derivative of s_t, and the binomial weights
    (``_derivative_weights``) spread those over s_t and the states the
    derivatives read, back no further than the sequence's start.
    Truncation keeps only the order-0 paths; with no DoS path left the loop
    drops the three DoS calls and keeps every other product as it is.  The
    loop iterates per-step views, newest step first, and adds into them in
    place: ``dh[t - 1] += ...`` would fetch the row, add into it and then
    assign it back.  The weight gradients are single time-batched matmuls
    against the tape after it; the derivative weights' read the forward's
    derivatives.
    """
    T, u = ltape.s.shape
    wx, wh, wd, _ = blocks
    # either every order or a prefix of them: order 0, or none
    flow = tuple(n for n in kind.dos_orders if not truncated or n == 0)
    depth = min(max(flow, default=0), T - 1)
    i_a, f_a, o_a, g_a, th_a = ltape.i, ltape.f, ltape.o, ltape.g, ltape.tanh_s
    # dh -> [dz_o, state term], ds -> [carried ds, dz_i, dz_f, dz_g]
    hc = np.empty((T, 2, u))
    np.multiply(o_a * (1.0 - o_a), th_a, hc[:, 0])
    np.multiply(o_a, 1.0 - th_a * th_a, hc[:, 1])
    sc = np.empty((T, 4, u))
    sc[:, 0] = f_a
    np.multiply(g_a, i_a * (1.0 - i_a), sc[:, 1])
    sc[0, 2] = 0.0      # s_prev is zero at t = 0
    np.multiply(ltape.s[:-1], (f_a * (1.0 - f_a))[1:], sc[1:, 2])
    np.multiply(i_a, 1.0 - g_a * g_a, sc[:, 3])
    # time t's gate gradients [i, f, g, o] are row t + 1 of ``z``; rows 0
    # and T + 1 pad: step 0 carries into the first's o slot, and step T-1
    # reads i(T) and f(T), zero, from the second.  Per step t, ``zt`` holds
    # the slots [o(t-1), i(t), f(t), g(t), o(t), i(t+1), f(t+1)]
    z = np.zeros((T + 2) * 4 * u)
    slot = z.itemsize * u
    zt = np.ndarray((T, 7, u), z.dtype, z, 3 * slot, (4 * slot, slot, z.itemsize))
    ho = zt[:, 4:2:-1]      # [o(t), g(t)]: the state term goes in the g slot
    dh = np.concatenate([np.zeros((1, u)), dh_in])    # row 0: what t = 0 sends back
    # row lead + t is time t; the rows before take what reaches before t = 0
    lead = max(depth, 1)
    ds = np.zeros((lead + T, u))
    hidden = _TIED_ROWS[_IFGO] if tie else _IFGO      # the gates' hidden blocks, [i, f, g, o]
    wh_dot = wh.reshape(4, u, u).take(hidden, 0).reshape(4 * u, u).T.dot
    db = np.empty(u)
    multiply, matmul = np.multiply, np.matmul
    # per-step views, newest step first: the step's own rows, then the rows
    # its carried gradients go to
    steps = zip(dh[:0:-1], hc[::-1], ho[::-1], ho[::-1, 1], ds[lead:][::-1], sc[::-1],
                zt[::-1, :4], zt[::-1, 0], ds[lead - 1:-1][::-1],
                zt[::-1, 1:5].reshape(T, 4 * u), dh[-2::-1])
    if flow:
        K = len(flow)
        # per order, [w_od; w_id; w_fd] transposed: (K u, 3u)
        w_oif = np.concatenate((wd[2:, :K], wd[:2, :K]))
        d_dot = w_oif.transpose(1, 3, 0, 2).reshape(K * u, 3 * u).dot
        prod = np.empty(K * u)
        prod_k = prod.reshape(K, u)
        if flow == (0,):    # order 0 alone weighs s_t alone, by 1
            spread, back = None, prod_k
        else:
            # lag j of the derivatives weighs s_{t-j}: window row depth - j
            spread = _derivative_weights(kind, z.dtype)[:K, 0, depth::-1].T.copy()
            back = np.empty((depth + 1, u))
        s0 = ds.strides[0]
        wins = np.ndarray((T, depth + 1, u), ds.dtype, ds, s0 * (lead - depth), (s0, *ds.strides))
        for (dh_t, hc_t, ho_t, hs, dst, sc_t, sv_t, carried, nxt, dz_t, prev), dof, win in zip(
                steps, zt[::-1, 4:].reshape(T, 3 * u), wins[::-1]):
            multiply(dh_t, hc_t, ho_t)
            dst += hs
            d_dot(dof, prod)
            if spread is not None:
                matmul(spread, prod_k, back)
            win += back
            multiply(dst, sc_t, sv_t)
            nxt += carried
            prev += wh_dot(dz_t, db)
    else:
        for dh_t, hc_t, ho_t, hs, dst, sc_t, sv_t, carried, nxt, dz_t, prev in steps:
            multiply(dh_t, hc_t, ho_t)
            dst += hs
            multiply(dst, sc_t, sv_t)
            nxt += carried
            prev += wh_dot(dz_t, db)

    # the gate gradients in the layout's [i, f, o, g] order
    dz_all = z[4 * u:-4 * u].reshape(T, 4, u).take(_IFGO, 1).reshape(T, 4 * u)
    dz_gates = dz_all.reshape(T, 4, u)

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
    return dz_all @ wx


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
    blocks (``param_blocks``) of the vector.  The weights are read from
    ``model``, not ``tape``: they must be the ones its forward ran with."""
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
            dh = _cell_backward(model.blocks[li], kind, tape.layers[li], dh, truncated, tie,
                                grads[li])
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
