"""Hand-written reference implementations used as independent oracles.

Everything here is deliberately naive: plain per-gate formulas, explicit
Python loops, no shared code with the library's forward/backward paths.
"""
import math

import numpy as np


def ref_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def ref_dos(order, states, t):
    """Backward difference of given order at time t (0-based) over a list of
    state vectors; states before the first entry are zero."""
    dim = len(states[0])
    out = np.zeros(dim)
    for j in range(order + 1):
        coeff = (-1.0) ** j * math.comb(order, j)
        if t - j >= 0:
            out += coeff * np.asarray(states[t - j])
    return out


def ref_cell_sequence(p, x_seq, orders, tie=False):
    """Run a gated cell over a sequence, returning lists of all
    intermediates.  ``p`` holds the layer's named arrays (``model.layers[k]``:
    ``p.w_ix``, ``p.w_id[n]``, ...); ``orders`` the derivative orders
    feeding the gates (empty list = conventional LSTM)."""
    u = p.b_i.shape[0]
    s_hist = []      # s_1..s_t as computed
    h_prev = np.zeros(u)
    s_prev = np.zeros(u)
    w_fh = p.w_ih if tie else p.w_fh
    w_oh = p.w_ih if tie else p.w_oh
    out = {"i": [], "f": [], "o": [], "g": [], "s": [], "h": []}
    for t, x in enumerate(x_seq):
        # derivatives of the previous state: state list shifted by one
        prev_states = s_hist[:]  # s_1..s_{t}
        z_i = p.w_ih @ h_prev + p.w_ix @ x + p.b_i
        z_f = w_fh @ h_prev + p.w_fx @ x + p.b_f
        for n in orders:
            d = ref_dos(n, prev_states, t - 1) if prev_states else np.zeros(u)
            z_i = z_i + p.w_id[n] @ d
            z_f = z_f + p.w_fd[n] @ d
        i_t = ref_sigmoid(z_i)
        f_t = ref_sigmoid(z_f)
        g_t = np.tanh(p.w_sh @ h_prev + p.w_sx @ x + p.b_s)
        s_t = f_t * s_prev + i_t * g_t
        cur_states = s_hist + [s_t]
        z_o = w_oh @ h_prev + p.w_ox @ x + p.b_o
        for n in orders:
            z_o = z_o + p.w_od[n] @ ref_dos(n, cur_states, t)
        o_t = ref_sigmoid(z_o)
        h_t = o_t * np.tanh(s_t)
        for key, val in zip(("i", "f", "o", "g", "s", "h"),
                            (i_t, f_t, o_t, g_t, s_t, h_t)):
            out[key].append(val)
        s_hist.append(s_t)
        s_prev, h_prev = s_t, h_t
    return out


def ref_stack_logits(model, frames):
    """Chain ref_cell_sequence through every layer and the output map."""
    x_seq = [np.asarray(f, dtype=np.float64) for f in frames]
    for (kind, units), p in zip(model.config.layers, model.layers):
        if kind.kind == "rnn":
            h = np.zeros(units)
            outs = []
            for x in x_seq:
                h = np.tanh(p.w_hh @ h + p.w_hx @ x + p.b_h)
                outs.append(h)
            x_seq = outs
        else:
            res = ref_cell_sequence(p, x_seq, list(kind.dos_orders),
                                    tie=model.config.tie_gate_hidden_weights)
            x_seq = res["h"]
    return [np.tanh(model.output.w_yh @ h + model.output.b_y) for h in x_seq]


def ref_softmax_mp(logits, dps=50):
    """Softmax through mpmath at high precision, returned as floats."""
    import mpmath

    with mpmath.workdps(dps):
        exps = [mpmath.exp(mpmath.mpf(repr(float(v)))) for v in logits]
        total = sum(exps)
        return [float(e / total) for e in exps]
