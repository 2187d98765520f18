"""Forward dynamics of the recurrent cell zoo.

Four cell kinds share one code path:

* ``rnn``     — classical tanh recurrence, no memory cell.
* ``lstm``    — conventional LSTM (input/forget/output gates, internal state).
* ``dos``     — LSTM whose gates additionally see one finite-difference
                derivative of the internal state (order n): order 0 is the
                state itself, order 1 its velocity, order 2 its acceleration.
* ``drnn``    — LSTM whose gates see the weighted sum of ALL derivative
                orders 0..N.

A heterogeneous stack where layer k uses a ``dos`` cell of order k-1 builds
up increasingly high-order dynamics with depth; helpers below construct that
stack as well as homogeneous LSTM stacks.

Gate update order within a step matters and is fixed as: input/forget gates
read the derivative of the PREVIOUS state; the state is then updated; the
output gate reads the derivative of the CURRENT state.
"""
from __future__ import annotations

import functools
import math
import typing
from dataclasses import dataclass

import numpy as np

from .numerics import ShapeMismatchError, seeded_rng, sigmoid, softmax

VALID_KINDS = ("rnn", "lstm", "dos", "drnn")


@dataclass(frozen=True)
class CellKind:
    """``order`` is the single derivative order for ``dos`` cells and the
    maximum order for ``drnn`` cells; it is ignored for ``rnn``/``lstm``."""

    kind: str
    order: int = 0

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}")
        if self.order < 0:
            raise ValueError("derivative order must be >= 0")

    @property
    def dos_orders(self) -> tuple[int, ...]:
        if self.kind == "dos":
            return (self.order,)
        if self.kind == "drnn":
            return tuple(range(self.order + 1))
        return ()

    @property
    def max_order(self) -> int:
        return max(self.dos_orders, default=0)


@dataclass
class CellParams:
    """All weights of one gated recurrent layer.

    The ``w_*d`` dicts map a derivative order to its gate modulation matrix;
    they are empty for a plain LSTM.
    """

    w_ix: np.ndarray
    w_fx: np.ndarray
    w_ox: np.ndarray
    w_sx: np.ndarray
    w_ih: np.ndarray
    w_fh: np.ndarray
    w_oh: np.ndarray
    w_sh: np.ndarray
    w_id: dict[int, np.ndarray]
    w_fd: dict[int, np.ndarray]
    w_od: dict[int, np.ndarray]
    b_i: np.ndarray
    b_f: np.ndarray
    b_o: np.ndarray
    b_s: np.ndarray

    @property
    def units(self) -> int:
        return self.b_i.shape[0]

    @property
    def input_units(self) -> int:
        return self.w_ix.shape[1]


@dataclass
class RnnParams:
    w_hh: np.ndarray
    w_hx: np.ndarray
    b_h: np.ndarray

    @property
    def units(self) -> int:
        return self.b_h.shape[0]

    @property
    def input_units(self) -> int:
        return self.w_hx.shape[1]


@dataclass
class OutputParams:
    w_yh: np.ndarray
    b_y: np.ndarray


@functools.cache
def param_fields(cls) -> tuple[tuple[str, bool], ...]:
    """(name, declared a per-order dict?) for each field of a parameter
    dataclass, in declaration order: the order of gradients and checkpoints."""
    hints = typing.get_type_hints(cls)
    return tuple((name, typing.get_origin(hint) is dict) for name, hint in hints.items())


@dataclass(frozen=True)
class StackConfig:
    layers: tuple[tuple[CellKind, int], ...]
    input_units: int
    output_classes: int
    tie_gate_hidden_weights: bool = False

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a stack needs at least one layer")
        if self.output_classes < 2:
            raise ValueError("need at least 2 output classes")
        if self.input_units < 1 or any(units < 1 for _, units in self.layers):
            raise ValueError("input and layer units must be >= 1")


@dataclass
class Model:
    config: StackConfig
    layers: list  # CellParams | RnnParams, parallel to config.layers
    output: OutputParams
    seed: int = 0


def _dos_weight(order: int, j: int) -> float:
    """Weight of s_{t-j} in the order-n backward difference at t."""
    return (-1.0) ** j * math.comb(order, j)


def dos(order: int, states: np.ndarray) -> np.ndarray:
    """Order-n backward finite differences of a (T, units) state sequence.

    Row t is sum_j c(n, j) s_{t-j}; states before the first row are zero.
    Order 0 returns the states; order 1 is s_t - s_{t-1}; order 2 is
    s_t - 2 s_{t-1} + s_{t-2}; higher orders iterate the differencing.  The
    result keeps the dtype of float states (float64, or longdouble in a
    gradient check).
    """
    states = np.asarray(states)
    out = states.astype(states.dtype if states.dtype.kind == "f" else np.float64)
    for j in range(1, order + 1):
        out[j:] += _dos_weight(order, j) * states[:-j]
    return out


# ---------------------------------------------------------------------------
# Initialization


def _uniform_matrix(rng, rows, cols):
    r = 1.0 / math.sqrt(cols)
    return rng.uniform(-r, r, size=(rows, cols))


def init_cell_params(rng, units: int, input_units: int, orders) -> CellParams:
    # Forget bias starts at +1 so early memory is retained (keeps small-lr
    # training from losing signal before the gates learn).
    def mat_in():
        return _uniform_matrix(rng, units, input_units)

    def mat_hid():
        return _uniform_matrix(rng, units, units)

    return CellParams(
        w_ix=mat_in(), w_fx=mat_in(), w_ox=mat_in(), w_sx=mat_in(),
        w_ih=mat_hid(), w_fh=mat_hid(), w_oh=mat_hid(), w_sh=mat_hid(),
        w_id={n: mat_hid() for n in orders},
        w_fd={n: mat_hid() for n in orders},
        w_od={n: mat_hid() for n in orders},
        b_i=np.zeros(units),
        b_f=np.ones(units),
        b_o=np.zeros(units),
        b_s=np.zeros(units),
    )


def init_rnn_params(rng, units: int, input_units: int) -> RnnParams:
    return RnnParams(
        w_hh=_uniform_matrix(rng, units, units),
        w_hx=_uniform_matrix(rng, units, input_units),
        b_h=np.zeros(units),
    )


def build_model(config: StackConfig, seed: int = 0) -> Model:
    rng = seeded_rng(seed)
    layers = []
    in_units = config.input_units
    for kind, units in config.layers:
        if kind.kind == "rnn":
            layers.append(init_rnn_params(rng, units, in_units))
        else:
            layers.append(init_cell_params(rng, units, in_units, kind.dos_orders))
        in_units = units
    output = OutputParams(
        w_yh=_uniform_matrix(rng, config.output_classes, in_units),
        b_y=np.zeros(config.output_classes),
    )
    return Model(config=config, layers=layers, output=output, seed=seed)


def d2rnn_config(depth: int, input_units: int, units: int, classes: int) -> StackConfig:
    """Canonical heterogeneous stack: layer k (1-indexed) uses derivative
    order k-1, so depth 3 stacks orders 0, 1, 2."""
    layers = tuple((CellKind("dos", k), units) for k in range(depth))
    return StackConfig(layers=layers, input_units=input_units, output_classes=classes)


def stacked_lstm_config(depth: int, input_units: int, units: int, classes: int) -> StackConfig:
    layers = tuple((CellKind("lstm"), units) for _ in range(depth))
    return StackConfig(layers=layers, input_units=input_units, output_classes=classes)


# ---------------------------------------------------------------------------
# Forward pass


@dataclass
class LayerTape:
    """Per-timestep intermediates of one layer; arrays are (T, units),
    row index = t-1.  A classical RNN layer records only ``x`` and ``h``."""

    x: np.ndarray
    h: np.ndarray
    i: np.ndarray | None = None
    f: np.ndarray | None = None
    o: np.ndarray | None = None
    g: np.ndarray | None = None     # candidate tanh activation
    s: np.ndarray | None = None
    tanh_s: np.ndarray | None = None


@dataclass
class Tape:
    """Everything a backward pass needs from one forward run."""

    layers: list[LayerTape]
    logits: np.ndarray        # (T, classes), post-tanh confidence scores


def gate_weight_stacks(params: CellParams, tie: bool):
    """Per-gate matrices fused for batched evaluation: input-side (4u x in)
    and hidden-side (4u x u).  Row blocks are ordered i, f, o, s."""
    w_fh = params.w_ih if tie else params.w_fh
    w_oh = params.w_ih if tie else params.w_oh
    wx = np.vstack([params.w_ix, params.w_fx, params.w_ox, params.w_sx])
    wh = np.vstack([params.w_ih, w_fh, w_oh, params.w_sh])
    bias = np.concatenate([params.b_i, params.b_f, params.b_o, params.b_s])
    return wx, wh, bias


def lag_weights(params: CellParams, orders):
    """The DoS gate terms of ``orders`` as weights on past states.

    An order-n derivative is sum_j c(n, j) s_{t-j}, so the terms fold into a
    (K+1, 4u, u) stack whose block j weighs s_{t-1-j}, K the highest order:
    i and f rows hold lags 0..K of the previous state's derivatives, o rows
    lags 1..K of the current state's, s rows zeros.  Also returns the o
    gate's (u, u) weight on s_t itself."""
    u = params.units
    lags = np.zeros((max(orders, default=0) + 1, 4 * u, u), params.w_ih.dtype)
    cur = np.zeros((u, u), params.w_ih.dtype)
    for n in orders:
        cur += params.w_od[n]
        for j in range(n + 1):
            c = _dos_weight(n, j)
            lags[j, :u] += c * params.w_id[n]
            lags[j, u:2 * u] += c * params.w_fd[n]
            if j:
                lags[j - 1, 2 * u:3 * u] += c * params.w_od[n]
    return lags, cur


def _layer_forward(params: CellParams, kind: CellKind, tie: bool,
                   x_all: np.ndarray) -> LayerTape:
    T = x_all.shape[0]
    u = params.units
    dt = x_all.dtype
    orders = kind.dos_orders
    wx, wh, bias = gate_weight_stacks(params, tie)
    lags, cur = lag_weights(params, orders)
    zx = x_all @ wx.T + bias                  # (T, 4u) input-side gate terms

    i_a, f_a, o_a, g_a, h_a, th_a = (np.empty((T, u), dt) for _ in range(6))
    # states newest-first: row T-1-t holds s_t and the zero rows from T on the
    # states before the sequence, so step t's lags are the rows T-t .. T-t+K
    past = np.zeros((T + len(lags), u), dt)
    s = np.zeros(u, dt)
    h = np.zeros(u, dt)
    for t in range(T):
        r = T - 1 - t
        z = zx[t] + wh @ h
        if orders:
            z += (lags @ past[r + 1:r + 1 + len(lags), :, None]).sum(axis=0)[:, 0]
        i_t = sigmoid(z[:u])
        f_t = sigmoid(z[u:2 * u])
        g_t = np.tanh(z[3 * u:])
        s = f_t * s + i_t * g_t
        zo = z[2 * u:3 * u]
        if orders:
            zo = zo + cur @ s
        o_t = sigmoid(zo)
        th = np.tanh(s)
        h = o_t * th
        i_a[t], f_a[t], o_a[t], g_a[t] = i_t, f_t, o_t, g_t
        past[r], h_a[t], th_a[t] = s, h, th
    return LayerTape(x=x_all, i=i_a, f=f_a, o=o_a, g=g_a, s=past[T - 1::-1],
                     h=h_a, tanh_s=th_a)


def _rnn_layer_forward(params: RnnParams, x_all: np.ndarray) -> LayerTape:
    T = x_all.shape[0]
    u = params.units
    zx = x_all @ params.w_hx.T + params.b_h
    h_a = np.empty((T, u), x_all.dtype)
    h = np.zeros(u, x_all.dtype)
    for t in range(T):
        h = np.tanh(params.w_hh @ h + zx[t])
        h_a[t] = h
    return LayerTape(x=x_all, h=h_a)


def stack_forward(model: Model, frames: np.ndarray) -> Tape:
    """Run the whole stack over a sequence of frames (T x input_units).

    Layer k consumes layer k-1's hidden states; the final layer's hidden
    state maps through the tanh output projection to per-frame confidence
    scores.  Sequence-level scores are those of the last frame.  Frames are
    cast to the model's weight dtype, so a longdouble copy of a model runs
    the same equations in extended precision.
    """
    frames = np.asarray(frames, dtype=model.output.w_yh.dtype)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ShapeMismatchError("forward pass needs a nonempty (T, dim) sequence")
    if frames.shape[1] != model.config.input_units:
        raise ShapeMismatchError(
            f"model expects input dimension {model.config.input_units}, "
            f"got {frames.shape[1]}"
        )
    tie = model.config.tie_gate_hidden_weights
    x_all = frames
    layer_tapes = []
    for (kind, _units), params in zip(model.config.layers, model.layers):
        if kind.kind == "rnn":
            tape = _rnn_layer_forward(params, x_all)
        else:
            tape = _layer_forward(params, kind, tie, x_all)
        layer_tapes.append(tape)
        x_all = tape.h
    logits = np.tanh(x_all @ model.output.w_yh.T + model.output.b_y)
    return Tape(layers=layer_tapes, logits=logits)


def predict_sequence(model: Model, frames: np.ndarray) -> tuple[int, np.ndarray]:
    """Class decision from the final frame's probabilities."""
    tape = stack_forward(model, frames)
    p = softmax(tape.logits[-1])
    return int(np.argmax(p)), p


def dos_energy(model: Model, frames: np.ndarray, layer: int) -> np.ndarray:
    """Per-frame L2 norms of the state derivatives of one layer.

    Returns (T, max_order+1): column k is |d^(k) s_t| for orders 0..max_order
    of the chosen layer (a plain LSTM layer reports order 0 only).
    """
    if not 0 <= layer < len(model.config.layers):
        raise IndexError(f"layer index {layer} out of range")
    kind, _units = model.config.layers[layer]
    if kind.kind == "rnn":
        raise ValueError("classical RNN layers have no internal state derivatives")
    s = stack_forward(model, frames).layers[layer].s
    return np.stack([np.linalg.norm(dos(k, s), axis=1)
                     for k in range(kind.max_order + 1)], axis=1)
