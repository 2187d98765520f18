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
output gate reads the derivative of the CURRENT state.  So each step takes
the derivatives of its new state once, and one product per order of the
gates' derivative matrices with them serves the o gate at once and the i
and f gates at the next step.

One time loop per layer serves three kinds of caller.  One-row callers
(``stack_forward``, ``predict_sequence``, ``dos_energy``) run one sequence
and get its (T, units) tapes.  Set-level callers (``forward_set``,
``predict_set``) run up to ``MAX_ROWS`` sequences together, longest first:
at step t only the sequences longer than t are live, and one broadcast
matmul per weight block serves them all.  ``forward_rows`` runs one
sequence under many weight sets, one per row, each weight block either
shared or stacked along the rows: the perturbed models of a gradient check.
Every product a row's numbers go through is the one a one-row run makes, so
all give bitwise the same results, row by row: the same hidden states, and
one output projection (``_logits``) of all of a sequence's frames.  The
class of a sequence is its highest final-frame score (``class_decision``),
whoever asks.
"""
from __future__ import annotations

import copy
import functools
import math
from dataclasses import FrozenInstanceError, dataclass, field
from types import SimpleNamespace

import numpy as np

from .numerics import ShapeMismatchError, seeded_rng, sigmoid, softmax

VALID_KINDS = ("rnn", "lstm", "dos", "drnn")

# The highest derivative order: the largest n for which every binomial
# weight C(n, j) of an order-n difference is a finite float64.
MAX_ORDER = 1029


@dataclass(frozen=True)
class CellKind:
    """``order`` is the single derivative order for ``dos`` cells and the
    maximum order for ``drnn`` cells; it is ignored for ``rnn``/``lstm``."""

    kind: str
    order: int = 0

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}")
        if not 0 <= self.order <= MAX_ORDER:
            raise ValueError(f"derivative order must be in 0..{MAX_ORDER}, got {self.order}")

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


# Per container key, its blocks in vector order: a block's fields, whether
# each is a dict of per-order matrices, and their dims, "out" the container's
# output width (a layer's units, the class count) and "in" its input width.
# So a gated layer's blocks are its fused i|f|o|s gate matrices (4u, in) and
# (4u, u), its w_id, w_fd and w_od over K orders (3, K, u, u) and its biases.
CONTAINERS = {
    "cell": ((("w_ix", "w_fx", "w_ox", "w_sx"), False, ("out", "in")),
             (("w_ih", "w_fh", "w_oh", "w_sh"), False, ("out", "out")),
             (("w_id", "w_fd", "w_od"), True, ("out", "out")),
             (("b_i", "b_f", "b_o", "b_s"), False, ("out",))),
    "rnn": ((("w_hh",), False, ("out", "out")),
            (("w_hx",), False, ("out", "in")),
            (("b_h",), False, ("out",))),
    "output": ((("w_yh",), False, ("out", "in")),
               (("b_y",), False, ("out",))),
}


class Params(SimpleNamespace):
    """The named arrays of one container (``param_views``): views into a
    parameter vector, so they are written in place and never rebound.  It
    compares by identity, as arrays have no single truth value."""

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __setattr__(self, name, *value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class _Orders(dict):
    """The per-order matrices of a container whose arrays are views into one
    vector: an entry can be written in place but not rebound or removed."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("per-order matrices are views into a parameter vector; "
                        "write them in place")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __deepcopy__(self, memo):
        # deepcopy's default rebuild would go through __setitem__
        return _Orders({n: copy.deepcopy(a, memo) for n, a in self.items()})


# every model built or loaded computes its layout: a gradient check builds
# one per call, and the layout of a small stack costs a third of that build
@functools.lru_cache(maxsize=64)
def layout(config: StackConfig) -> tuple:
    """Where each array of a ``config`` model sits in its parameter vector:
    the layers' arrays, then the output's, each container's in
    ``CONTAINERS`` order.  Per container (key, fields, blocks); per field
    (name, per_order, entries); per array an entry (order, start, stop,
    shape), order None for a plain field, and a per-order field one entry
    per order of the layer's kind, ascending.  Per block (start, stop,
    shape): m plain fields of shape (a, ...) make an (m a, ...) block, m
    per-order fields of shape (u, u) over K orders an (m, K, u, u) one."""
    specs = [("rnn" if kind.kind == "rnn" else "cell", units, kind.dos_orders)
             for kind, units in config.layers]
    specs.append(("output", config.output_classes, ()))
    widths = [config.input_units] + [units for _, units in config.layers]
    containers, at = [], 0
    for (key, out, orders), width in zip(specs, widths):
        size = {"out": out, "in": width}
        fields, blocks = [], []
        for names, per_order, dims in CONTAINERS[key]:
            shape, start = tuple(size[d] for d in dims), at
            for name in names:
                entries = []
                for n in orders if per_order else (None,):
                    entries.append((n, at, at + math.prod(shape), shape))
                    at += math.prod(shape)
                fields.append((name, per_order, tuple(entries)))
            blocks.append((start, at, (len(names), len(orders), *shape) if per_order
                           else (len(names) * shape[0], *shape[1:])))
        containers.append((key, tuple(fields), tuple(blocks)))
    return tuple(containers)


def container_ends(lay) -> list[int]:
    """Where each container of a layout ends in its vector: where its last
    block stops."""
    return [blocks[-1][1] for _, _, blocks in lay]


def _slicer(vec: np.ndarray):
    """A function of (a, b, shape) giving ``vec``'s entries a..b as a view
    of ``shape``; of a (rows, P) stack of parameter vectors, a (rows,
    *shape) stack of them."""
    if vec.ndim == 1:
        return lambda a, b, shape: vec[a:b].reshape(shape)
    return lambda a, b, shape: vec[:, a:b].reshape(len(vec), *shape)


def param_arrays(lay, vec: np.ndarray):
    """Yield (name, array) for every array of the parameter vector ``vec``
    laid out as ``lay`` (``layout``), in vector order, as views: the
    layers' arrays (``layer1.w_id[1]``, one per order of a per-order
    field), then the output's (``output.b_y``).  A (rows, P) ``vec`` gives
    every array as a (rows, ...) stack, one per row."""
    view = _slicer(vec)
    for li, (_, fields, _) in enumerate(lay):
        prefix = "output." if li == len(lay) - 1 else f"layer{li}."
        for name, per_order, entries in fields:
            for n, a, b, shape in entries:
                yield prefix + name + (f"[{n}]" if per_order else ""), view(a, b, shape)


def param_blocks(lay, vec: np.ndarray) -> list[tuple]:
    """Per container of ``lay`` (``layout``), views of its blocks in the
    parameter vector ``vec``; of a (rows, P) stack of parameter vectors,
    (rows, ...) stacks of them, per-row weights."""
    view = _slicer(vec)
    return [tuple([view(*block) for block in blocks]) for _, _, blocks in lay]


def param_views(lay, vec: np.ndarray) -> list[Params]:
    """Per container of ``lay`` (``layout``), a ``Params`` of its fields'
    views into ``vec``: an array per plain field, a read-only dict of them
    by order per per-order field.  A (rows, P) ``vec`` holds one parameter
    vector per row and gives per-row weights: every array is a (rows, ...)
    stack."""
    view = _slicer(vec)
    containers = []
    for _, fields, _ in lay:
        arrays = {}
        for name, per_order, entries in fields:
            views = {n: view(a, b, shape) for n, a, b, shape in entries}
            arrays[name] = _Orders(views) if per_order else views[None]
        containers.append(Params(**arrays))
    return containers


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


@dataclass(frozen=True, eq=False)
class Model:
    """A stack's weights: one parameter vector ``theta``, laid out as
    ``layout(config)`` places the arrays of ``layers`` and then ``output``.

    Construction copies ``theta``, in longdouble if it is longdouble (a
    gradient check's copy) and else in float64, and raises a
    ShapeMismatchError unless it is 1-D of the layout's size.  Every
    container's blocks (``blocks``, ``param_blocks``), which the forward and
    backward read, and the containers ``layers`` and ``output``, the named
    view of the weights made on first use, are views into the copy, so an
    SGD step is one vector update, and a copy made by ``copy.deepcopy``,
    ``dataclasses.replace`` or ``pickle`` owns a vector of its own.
    """

    config: StackConfig
    theta: np.ndarray = field(repr=False)
    seed: int = 0
    layout: tuple = field(init=False, repr=False)
    blocks: tuple = field(init=False, repr=False)

    def __post_init__(self):
        lay = layout(self.config)
        theta, size = np.asarray(self.theta), container_ends(lay)[-1]
        if theta.shape != (size,):
            raise ShapeMismatchError(f"theta has shape {theta.shape}, expected {(size,)}")
        theta = theta.astype(np.longdouble if theta.dtype == np.longdouble else np.float64)
        init = functools.partial(object.__setattr__, self)
        init("theta", theta)
        init("layout", lay)
        init("blocks", tuple(param_blocks(lay, theta)))

    @functools.cached_property
    def layers(self) -> tuple[Params, ...]:
        """The layers' named arrays, of the fields of each one's key in
        ``CONTAINERS``."""
        return tuple(param_views(self.layout[:-1], self.theta))

    @functools.cached_property
    def output(self) -> Params:
        return param_views(self.layout[-1:], self.theta)[0]

    @functools.cached_property
    def _energy_memo(self) -> dict:
        """``dos_energy``'s layer ``states`` of the last sequence it ran on this
        model, keyed by value (``frames``, ``theta``); never pickled or copied."""
        return {}

    def __getstate__(self):
        return {"config": self.config, "theta": self.theta, "seed": self.seed}

    def __setstate__(self, state):
        self.__init__(**state)


def dos(order: int, states: np.ndarray) -> np.ndarray:
    """Order-n backward finite differences of a (T, units) state sequence.

    Row t is sum_j c(n, j) s_{t-j}, c(n, j) = (-1)^j C(n, j) (``_binomials``);
    states before the first row are zero, so lags past T-1 add nothing.
    Order 0 returns the states; order 1 is s_t - s_{t-1}; order 2 is
    s_t - 2 s_{t-1} + s_{t-2}; higher orders iterate the differencing.  The
    result keeps the dtype of float states (float64, or longdouble in a
    gradient check).
    """
    states = np.asarray(states)
    out = states.astype(states.dtype if states.dtype.kind == "f" else np.float64)
    col = _binomials(order, out.dtype, 1)
    for j in range(1, min(order, len(out) - 1) + 1):
        out[j:] += col[j] * states[:-j]
    return out


# ---------------------------------------------------------------------------
# Initialization


def build_model(config: StackConfig, seed: int = 0) -> Model:
    """A ``config`` model whose arrays are drawn in layout order: each
    matrix uniform in +-1/sqrt(its columns), each bias 0 but ``b_f``."""
    rng = seeded_rng(seed)
    lay = layout(config)
    theta = np.zeros(container_ends(lay)[-1])
    for name, a in param_arrays(lay, theta):
        if a.ndim == 2:
            r = 1.0 / math.sqrt(a.shape[1])
            a[...] = rng.uniform(-r, r, size=a.shape)
        elif name.endswith(".b_f"):
            # Forget bias starts at +1 so early memory is retained (keeps
            # small-lr training from losing signal before the gates learn).
            a[...] = 1.0
    return Model(config, theta, seed)


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

# At most this many sequences step together in one set-level call; a call's
# memory grows with the frames of the sequences it holds.
MAX_ROWS = 64


class _Rows:
    """Sequences stepped together, longest first (``lengths`` non-increasing):
    at step t the first n_t of them, those longer than t, are live.  Packed
    arrays hold the live rows of step 0, then those of step 1, and so on, so
    one sequence's packed rows are its frames in order.  ``runs`` splits the
    steps where n_t changes, as (t0, t1, n, start, stop): steps t0..t1-1 have
    n live rows, at packed rows start..stop-1.  ``index[b]`` selects the
    packed rows of sequence b in time order: a slice if they lie in the
    first run, else an index array."""

    def __init__(self, lengths):
        runs, t0, at = [], 0, 0
        for t1 in sorted(set(lengths)):
            n = sum(length >= t1 for length in lengths)
            runs.append((t0, t1, n, at, at + (t1 - t0) * n))
            t0, at = t1, at + (t1 - t0) * n
        self.runs, self.size = tuple(runs), at
        (_, t1, n0, _, _), *later = runs
        # the packed row of the first sequence at each step
        first = later and np.concatenate([np.arange(a, b, n) for _, _, n, a, b in runs])
        self.index = tuple(slice(b, b + n0 * length, n0) if length <= t1 else first[:length] + b
                           for b, length in enumerate(lengths))


@functools.lru_cache(maxsize=256)
def _equal_lengths(length: int, count: int = 1) -> _Rows:
    """The packing of ``count`` sequences of ``length`` frames each: one
    sequence by default.  Nothing changes a ``_Rows`` once built, so every
    call of a length and count shares one."""
    return _Rows((length,) * count)


def _steps(block: np.ndarray, n: int) -> np.ndarray:
    """Per-step views of a packed block (..., steps * n, width) of a run with
    n live rows: for one row the block itself, (..., steps, width) vectors,
    where a plain matrix-vector product serves; else (..., steps, n, width,
    1) column vectors, so that one broadcast matmul serves every row."""
    if n == 1:
        return block
    *lead, size, width = block.shape
    return block.reshape(*lead, size // n, n, width, 1)


def _windows(past: np.ndarray, lead: int, order: int) -> np.ndarray:
    """(steps, order+1, rows * units) view of ``past``, a run's (lead +
    steps, rows, units) states: the ``lead`` states before the run, then its
    own, oldest first.  Window k holds step k's state and the ``order``
    states before it, newest first; each time step's rows lie side by side."""
    flat = past.reshape(len(past), -1)
    s0, s1 = flat.strides
    return np.ndarray((len(flat) - lead, order + 1, flat.shape[1]), flat.dtype, flat,
                      lead * s0, (s0, -s0, s1))


def _input_terms(x: np.ndarray, w: np.ndarray, b: np.ndarray, rows: _Rows) -> np.ndarray:
    """``x @ w.T + b`` over packed rows, one product per sequence: a single
    product over all rows would round differently.  Rows of one length take
    one stacked product, ``w`` and ``b`` each shared or a (rows, ...) stack
    of per-row ones; there ``x`` may be one sequence's (T, in) frames that
    every row reads, and with shared weights their terms are computed once."""
    n = len(rows.index)
    if n == 1:      # one sequence: its packed rows are its frames
        return x @ w.T + b
    if len(rows.runs) == 1:
        if len(x) == rows.size:     # every row's frames, as (rows, T, in)
            x = x.reshape(-1, n, x.shape[1]).swapaxes(0, 1)
        z = x @ w.swapaxes(-1, -2) + (b[:, None] if b.ndim == 2 else b)
        if z.ndim == 2:     # one sequence's terms serve every row
            return np.repeat(z, n, axis=0)
        return z.swapaxes(0, 1).reshape(rows.size, -1)
    out = np.empty((rows.size, w.shape[0]), x.dtype)
    for idx in rows.index:
        out[idx] = np.ascontiguousarray(x[idx]) @ w.T + b
    return out


@dataclass
class LayerTape:
    """Per-timestep intermediates of one layer, one packed row (``_Rows``)
    per live sequence and step: for one sequence, arrays are (T, units) and
    row index = t-1.  The tape of one sequence keeps what a backward pass
    needs: a gated layer's input ``x``, every activation (views into one
    per-step block) and the derivatives ``d`` of its states, (T, K, units)
    for its K orders (None without any; row t those of s_t, which the o gate
    read at t and the i and f gates at t+1); a classical RNN layer's ``x``
    and ``h``.  It holds no weights: the backward reads the model's.  A
    gated layer's tape of many sequences keeps ``h`` alone, so a set-level
    forward holds one run's activations at a time."""

    h: np.ndarray
    x: np.ndarray | None = None
    i: np.ndarray | None = None
    f: np.ndarray | None = None
    o: np.ndarray | None = None
    g: np.ndarray | None = None     # candidate tanh activation
    s: np.ndarray | None = None
    tanh_s: np.ndarray | None = None
    d: np.ndarray | None = None


@dataclass
class Tape:
    """Everything a backward pass needs from one forward run."""

    layers: list[LayerTape]
    logits: np.ndarray        # (T, classes), post-tanh confidence scores


@functools.cache
def _binomials(order: int, dtype: np.dtype, ndim: int) -> np.ndarray:
    """The weights (-1)^j C(order, j), j = 0..order, in ``dtype``, as a
    column that broadcasts against ``ndim``-dimensional weights.  At most
    MAX_ORDER + 1 orders per dtype and rank, so the cache stays bounded."""
    col, c = [], 1
    for j in range(order + 1):
        col.append((-1.0) ** j * c)     # c = C(order, j), rounded once
        c = c * (order - j) // (j + 1)
    col = np.array(col).astype(dtype).reshape(-1, *(1,) * ndim)
    col.flags.writeable = False     # every caller shares it
    return col


@functools.lru_cache(maxsize=64)
def _derivative_weights(kind: CellKind, dtype: np.dtype) -> np.ndarray:
    """The derivatives of a ``kind`` layer's state as weights on a window of
    its states, newest first (``_windows``): a (K, 1, max_order+1) stack,
    row k the binomial weights of the k-th of its K orders, zero past them.
    Each row is a product of its own, a vector times the window, which
    numpy runs as a plain loop over the lags in order (the window's
    negative stride admits no BLAS call), so each derivative is bitwise
    ``dos``'s, for one row or many.  The backward reads the same weights to
    spread each derivative's gradient over the states it read."""
    orders = kind.dos_orders
    coef = np.zeros((len(orders), 1, kind.max_order + 1), dtype)
    for row, n in zip(coef, orders):
        row[0, :n + 1] = _binomials(n, dtype, 0)
    coef.flags.writeable = False    # every caller shares it
    return coef


def _mv(w: np.ndarray, n: int):
    """``w`` times a step's vectors into the buffer its second argument
    names: a bound ``dot`` for one row, a stacked matmul for many."""
    return w.dot if n == 1 else functools.partial(np.matmul, w)


# with tied gate hidden weights, the hidden block each of the [i, f, o, s]
# gates reads: w_ih serves the i, f and o gates
_TIED_ROWS = np.array([0, 0, 0, 3])


def _layer_forward(blocks, kind: CellKind, tie: bool, x: np.ndarray,
                   rows: _Rows) -> LayerTape:
    """One gated layer over the packed input ``x`` of the sequences ``rows``
    steps together; ``blocks`` are the layer's weight blocks (``layout``).
    Each run of steps with the same live rows prepares
    its per-step views once and iterates them: each step writes its
    activations straight into the run's rows of the tape arrays, and its
    products into buffers held across steps.  Without DoS terms the o gate
    reads nothing of the new state, so one ``sigmoid`` call writes the i, f
    and o gates.  With them, each step takes the derivatives of its new
    state once, from a window of states (``_derivative_weights``), and one
    product per order of its i|f|o derivative matrices with them, summed
    over the orders in ascending order, gives the o gate's term now and the
    i and f gates' at the next step; a run carries the latter, and the
    states the window reaches back to, into the next."""
    wx, wh, wd, bias = blocks
    u = wh.shape[-1]
    dt = x.dtype
    orders, order = kind.dos_orders, kind.max_order
    if tie:
        wh = np.take(wh.reshape(*wh.shape[:-2], 4, u, u), _TIED_ROWS, -3).reshape(wh.shape)
    # a step reads the state before it (the f gate) and, for its new state's
    # derivatives, up to ``order`` states back; those before the longest
    # sequence's first frame are zeros and add nothing, so the window stops
    depth = min(order, rows.runs[-1][1] - 1)
    lead = max(depth, 1)
    if orders:
        # per order, its w_id, w_fd and w_od matrices as one (3u, u) i|f|o
        # block: (K, 1, 3u, u) shared, (K, rows, 3u, u) per row
        w_d = np.moveaxis(wd, -3, 0).reshape(len(orders), -1, 3 * u, u)
        coef = _derivative_weights(kind, dt)[..., :depth + 1]
        # the derivative terms before a run's first step: zero before a sequence
        p_last = np.zeros((rows.runs[0][2], 3, u), dt)
    zx = _input_terms(x, wx, bias, rows)      # (rows, 4u) input-side gate terms
    add, multiply, tanh, matmul, reduce = np.add, np.multiply, np.tanh, np.matmul, np.add.reduce

    h_a = np.empty((rows.size, u), dt)
    # each run's states start with the states before it, oldest first, and
    # its hidden state with the one before it: zero before a sequence
    hist, h_last = None, np.zeros((rows.runs[0][2], u), dt)
    for t0, t1, n, start, stop in rows.runs:
        steps = t1 - t0
        zx_r, h_r = _steps(zx[start:stop], n), _steps(h_a[start:stop], n)
        # the run's i, f, o, g and tanh s, step by step: a step writes
        # contiguous rows, so one sigmoid can fill the i, f and o gates
        acts = np.empty((steps, 5, n * u), dt)
        acts_r = acts if n == 1 else acts.reshape(steps, 5, n, u, 1)
        i_r, f_r, o_r, g_r, th_r = acts_r.swapaxes(0, 1)
        past = np.zeros((lead + steps, n, u), dt)
        if t0:
            past[:lead] = hist[:, :n]
        past_r = _steps(past.reshape(-1, u), n)
        s_r, sp_r = past_r[lead:], past_r[lead - 1:-1]
        z_all = np.empty((n, 4, u), dt)
        z = _steps(z_all.reshape(n, 4 * u), n)[0]
        gates_r = _steps(z_all.transpose(1, 0, 2), n)[:, 0]
        (z_i, z_f, z_o, z_g), z_ifo = gates_r, gates_r[:3]
        # step buffers for the products wh h and i * g
        zh, ig = np.empty_like(z), np.empty_like(s_r[0])
        wh_mv, h = _mv(wh, n), _steps(h_last[:n], n)[0]
        if not orders:
            for zx_k, ifo_k, g_k, th_k, sp_k, s_k, h_k in zip(
                    zx_r, acts_r[:, :3], g_r, th_r, sp_r, s_r, h_r):
                wh_mv(h, zh)
                add(zx_k, zh, z)
                i_t, f_t, o_t = sigmoid(z_ifo, ifo_k)
                multiply(i_t, tanh(z_g, g_k), ig)
                multiply(f_t, sp_k, s_k)
                s_k += ig
                h = multiply(o_t, tanh(s_k, th_k), h_k)
        else:
            n_orders = len(orders)
            # the run's derivatives, (steps, K, n u): order 0 is the state;
            # only a sequence's tape keeps them, many rows reuse one step's
            if order:
                kept = steps if len(rows.index) == 1 else 1
                d_a = np.empty((kept, n_orders, n * u), dt)
                if kept < steps:    # every step's view is the one buffer
                    d_a = np.lib.stride_tricks.as_strided(d_a, (steps, *d_a.shape[1:]),
                                                          (0, *d_a.strides[1:]))
                win_r = _windows(past, lead, depth)
                dc_r = d_a.reshape(steps, n_orders, 1, n * u)
            else:
                d_a = past[lead:].reshape(steps, 1, n * u)
                win_r = dc_r = (None,) * steps
            # p: the (n, 3, u) derivative terms, i and f rows for the next
            # step and o rows for this one; per order into p_k, then summed
            p = p_last[:n]
            if n == 1:
                p_flat = p.reshape(3 * u)
                z_if, p_if, p_o = z[:2 * u], p_flat[:2 * u], p_flat[2 * u:]
            else:
                z_if, p_if, p_o = z_all[:, :2], p[:, :2], p[:, 2, :, None]
            if n == 1 and n_orders == 1:
                d_mv, d_r, p_k = w_d[0, 0].dot, d_a[:, 0], p_flat
            else:
                d_mv = functools.partial(matmul, w_d)
                d_r = d_a.reshape(steps, n_orders, n, u, 1)
                p_k = (p.reshape(1, n, 3 * u, 1) if n_orders == 1
                       else np.empty((n_orders, n, 3 * u, 1), dt))
            p_sum = p.reshape(n, 3 * u, 1)
            for zx_k, win_k, dc_k, d_k, i_k, f_k, o_k, g_k, th_k, sp_k, s_k, h_k in zip(
                    zx_r, win_r, dc_r, d_r, i_r, f_r, o_r, g_r, th_r, sp_r, s_r, h_r):
                wh_mv(h, zh)
                add(zx_k, zh, z)
                add(z_if, p_if, z_if)
                multiply(sigmoid(z_i, i_k), tanh(z_g, g_k), ig)
                multiply(sigmoid(z_f, f_k), sp_k, s_k)
                s_k += ig
                if order:
                    matmul(coef, win_k, dc_k)
                d_mv(d_k, p_k)
                if n_orders > 1:
                    reduce(p_k, 0, None, p_sum)
                add(z_o, p_o, z_o)
                h = multiply(sigmoid(z_o, o_k), tanh(s_k, th_k), h_k)
            p_last = p
        hist, h_last = past[steps:], h_a[stop - n:stop]
    if len(rows.index) > 1:
        return LayerTape(h=h_a)
    return LayerTape(x=x, i=i_r, f=f_r, o=o_r, g=g_r, s=past[lead:].reshape(-1, u),
                     h=h_a, tanh_s=th_r, d=d_a.reshape(-1, n_orders, u) if orders else None)


def _rnn_layer_forward(blocks, x: np.ndarray, rows: _Rows) -> LayerTape:
    w_hh, w_hx, b_h = blocks
    u = b_h.shape[-1]
    zx = _input_terms(x, w_hx, b_h, rows)
    h_a = np.empty((rows.size, u), x.dtype)
    h = np.zeros((rows.runs[0][2], u), x.dtype)    # the hidden state before a run
    add, tanh = np.add, np.tanh
    for t0, t1, n, start, stop in rows.runs:
        zx_r, h_r = _steps(zx[start:stop], n), _steps(h_a[start:stop], n)
        h, w_hh_mv, zh = _steps(h[:n], n)[0], _mv(w_hh, n), np.empty_like(zx_r[0])
        for zx_k, h_k in zip(zx_r, h_r):
            w_hh_mv(h, zh)
            h = tanh(add(zh, zx_k, h_k), h_k)
        h = h_a[stop - n:stop]
    return LayerTape(h=h_a, x=x if len(rows.runs) == 1 else None)


def _frames(model: Model, frames) -> np.ndarray:
    """``frames`` in the model's weight dtype, once known to be a nonempty
    (T, input_units) sequence: a longdouble copy of a model runs the same
    equations in extended precision."""
    frames = np.asarray(frames, dtype=model.theta.dtype)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ShapeMismatchError("forward pass needs a nonempty (T, dim) sequence")
    if frames.shape[1] != model.config.input_units:
        raise ShapeMismatchError(
            f"model expects input dimension {model.config.input_units}, "
            f"got {frames.shape[1]}"
        )
    return frames


def _layer_tapes(model: Model, x: np.ndarray, rows: _Rows, blocks=None, first: int = 0):
    """Run the stack over the packed frames ``x`` of the sequences ``rows``
    steps together, yielding each layer's tape in turn: layer k consumes
    layer k-1's hidden states.  ``blocks``, per container the blocks
    ``param_blocks`` gives, replace the model's own, and then only the
    layers from ``first`` on run, ``x`` being the input of layer
    ``first``."""
    tie = model.config.tie_gate_hidden_weights
    for (kind, _units), layer in list(zip(model.config.layers, blocks or model.blocks))[first:]:
        if kind.kind == "rnn":
            tape = _rnn_layer_forward(layer, x, rows)
        else:
            tape = _layer_forward(layer, kind, tie, x, rows)
        x = tape.h
        yield tape


def _logits(blocks, h: np.ndarray) -> np.ndarray:
    """The tanh output projection, through the output's ``blocks``, of
    final-layer hidden states: one sequence's (T, u), or a (rows, T, u)
    stack of them.  The blocks are shared or (rows, ...) stacks of per-row
    ones; each row takes the product a one-sequence projection makes."""
    w_yh, b_y = blocks
    z = np.ascontiguousarray(h) @ w_yh.swapaxes(-1, -2)
    return np.tanh(z + (b_y[:, None] if b_y.ndim == 2 else b_y))


def stack_forward(model: Model, frames: np.ndarray) -> Tape:
    """Run the whole stack over a sequence of frames (T x input_units).

    The final layer's hidden state maps through the tanh output projection
    to per-frame confidence scores.  Sequence-level scores are those of the
    last frame.
    """
    frames = _frames(model, frames)
    rows = _equal_lengths(len(frames))
    layer_tapes = list(_layer_tapes(model, frames, rows))
    logits = _logits(model.blocks[-1], layer_tapes[-1].h)
    return Tape(layers=layer_tapes, logits=logits)


def _pack(seqs, rows: _Rows) -> np.ndarray:
    """The frames of ``seqs``, the sequences ``rows`` describes, packed."""
    x = np.empty((rows.size, seqs[0].shape[1]), seqs[0].dtype)
    for frames, idx in zip(seqs, rows.index):
        x[idx] = frames
    return x


def forward_set(model: Model, sequences) -> list[np.ndarray]:
    """The (T, classes) logits ``stack_forward`` gives each of a set of
    sequences, bitwise, in input order.  Up to ``MAX_ROWS`` sequences step
    together through one time loop per layer, longest first; only the layer
    running and the hidden states it reads are kept."""
    seqs = [_frames(model, frames) for frames in sequences]
    # a stable sort: sequences of equal length keep their order
    order = sorted(range(len(seqs)), key=lambda i: -len(seqs[i]))
    logits = [None] * len(seqs)
    for at in range(0, len(order), MAX_ROWS):
        chunk = order[at:at + MAX_ROWS]
        rows = _Rows([len(seqs[i]) for i in chunk])
        for tape in _layer_tapes(model, _pack([seqs[i] for i in chunk], rows), rows):
            pass
        for i, idx in zip(chunk, rows.index):
            logits[i] = _logits(model.blocks[-1], tape.h[idx])
    return logits


def forward_rows(model: Model, blocks, x: np.ndarray, first: int = 0, *,
                 project: slice = slice(None)) -> np.ndarray:
    """The (rows, T, classes) logits of ``model`` run under many weight
    sets, one per row: each row's are bitwise ``stack_forward``'s of its
    model, the rows stepping together.  ``blocks`` holds per container the
    blocks ``param_blocks`` gives, each either the model's own, shared by
    every row, or a (rows, ...) stack of per-row ones; at least one is a
    stack, of rows >= 2.  Only a layer whose input or weights differ across
    rows computes per row: a shared derivative block is laid out by order
    once.  ``x`` is the (T, in) input of layer ``first`` and serves every
    row, so the rows must agree on the layers below it, which do not run.
    ``project`` picks the frames to project, all by default; in longdouble
    each of them is bitwise the same projected alone (numpy's longdouble
    matmul is a plain dot per entry), while in float64 only all frames
    together are sure to be ``stack_forward``'s."""
    n = next(len(b) for layer, own in zip(blocks, model.blocks)
             for b, o in zip(layer, own) if b.ndim > o.ndim)
    steps = len(x)
    for tape in _layer_tapes(model, x, _equal_lengths(steps, n), blocks, first):
        x = tape.h      # packed: every row's frame 0, then frame 1, ...
    # each row's hidden states, or one sequence's serving every row
    return _logits(blocks[-1], x.reshape(steps, -1, x.shape[1]).swapaxes(0, 1)[:, project])


def class_decision(logits: np.ndarray) -> int:
    """The class of a sequence: its highest final-frame score.  Exact where
    the softmax's argmax is not: it can round two close scores to one
    probability."""
    return int(np.argmax(logits[-1]))


def predict_sequence(model: Model, frames: np.ndarray) -> tuple[int, np.ndarray]:
    """``class_decision`` of a sequence, and its final frame's class
    probabilities."""
    logits = stack_forward(model, frames).logits
    return class_decision(logits), softmax(logits[-1])


def predict_set(model: Model, sequences) -> list[int]:
    """``class_decision`` of each of a set of sequences, in input order,
    from one ``forward_set`` call."""
    return [class_decision(logits) for logits in forward_set(model, sequences)]


def dos_energy(model: Model, frames: np.ndarray, layer: int) -> np.ndarray:
    """Per-frame L2 norms of the state derivatives of one layer.

    Returns (T, max_order+1): column k is |d^(k) s_t| for orders 0..max_order
    of the chosen layer (a plain LSTM layer reports order 0 only).  The
    whole stack runs once per sequence: the model keeps every layer's states
    of the last sequence it ran, which serve a call for any layer, so a
    one-off call for a low layer also runs the layers above it.  New values
    of the frames or ``theta`` run it again: a NaN never matches, while
    ``-0.0`` matches ``+0.0``, which changes no energy.
    """
    if not 0 <= layer < len(model.config.layers):
        raise IndexError(f"layer index {layer} out of range")
    kind, _units = model.config.layers[layer]
    if kind.kind == "rnn":
        raise ValueError("classical RNN layers have no internal state derivatives")
    frames = _frames(model, frames)
    memo = model._energy_memo
    if not (np.array_equal(memo.get("frames"), frames)
            and np.array_equal(memo.get("theta"), model.theta)):
        tapes = _layer_tapes(model, frames, _equal_lengths(len(frames)))
        memo.update(frames=frames.copy(), theta=model.theta.copy(),
                    states=[tape.s for tape in tapes])
    s = memo["states"][layer]
    return np.stack([np.linalg.norm(dos(k, s), axis=1)
                     for k in range(kind.max_order + 1)], axis=1)
