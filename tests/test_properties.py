"""Properties that hold for every stack the config grammar allows.

Hypothesis draws a ``StackConfig`` of 1-3 layers of ``rnn``, ``lstm``,
``dos:n`` and ``drnn:N`` (orders 0-9, some reaching past the sequence),
1-5 units, tied or untied gate hidden weights, a sequence of 1-8 frames
and which weight blocks differ across the rows of a per-row forward; every
draw must agree with the reference oracle, the gradient check, the
checkpoint round trip and the set-level and per-row forwards.
The benchmark's correctness checks (``perfbench/checks.py``) read the same
models through their named arrays; their reader is pinned here too.
"""
import dataclasses
import importlib.util
import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from diffrnn.backprop import backward, grad_check
from diffrnn.cells import (
    CellKind,
    StackConfig,
    build_model,
    d2rnn_config,
    forward_rows,
    forward_set,
    layout,
    param_blocks,
    stack_forward,
)
from diffrnn.numerics import seeded_rng
from diffrnn.train import checkpoint_load, checkpoint_save, loss_frame

ORACLE_TOL = 1e-9

_spec = importlib.util.spec_from_file_location(
    "perfbench_checks", pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

KINDS = st.one_of(st.sampled_from([CellKind("rnn"), CellKind("lstm")]),
                  st.builds(CellKind, st.sampled_from(["dos", "drnn"]), st.integers(0, 9)))


@st.composite
def cases(draw):
    """A model of a drawn config, its frames, a label, ragged prefix
    lengths of the frames, and for a per-row forward whether each weight
    block differs across the rows and a container above the first to
    start at."""
    layers = tuple((draw(KINDS), draw(st.integers(1, 5)))
                   for _ in range(draw(st.integers(1, 3))))
    config = StackConfig(layers, draw(st.integers(1, 3)), draw(st.integers(2, 3)),
                         tie_gate_hidden_weights=draw(st.booleans()))
    steps = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 1000))
    frames = seeded_rng(seed).normal(size=(steps, config.input_units))
    label = draw(st.integers(0, config.output_classes - 1))
    lengths = draw(st.lists(st.integers(1, steps), min_size=1, max_size=5))
    blocks = sum(len(spans) for _, _, spans in layout(config))
    per_row = draw(st.lists(st.booleans(), min_size=blocks, max_size=blocks))
    first = draw(st.integers(1, len(layers)))
    return build_model(config, seed=seed), frames, label, lengths, (per_row, first)


def row_blocks(model, vectors, per_row, first):
    """Per container the blocks ``forward_rows`` takes: the ``vectors``'
    per-row stacks where ``per_row`` marks a block of container ``first`` or
    above, else the model's own; the first block of container ``first``
    is per-row if no other is."""
    stacks = param_blocks(model.layout, vectors)
    marks = iter(per_row)
    chosen = [[next(marks) and c >= first for _ in own] for c, own in enumerate(model.blocks)]
    if not any(map(any, chosen)):
        chosen[first][0] = True
    return [tuple(row if mark else block for row, block, mark in zip(rows, own, marks))
            for rows, own, marks in zip(stacks, model.blocks, chosen)]


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    # longdouble's padding bytes are not part of its value
    assert np.array_equal(a, b) and (a.dtype == np.longdouble or a.tobytes() == b.tobytes())


def assert_read_by_the_benchmark(model, frames):
    """The benchmark's checks count a model's parameters and chain the
    oracle through its layers by their named arrays."""
    assert checks.param_count(model) == model.theta.size
    tape = stack_forward(model, frames)
    for k, (kind, _units) in enumerate(model.config.layers):
        if kind.kind != "rnn":
            states = np.array(checks.ref_layer_states(reference, model, frames, k))
            assert np.max(np.abs(states - tape.layers[k].s)) <= ORACLE_TOL


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=cases())
def test_every_config_agrees_with_every_oracle(case, tmp_path_factory):
    model, frames, label, lengths, (per_row, first) = case
    tape = stack_forward(model, frames)
    want = np.array(reference.ref_stack_logits(model, frames))
    assert np.max(np.abs(tape.logits - want)) <= ORACLE_TOL

    report = grad_check(model, frames, label)
    assert report.passed, report.format(5)

    if all(kind.max_order == 0 for kind, _ in model.config.layers):
        _, dlogits = loss_frame(tape.logits, [label])
        assert_bitwise(backward(model, tape, dlogits, truncated=True),
                       backward(model, tape, dlogits, truncated=False))

    path = tmp_path_factory.mktemp("ckpt") / "m.json"
    checkpoint_save(model, path)
    saved = path.read_bytes()
    checkpoint_save(checkpoint_load(path), path)
    assert path.read_bytes() == saved

    prefixes = [frames[:n] for n in lengths]
    for got, seq in zip(forward_set(model, prefixes), prefixes):
        assert_bitwise(got, stack_forward(model, seq).logits)
    # sequences of one length take one stacked input product per layer
    scaled = [frames * (1.0 + 0.5 * k) for k in range(3)]
    for got, seq in zip(forward_set(model, scaled), scaled):
        assert_bitwise(got, stack_forward(model, seq).logits)

    # per-row weights for some blocks, shared ones for the others, from
    # layer 0 and from a later container: the rows agree below it; every
    # frame's logits, in float64 and in longdouble
    for dtype in (np.float64, np.longdouble):
        typed = dataclasses.replace(model, theta=model.theta.astype(dtype))
        x = frames.astype(dtype)
        typed_tape = stack_forward(typed, x)
        inputs = [lt.x for lt in typed_tape.layers] + [typed_tape.layers[-1].h]
        rng = seeded_rng(label)
        for start in (0, first):
            vectors = np.repeat(typed.theta[None], 3, axis=0)
            blocks = row_blocks(typed, vectors, per_row, start)
            for rows, own in zip(blocks, typed.blocks):
                for block, shared in zip(rows, own):
                    if block is not shared:     # a view into ``vectors``
                        block += rng.normal(scale=0.1, size=block.shape)
            for got, vector in zip(forward_rows(typed, blocks, inputs[start], start), vectors):
                want = stack_forward(dataclasses.replace(typed, theta=vector), x).logits
                assert_bitwise(got, want)

    assert_read_by_the_benchmark(model, frames)


def test_benchmark_reads_a_d2rnn():
    model = build_model(d2rnn_config(3, 4, 5, 3), seed=2)
    assert_read_by_the_benchmark(model, seeded_rng(2).normal(size=(7, 4)))
