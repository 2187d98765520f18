import copy
import math
import pickle
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffrnn.cells as cells
from diffrnn.backprop import backward
from diffrnn.cells import (
    CellKind,
    StackConfig,
    build_model,
    d2rnn_config,
    dos,
    dos_energy,
    forward_set,
    predict_sequence,
    predict_set,
    stack_forward,
    stacked_lstm_config,
)
from diffrnn.data import Dataset, Sequence
from diffrnn.numerics import ShapeMismatchError, seeded_rng, sigmoid
from diffrnn.train import apply_sgd_step, evaluate, loss_frame
from reference import ref_dos, ref_stack_logits


def random_frames(rng, t, dim, scale=1.0):
    return rng.normal(scale=scale, size=(t, dim))


def small_model(layers, input_units=3, classes=2, seed=0, tie=False):
    cfg = StackConfig(layers=tuple(layers), input_units=input_units,
                      output_classes=classes, tie_gate_hidden_weights=tie)
    return build_model(cfg, seed=seed)


class TestCellKind:
    def test_dos_orders(self):
        assert CellKind("dos", 2).dos_orders == (2,)
        assert CellKind("drnn", 2).dos_orders == (0, 1, 2)
        assert CellKind("lstm").dos_orders == ()
        assert CellKind("rnn").dos_orders == ()

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            CellKind("gru")

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            CellKind("dos", -1)

    def test_order_bound(self):
        assert cells.MAX_ORDER == 1029
        assert CellKind("drnn", 1029).dos_orders[-1] == 1029
        with pytest.raises(ValueError, match=r"derivative order must be in 0\.\.1029, got 1030"):
            CellKind("dos", 1030)

    def test_weights_of_the_highest_order_are_finite(self):
        n = cells.MAX_ORDER
        assert np.isfinite(cells._binomials(n, np.dtype(np.float64), 1)).all()
        with pytest.raises(OverflowError):
            cells._binomials(n + 1, np.dtype(np.float64), 1)


class TestDos:
    def test_order0_is_state(self):
        s = np.array([1.0, -2.0])
        assert np.array_equal(dos(0, np.array([[9.0, 9.0], s]))[1], s)

    def test_order1_is_difference(self):
        s, p = np.array([3.0, 1.0]), np.array([1.0, 4.0])
        assert np.array_equal(dos(1, np.array([p, s]))[1], [2.0, -3.0])

    def test_order2_hand(self):
        states = np.array([[2.0], [3.0], [5.0]])   # s_{t-2}, s_{t-1}, s_t
        # 5 - 2*3 + 2 = 1
        assert np.array_equal(dos(2, states)[2], [1.0])

    def test_order3_binomial(self):
        states = np.ones((4, 1))
        # 1 - 3 + 3 - 1 = 0
        assert np.array_equal(dos(3, states)[3], [0.0])

    def test_missing_history_is_zero_padded(self):
        assert np.array_equal(dos(2, np.array([[1.0], [4.0]]))[1], [2.0])  # 4 - 2*1 + 0
        assert np.array_equal(dos(2, np.array([[4.0]]))[0], [4.0])

    def test_matches_reference(self):
        rng = seeded_rng(11)
        states = rng.normal(size=(6, 3))
        for order in range(5):
            mine = dos(order, states)
            for t in range(6):
                ref = ref_dos(order, states, t)
                assert np.allclose(mine[t], ref, atol=1e-12)

    @given(st.integers(1, 5), st.integers(0, 4))
    def test_constant_states_vanish_above_order0(self, dim, order):
        # derivative of any order >= 1 of a constant trajectory is zero
        states = np.full((order + 1, dim), 1.5)
        d = dos(order, states)[-1]
        expected = states[-1] if order == 0 else np.zeros(dim)
        assert np.array_equal(d, expected)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["f64", "ld"])
    @pytest.mark.parametrize("order", [*range(13), 100, cells.MAX_ORDER])
    def test_equals_per_lag_loop(self, order, dtype):
        # the reference: one math.comb weight and one add per lag, every lag
        # to the order, even those reaching before the first state
        def per_lag(states):
            out = states.copy()
            for j in range(1, order + 1):
                out[j:] += (-1.0) ** j * math.comb(order, j) * states[:-j]
            return out

        for length in (1, 2, 3, 7, 13, 40):
            states = seeded_rng(length).normal(size=(length, 3)).astype(dtype)
            assert_bitwise(dos(order, states), per_lag(states))

    @given(st.integers(1, 4))
    def test_iterated_differencing(self, order):
        # dos(n) equals dos(1) applied to the order-(n-1) derivative stream
        rng = seeded_rng(order)
        states = rng.normal(size=(8, 2))
        direct = dos(order, states)
        via_chain = dos(1, dos(order - 1, states))
        assert np.allclose(direct, via_chain, atol=1e-12)


class TestLstmStepHand:
    """Fully hand-derived one-step LSTM check with scalar units."""

    def _tiny(self):
        model = small_model([(CellKind("lstm"), 1)], input_units=1, classes=2)
        p = model.layers[0]
        p.w_ix[:] = 0.5; p.w_fx[:] = -0.25; p.w_ox[:] = 1.0; p.w_sx[:] = 2.0
        p.w_ih[:] = 0.0; p.w_fh[:] = 0.0; p.w_oh[:] = 0.0; p.w_sh[:] = 0.0
        p.b_i[:] = 0.0; p.b_f[:] = 1.0; p.b_o[:] = 0.0; p.b_s[:] = 0.0
        return model, p

    def test_first_step(self):
        model, p = self._tiny()
        tape = stack_forward(model, np.array([[1.0]]))
        lt = tape.layers[0]
        # [DERIVED] i = sigma(0.5), f = sigma(0.75), o = sigma(1), g = tanh(2)
        i = 1 / (1 + np.exp(-0.5))
        o = 1 / (1 + np.exp(-1.0))
        g = np.tanh(2.0)
        s = i * g          # previous state is zero, so f contributes nothing
        h = o * np.tanh(s)
        assert abs(lt.i[0, 0] - i) < 1e-15
        assert abs(lt.f[0, 0] - 1 / (1 + np.exp(-0.75))) < 1e-15
        assert abs(lt.o[0, 0] - o) < 1e-15
        assert abs(lt.s[0, 0] - s) < 1e-15
        assert abs(lt.h[0, 0] - h) < 1e-15

    def test_second_step_uses_forget_gate(self):
        model, p = self._tiny()
        tape = stack_forward(model, np.array([[1.0], [0.0]]))
        lt = tape.layers[0]
        s1 = lt.s[0, 0]
        # x=0, h coeffs are zero: i2 = sigma(0)=0.5, f2 = sigma(1), g2 = 0
        f2 = 1 / (1 + np.exp(-1.0))
        assert abs(lt.s[1, 0] - f2 * s1) < 1e-15


class TestForwardAgainstReference:
    ARCHS = [
        [(CellKind("lstm"), 4)],
        [(CellKind("dos", 0), 4)],
        [(CellKind("dos", 1), 4)],
        [(CellKind("dos", 2), 3), (CellKind("dos", 1), 3)],
        [(CellKind("drnn", 2), 4)],
        [(CellKind("rnn"), 4)],
        [(CellKind("rnn"), 3), (CellKind("lstm"), 3)],
    ]

    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: "+".join(
        f"{k.kind}{k.order}" for k, _ in a))
    def test_logits_match_naive_oracle(self, arch):
        model = small_model(arch, input_units=3, classes=3, seed=7)
        # lengths 1 and 2 are shorter than the lag window of order-2 cells
        for length in (1, 2, 6):
            frames = random_frames(seeded_rng(21), length, 3)
            tape = stack_forward(model, frames)
            ref = ref_stack_logits(model, frames)
            assert np.max(np.abs(tape.logits - np.array(ref))) < 1e-12, length

    def test_tied_gate_weights_match_oracle(self):
        model = small_model([(CellKind("dos", 1), 4)], seed=3, tie=True)
        frames = random_frames(seeded_rng(4), 5, 3)
        tape = stack_forward(model, frames)
        ref = ref_stack_logits(model, frames)
        assert np.max(np.abs(tape.logits - np.array(ref))) < 1e-12

    @pytest.mark.parametrize("layers", [
        [(CellKind("rnn"), 4)],
        [(CellKind("drnn", 2), 4)],
        [(CellKind("dos", k), 4) for k in range(3)],
    ], ids=["rnn", "drnn2", "d2rnn3"])
    def test_longdouble_model_runs_in_longdouble(self, layers):
        # grad_check runs this forward on a longdouble copy of the model
        model = small_model(layers, seed=5)
        ld = replace(model, theta=model.theta.astype(np.longdouble))
        frames = random_frames(seeded_rng(6), 6, 3)
        tape = stack_forward(ld, frames)
        assert tape.logits.dtype == np.longdouble
        assert all(lt.h.dtype == np.longdouble for lt in tape.layers)
        f64 = stack_forward(model, frames).logits
        assert np.max(np.abs(tape.logits - f64)) < 1e-12

    def test_dos0_gate_inputs_differ_from_lstm(self):
        # an order-0 cell feeds the raw state into its gates; with nonzero
        # w_*d matrices its trajectory must diverge from the LSTM that shares
        # every other matrix
        lstm = small_model([(CellKind("lstm"), 4)], seed=2)
        dos0 = small_model([(CellKind("dos", 0), 4)], seed=2)
        for name in ("w_ix", "w_fx", "w_ox", "w_sx", "w_ih", "w_fh", "w_oh",
                     "w_sh", "b_i", "b_f", "b_o", "b_s"):
            getattr(dos0.layers[0], name)[...] = getattr(lstm.layers[0], name)
        frames = random_frames(seeded_rng(3), 6, 3)
        a = stack_forward(lstm, frames).logits
        b = stack_forward(dos0, frames).logits
        assert np.max(np.abs(a - b)) > 1e-6

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_hidden_states_bounded(self, seed):
        model = small_model([(CellKind("dos", 1), 3)], seed=seed % 1000)
        frames = random_frames(seeded_rng(seed), 5, 3, scale=5.0)
        tape = stack_forward(model, frames)
        # h = sigmoid * tanh stays in (-1, 1); logits are tanh-bounded too
        assert np.all(np.abs(tape.layers[0].h) <= 1.0)
        assert np.all(np.abs(tape.logits) <= 1.0)
        assert np.all(np.isfinite(tape.logits))


class TestBuildersAndShapes:
    def test_d2rnn_config_orders(self):
        cfg = d2rnn_config(depth=3, input_units=5, units=4, classes=2)
        assert [k.order for k, _ in cfg.layers] == [0, 1, 2]
        assert all(k.kind == "dos" for k, _ in cfg.layers)

    def test_stacked_lstm_config(self):
        cfg = stacked_lstm_config(depth=2, input_units=5, units=4, classes=3)
        assert all(k.kind == "lstm" for k, _ in cfg.layers)
        assert len(cfg.layers) == 2

    def test_build_model_shapes(self):
        model = build_model(d2rnn_config(2, 5, 4, 3), seed=1)
        assert model.layers[0].w_ix.shape == (4, 5)
        assert model.layers[1].w_ix.shape == (4, 4)
        assert model.layers[1].w_id[1].shape == (4, 4)
        assert model.output.w_yh.shape == (3, 4)

    @pytest.mark.parametrize("input_units, units", [(0, 4), (3, 0), (3, -1)])
    def test_units_must_be_positive(self, input_units, units):
        # zero units used to reach the initial draw and divide by zero
        with pytest.raises(ValueError, match="units must be >= 1"):
            StackConfig(((CellKind("lstm"), 4), (CellKind("lstm"), units)),
                        input_units, 2)

    def test_forget_bias_init(self):
        model = build_model(d2rnn_config(1, 3, 4, 2), seed=1)
        assert np.array_equal(model.layers[0].b_f, np.ones(4))

    def test_build_deterministic(self):
        cfg = d2rnn_config(2, 3, 4, 2)
        a, b = build_model(cfg, seed=5), build_model(cfg, seed=5)
        assert np.array_equal(a.layers[0].w_ix, b.layers[0].w_ix)
        assert np.array_equal(a.output.w_yh, b.output.w_yh)

    def test_input_dim_mismatch(self):
        model = build_model(d2rnn_config(1, 3, 4, 2), seed=0)
        with pytest.raises(ShapeMismatchError):
            stack_forward(model, np.zeros((5, 4)))

    def test_empty_sequence_rejected(self):
        model = build_model(d2rnn_config(1, 3, 4, 2), seed=0)
        with pytest.raises(ShapeMismatchError):
            stack_forward(model, np.zeros((0, 3)))


LAYOUT_ARCHS = {
    "rnn": [CellKind("rnn")],
    "lstm": [CellKind("lstm")],
    "dos2": [CellKind("dos", 2)],
    "drnn3": [CellKind("drnn", 3)],
    "d2rnn3": [CellKind("dos", k) for k in range(3)],
    "mixed": [CellKind("rnn"), CellKind("drnn", 1), CellKind("lstm")],
}


class TestLayout:
    @pytest.mark.parametrize("arch", list(LAYOUT_ARCHS))
    def test_blocks_tile_each_container(self, arch):
        kinds = LAYOUT_ARCHS[arch]
        model = small_model([(kind, 4) for kind in kinds], input_units=3)
        at = 0
        for li, (_, fields, blocks) in enumerate(model.layout):
            width = 3 if li == 0 else 4
            if li == len(kinds):
                want = [(2, 4), (2,)]
            elif kinds[li].kind == "rnn":
                want = [(4, 4), (4, width), (4,)]
            else:   # an lstm's derivative block is empty
                want = [(16, width), (16, 4), (3, len(kinds[li].dos_orders), 4, 4), (16,)]
            assert [shape for _, _, shape in blocks] == want
            # contiguous, each the size of its shape, from where the last
            # container ended to where its fields' arrays end
            for a, b, shape in blocks:
                assert a == at and b - a == math.prod(shape)
                at = b
            assert at == max(b for _, _, entries in fields for _, _, b, _ in entries)
        assert at == model.theta.size == cells.container_ends(model.layout)[-1]

    @pytest.mark.parametrize("arch", list(LAYOUT_ARCHS))
    def test_param_blocks_of_a_row_stack_are_per_row_views(self, arch):
        model = small_model([(kind, 4) for kind in LAYOUT_ARCHS[arch]], input_units=3)
        stack = model.theta + seeded_rng(0).normal(size=(2, model.theta.size))
        per_row = cells.param_blocks(model.layout, stack)
        assert len(per_row) == len(model.blocks) == len(model.layout)
        for views, (_, _, blocks) in zip(per_row, model.layout):
            assert len(views) == len(blocks)
            for v, (a, b, shape) in zip(views, blocks):
                assert v.shape == (2, *shape) and v.base is stack
                for r in range(2):
                    assert np.array_equal(v[r].ravel(), stack[r, a:b])


class TestPredictAndEnergy:
    def test_predict_probabilities(self):
        model = build_model(d2rnn_config(2, 3, 4, 3), seed=4)
        frames = random_frames(seeded_rng(5), 6, 3)
        label, p = predict_sequence(model, frames)
        assert p.shape == (3,)
        assert abs(p.sum() - 1.0) < 1e-12
        assert label == int(np.argmax(p))

    def test_dos_energy_shape_and_order0(self):
        model = build_model(d2rnn_config(3, 3, 4, 2), seed=4)
        frames = random_frames(seeded_rng(6), 5, 3)
        e = dos_energy(model, frames, layer=2)  # order-2 layer
        assert e.shape == (5, 3)
        tape = stack_forward(model, frames)
        norms = np.linalg.norm(tape.layers[2].s, axis=1)
        assert np.allclose(e[:, 0], norms, atol=1e-12)

    def test_dos_energy_order1_matches_reference(self):
        model = build_model(d2rnn_config(2, 3, 4, 2), seed=4)
        frames = random_frames(seeded_rng(7), 5, 3)
        e = dos_energy(model, frames, layer=1)
        s = list(stack_forward(model, frames).layers[1].s)
        for t in range(5):
            assert abs(e[t, 1] - np.linalg.norm(ref_dos(1, s, t))) < 1e-12

    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_dos_energy_is_of_the_forward_states(self, layer):
        model = build_model(d2rnn_config(3, 3, 4, 2), seed=4)
        frames = random_frames(seeded_rng(6), 5, 3)
        s = stack_forward(model, frames).layers[layer].s
        want = np.stack([np.linalg.norm(dos(k, s), axis=1) for k in range(layer + 1)], axis=1)
        assert np.array_equal(dos_energy(model, frames, layer), want)

    def test_dos_energy_rejects_rnn_layer(self):
        model = small_model([(CellKind("rnn"), 4)])
        with pytest.raises(ValueError):
            dos_energy(model, np.zeros((3, 3)), layer=0)

    def test_dos_energy_layer_out_of_range(self):
        model = build_model(d2rnn_config(1, 3, 4, 2), seed=0)
        with pytest.raises(IndexError):
            dos_energy(model, np.zeros((3, 3)), layer=5)


# stacks of two or more gated layers, one under an rnn layer
MEMO_ARCHS = {
    "d2rnn3": [("dos", 0), ("dos", 1), ("dos", 2)],
    "drnn2+lstm": [("drnn", 2), ("lstm", 0)],
    "mixed": [("rnn", 0), ("drnn", 1), ("lstm", 0)],
}
# orders of calls over a stack's gated layers
MEMO_ORDERS = {"ascending": lambda g: g,
               "descending": lambda g: g[::-1],
               "mixed": lambda g: [g[1], g[0], g[-1], g[1], g[0]]}


def gated(arch):
    """The layers of a ``MEMO_ARCHS`` stack that have internal states."""
    return [li for li, (kind, _) in enumerate(MEMO_ARCHS[arch]) if kind != "rnn"]


class TestEnergyMemo:
    """A model keeps the layer states of the last sequence ``dos_energy``
    ran on it: the whole stack runs once per sequence, and nothing stale is
    ever served."""

    @staticmethod
    def memo_model(arch, seed=4):
        return small_model([(CellKind(k, n), 4) for k, n in MEMO_ARCHS[arch]], seed=seed)

    @staticmethod
    def cold(model, frames, layer):
        # a copy made by replace starts with no memo
        return dos_energy(replace(model), frames, layer)

    @staticmethod
    def count_runs(monkeypatch):
        """The list that every layer forward, gated or rnn, appends to."""
        runs = []
        for name in ("_layer_forward", "_rnn_layer_forward"):
            real = getattr(cells, name)
            monkeypatch.setattr(cells, name,
                                lambda *a, real=real: runs.append(1) or real(*a))
        return runs

    @pytest.mark.parametrize("order", list(MEMO_ORDERS))
    @pytest.mark.parametrize("arch", list(MEMO_ARCHS))
    def test_any_call_order_gives_cold_energies(self, arch, order):
        model = self.memo_model(arch)
        frames = random_frames(seeded_rng(6), 7, 3)
        for layer in MEMO_ORDERS[order](gated(arch)):
            assert_bitwise(dos_energy(model, frames, layer), self.cold(model, frames, layer))

    @pytest.mark.parametrize("arch", list(MEMO_ARCHS))
    def test_each_layer_runs_once_per_sequence(self, monkeypatch, arch):
        n = len(MEMO_ARCHS[arch])
        frames = random_frames(seeded_rng(6), 7, 3)
        runs = self.count_runs(monkeypatch)
        for first in gated(arch):
            model = self.memo_model(arch)
            dos_energy(model, frames, first)
            assert len(runs) == n       # cold, for any layer: every layer once
            for layer in gated(arch):
                dos_energy(model, frames, layer)
            assert len(runs) == n       # read from the memo
            runs.clear()

    @pytest.mark.parametrize("arch", list(MEMO_ARCHS))
    def test_an_sgd_step_starts_over(self, arch):
        model = self.memo_model(arch)
        frames = random_frames(seeded_rng(6), 7, 3)
        dos_energy(model, frames, gated(arch)[-1])
        grad = seeded_rng(7).normal(size=model.theta.size)
        apply_sgd_step(model, grad, 0.1, None)
        for layer in gated(arch)[::-1]:
            assert_bitwise(dos_energy(model, frames, layer), self.cold(model, frames, layer))

    @pytest.mark.parametrize("arch", list(MEMO_ARCHS))
    def test_an_edited_frame_starts_over(self, arch):
        model = self.memo_model(arch)
        frames = random_frames(seeded_rng(6), 7, 3)
        dos_energy(model, frames, gated(arch)[0])
        frames[3, 1] += 0.5     # in place, in the caller's array
        for layer in gated(arch):
            assert_bitwise(dos_energy(model, frames, layer), self.cold(model, frames, layer))

    @pytest.mark.parametrize("arch", list(MEMO_ARCHS))
    def test_a_longdouble_copy_runs_in_longdouble(self, arch):
        model = self.memo_model(arch)
        frames = random_frames(seeded_rng(6), 7, 3)
        dos_energy(model, frames, gated(arch)[-1])
        ld = longdouble_copy(model)
        for layer in gated(arch)[::-1]:
            got = dos_energy(ld, frames, layer)
            assert_bitwise(got, dos_energy(longdouble_copy(model), frames, layer))

    @pytest.mark.parametrize("arch", list(MEMO_ARCHS))
    def test_a_longdouble_copy_runs_each_layer_once(self, monkeypatch, arch):
        # the memo is keyed by value, so longdouble frames, whose padding
        # bytes differ from call to call, still match
        model = longdouble_copy(self.memo_model(arch))
        frames = random_frames(seeded_rng(6), 7, 3)
        want = {layer: self.cold(model, frames, layer) for layer in gated(arch)}
        runs = self.count_runs(monkeypatch)
        for layer in gated(arch):
            assert_bitwise(dos_energy(model, frames, layer), want[layer])
        assert len(runs) == len(MEMO_ARCHS[arch])

    @pytest.mark.parametrize("arch", list(MEMO_ARCHS))
    def test_a_zero_of_the_other_sign_gives_cold_energies(self, monkeypatch, arch):
        model = self.memo_model(arch)
        frames = random_frames(seeded_rng(6), 7, 3)
        frames[2, 1] = frames[5, 0] = 0.0
        dos_energy(model, frames, gated(arch)[-1])
        flipped = frames.copy()
        flipped[2, 1] = flipped[5, 0] = -0.0
        want = {layer: self.cold(model, flipped, layer) for layer in gated(arch)}
        runs = self.count_runs(monkeypatch)
        for layer in gated(arch):
            assert_bitwise(dos_energy(model, flipped, layer), want[layer])
        assert not runs     # equal values: read from the memo

    def test_frames_holding_a_nan_always_run_cold(self, monkeypatch):
        model = self.memo_model("d2rnn3")
        frames = random_frames(seeded_rng(6), 7, 3)
        frames[4, 2] = np.nan
        runs = self.count_runs(monkeypatch)
        for calls in (1, 2):
            assert np.isnan(dos_energy(model, frames, 1)).any()
            assert len(runs) == 3 * calls       # the whole stack, every call

    def test_models_with_equal_theta_share_no_states(self, monkeypatch):
        frames = random_frames(seeded_rng(6), 7, 3)
        a, b = self.memo_model("d2rnn3"), self.memo_model("d2rnn3")
        assert np.array_equal(a.theta, b.theta)
        want = dos_energy(a, frames, 2)
        runs = self.count_runs(monkeypatch)
        dos_energy(b, frames, 2)
        assert len(runs) == 3       # b runs every layer of its own
        b.theta[0] += 0.5
        assert_bitwise(dos_energy(a, frames, 2), want)
        assert len(runs) == 3       # a still holds its states

    @pytest.mark.parametrize("make_copy", [lambda m: pickle.loads(pickle.dumps(m)),
                                           copy.deepcopy, replace],
                             ids=["pickle", "deepcopy", "replace"])
    def test_copies_carry_no_memo(self, monkeypatch, make_copy):
        model = self.memo_model("d2rnn3")
        frames = random_frames(seeded_rng(6), 7, 3)
        want = dos_energy(model, frames, 2)
        clone = make_copy(model)
        assert "_energy_memo" not in vars(clone)
        runs = self.count_runs(monkeypatch)
        assert_bitwise(dos_energy(clone, frames, 2), want)
        assert len(runs) == 3


# every cell kind, stacked, and a mixed stack; (kind, order) per layer
SET_ARCHS = {
    "rnn": [("rnn", 0)],
    "lstm": [("lstm", 0)],
    "dos0": [("dos", 0)],
    "dos2": [("dos", 2)],
    "drnn2": [("drnn", 2)],
    "d2rnn3": [("dos", 0), ("dos", 1), ("dos", 2)],
    "stacked2": [("lstm", 0), ("lstm", 0)],
    "mixed": [("rnn", 0), ("drnn", 1), ("lstm", 0)],
}
# ragged sets: 1-40 sequences of 1-30 frames; drawing from a few lengths
# as often as from all of them makes ties common
set_lengths = st.lists(st.one_of(st.integers(1, 30), st.sampled_from([1, 2, 7])),
                       min_size=1, max_size=40)


def set_model(arch, tie=False, seed=0):
    return small_model([(CellKind(k, n), 3) for k, n in SET_ARCHS[arch]], classes=3,
                       seed=seed, tie=tie)


def longdouble_copy(model):
    return replace(model, theta=model.theta.astype(np.longdouble))


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    # longdouble's padding bytes are not part of its value
    assert np.array_equal(a, b) and (a.dtype == np.longdouble or a.tobytes() == b.tobytes())


class TestForwardSet:
    """The set-level forward against one ``stack_forward`` per sequence."""

    @pytest.mark.parametrize("tie", [False, True], ids=["untied", "tied"])
    @pytest.mark.parametrize("arch", list(SET_ARCHS))
    @given(lengths=set_lengths, seed=st.integers(0, 2 ** 16))
    @settings(max_examples=12, deadline=None)
    def test_logits_match_one_sequence_at_a_time(self, arch, tie, lengths, seed):
        model = set_model(arch, tie, seed % 7)
        rng = seeded_rng(seed)
        seqs = [random_frames(rng, t, 3) for t in lengths]
        got = forward_set(model, seqs)
        assert len(got) == len(seqs)
        for frames, logits in zip(seqs, got):   # input order, not length order
            assert_bitwise(logits, stack_forward(model, frames).logits)

    @pytest.mark.parametrize("arch", ["rnn", "d2rnn3", "mixed"])
    @given(lengths=set_lengths, seed=st.integers(0, 2 ** 16))
    @settings(max_examples=8, deadline=None)
    def test_longdouble_model(self, arch, lengths, seed):
        model = longdouble_copy(set_model(arch, seed=seed % 7))
        rng = seeded_rng(seed)
        seqs = [random_frames(rng, t, 3) for t in lengths]
        for frames, logits in zip(seqs, forward_set(model, seqs)):
            assert logits.dtype == np.longdouble
            assert_bitwise(logits, stack_forward(model, frames).logits)

    def test_more_sequences_than_one_call_holds(self, monkeypatch):
        model = set_model("d2rnn3", seed=1)
        rng = seeded_rng(2)
        seqs = [random_frames(rng, t, 3) for t in (5, 1, 9, 5, 3, 9, 2, 5, 8, 4, 6)]
        monkeypatch.setattr(cells, "MAX_ROWS", 4)
        for frames, logits in zip(seqs, forward_set(model, seqs)):
            assert_bitwise(logits, stack_forward(model, frames).logits)

    def test_decisions_match_predict_sequence(self):
        model = set_model("drnn2", seed=3)
        rng = seeded_rng(4)
        seqs = [random_frames(rng, t, 3, scale=3.0) for t in (4, 12, 1, 12, 7, 3)]
        assert predict_set(model, seqs) == [predict_sequence(model, f)[0] for f in seqs]

    @pytest.mark.parametrize("arch", ["lstm", "d2rnn3", "mixed"])
    @given(lengths=set_lengths, seed=st.integers(0, 2 ** 16))
    @settings(max_examples=8, deadline=None)
    def test_evaluate_matches_per_sequence_loop(self, arch, lengths, seed):
        model = set_model(arch, seed=seed % 7)
        rng = seeded_rng(seed)
        data = Dataset([Sequence(random_frames(rng, t, 3), int(rng.integers(3)))
                        for t in lengths], ["a", "b", "c"])
        # the oracle: one stack_forward per sequence, losses summed in order
        total, confusion = 0.0, np.zeros((3, 3), dtype=np.int64)
        for seq in data.sequences:
            logits = stack_forward(model, seq.frames).logits
            total += loss_frame(logits, [seq.label])[0]
            confusion[seq.label, int(np.argmax(logits[-1]))] += 1
        got = evaluate(model, data)
        assert got.mean_loss == total / len(lengths)
        assert got.accuracy == float(np.trace(confusion)) / len(lengths)
        assert np.array_equal(got.confusion, confusion)

    def test_width_mismatch_raises_before_any_work(self, monkeypatch):
        model = set_model("lstm")
        runs = []
        monkeypatch.setattr(cells, "_layer_forward", lambda *a: runs.append(1))
        seqs = [np.zeros((4, 3)), np.zeros((2, 3)), np.zeros((5, 4))]
        with pytest.raises(ShapeMismatchError,
                           match=r"^model expects input dimension 3, got 4$"):
            forward_set(model, seqs)
        with pytest.raises(ShapeMismatchError, match="nonempty"):
            forward_set(model, [np.zeros((4, 3)), np.zeros((0, 3))])
        assert runs == []


class TestForwardRows:
    """Per-row weights: each row of a (rows, P) stack of parameter vectors
    runs as a model of its own, bitwise."""

    @staticmethod
    def row_models(model, vectors):
        for v in vectors:
            other = longdouble_copy(model)
            other.theta[:] = v
            yield other

    def test_param_views_of_rows(self):
        model = set_model("drnn2", tie=True)
        vectors = np.stack([model.theta, 2.0 * model.theta, -model.theta])
        layer, output = cells.param_views(model.layout, vectors)
        assert layer.w_id[2].shape == (3, 3, 3) and output.b_y.shape == (3, 3)
        assert np.shares_memory(layer.w_ix, vectors)
        assert np.array_equal(layer.w_fd[1][1], 2.0 * model.layers[0].w_fd[1])

    @pytest.mark.parametrize("tie", [False, True], ids=["untied", "tied"])
    @pytest.mark.parametrize("arch", list(SET_ARCHS))
    def test_rows_match_stack_forward(self, arch, tie):
        # every frame's logits, in float64 as well as in longdouble
        model = set_model(arch, tie, seed=2)
        rng = seeded_rng(3)
        frames = random_frames(rng, 6, 3)
        vectors = model.theta + rng.normal(scale=0.1, size=(5, model.theta.size))
        for dtype in (np.float64, np.longdouble):
            typed = replace(model, theta=model.theta.astype(dtype))
            x, rows = frames.astype(dtype), vectors.astype(dtype)
            got = cells.forward_rows(typed, cells.param_blocks(typed.layout, rows), x)
            assert got.shape == (5, 6, 3)
            for y, v in zip(got, rows):
                assert_bitwise(y, stack_forward(replace(typed, theta=v), x).logits)

    @pytest.mark.parametrize("arch", ["lstm", "d2rnn3", "mixed"])
    def test_float64_logits_are_a_matvec_of_the_last_frame(self, arch):
        # in float64 each row's final-frame logits are stack_forward's,
        # bitwise, and so come from the gemm over all frames: the matvec of
        # the last frame's hidden state alone agrees up to rounding
        model = set_model(arch, seed=7)
        rng = seeded_rng(8)
        frames = random_frames(rng, 6, 3)
        vectors = model.theta + rng.normal(scale=0.1, size=(4, model.theta.size))
        got = cells.forward_rows(model, cells.param_blocks(model.layout, vectors), frames)
        for y, v in zip(got, vectors):
            other = replace(model)
            other.theta[:] = v
            tape = stack_forward(other, frames)
            assert_bitwise(y[-1], tape.logits[-1])
            w_yh, b_y = other.output.w_yh, other.output.b_y
            matvec = np.tanh((w_yh @ tape.layers[-1].h[-1][:, None])[:, 0] + b_y)
            assert np.allclose(y[-1], matvec, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("first", [1, 2, 3])
    def test_layers_below_first_do_not_run(self, first, monkeypatch):
        model = longdouble_copy(set_model("mixed", seed=4))
        frames = random_frames(seeded_rng(5), 4, 3).astype(np.longdouble)
        tape = stack_forward(model, frames)
        x = tape.layers[first].x if first < 3 else tape.layers[-1].h
        # the rows agree below layer ``first`` and differ from it on
        start = cells.container_ends(model.layout)[first - 1]
        vectors = np.repeat(model.theta[None], 4, axis=0)
        vectors[:, start:] += seeded_rng(6).normal(scale=0.1, size=(4, model.theta.size - start))
        expected = [stack_forward(m, frames).logits for m in self.row_models(model, vectors)]
        ran = []
        real = cells._layer_forward
        monkeypatch.setattr(cells, "_layer_forward", lambda *a: ran.append(1) or real(*a))
        rows = cells.forward_rows(model, cells.param_blocks(model.layout, vectors), x, first)
        for y, e in zip(rows, expected):
            assert_bitwise(y, e)
        assert len(ran) == (first <= 1) + (first <= 2)

    def test_last_frame_alone_in_longdouble(self):
        # grad_check projects each row's last frame alone: in longdouble it
        # is bitwise that frame of the projection of every frame
        model = longdouble_copy(set_model("mixed", seed=2))
        rng = seeded_rng(3)
        frames = random_frames(rng, 6, 3).astype(np.longdouble)
        vectors = model.theta + rng.normal(scale=0.1, size=(4, model.theta.size))
        blocks = cells.param_blocks(model.layout, vectors)
        every = cells.forward_rows(model, blocks, frames)
        assert_bitwise(cells.forward_rows(model, blocks, frames, project=np.s_[-1:]),
                       every[:, -1:])


class TestDerivativeTerms:
    """A DoS layer's gates read its state's derivatives, taken once a step
    from a window of states, whichever caller runs it."""

    ORDER3 = {"dos3": [("dos", 3)], "drnn3": [("drnn", 3)],
              "d2rnn3": [("dos", 0), ("dos", 1), ("dos", 2)]}

    @pytest.mark.parametrize("arch", list(ORDER3))
    def test_wide_layers_match_oracle(self, arch):
        # 48 units over 30-40 frames, one sequence, a ragged set and rows
        model = small_model([(CellKind(k, n), 48) for k, n in self.ORDER3[arch]],
                            input_units=5, classes=3, seed=3)
        rng = seeded_rng(4)
        seqs = [random_frames(rng, t, 5) for t in (40, 33, 30, 37, 31)]
        refs = [np.array(ref_stack_logits(model, frames)) for frames in seqs]
        for frames, ref in zip(seqs, refs):
            assert np.max(np.abs(stack_forward(model, frames).logits - ref)) < 1e-9
        for logits, ref in zip(forward_set(model, seqs), refs):
            assert np.max(np.abs(logits - ref)) < 1e-9
        vectors = model.theta + rng.normal(scale=0.05, size=(3, model.theta.size))
        rows = cells.forward_rows(model, cells.param_blocks(model.layout, vectors), seqs[2])
        for logits, v in zip(rows, vectors):
            other = replace(model)
            other.theta[:] = v
            assert np.max(np.abs(logits - np.array(ref_stack_logits(other, seqs[2])))) < 1e-9

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["f64", "ld"])
    @pytest.mark.parametrize("arch", list(ORDER3))
    def test_window_crosses_run_boundaries(self, arch, dtype):
        # neighbouring lengths differ by less than the highest order, so a
        # step's window reaches back across runs of one and two steps
        model = small_model([(CellKind(k, n), 3) for k, n in self.ORDER3[arch]],
                            classes=3, seed=5)
        model = replace(model, theta=model.theta.astype(dtype))
        rng = seeded_rng(6)
        seqs = [random_frames(rng, t, 3).astype(dtype) for t in (9, 8, 8, 6, 5, 3, 2, 1)]
        for frames, logits in zip(seqs, forward_set(model, seqs)):
            assert_bitwise(logits, stack_forward(model, frames).logits)

    def test_many_rows_keep_one_step_of_derivatives(self):
        # a set-level forward keeps no tape, so a high order's derivatives,
        # 101 rows of them per frame here, take one step's buffer, not 1.5 MiB
        model = small_model([(CellKind("drnn", 100), 2)], input_units=2, seed=9)
        rng = seeded_rng(10)
        seqs = [random_frames(rng, 120, 2) for _ in range(8)]
        forward_set(model, seqs[:1])
        tracemalloc.start()
        try:
            forward_set(model, seqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120 * 101 * 8 * 2 * 8 // 2

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["f64", "ld"])
    @pytest.mark.parametrize("kind", [CellKind("dos", 0), CellKind("dos", 3),
                                      CellKind("drnn", 4)], ids=["dos0", "dos3", "drnn4"])
    def test_tape_derivatives_are_dos(self, kind, dtype):
        # the tape keeps each order's derivatives of the states, bitwise dos's,
        # which the backward's weight gradients read
        model = small_model([(kind, 4)], seed=7)
        model = replace(model, theta=model.theta.astype(dtype))
        layer = stack_forward(model, random_frames(seeded_rng(8), 7, 3)).layers[0]
        assert layer.d.shape == (7, len(kind.dos_orders), 4)
        for k, n in enumerate(kind.dos_orders):
            assert_bitwise(layer.d[:, k], dos(n, layer.s))


def _lag_weights_per_pair(params, orders):
    """The DoS gate terms of ``orders`` folded into weights on past states,
    by a loop over every (order, lag) pair: a (K+1, 4u, u) stack whose
    block j weighs s_{t-1-j} (i and f rows: lags 0..K of the previous
    state's derivatives; o rows: lags 1..K of the current state's; s rows
    zero), K the highest order, and the o gate's (u, u) weight on s_t."""
    w = params.w_ih
    u = w.shape[-1]
    lags = np.zeros((max(orders, default=0) + 1, *w.shape[:-2], 4 * u, u), w.dtype)
    cur = np.zeros(w.shape, w.dtype)
    for n in orders:
        cur += params.w_od[n]
        for j in range(n + 1):
            c = (-1.0) ** j * math.comb(n, j)
            lags[j, ..., :u, :] += c * params.w_id[n]
            lags[j, ..., u:2 * u, :] += c * params.w_fd[n]
            if j:
                lags[j - 1, ..., 2 * u:3 * u, :] += c * params.w_od[n]
    return lags, cur


def _lag_logits(model, theta, frames):
    """The logits of the one-layer gated ``model`` under the 1-D parameter
    vector ``theta``, its DoS gate terms taken as the per-pair lag weights
    (``_lag_weights_per_pair``) times the past states: the fold of the
    derivatives into weights on states, in the dtype of ``theta``."""
    (kind, u), = model.config.layers
    layer, out = cells.param_views(model.layout, theta)
    lags, cur = _lag_weights_per_pair(layer, kind.dos_orders)
    wx = np.concatenate([layer.w_ix, layer.w_fx, layer.w_ox, layer.w_sx])
    wh = np.concatenate([layer.w_ih, layer.w_fh, layer.w_oh, layer.w_sh])
    b = np.concatenate([layer.b_i, layer.b_f, layer.b_o, layer.b_s])
    past = [np.zeros(u, theta.dtype)] * len(lags)    # s_{t-1}, s_{t-2}, ...
    h, hs = np.zeros(u, theta.dtype), []
    for x in frames.astype(theta.dtype):
        z = wx @ x + wh @ h + b + sum(w @ s for w, s in zip(lags, past))
        i, f = 1 / (1 + np.exp(-z[:u])), 1 / (1 + np.exp(-z[u:2 * u]))
        s = f * past[0] + i * np.tanh(z[3 * u:])
        h = np.tanh(s) / (1 + np.exp(-(z[2 * u:3 * u] + cur @ s)))
        past = [s] + past[:-1]
        hs.append(h)
    return np.tanh(np.array(hs) @ out.w_yh.T + out.b_y)


class TestLagWeights:
    @pytest.mark.parametrize("rows", [0, 3], ids=["shared", "per_row"])
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["f64", "ld"])
    @pytest.mark.parametrize("kind, order", [("dos", n) for n in range(7)]
                             + [("drnn", n) for n in range(13)])
    def test_equals_per_pair_loop(self, kind, order, dtype, rows):
        # the forward's derivative-form DoS terms (binomial windows of the
        # states, one product per order) are the per-pair lag weights on
        # past states, for shared and per-row weights, whose transpose the
        # backward's state gradient takes; the 8 frames leave the window
        # of orders above 7 cut at the sequence's start
        model = small_model([(CellKind(kind, order), 3)], seed=order)
        theta = model.theta.astype(dtype)
        frames = random_frames(seeded_rng(order), 8, 3)
        if rows:
            noise = seeded_rng(order).normal(scale=0.3, size=(rows, theta.size))
            thetas = theta + noise.astype(dtype)
            got = cells.forward_rows(model, cells.param_blocks(model.layout, thetas),
                                     frames.astype(dtype))
        else:
            thetas = theta[None]
            got = stack_forward(replace(model, theta=theta), frames).logits[None]
        assert got.dtype == dtype
        tol = 1e-13 if dtype == np.float64 else 1e-16
        for row, logits in zip(thetas, got):
            np.testing.assert_allclose(logits, _lag_logits(model, row, frames), rtol=0, atol=tol)

    def test_highest_drnn_order_runs(self):
        # a drnn:1029 layer has 1029 * 1030 / 2 (order, lag) pairs; its
        # derivatives take one product per order and step, the backward one
        # product of every order's matrices per step, spread by the binomial
        # weights over the states back to the sequence's start, and
        # dos_energy one dos call per order, stopping at the sequence's last
        # lag
        model = small_model([(CellKind("drnn", cells.MAX_ORDER), 5)], input_units=2)
        frames = seeded_rng(0).normal(size=(3, 2))
        start = time.perf_counter()
        tape = stack_forward(model, frames)
        assert time.perf_counter() - start < 5.0
        assert tape.logits.shape == (3, 2) and np.isfinite(tape.logits).all()
        start = time.perf_counter()
        grad = backward(model, tape, loss_frame(tape.logits, [1, 0, 1])[1], truncated=False)
        assert time.perf_counter() - start < 5.0
        w_od = dict(cells.param_arrays(model.layout, grad))[f"layer0.w_od[{cells.MAX_ORDER}]"]
        assert np.isfinite(grad).all() and w_od.any()
        start = time.perf_counter()
        energy = dos_energy(model, frames, 0)
        assert time.perf_counter() - start < 5.0
        assert energy.shape == (3, cells.MAX_ORDER + 1) and np.isfinite(energy).all()


def _with_lstm_weights(lstm, dos0, vec):
    """A ``dos0`` parameter vector holding the arrays ``vec`` gives ``lstm``
    (a one-layer lstm model) and zero DoS matrices: the same equations."""
    out = np.zeros(dos0.theta.size, vec.dtype)
    src = dict(cells.param_arrays(lstm.layout, vec))
    for name, arr in cells.param_arrays(dos0.layout, out):
        if name in src:
            arr[...] = src[name]
    return out


class TestFusedGates:
    """An lstm layer fills its i, f and o gates with one sigmoid call; a
    dos:0 layer with zero DoS matrices runs the same equations gate by gate,
    and the two agree on every path."""

    @staticmethod
    def pair(seed):
        lstm = set_model("lstm", seed=seed)
        dos0 = set_model("dos0", seed=seed)
        dos0.theta[:] = _with_lstm_weights(lstm, dos0, lstm.theta)
        return lstm, dos0

    def test_one_row(self):
        lstm, dos0 = self.pair(1)
        frames = random_frames(seeded_rng(2), 7, 3, scale=2.0)
        a, b = stack_forward(lstm, frames), stack_forward(dos0, frames)
        for name in ("i", "f", "o", "g", "s", "tanh_s", "h"):
            assert np.array_equal(getattr(a.layers[0], name), getattr(b.layers[0], name))
        assert np.array_equal(a.logits, b.logits)

    def test_ragged_set(self):
        lstm, dos0 = self.pair(3)
        rng = seeded_rng(4)
        seqs = [random_frames(rng, t, 3, scale=2.0) for t in (5, 1, 9, 5, 3, 9, 2)]
        for a, b in zip(forward_set(lstm, seqs), forward_set(dos0, seqs)):
            assert np.array_equal(a, b)

    def test_per_row(self):
        lstm, dos0 = (longdouble_copy(m) for m in self.pair(5))
        rng = seeded_rng(6)
        frames = random_frames(rng, 6, 3).astype(np.longdouble)
        vectors = lstm.theta + rng.normal(scale=0.1, size=(4, lstm.theta.size))
        dos0_vectors = np.stack([_with_lstm_weights(lstm, dos0, v) for v in vectors])
        a = cells.forward_rows(lstm, cells.param_blocks(lstm.layout, vectors), frames)
        b = cells.forward_rows(dos0, cells.param_blocks(dos0.layout, dos0_vectors), frames)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("arch, per_step", [("lstm", 1), ("stacked2", 2), ("dos0", 3),
                                                ("drnn2", 3), ("mixed", 4)])
    def test_sigmoid_calls_per_step(self, monkeypatch, arch, per_step):
        calls = []
        monkeypatch.setattr(cells, "sigmoid", lambda v, out=None: calls.append(1) or sigmoid(v, out))
        stack_forward(set_model(arch), np.ones((6, 3)))
        assert len(calls) == 6 * per_step
