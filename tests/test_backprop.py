import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import diffrnn.backprop as bp
import diffrnn.cells as cells
from diffrnn.backprop import backward, grad_check
from diffrnn.cells import (
    CellKind,
    StackConfig,
    build_model,
    d2rnn_config,
    dos,
    param_arrays,
    param_views,
    stack_forward,
    stacked_lstm_config,
)
from diffrnn.cli import build_config
from diffrnn.numerics import seeded_rng, sigmoid, softmax
from diffrnn.train import apply_sgd_step, loss_frame


def small_model(layers, input_units=3, classes=2, seed=0, tie=False):
    cfg = StackConfig(layers=tuple(layers), input_units=input_units,
                      output_classes=classes, tie_gate_hidden_weights=tie)
    return build_model(cfg, seed=seed)


def named(model, vec) -> dict:
    """The arrays of ``vec``, laid out like ``model.theta``, by name."""
    return dict(param_arrays(model.layout, vec))


class TestContainers:
    def test_zeros_like_model_shapes(self):
        model = build_model(d2rnn_config(2, 3, 4, 2), seed=0)
        zeros = np.zeros_like(model.theta)
        for (name, arr), (zname, zarr) in zip(param_arrays(model.layout, model.theta),
                                              param_arrays(model.layout, zeros)):
            assert name == zname
            assert arr.shape == zarr.shape
            assert zarr.base is zeros and not np.any(zarr)

    def test_param_arrays_order_stable(self):
        model = build_model(d2rnn_config(2, 3, 4, 2), seed=0)
        names = [n for n, _ in param_arrays(model.layout, model.theta)]
        assert names == [n for n, _ in param_arrays(model.layout, model.theta)]
        assert names[0] == "layer0.w_ix"
        assert names[-1] == "output.b_y"
        assert "layer1.w_id[1]" in names

    def test_param_arrays_of_a_row_stack_are_per_row_views(self):
        model = small_model([(CellKind("drnn", 1), 3), (CellKind("rnn"), 2)])
        stack = model.theta + seeded_rng(0).normal(size=(3, model.theta.size))
        rows = list(param_arrays(model.layout, stack))
        assert [n for n, _ in rows] == [n for n, _ in param_arrays(model.layout, model.theta)]
        for r, vec in enumerate(stack):
            for (name, a), (_, b) in zip(rows, param_arrays(model.layout, vec)):
                assert a.shape == (3, *b.shape) and a.base is stack, name
                assert np.array_equal(a[r], b), name

    def test_param_names_pinned(self):
        cfg = StackConfig(((CellKind("rnn"), 3), (CellKind("drnn", 2), 3),
                           (CellKind("lstm"), 3)), 3, 2)
        model = build_model(cfg, seed=0)
        names = [n for n, _ in param_arrays(model.layout, model.theta)]
        mats = ["w_ix", "w_fx", "w_ox", "w_sx", "w_ih", "w_fh", "w_oh", "w_sh"]
        biases = ["b_i", "b_f", "b_o", "b_s"]
        drnn = [f"{d}[{n}]" for d in ("w_id", "w_fd", "w_od") for n in range(3)]
        assert names == (
            ["layer0.w_hh", "layer0.w_hx", "layer0.b_h"]
            + [f"layer1.{n}" for n in mats + drnn + biases]
            + [f"layer2.{n}" for n in mats + biases]
            + ["output.w_yh", "output.b_y"])

    @pytest.mark.parametrize("truncated", [False, True], ids=["full", "truncated"])
    def test_gradients_are_views_into_one_fresh_vector(self, truncated):
        model = small_model([(CellKind("rnn"), 3), (CellKind("drnn", 2), 4),
                             (CellKind("dos", 1), 3)], tie=True)
        tape = stack_forward(model, seeded_rng(1).normal(size=(5, 3)))
        _, dlogits = loss_frame(tape.logits, [1])
        grad = backward(model, tape, dlogits, truncated)
        items = list(param_arrays(model.layout, grad))
        assert [n for n, _ in items] == [n for n, _ in param_arrays(model.layout, model.theta)]
        assert all(a.base is grad for _, a in items)
        assert np.array_equal(np.concatenate([a.ravel() for _, a in items]), grad)
        again = backward(model, tape, dlogits, truncated)
        assert not np.shares_memory(again, grad)
        assert np.array_equal(again, grad)

    @pytest.mark.parametrize("truncated", [False, True], ids=["full", "truncated"])
    def test_backward_returns_a_fresh_float64_vector(self, truncated):
        model = small_model([(CellKind("lstm"), 3), (CellKind("dos", 2), 4)])
        tape = stack_forward(model, seeded_rng(4).normal(size=(5, 3)))
        _, dlogits = loss_frame(tape.logits, [0])
        grad = backward(model, tape, dlogits, truncated)
        assert type(grad) is np.ndarray
        assert grad.dtype == np.float64 and grad.shape == (model.theta.size,)
        assert grad.flags.c_contiguous and grad.flags.owndata
        assert not np.shares_memory(grad, model.theta)
        assert not any(np.shares_memory(grad, a) for lt in tape.layers
                       for a in vars(lt).values() if isinstance(a, np.ndarray))
        assert not np.shares_memory(backward(model, tape, dlogits, truncated), grad)

    def test_unclipped_step_leaves_the_gradient_untouched(self):
        model = small_model([(CellKind("rnn"), 3), (CellKind("drnn", 2), 4),
                             (CellKind("lstm"), 3)], tie=True)
        tape = stack_forward(model, seeded_rng(2).normal(size=(5, 3)))
        _, dlogits = loss_frame(tape.logits, [1])
        grad = backward(model, tape, dlogits, truncated=False)
        kept = grad.copy()
        stepped = replace(model)
        apply_sgd_step(stepped, grad, 0.1)
        assert np.array_equal(grad, kept)
        assert np.array_equal(stepped.theta, model.theta - 0.1 * kept)
        # param_views gives the gradient's containers, their arrays in field
        # order the views param_arrays names
        *layers, output = cells.param_views(model.layout, grad)
        fields = [a for p in (*layers, output) for v in vars(p).values()
                  for a in (v.values() if isinstance(v, dict) else [v])]
        assert all(a.base is grad for a in fields)
        assert ([a.__array_interface__ for a in fields]
                == [a.__array_interface__ for a in named(model, grad).values()])

    def test_clipped_step_scales_the_vector_by_the_norm(self):
        model = small_model([(CellKind("dos", 1), 4)])
        tape = stack_forward(model, seeded_rng(3).normal(size=(6, 3)))
        _, dlogits = loss_frame(tape.logits, [0])
        grad = backward(model, tape, dlogits, truncated=False)
        kept = grad.copy()
        norm = math.sqrt(sum(float(np.sum(a * a)) for a in named(model, grad).values()))
        clip = 0.5 * norm
        stepped = replace(model)
        apply_sgd_step(stepped, grad, 0.1, clip_norm=clip)
        expected = model.theta - 0.1 * (grad * (clip / norm))
        assert np.array_equal(stepped.theta, expected)
        assert np.array_equal(grad, kept)

    def test_non_finite_gradient_raises(self):
        model = build_model(d2rnn_config(1, 3, 4, 2), seed=0)
        tape = stack_forward(model, np.ones((4, 3)))
        dlogits = np.zeros((4, 2))
        dlogits[-1] = np.inf
        names_one = r"non-finite gradient in (layer0|output)\.\w+"
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=names_one):
            backward(model, tape, dlogits, truncated=False)

    def test_dlogits_shape_checked(self):
        model = build_model(d2rnn_config(1, 3, 4, 2), seed=0)
        tape = stack_forward(model, np.zeros((4, 3)))
        with pytest.raises(ValueError):
            backward(model, tape, np.zeros((3, 2)), truncated=False)


class TestSequenceLoss:
    def test_loss_value(self):
        logits = np.array([[0.0, 0.0], [2.0, -1.0]])
        p = softmax(logits[-1])
        loss, d = loss_frame(logits, [1])
        assert abs(loss + np.log(p[1])) < 1e-12

    def test_grad_only_on_last_frame(self):
        logits = np.array([[0.5, -0.5], [0.1, 0.2], [1.0, 0.0]])
        _, d = loss_frame(logits, [0])
        assert not np.any(d[:-1])
        # softmax-minus-onehot rows sum to zero
        assert abs(d[-1].sum()) < 1e-12
        assert d[-1][0] < 0 < d[-1][1]


class TestOutputLayerClosedForm:
    def test_w_yh_gradient(self):
        model = build_model(d2rnn_config(1, 3, 4, 3), seed=2)
        frames = seeded_rng(3).normal(size=(5, 3))
        tape = stack_forward(model, frames)
        _, dlogits = loss_frame(tape.logits, [1])
        grads = backward(model, tape, dlogits, truncated=False)
        # y_t = tanh(W h_t + b): dW = sum_t (dy_t * (1 - y_t^2)) h_t^T
        expected_w = np.zeros_like(model.output.w_yh)
        expected_b = np.zeros_like(model.output.b_y)
        for t in range(5):
            du = dlogits[t] * (1.0 - tape.logits[t] ** 2)
            expected_w += np.outer(du, tape.layers[-1].h[t])
            expected_b += du
        g = named(model, grads)
        assert np.max(np.abs(g["output.w_yh"] - expected_w)) < 1e-12
        assert np.max(np.abs(g["output.b_y"] - expected_b)) < 1e-12


class TestHandOneStepLstm:
    """Scalar one-step LSTM, full chain rule written out longhand."""

    def test_input_weight_gradients(self):
        model = small_model([(CellKind("lstm"), 1)], input_units=1, classes=2)
        p = model.layers[0]
        p.w_ix[:] = 0.5; p.w_fx[:] = -0.25; p.w_ox[:] = 1.0; p.w_sx[:] = 2.0
        p.w_ih[:] = 0.0; p.w_fh[:] = 0.0; p.w_oh[:] = 0.0; p.w_sh[:] = 0.0
        p.b_i[:] = 0.0; p.b_f[:] = 1.0; p.b_o[:] = 0.0; p.b_s[:] = 0.0
        model.output.w_yh[:] = np.array([[1.0], [-1.0]])
        model.output.b_y[:] = 0.0
        x = 1.0
        frames = np.array([[x]])

        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        i = sig(0.5); f = sig(0.75); o = sig(1.0); g = np.tanh(2.0)
        s = i * g                      # s_prev = 0
        th = np.tanh(s)
        h = o * th
        y0, y1 = np.tanh(h), np.tanh(-h)
        e0, e1 = np.exp(y0), np.exp(y1)
        # loss = -log softmax(y)[0]
        p0 = e0 / (e0 + e1)
        dL_dy0, dL_dy1 = p0 - 1.0, (1.0 - p0)
        dL_dh = dL_dy0 * (1 - y0 ** 2) * 1.0 + dL_dy1 * (1 - y1 ** 2) * (-1.0)
        dL_do = dL_dh * th
        dL_ds = dL_dh * o * (1 - th ** 2)
        dL_di = dL_ds * g
        dL_dg = dL_ds * i
        # s_prev = 0 so the forget path carries no weight gradient
        exp_w_ox = dL_do * o * (1 - o) * x
        exp_w_ix = dL_di * i * (1 - i) * x
        exp_w_sx = dL_dg * (1 - g ** 2) * x
        exp_w_fx = 0.0

        tape = stack_forward(model, frames)
        _, dlogits = loss_frame(tape.logits, [0])
        grads = backward(model, tape, dlogits, truncated=False)
        gl = cells.param_views(model.layout, grads)[0]
        assert abs(gl.w_ox[0, 0] - exp_w_ox) < 1e-14
        assert abs(gl.w_ix[0, 0] - exp_w_ix) < 1e-14
        assert abs(gl.w_sx[0, 0] - exp_w_sx) < 1e-14
        assert abs(gl.w_fx[0, 0] - exp_w_fx) < 1e-14
        # bias gradients are the same minus the x factor (x = 1 here, so equal)
        assert abs(gl.b_o[0] - exp_w_ox) < 1e-14


class TestLinearity:
    def test_backward_linear_in_dlogits(self):
        model = build_model(d2rnn_config(2, 3, 4, 3), seed=5)
        frames = seeded_rng(6).normal(size=(5, 3))
        tape = stack_forward(model, frames)
        rng = seeded_rng(7)
        d1 = rng.normal(size=tape.logits.shape)
        d2 = rng.normal(size=tape.logits.shape)
        g1 = backward(model, tape, d1, truncated=False)
        g2 = backward(model, tape, d2, truncated=False)
        g12 = backward(model, tape, 2.0 * d1 + 3.0 * d2, truncated=False)
        combo = named(model, g12)
        for (name, a), (_, b) in zip(param_arrays(model.layout, g1),
                                     param_arrays(model.layout, g2)):
            lhs = combo[name]
            rhs = 2.0 * a + 3.0 * b
            scale = max(1.0, float(np.max(np.abs(rhs))) if rhs.size else 0.0)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale, name


ARCHS = {
    "lstm": lambda: stacked_lstm_config(1, 3, 3, 2),
    "dos1": lambda: StackConfig(((CellKind("dos", 1), 3),), 3, 2),
    "drnn2": lambda: StackConfig(((CellKind("drnn", 2), 3),), 3, 2),
    "d2rnn2": lambda: d2rnn_config(2, 3, 3, 2),
    "rnn+lstm": lambda: StackConfig(((CellKind("rnn"), 3), (CellKind("lstm"), 3)), 3, 2),
    "tied": lambda: StackConfig(((CellKind("dos", 1), 3),), 3, 2,
                                tie_gate_hidden_weights=True),
}


# more entries in every layer than one chunk of rows holds, tied, with
# every cell kind
WIDE = StackConfig(((CellKind("rnn"), 6), (CellKind("drnn", 1), 4), (CellKind("dos", 2), 5)),
                   3, 3, tie_gate_hidden_weights=True)


def _per_entry_reference(model, frames, label, h=1e-5):
    """(name, analytic, numeric, rel_error) per entry, the numeric side from
    two whole-stack longdouble ``stack_forward`` runs per entry."""
    tape = stack_forward(model, frames)
    _, dlogits = loss_frame(tape.logits, [label])
    analytic = backward(model, tape, dlogits, truncated=False)
    ld_model = replace(model, theta=model.theta.astype(np.longdouble))
    ld_frames = frames.astype(np.longdouble)
    theta, hl = ld_model.theta, np.longdouble(h)

    def loss():
        return -np.log(softmax(stack_forward(ld_model, ld_frames).logits[-1])[label])

    names = [f"{name}{list(idx)}" for name, arr in param_arrays(model.layout, model.theta)
             for idx in np.ndindex(arr.shape)]
    out = []
    for k, name in enumerate(names):
        orig = theta[k]
        theta[k] = orig + hl
        lp = loss()
        theta[k] = orig - hl
        lm = loss()
        theta[k] = orig
        gn, ga = float((lp - lm) / (2.0 * hl)), float(analytic[k])
        out.append((name, ga, gn, abs(ga - gn) / max(abs(ga), abs(gn), 1e-8)))
    return out


class TestGradCheck:
    @pytest.mark.parametrize("name", sorted(ARCHS))
    def test_full_gradient_passes(self, name):
        model = build_model(ARCHS[name](), seed=11)
        frames = seeded_rng(12).normal(size=(5, 3))
        report = grad_check(model, frames, label=1)
        assert report.passed, report.format()

    @pytest.mark.parametrize("steps", [1, 2])
    def test_drnn3_passes_on_sequences_shorter_than_its_orders(self, steps):
        # the state gradient's window of past states stops at the first frame
        model = small_model([(CellKind("drnn", 3), 3)], seed=11)
        report = grad_check(model, seeded_rng(12).normal(size=(steps, 3)), label=1)
        assert report.passed, report.format()

    def test_fault_injection_is_caught(self, monkeypatch):
        # a backward pass that is wrong by 5% anywhere must fail the check
        real = bp.backward

        def corrupted(model, tape, dlogits, truncated):
            g = real(model, tape, dlogits, truncated)
            w_ix = named(model, g)["layer0.w_ix"]
            w_ix[...] = w_ix * 1.05 + 1e-6
            return g

        monkeypatch.setattr(bp, "backward", corrupted)
        model = build_model(ARCHS["dos1"](), seed=11)
        frames = seeded_rng(12).normal(size=(5, 3))
        report = bp.grad_check(model, frames, label=1)
        assert not report.passed
        assert report.worst.startswith("layer0.w_ix")

    def test_planted_forward_bug_is_caught(self, monkeypatch):
        # both sides of the check run the production forward; a gate whose
        # forward no longer matches the derivative the backward pass assumes
        # must still fail it
        monkeypatch.setattr(cells, "sigmoid", lambda v, out=None: sigmoid(1.01 * v, out=out))
        model = build_model(ARCHS["dos1"](), seed=11)
        frames = seeded_rng(12).normal(size=(5, 3))
        assert grad_check(model, frames, label=1).passed is False

    @pytest.mark.parametrize("name", sorted(ARCHS) + ["wide"])
    def test_report_equals_per_entry_loop(self, name):
        # the rows of one call must give, entry by entry, the numbers of two
        # whole-stack longdouble forwards per entry
        model = build_model(ARCHS[name]() if name != "wide" else WIDE, seed=11)
        frames = seeded_rng(12).normal(size=(5, 3))
        report = grad_check(model, frames, label=1)
        got = [(e.name, e.analytic, e.numeric, e.rel_error) for e in report.entries]
        assert got == _per_entry_reference(model, frames, label=1)

    def test_wide_model_chunks_stop_at_container_ends(self, monkeypatch):
        # a chunk holds MAX_ROWS // 2 entries; every container here holds
        # more, and would end inside a chunk counted from entry 0
        model = build_model(WIDE, seed=11)
        ends = cells.container_ends(model.layout)
        sizes = np.diff([0, *ends])
        per_chunk = cells.MAX_ROWS // 2
        assert min(sizes[:-1]) > per_chunk
        assert all(end % per_chunk for end in ends[:-1])
        # yet each forward_rows call perturbs entries of one container, and
        # starts at its layer
        calls = []
        real = bp.forward_rows

        def spy(ld_model, blocks, x, first=0, **kw):
            ks = np.concatenate([start + np.flatnonzero((b != own).reshape(len(b), -1).any(axis=0))
                                 for layer, owns, (_, _, spans) in zip(blocks, ld_model.blocks,
                                                                       ld_model.layout)
                                 for b, own, (start, _, _) in zip(layer, owns, spans)
                                 if b is not own])
            calls.append((first, set(np.searchsorted(ends, ks, side="right"))))
            return real(ld_model, blocks, x, first, **kw)

        monkeypatch.setattr(bp, "forward_rows", spy)
        bp.grad_check(model, seeded_rng(12).normal(size=(5, 3)), label=1)
        assert all(containers == {first} for first, containers in calls)
        assert sorted({first for first, _ in calls}) == list(range(len(ends)))

    @pytest.mark.parametrize("config", [
        WIDE,
        # one-unit layers: a chunk's entries span every block of a container
        StackConfig(((CellKind("rnn"), 1), (CellKind("drnn", 1), 1)), 1, 2,
                    tie_gate_hidden_weights=True)], ids=["wide", "one_unit"])
    def test_rows_carry_only_the_blocks_holding_their_entries(self, monkeypatch, config):
        # rows 2i and 2i+1 of a call move one entry by +h and -h; a call's
        # per-row stacks are the blocks holding its entries, and every other
        # block is the model's own array
        model = build_model(config, seed=11)
        entries = []
        real = bp.forward_rows

        def spy(ld_model, blocks, x, first=0, **kw):
            moved, stacks = {}, []
            for layer, owns, (_, _, spans) in zip(blocks, ld_model.blocks, ld_model.layout):
                for b, own, (start, stop, _) in zip(layer, owns, spans):
                    if b is not own:
                        assert b.shape[1:] == own.shape
                        stacks.append((start, stop, len(b)))
                        diff = (b - own).reshape(len(b), -1)
                        for row, col in zip(*np.nonzero(diff)):
                            moved.setdefault(row, []).append((start + col, np.sign(diff[row, col])))
            pairs = len(moved) // 2
            assert sorted(moved) == list(range(2 * pairs))
            ks = [moved[2 * i][0][0] for i in range(pairs)]
            for i, k in enumerate(ks):
                assert moved[2 * i] == [(k, 1)] and moved[2 * i + 1] == [(k, -1)]
            assert sorted(stacks) == stacks     # blocks in vector order
            assert [(start, stop) for start, stop, _ in stacks] == [
                (start, stop) for _, _, spans in ld_model.layout for start, stop, _ in spans
                if any(start <= k < stop for k in ks)]
            assert all(rows == 2 * len(ks) for _, _, rows in stacks)
            entries.extend(ks)
            return real(ld_model, blocks, x, first, **kw)

        monkeypatch.setattr(bp, "forward_rows", spy)
        bp.grad_check(model, seeded_rng(12).normal(size=(5, config.input_units)), label=1)
        assert entries == list(range(model.theta.size))

    def test_wide_chunks_stay_within_the_byte_budget(self, monkeypatch):
        # MAX_ROWS rows of this model would take several times the budget
        # (their peak, about 2.1 MiB, is the per-row copies of its blocks and
        # what the forward builds from them); bounded by bytes, the check's
        # transient peak stays under it, and its report is still the
        # per-entry loop's
        model = small_model([(CellKind("dos", 1), 12)], input_units=2, classes=3,
                            seed=3, tie=True)
        frames = seeded_rng(4).normal(size=(5, 2))
        budget = 1 << 19

        def transient_peak():
            tracemalloc.start()
            try:
                report = bp.grad_check(model, frames, label=1)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return report, peak - kept      # what is kept is the report

        monkeypatch.setattr(bp, "CHUNK_BYTES", budget)
        report, peak = transient_peak()
        assert peak < budget
        got = [(e.name, e.analytic, e.numeric, e.rel_error) for e in report.entries]
        assert got == _per_entry_reference(model, frames, label=1)
        monkeypatch.setattr(bp, "CHUNK_BYTES", 1 << 40)
        assert transient_peak()[1] > 3 * budget

    @pytest.mark.parametrize("arch,units,rows", [
        # the tiny-oracle benchmark's checks fill whole chunks
        ("lstm", 6, cells.MAX_ROWS), ("dos:1", 6, cells.MAX_ROWS),
        ("dos:2", 6, cells.MAX_ROWS), ("drnn:2", 6, cells.MAX_ROWS),
        ("d2rnn:3", 5, cells.MAX_ROWS),
        # ``diffrnn gradcheck --state-units 150``: one entry a call, as the
        # layer's 160,500 entries bound a row at 16 (2 * 160,500 + 13 * 5 *
        # 150) bytes, 5.0 MiB; two rows of its largest block, the 90,000
        # hidden weights, take 2.7 MiB, where MAX_ROWS would take 88 MiB
        ("dos:1", 150, 2)])
    def test_rows_per_call(self, monkeypatch, arch, units, rows):
        model = build_model(build_config(arch, 4, units, 3), seed=1)
        seen = []

        class FirstCall(Exception):
            pass

        def first_call(model, blocks, x, first=0, **kw):
            seen.append(len(next(b for layer, owns in zip(blocks, model.blocks)
                                 for b, own in zip(layer, owns) if b is not own)))
            raise FirstCall

        monkeypatch.setattr(bp, "forward_rows", first_call)
        with pytest.raises(FirstCall):
            bp.grad_check(model, seeded_rng(2).normal(size=(5, 4)), label=0)
        assert seen == [rows]

    def test_non_finite_numeric_side_names_first_entry(self, monkeypatch):
        # only the numeric side reads backprop.softmax; the analytic side
        # stays finite, so the error is grad_check's own
        monkeypatch.setattr(bp, "softmax", lambda y: np.full_like(y, np.nan))
        model = build_model(ARCHS["rnn+lstm"](), seed=11)
        frames = seeded_rng(12).normal(size=(5, 3))
        with pytest.raises(FloatingPointError, match=r"^non-finite gradient at layer0\.w_hh\[0, 0\]$"):
            bp.grad_check(model, frames, label=1)

    def test_report_format(self):
        model = build_model(ARCHS["lstm"](), seed=1)
        report = grad_check(model, seeded_rng(2).normal(size=(3, 3)), label=0)
        text = report.format(limit=5)
        assert ("PASS" in text) == report.passed
        assert "max_rel_error=" in text


class TestTruncationContract:
    def _zero_dos_weights(self, model, min_order=0):
        for params, (kind, _u) in zip(model.layers, model.config.layers):
            for d in (params.w_id, params.w_fd, params.w_od):
                for n in d:
                    if n >= min_order:
                        d[n][:] = 0.0

    def test_zero_dos_matrices_bitwise_equal(self):
        # with every derivative matrix zero the DoS products add exact zeros,
        # and full and truncated mode share every other product: tied and
        # untied, a drnn:3 layer (truncation keeps its order 0 alone) and
        # sequences of 1 and 2 frames, fewer than the highest order
        d2rnn = [(CellKind("dos", n), 4) for n in range(3)]
        for layers in (d2rnn, [(CellKind("drnn", 3), 4)]):
            for tie in (False, True):
                model = small_model(layers, seed=8, tie=tie)
                self._zero_dos_weights(model)
                for steps in (1, 2, 5):
                    frames = seeded_rng(9).normal(size=(steps, 3))
                    tape = stack_forward(model, frames)
                    _, dlogits = loss_frame(tape.logits, [0] * steps)
                    assert np.array_equal(backward(model, tape, dlogits, truncated=False),
                                          backward(model, tape, dlogits, truncated=True))

    def test_order0_cell_never_severed(self):
        model = small_model([(CellKind("dos", 0), 4)], seed=8)
        frames = seeded_rng(9).normal(size=(5, 3))
        tape = stack_forward(model, frames)
        _, dlogits = loss_frame(tape.logits, [0])
        assert np.array_equal(backward(model, tape, dlogits, truncated=False),
                              backward(model, tape, dlogits, truncated=True))

    def test_full_differs_on_order1_instance(self):
        model = small_model([(CellKind("dos", 1), 4)], seed=8)
        frames = seeded_rng(9).normal(size=(4, 3))
        tape = stack_forward(model, frames)
        _, dlogits = loss_frame(tape.logits, [0])
        full = named(model, backward(model, tape, dlogits, truncated=False))
        trunc = named(model, backward(model, tape, dlogits, truncated=True))
        assert np.max(np.abs(full["layer0.w_ix"] - trunc["layer0.w_ix"])) > 1e-10

    @pytest.mark.parametrize("kind", [CellKind("dos", 1), CellKind("drnn", 1),
                                      CellKind("dos", 2), CellKind("drnn", 3)],
                             ids=["dos1", "drnn1", "dos2", "drnn3"])
    def test_constant_substitution_oracle(self, kind):
        """Truncated gradients equal full gradients of a surrogate whose
        order->=1 state derivatives are frozen external constants."""
        model = small_model([(kind, 3)], seed=14)
        frames = seeded_rng(15).normal(size=(5, 3))
        label = 1
        tape = stack_forward(model, frames)
        _, dlogits = loss_frame(tape.logits, [label])
        trunc = named(model, backward(model, tape, dlogits, truncated=True))

        frozen = {n: dos(n, tape.layers[0].s).astype(np.longdouble)
                  for n in kind.dos_orders if n >= 1}
        numeric = _fd_frozen_surrogate(model, kind, frames, label, frozen)
        worst = max(abs(float(trunc[name][idx]) - gn)
                    for name, idx, gn in numeric)
        assert worst < 1e-10, f"max |analytic - oracle| = {worst:.3e}"


def _frozen_surrogate_loss(layers, output, config, kind, frames, label, frozen):
    """Longdouble forward of a one-layer gated stack where derivatives of
    order >= 1 are replaced by constants: ``frozen[n]`` is the (T, units)
    order-n derivative of the states, zero before the first one."""
    p = layers[0]
    u = p.b_i.shape[0]
    s = np.zeros(u, dtype=np.longdouble)
    h = np.zeros(u, dtype=np.longdouble)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    for t in range(frames.shape[0]):
        x = frames[t]
        z_i = p.w_ih @ h + p.w_ix @ x + p.b_i
        z_f = p.w_fh @ h + p.w_fx @ x + p.b_f
        for n in kind.dos_orders:
            # the i/f gates see the previous state's derivative; s is zero at t=0
            d = s if n == 0 or t == 0 else frozen[n][t - 1]
            z_i = z_i + p.w_id[n] @ d
            z_f = z_f + p.w_fd[n] @ d
        i_t, f_t = sig(z_i), sig(z_f)
        g_t = np.tanh(p.w_sh @ h + p.w_sx @ x + p.b_s)
        s_new = f_t * s + i_t * g_t
        z_o = p.w_oh @ h + p.w_ox @ x + p.b_o
        for n in kind.dos_orders:
            d = s_new if n == 0 else frozen[n][t]
            z_o = z_o + p.w_od[n] @ d
        h = sig(z_o) * np.tanh(s_new)
        s = s_new
    y = np.tanh(output.w_yh @ h + output.b_y)
    z = np.exp(y - np.max(y))
    return -np.log(z[label] / np.sum(z))


def _fd_frozen_surrogate(model, kind, frames, label, frozen, h=1e-5):
    """Central differences of the frozen surrogate for every parameter entry.
    Returns a list of (param name, index, numeric gradient)."""
    ld_model = replace(model, theta=model.theta.astype(np.longdouble))
    ld_layers, ld_output = ld_model.layers, ld_model.output
    ld_frames = frames.astype(np.longdouble)
    shadow = named(ld_model, ld_model.theta)
    hl = np.longdouble(h)

    def loss():
        return _frozen_surrogate_loss(ld_layers, ld_output, model.config, kind,
                                      ld_frames, label, frozen)

    out = []
    for name, arr in shadow.items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + hl
            lp = loss()
            arr[idx] = orig - hl
            lm = loss()
            arr[idx] = orig
            out.append((name, idx, float((lp - lm) / (2.0 * hl))))
    return out
