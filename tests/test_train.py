import copy
import dataclasses
import io
import json
import math
import pickle
import types

import numpy as np
import pytest

from diffrnn.backprop import backward, grad_check
from diffrnn.cells import (
    CellKind,
    Model,
    StackConfig,
    build_model,
    d2rnn_config,
    dos_energy,
    forward_rows,
    param_arrays,
    param_blocks,
    param_views,
    predict_sequence,
    predict_set,
    stack_forward,
)
from diffrnn.data import Dataset, Sequence, gen_synthetic
from diffrnn.numerics import ShapeMismatchError, seeded_rng, softmax
from diffrnn.train import (
    CheckpointError,
    TrainConfig,
    TrainingDivergedError,
    apply_sgd_step,
    checkpoint_load,
    checkpoint_save,
    evaluate,
    loss_frame,
    model_from_doc,
    model_to_doc,
    sgd_epoch,
    train,
)
from reference import ref_softmax_mp


def tiny_dataset(seed=0, count=8, length=6, dim=3):
    return gen_synthetic("velocity", classes=2, count=count, length=length,
                         dim=dim, noise_sigma=0.05, seed=seed)


def tiny_model(seed=0, dim=3, classes=2):
    return build_model(d2rnn_config(2, dim, 4, classes), seed=seed)


def params_snapshot(model):
    return {name: arr.copy() for name, arr in param_arrays(model.layout, model.theta)}


class TestTrainConfig:
    def test_defaults_match_protocol(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.0001
        assert cfg.epochs == 50
        assert cfg.mode == "sequence"
        assert cfg.truncation == "full"

    def test_zero_lr_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    @pytest.mark.parametrize("kw", [
        dict(learning_rate=-0.1),
        dict(learning_rate=math.nan),   # used to train to a non-finite loss
        dict(learning_rate=math.inf),
        dict(epochs=0),
        dict(mode="batch"),
        dict(truncation="none"),
        dict(clip_norm=-1.0),     # used to turn every step into gradient ascent
        dict(clip_norm=math.inf),
        dict(clip_norm=math.nan),
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


class TestLosses:
    """``loss_frame`` is the one loss: a label per frame in frame mode,
    ``[label]`` (the final frame) in sequence mode."""

    def test_certain_correct_class_near_zero(self):
        loss, _ = loss_frame(np.array([[50.0, 0.0]]), [0])
        assert 0 <= loss < 1e-15

    def test_uniform_six_classes_is_ln6(self):
        loss, _ = loss_frame(np.zeros((1, 6)), [3])
        assert abs(loss - math.log(6)) < 1e-12

    def test_random_logits_vs_high_precision(self):
        logits = np.array([0.3, -1.2, 0.7])
        p = ref_softmax_mp(logits)
        for c in range(3):
            loss, grad = loss_frame(logits[None, :], [c])
            assert abs(loss + math.log(p[c])) < 1e-14
            expect = np.array(p)
            expect[c] -= 1.0
            assert np.max(np.abs(grad[0] - expect)) < 1e-14

    def test_loss_nonnegative(self):
        rng = seeded_rng(1)
        for _ in range(50):
            loss, _ = loss_frame(rng.normal(size=(3, 4)), [int(rng.integers(4))])
            assert loss >= 0.0

    def test_bad_class_index(self):
        for bad in (3, -1):
            with pytest.raises(IndexError):
                loss_frame(np.zeros((2, 3)), [0, bad])

    def test_sequence_loss_is_final_frame(self):
        logits = np.array([[5.0, -5.0], [0.0, 0.0]])
        loss, grad = loss_frame(logits, [1])
        assert abs(loss - math.log(2)) < 1e-12
        assert not np.any(grad[0])

    def test_sequence_mode_grad_zero_before_last_frame(self):
        logits = seeded_rng(3).normal(size=(5, 3))
        loss, grad = loss_frame(logits, [2])
        assert not np.any(grad[:-1])
        one_loss, one_grad = loss_frame(logits[-1:], [2])
        assert loss == one_loss and np.array_equal(grad[-1], one_grad[0])

    def test_frame_loss_is_cumulative(self):
        logits = seeded_rng(2).normal(size=(4, 3))
        labels = [0, 1, 2, 1]
        total, grad = loss_frame(logits, labels)
        expect = 0.0
        for t in range(4):
            loss_t, grad_t = loss_frame(logits[t:t + 1], labels[t:t + 1])
            expect += loss_t
            assert np.array_equal(grad[t], grad_t[0])
        assert total == expect      # summed in frame order, bitwise
        assert np.any(grad[0]) and np.any(grad[3])

    def test_labels_cover_the_last_frames(self):
        logits = seeded_rng(4).normal(size=(4, 3))
        total, grad = loss_frame(logits, [1, 0])
        tail_total, tail_grad = loss_frame(logits[2:], [1, 0])
        assert total == tail_total
        assert not np.any(grad[:2]) and np.array_equal(grad[2:], tail_grad)

    @staticmethod
    def per_frame(logits, labels):
        """The reference: one softmax, then a numpy read and write per frame."""
        T, k = logits.shape
        n = len(labels)
        p = softmax(logits[T - n:])
        total = 0.0
        for j, c in enumerate(labels):
            if not 0 <= c < k:
                raise IndexError(f"class index {c} out of range for {k} classes")
            total -= math.log(max(float(p[j, c]), 1e-300))
            p[j, c] -= 1.0
        grad = np.zeros_like(logits)
        grad[T - n:] = p
        return total, grad

    @pytest.mark.parametrize("T, n, k", [(1, 1, 2), (20, 1, 3), (5, 3, 4), (20, 20, 3),
                                         (200, 200, 6)])
    def test_equals_per_frame_loop(self, T, n, k):
        rng = seeded_rng(T + n + k)
        logits = rng.normal(scale=3.0, size=(T, k))
        logits[-1, 0] = 800.0      # the other classes' probabilities underflow to 0
        labels = [int(c) for c in rng.integers(k, size=n)]
        labels[-1] = 1              # so the last frame's loss is clamped at 1e-300
        total, grad = loss_frame(logits, labels)
        ref_total, ref_grad = self.per_frame(logits, labels)
        assert total == ref_total and grad.dtype == ref_grad.dtype
        assert grad.tobytes() == ref_grad.tobytes()
        assert total > 690.0        # -log(1e-300)
        for bad in (k, -1, k + 5):
            wrong = labels[:-1] + [bad]
            with pytest.raises(IndexError, match=f"^class index {bad} out of range"):
                loss_frame(logits, wrong)
            with pytest.raises(IndexError, match=f"^class index {bad} out of range"):
                self.per_frame(logits, wrong)

    def test_frame_labels_length_checked(self):
        with pytest.raises(ValueError):
            loss_frame(np.zeros((2, 2)), [0, 1, 0])


class TestSgd:
    def test_lr_zero_is_identity(self):
        model = tiny_model()
        before = params_snapshot(model)
        sgd_epoch(model, tiny_dataset(), TrainConfig(learning_rate=0.0, epochs=1))
        for name, arr in param_arrays(model.layout, model.theta):
            assert np.array_equal(arr, before[name]), name

    def test_step_equals_backward_output(self):
        model = tiny_model()
        ds = tiny_dataset(count=1)
        seq = ds.sequences[0]
        tape = stack_forward(model, seq.frames)
        expected = copy.deepcopy(model)
        loss, dlogits = loss_frame(tape.logits, [seq.label])
        grad = backward(expected, stack_forward(expected, seq.frames), dlogits,
                        truncated=False)
        lr = 0.01
        apply_sgd_step(expected, grad, lr)
        sgd_epoch(model, ds, TrainConfig(learning_rate=lr, epochs=1, shuffle=False))
        for (name, a), (_, b) in zip(param_arrays(model.layout, model.theta),
                                     param_arrays(model.layout, expected.theta)):
            assert np.array_equal(a, b), name

    def test_single_example_loss_non_increasing(self):
        model = tiny_model(seed=3)
        ds = tiny_dataset(count=1)
        cfg = TrainConfig(learning_rate=0.01, epochs=5, shuffle=False)
        history = train(model, ds, cfg)
        losses = [m.mean_loss for m in history]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])), losses

    def test_metrics_row_sums(self):
        model = tiny_model()
        ds = tiny_dataset(count=10)
        m = sgd_epoch(model, ds, TrainConfig(epochs=1))
        counts = np.bincount([s.label for s in ds.sequences], minlength=2)
        assert np.array_equal(m.confusion.sum(axis=1), counts)
        assert m.accuracy == np.trace(m.confusion) / 10

    def test_deterministic_given_seed(self):
        runs = []
        for _ in range(2):
            model = tiny_model(seed=4)
            history = train(model, tiny_dataset(seed=5),
                            TrainConfig(epochs=3, learning_rate=0.01, seed=6))
            runs.append(([m.mean_loss for m in history], params_snapshot(model)))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1]:
            assert np.array_equal(runs[0][1][name], runs[1][1][name])

    def test_non_finite_loss_aborts(self):
        model = tiny_model()
        ds = tiny_dataset(count=2)
        ds.sequences[1].frames[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match="velocity-00001"):
            sgd_epoch(model, ds, TrainConfig(epochs=1, shuffle=False))

    def test_clip_norm_bounds_step(self):
        model = tiny_model()
        ds = tiny_dataset(count=1)
        before = params_snapshot(model)
        lr, clip = 1.0, 1e-3
        sgd_epoch(model, ds, TrainConfig(learning_rate=lr, epochs=1,
                                         clip_norm=clip, shuffle=False))
        delta = math.sqrt(sum(float(np.sum((arr - before[name]) ** 2))
                              for name, arr in param_arrays(model.layout, model.theta)))
        assert delta <= lr * clip + 1e-12

    def test_truncated_mode_runs_and_differs(self):
        ds = tiny_dataset(count=4)
        out = {}
        for trunc in ("full", "truncated"):
            model = tiny_model(seed=7)
            train(model, ds, TrainConfig(epochs=2, learning_rate=0.05,
                                         truncation=trunc, seed=1))
            out[trunc] = params_snapshot(model)
        diff = max(np.max(np.abs(out["full"][n] - out["truncated"][n]))
                   for n in out["full"])
        assert diff > 0.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            sgd_epoch(tiny_model(), Dataset([], ["a", "b"]), TrainConfig())

    def test_frame_labels_as_array_train_as_list(self):
        cfg = TrainConfig(learning_rate=0.05, epochs=1, mode="frame", seed=2)
        rng = seeded_rng(3)
        labels = [rng.integers(0, 2, size=6).tolist() for _ in range(4)]
        runs = []
        for as_given in (list, np.array):
            ds = tiny_dataset(count=4)
            for seq, lab in zip(ds.sequences, labels):
                seq.frame_labels = as_given(lab)
            model = tiny_model()
            loss = sgd_epoch(model, ds, cfg).mean_loss
            runs.append((loss, params_snapshot(model)))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1]:
            assert np.array_equal(runs[0][1][name], runs[1][1][name]), name


def test_import_binds_the_module():
    import diffrnn.train as train_mod
    assert isinstance(train_mod, types.ModuleType)
    assert train_mod.TrainConfig is TrainConfig


def _pickled(model, tmp_path):
    return pickle.loads(pickle.dumps(model))


def _replaced(model, tmp_path):
    return dataclasses.replace(model)


def _checkpointed(model, tmp_path):
    checkpoint_save(model, tmp_path / "m.json")
    return checkpoint_load(tmp_path / "m.json")


def _deepcopied(model, tmp_path):
    return copy.deepcopy(model)


class TestParameterVector:
    """Every array of a model is a view into its one vector ``theta``."""

    CONFIG = StackConfig(((CellKind("rnn"), 3), (CellKind("drnn", 2), 4),
                          (CellKind("dos", 1), 3)), 3, 2, tie_gate_hidden_weights=True)

    def assert_packed(self, model):
        items = list(param_arrays(model.layout, model.theta))
        assert all(np.shares_memory(a, model.theta) for _, a in items)
        assert np.array_equal(np.concatenate([a.ravel() for _, a in items]), model.theta)
        # every block is a view of its container's fields, laid out in turn
        for (key, _, _), p, blocks in zip(model.layout, (*model.layers, model.output),
                                          model.blocks):
            assert all(np.shares_memory(b, model.theta) for b in blocks)
            if key == "cell":
                wx, wh, wd, bias = blocks
                assert np.array_equal(wx, np.vstack([p.w_ix, p.w_fx, p.w_ox, p.w_sx]))
                assert np.array_equal(wh, np.vstack([p.w_ih, p.w_fh, p.w_oh, p.w_sh]))
                assert np.array_equal(bias, np.concatenate([p.b_i, p.b_f, p.b_o, p.b_s]))
                assert wd.shape[:2] == (3, len(p.w_id))
                for k, n in enumerate(p.w_id):
                    assert np.array_equal(wd[:, k], np.stack([p.w_id[n], p.w_fd[n], p.w_od[n]]))
            else:
                fields = list(vars(p).values())
                assert len(blocks) == len(fields)
                assert all(np.array_equal(b, a) for b, a in zip(blocks, fields))

    @pytest.mark.parametrize("make_copy", [_deepcopied, _replaced, _pickled, _checkpointed])
    def test_copies_own_a_vector_and_train_like_the_original(self, make_copy, tmp_path):
        model = build_model(self.CONFIG, seed=3)
        ds = tiny_dataset()
        cfg = TrainConfig(epochs=1, learning_rate=0.1, mode="frame", clip_norm=0.5)
        clone = make_copy(model, tmp_path)
        self.assert_packed(clone)
        assert not np.shares_memory(clone.theta, model.theta)
        before = params_snapshot(model)
        m_clone = sgd_epoch(clone, ds, cfg)
        for name, arr in param_arrays(model.layout, model.theta):
            assert np.array_equal(arr, before[name]), name
        m_model = sgd_epoch(model, ds, cfg)
        assert m_clone.mean_loss == m_model.mean_loss
        assert np.array_equal(clone.theta, model.theta)

    def test_longdouble_copy_packs_in_longdouble(self):
        model = build_model(self.CONFIG, seed=3)
        ld = dataclasses.replace(model, theta=model.theta.astype(np.longdouble))
        assert ld.theta.dtype == np.longdouble
        self.assert_packed(ld)

    def test_copies_the_given_vector_and_leaves_it_alone(self):
        built = build_model(self.CONFIG, seed=3)
        given = built.theta.copy()
        model = Model(self.CONFIG, given, 3)
        self.assert_packed(model)
        assert model.seed == 3 and not np.shares_memory(model.theta, given)
        sgd_epoch(model, tiny_dataset(), TrainConfig(epochs=1, learning_rate=0.5))
        assert np.array_equal(given, built.theta)
        assert not np.array_equal(model.theta, given)
        # any other real dtype is copied into float64
        assert Model(self.CONFIG, given.astype(np.float32)).theta.dtype == np.float64

    @pytest.mark.parametrize("reshape", [
        lambda v: v[:-1],
        lambda v: np.append(v, 0.0),
        lambda v: v[None],
        lambda v: v.reshape(-1, 1),
        lambda v: v[0],
    ], ids=["short", "long", "row", "column", "scalar"])
    def test_vector_of_another_size_or_rank_rejected(self, reshape):
        theta = build_model(self.CONFIG, seed=3).theta
        wrong = reshape(theta)
        with pytest.raises(ShapeMismatchError) as err:
            Model(self.CONFIG, wrong)
        assert str(err.value) == f"theta has shape {np.shape(wrong)}, expected {theta.shape}"

    def test_rebinding_a_field_is_refused(self):
        model = build_model(self.CONFIG, seed=3)
        p = model.layers[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.w_ix = np.zeros_like(p.w_ix)
        with pytest.raises(TypeError, match="write them in place"):
            p.w_id[1] = np.zeros_like(p.w_id[1])
        with pytest.raises(TypeError):
            p.w_od.pop(0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.output = param_views(model.layout, model.theta.copy())[-1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.theta = model.theta.copy()

    def test_deepcopy_of_a_gated_layer_owns_its_arrays(self):
        model = build_model(self.CONFIG, seed=3)
        p = model.layers[1]
        clone = copy.deepcopy(p)
        assert type(clone.w_id) is type(p.w_id)
        for name, arr in vars(p).items():
            got = vars(clone)[name]
            pairs = zip(got.values(), arr.values()) if isinstance(arr, dict) else [(got, arr)]
            for a, b in pairs:
                assert np.array_equal(a, b) and a.base is None
                assert not np.shares_memory(a, model.theta)
        with pytest.raises(TypeError, match="write them in place"):
            clone.w_id[1] = np.zeros_like(clone.w_id[1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.w_ix = np.zeros_like(clone.w_ix)

    def test_library_paths_never_make_the_containers(self, tmp_path):
        # training, evaluation, gradient checks, the per-row forward, the
        # energies and the checkpoint writer reach the vector through its
        # layout alone; the containers are made on first use, once
        model = build_model(self.CONFIG, seed=3)
        ds = tiny_dataset()
        frames, label = ds.sequences[0].frames, ds.sequences[0].label
        sgd_epoch(model, ds, TrainConfig(epochs=1, learning_rate=0.1, mode="frame",
                                         truncation="truncated", clip_norm=0.5))
        evaluate(model, ds)
        grad_check(model, frames[:3], label)
        forward_rows(model, param_blocks(model.layout, np.stack([model.theta, -model.theta])),
                     frames)
        dos_energy(model, frames, 2)
        checkpoint_save(model, tmp_path / "m.json")
        assert "layers" not in vars(model) and "output" not in vars(model)
        assert model.layers is model.layers and model.output is model.output
        self.assert_packed(model)

    def test_writes_in_place_reach_the_forward(self):
        model = build_model(self.CONFIG, seed=3)
        frames = tiny_dataset().sequences[0].frames
        before = stack_forward(model, frames).logits
        model.layers[1].w_ix[...] = 0.0
        assert not np.array_equal(stack_forward(model, frames).logits, before)
        assert not np.any(model.blocks[1][0][:4])


class TestCheckpointFit:
    """A checkpoint is read straight into a parameter vector, each array
    checked against the stored config; the first that does not fit is named."""

    CONFIG = TestParameterVector.CONFIG

    @pytest.mark.parametrize("field, names", [
        ("w_fx", "w_ix, w_fx, w_ox, w_sx"),
        ("w_sh", "w_ih, w_fh, w_oh, w_sh"),
        ("b_o", "b_i, b_f, b_o, b_s"),
    ])
    def test_gate_parts_of_another_shape_rejected(self, field, names):
        model = build_model(self.CONFIG, seed=3)
        doc = model_to_doc(model)
        shape = getattr(model.layers[1], field).shape
        wrong = (shape[0] + 1, *shape[1:])
        doc["layers"][1][field] = np.zeros(wrong).tolist()
        with pytest.raises(CheckpointError) as err:
            model_from_doc(doc)
        # the message names the one field, not the fused block of ``names``
        assert str(err.value) == f"layer1.{field} has shape {wrong}, expected {shape}"
        assert all(name not in str(err.value) for name in names.split(", ") if name != field)

    @pytest.mark.parametrize("kind, inputs, message", [
        (CellKind("rnn"), 5, "layer 0: a lstm layer cannot hold 'rnn' weights"),
        (CellKind("dos", 1), 5, "layer 0: w_id holds orders [1], lstm:0 needs orders []"),
        (CellKind("lstm"), 4, "layer0.w_ix has shape (4, 4), expected (4, 5)"),
    ], ids=["rnn_params", "dos_orders", "input_width"])
    def test_arrays_that_do_not_fit_the_config_rejected(self, kind, inputs, message):
        # an lstm layer of 4 units over 5 inputs, given another layer's arrays
        doc = model_to_doc(build_model(StackConfig(((CellKind("lstm"), 4),), 5, 2), seed=0))
        other = build_model(StackConfig(((kind, 4),), inputs, 2), seed=0)
        doc["layers"] = model_to_doc(other)["layers"]
        with pytest.raises(CheckpointError) as err:
            model_from_doc(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("kind, tag, message", [
        ("lstm", "rnn", "layer 0: a lstm layer cannot hold 'rnn' weights"),
        ("rnn", "cell", "layer 0: a rnn layer cannot hold 'cell' weights"),
        # only the layout's layer keys are layer tags: not "output", nor a
        # cell kind, nor any other JSON value
        ("lstm", "output", "unknown layer type 'output'"),
        ("lstm", "lstm", "unknown layer type 'lstm'"),
        ("lstm", 7, "unknown layer type 7"),
        ("lstm", ["cell"], "unknown layer type ['cell']"),
    ])
    def test_type_tag_contradicting_the_kind_rejected(self, kind, tag, message):
        # the tag alone contradicts the config: the fields are the kind's own
        doc = model_to_doc(build_model(StackConfig(((CellKind(kind), 4),), 3, 2), seed=0))
        doc["layers"][0]["type"] = tag
        with pytest.raises(CheckpointError) as err:
            model_from_doc(doc)
        assert str(err.value) == message

    def test_inflated_units_fail_short_and_small(self, tmp_path, capsys):
        # a checkpoint whose config claims 10^6 units: the load must name the
        # first array that does not fit before it allocates any vector
        import tracemalloc

        from diffrnn.cli import main
        from diffrnn.data import save_jsonl

        doc = model_to_doc(tiny_model())
        doc["config"]["layers"][0][2] = 10 ** 6
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError) as err:
                model_from_doc(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert str(err.value) == "layer0.w_ix has shape (4, 3), expected (1000000, 3)"
        ckpt = tmp_path / "inflated.json"
        ckpt.write_text(json.dumps(doc))
        data = tmp_path / "data.jsonl"
        save_jsonl(tiny_dataset(), data)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"


class TestClassCount:
    @pytest.mark.parametrize("run", [
        lambda model, ds: evaluate(model, ds),
        lambda model, ds: sgd_epoch(model, ds, TrainConfig()),
    ], ids=["evaluate", "sgd_epoch"])
    def test_dataset_and_model_class_counts_must_match(self, run):
        with pytest.raises(ValueError, match="dataset has 2 classes but the model has 3"):
            run(tiny_model(classes=3), tiny_dataset(count=4))


class TestEvaluate:
    def test_constant_predictor_on_balanced_set(self):
        model = tiny_model()
        # zero hidden projection, fixed bias: class 0 always wins
        model.output.w_yh[:] = 0.0
        model.output.b_y[:] = np.array([1.0, -1.0])
        m = evaluate(model, tiny_dataset(count=10))
        assert m.accuracy == 0.5
        assert np.array_equal(m.confusion[:, 1], [0, 0])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            evaluate(tiny_model(), Dataset([], ["a", "b"]))

    def test_perfect_model_identity_confusion(self):
        ds = tiny_dataset(count=6)
        model = tiny_model(seed=8)
        # cheat: route the decision through a wide-margin oracle on labels is
        # not possible without training, so train a strong model quickly
        train(model, ds, TrainConfig(epochs=30, learning_rate=0.05,
                                     mode="frame", seed=2))
        m = evaluate(model, ds)
        if m.accuracy == 1.0:
            assert np.array_equal(m.confusion, np.diag(np.diag(m.confusion)))
        else:
            pytest.skip("model did not converge to perfect accuracy")


def test_every_caller_decides_by_the_highest_score():
    # final scores one ulp apart, which the softmax rounds to one probability
    model = tiny_model(classes=3)
    model.output.w_yh[:] = 0.0
    model.output.b_y[:] = [0.2027325540540822, 0.20273255405408222, 0.1]
    frames = seeded_rng(1).normal(size=(5, 3))
    y = stack_forward(model, frames).logits[-1]
    assert y[1] == np.nextafter(y[0], 1.0) and y[2] < y[0]
    p = softmax(y)
    assert p[0] == p[1]

    label, probs = predict_sequence(model, frames)
    assert label == 1 and np.array_equal(probs, p)
    assert predict_set(model, [frames, frames[:2]]) == [1, 1]
    ds = Dataset([Sequence(frames, 0)], ["a", "b", "c"])
    assert evaluate(model, ds).confusion.tolist() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    m = sgd_epoch(model, ds, TrainConfig(learning_rate=0.0, epochs=1))
    assert m.confusion.tolist() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = tiny_model(seed=9)
        path = tmp_path / "model.json"
        checkpoint_save(model, path)
        loaded = checkpoint_load(path)
        for (name, a), (_, b) in zip(param_arrays(model.layout, model.theta),
                                     param_arrays(model.layout, loaded.theta)):
            assert np.array_equal(a, b), name
        assert loaded.config == model.config
        assert loaded.seed == model.seed
        frames = seeded_rng(10).normal(size=(5, 3))
        assert np.array_equal(stack_forward(model, frames).logits,
                              stack_forward(loaded, frames).logits)

    def test_file_is_the_document_as_one_json_line(self, tmp_path):
        model = build_model(d2rnn_config(3, 3, 4, 3), seed=11)
        path = tmp_path / "model.json"
        checkpoint_save(model, path)
        doc = model_to_doc(model)
        assert path.read_text() == json.dumps(doc) + "\n"
        # json.dump to a file, the pure-Python encoder, writes the same bytes
        written = io.StringIO()
        json.dump(doc, written)
        assert path.read_text() == written.getvalue() + "\n"

    def test_truncated_file_errors(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.json"
        checkpoint_save(model, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    def test_version_mismatch(self, tmp_path):
        doc = model_to_doc(tiny_model())
        doc["format_version"] = 99
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_load(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    def test_malformed_layers(self):
        doc = model_to_doc(tiny_model())
        del doc["layers"][0]["w_ix"]
        with pytest.raises(CheckpointError):
            model_from_doc(doc)


# an extra per-order key that names order 1 another way, beside "1"
ALIAS = object()


class TestCheckpointSchema:
    """model_from_doc rejects weights that do not fit the stored config."""

    def _doc(self):
        # tiny_model is d2rnn:2 over 3 inputs with 4 units: orders 0 and 1
        return model_to_doc(tiny_model())

    def test_missing_order_key(self):
        doc = self._doc()
        del doc["layers"][1]["w_id"]["1"]
        with pytest.raises(CheckpointError, match=r"layer 1: w_id holds orders \[\]"):
            model_from_doc(doc)

    def test_extra_order_key(self):
        doc = self._doc()
        doc["layers"][0]["w_od"]["1"] = doc["layers"][0]["w_od"]["0"]
        with pytest.raises(CheckpointError, match="layer 0: w_od holds orders"):
            model_from_doc(doc)

    def test_layer_type_must_match_kind(self):
        doc = self._doc()
        doc["config"]["layers"][0][0] = "rnn"
        with pytest.raises(CheckpointError, match="layer 0: a rnn layer"):
            model_from_doc(doc)

    def test_layer_count_must_match_config(self):
        doc = self._doc()
        doc["layers"].pop()
        with pytest.raises(CheckpointError, match="config lists 2 layers"):
            model_from_doc(doc)

    def test_input_weight_shape_must_chain(self):
        doc = self._doc()
        doc["layers"][1]["w_fx"] = [row[:3] for row in doc["layers"][1]["w_fx"]]
        with pytest.raises(CheckpointError, match=r"layer1.w_fx has shape \(4, 3\), "
                                                  r"expected \(4, 4\)"):
            model_from_doc(doc)

    def test_output_shape_must_chain(self):
        doc = self._doc()
        doc["output"]["b_y"] = [0.0, 0.0, 0.0]
        with pytest.raises(CheckpointError, match="output.b_y has shape"):
            model_from_doc(doc)

    def test_non_finite_weight(self):
        doc = self._doc()
        doc["layers"][0]["b_f"][2] = float("nan")
        with pytest.raises(CheckpointError, match="layer0.b_f holds a non-finite"):
            model_from_doc(doc)

    def test_eval_exits_2_on_missing_order(self, tmp_path, capsys):
        from diffrnn.cli import main
        from diffrnn.data import save_jsonl

        model = build_model(StackConfig(((CellKind("dos", 1), 3),), 3, 2), seed=0)
        doc = model_to_doc(model)
        for dname in ("w_id", "w_fd", "w_od"):
            del doc["layers"][0][dname]["1"]
        ckpt = tmp_path / "dos1.json"
        ckpt.write_text(json.dumps(doc))
        data = tmp_path / "data.jsonl"
        save_jsonl(tiny_dataset(), data)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
        assert "w_id holds orders []" in capsys.readouterr().err

    def test_huge_drnn_order_fails_short_and_small(self, tmp_path, capsys):
        # a drnn:1 checkpoint whose config claims order 10^6: the load must
        # neither lay out the million orders nor print them
        import tracemalloc

        from diffrnn.cli import main
        from diffrnn.data import save_jsonl

        doc = model_to_doc(build_model(StackConfig(((CellKind("drnn", 1), 3),), 3, 2), seed=0))
        doc["config"]["layers"][0][1] = 10 ** 6
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError) as err:
                model_from_doc(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert str(err.value) == ("malformed checkpoint: derivative order must be in "
                                  "0..1029, got 1000000")
        ckpt = tmp_path / "drnn_huge.json"
        ckpt.write_text(json.dumps(doc))
        data = tmp_path / "data.jsonl"
        save_jsonl(tiny_dataset(), data)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) <= 200

    @pytest.mark.parametrize("path, value, message", [
        (("config", "tie_gate_hidden_weights"), "no", "tie_gate_hidden_weights must be bool"),
        (("config", "tie_gate_hidden_weights"), 0, "tie_gate_hidden_weights must be bool"),
        (("config", "layers", 1), ["drnn", 1.5, 4], "layer order must be int, got 1.5"),
        (("config", "layers", 1, 1), True, "layer order must be int, got True"),
        (("config", "layers", 0, 0), 5, "unknown cell kind 5"),
        (("config", "layers", 0, 2), 4.0, "layer units must be int"),
        (("config", "input_units"), 3.0, "input_units must be int"),
        (("config", "output_classes"), 2.0, "output_classes must be int"),
        (("seed",), "x", "seed must be int"),
        (("seed",), False, "seed must be int"),
        (("format_version",), True, "unsupported checkpoint version True"),
        (("format_version",), 1.0, "unsupported checkpoint version 1.0"),
        (("layers", 1, "w_id", "01"), ALIAS, r"w_id has keys \['1', '01'\], not all orders"),
        (("layers", 1, "w_od", "+1"), ALIAS, r"w_od has keys \['1', '\+1'\], not all orders"),
        (("layers", 0, "b_f", 0), 10 ** 400, "int too large to convert to float"),
        (("layers",), "ab", "string indices must be integers"),
    ], ids=["tie_str", "tie_int", "drnn_float_order", "bool_order", "int_kind",
            "float_units", "float_input_units", "float_classes", "str_seed", "bool_seed",
            "bool_version", "float_version", "padded_order_key", "signed_order_key",
            "huge_int_weight", "layers_not_objects"])
    def test_config_field_types(self, tmp_path, capsys, path, value, message):
        from diffrnn.cli import main
        from diffrnn.data import save_jsonl

        doc = self._doc()
        if value is ALIAS:
            value = doc["layers"][1][path[2]]["1"]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(CheckpointError, match=message):
            model_from_doc(doc)
        ckpt = tmp_path / "typed.json"
        ckpt.write_text(json.dumps(doc))
        data = tmp_path / "data.jsonl"
        save_jsonl(tiny_dataset(), data)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_key_order(self):
        # rnn, drnn:2 and lstm layers: type tag, then matrices, biases and
        # per-order dicts in field order; output w_yh then b_y
        cfg = StackConfig(((CellKind("rnn"), 3), (CellKind("drnn", 2), 3),
                           (CellKind("lstm"), 3)), 3, 2)
        doc = model_to_doc(build_model(cfg, seed=0))
        cell = ["type", "w_ix", "w_fx", "w_ox", "w_sx", "w_ih", "w_fh", "w_oh",
                "w_sh", "b_i", "b_f", "b_o", "b_s", "w_id", "w_fd", "w_od"]
        assert list(doc) == ["format_version", "seed", "config", "layers", "output"]
        assert [list(layer) for layer in doc["layers"]] == [
            ["type", "w_hh", "w_hx", "b_h"], cell, cell]
        assert [layer["type"] for layer in doc["layers"]] == ["rnn", "cell", "cell"]
        assert list(doc["layers"][1]["w_fd"]) == ["0", "1", "2"]
        assert doc["layers"][2]["w_od"] == {}
        assert list(doc["output"]) == ["w_yh", "b_y"]

    @pytest.mark.parametrize("layer", [0, 1], ids=["dos", "lstm"])
    @pytest.mark.parametrize("field, swap", [
        ("w_ix", lambda doc: {"1": doc["w_ix"]}),
        ("w_id", lambda doc: doc["w_ih"]),
    ], ids=["dict_for_array", "array_for_dict"])
    def test_type_confusion_rejected(self, tmp_path, capsys, layer, field, swap):
        from diffrnn.cli import main
        from diffrnn.data import save_jsonl

        cfg = StackConfig(((CellKind("dos", 1), 3), (CellKind("lstm"), 3)), 3, 2)
        doc = model_to_doc(build_model(cfg, seed=0))
        doc["layers"][layer][field] = swap(doc["layers"][layer])
        with pytest.raises(CheckpointError, match=f"{field} must be"):
            model_from_doc(doc)
        ckpt = tmp_path / "confused.json"
        ckpt.write_text(json.dumps(doc))
        data = tmp_path / "data.jsonl"
        save_jsonl(tiny_dataset(), data)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert f"{field} must be" in err and err.count("\n") == 1
