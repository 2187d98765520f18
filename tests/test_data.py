import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrnn.cells import build_model, stacked_lstm_config
from diffrnn.data import (
    DataFormatError,
    Dataset,
    KFold,
    MonteCarlo,
    Sequence,
    apply_preprocess,
    fit_preprocess,
    gen_synthetic,
    load_jsonl,
    make_splits,
    save_jsonl,
)
from diffrnn.train import TrainConfig, evaluate, train


class TestContainers:
    def test_sequence_requires_frames(self):
        with pytest.raises(ValueError):
            Sequence(frames=np.zeros((0, 3)), label=0)
        with pytest.raises(ValueError):
            Sequence(frames=np.zeros(4), label=0)
        with pytest.raises(ValueError, match="at least one number"):
            Sequence(frames=np.zeros((2, 0)), label=0)

    def test_frame_labels_length_checked(self):
        with pytest.raises(ValueError):
            Sequence(frames=np.zeros((3, 2)), label=0, frame_labels=[0, 0])

    def test_dataset_label_range(self):
        seq = Sequence(frames=np.zeros((2, 2)), label=5)
        with pytest.raises(ValueError):
            Dataset([seq], ["a", "b"])

    @pytest.mark.parametrize("label, frame_labels", [
        (0, [1.7, 0]), (0, [1.0, 0]), (0, [True, 0]), (0, [0, 2]), (0, [-1, 0]),
        (1.0, None), (True, None), (0, [np.int64(0), np.int64(2)]),
        (0, [np.float64(1.0), 0]), (0, [np.bool_(True), 0]),
    ], ids=["fractional", "integral_float", "bool", "too_large", "negative",
            "float_label", "bool_label", "numpy_too_large", "numpy_float", "numpy_bool"])
    def test_dataset_rejects_non_class_labels(self, label, frame_labels):
        # frame mode used to train on these, truncating through int()
        seq = Sequence(frames=np.ones((2, 3)), label=label, frame_labels=frame_labels)
        with pytest.raises(ValueError, match=r"label .* is not an integer in \[0, 2\)"):
            Dataset([seq], ["a", "b"])

    def test_dataset_accepts_numpy_integer_labels(self):
        seq = Sequence(frames=np.ones((2, 3)), label=np.int64(1),
                       frame_labels=[np.int32(0), np.uint8(1)])
        assert Dataset([seq], ["a", "b"]).sequences[0] is seq

    def test_dataset_accepts_numpy_frame_label_array(self):
        seq = Sequence(frames=np.ones((2, 3)), label=np.int64(1),
                       frame_labels=np.array([0, 1]))
        assert Dataset([seq], ["a", "b"]).sequences[0] is seq

    def test_dataset_uniform_dims(self):
        seqs = [Sequence(frames=np.zeros((2, 2)), label=0),
                Sequence(frames=np.zeros((2, 3)), label=1)]
        with pytest.raises(ValueError):
            Dataset(seqs, ["a", "b"])

    def test_subset(self):
        ds = gen_synthetic("velocity", 2, 6, 5, 2, 0.0, seed=0)
        sub = ds.subset([0, 2])
        assert [s.id for s in sub.sequences] == [ds.sequences[0].id,
                                                 ds.sequences[2].id]
        assert sub.class_names == ds.class_names


class TestGenSynthetic:
    def test_same_seed_identical(self):
        a = gen_synthetic("mixed", 3, 9, 6, 4, 0.1, seed=3)
        b = gen_synthetic("mixed", 3, 9, 6, 4, 0.1, seed=3)
        for sa, sb in zip(a.sequences, b.sequences):
            assert np.array_equal(sa.frames, sb.frames)
            assert sa.label == sb.label

    def test_labels_cycle(self):
        ds = gen_synthetic("velocity", 3, 7, 5, 2, 0.0, seed=0)
        assert [s.label for s in ds.sequences] == [0, 1, 2, 0, 1, 2, 0]

    def test_frame_labels_present(self):
        ds = gen_synthetic("velocity", 2, 2, 5, 2, 0.0, seed=0)
        assert ds.sequences[0].frame_labels == [0] * 5

    def test_invalid_sizes(self):
        for kw in (dict(length=1), dict(dim=0), dict(classes=1), dict(count=0),
                   dict(noise_sigma=-0.1), dict(noise_sigma=np.nan)):
            args = dict(task="velocity", classes=2, count=4, length=6, dim=2,
                        noise_sigma=0.0, seed=0)
            args.update(kw)
            with pytest.raises(ValueError):
                gen_synthetic(**args)

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task"):
            gen_synthetic("jerk", 2, 4, 6, 2, 0.0, seed=0)

    def test_velocity_separable_by_step_deltas(self):
        # noiseless velocity task: class identity is exactly the per-step
        # delta norm, so 1-nearest-neighbour on that scalar is perfect
        ds = gen_synthetic("velocity", 2, 20, 10, 4, 0.0, seed=1)
        feats = np.array([np.mean(np.linalg.norm(np.diff(s.frames, axis=0), axis=1))
                          for s in ds.sequences])
        labels = np.array([s.label for s in ds.sequences])
        correct = 0
        for i in range(len(feats)):
            others = np.delete(np.arange(len(feats)), i)
            nn = others[np.argmin(np.abs(feats[others] - feats[i]))]
            correct += labels[nn] == labels[i]
        assert correct == len(feats)

    def test_acceleration_shares_initial_drift(self):
        ds = gen_synthetic("acceleration", 2, 2, 10, 3, 0.0, seed=2)
        s0, s1 = ds.sequences[0].frames, ds.sequences[1].frames
        # same first-step displacement direction and near-equal magnitude,
        # but diverging curvature later
        d0, d1 = np.linalg.norm(s0[0]), np.linalg.norm(s1[0])
        assert abs(d0 - d1) < 0.25 * max(d0, d1)
        assert np.linalg.norm(s0[-1] - s1[-1]) > np.linalg.norm(s0[0] - s1[0])

    def test_zero_curvature_control_is_chance(self):
        # both classes share identical dynamics (class 0's drift, zero
        # curvature): nothing to learn
        same = gen_synthetic("velocity", 2, 40, 8, 4, 0.1, seed=3).sequences[::2]
        ds = Dataset([Sequence(frames=s.frames, label=i % 2)
                      for i, s in enumerate(same)], ["class0", "class1"])
        model = build_model(stacked_lstm_config(1, 4, 4, 2), seed=0)
        train(model, ds, TrainConfig(epochs=5, learning_rate=0.01, seed=1))
        acc = evaluate(model, ds).accuracy
        assert 0.2 <= acc <= 0.8, acc


class TestJsonl:
    def test_round_trip_exact(self, tmp_path):
        ds = gen_synthetic("mixed", 3, 9, 6, 4, 0.1, seed=4)
        ds.sequences[0].group = "src-a"
        path = tmp_path / "ds.jsonl"
        save_jsonl(ds, path)
        back = load_jsonl(path)
        assert back.class_names == ds.class_names
        for a, b in zip(ds.sequences, back.sequences):
            assert np.array_equal(a.frames, b.frames)  # repr round trip
            assert (a.label, a.id, a.frame_labels, a.group) == \
                   (b.label, b.id, b.frame_labels, b.group)

    def test_numpy_labels_round_trip(self, tmp_path):
        seq = Sequence(frames=np.ones((3, 2)), label=np.int64(1),
                       frame_labels=np.array([0, 1, 1], dtype=np.int32))
        path = tmp_path / "np.jsonl"
        save_jsonl(Dataset([seq], ["a", "b"]), path)
        back = load_jsonl(path).sequences[0]
        assert (type(back.label), back.label) == (int, 1)
        assert back.frame_labels == [0, 1, 1]
        assert all(type(c) is int for c in back.frame_labels)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataFormatError, match="no sequences"):
            load_jsonl(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"classes": ["a", "b"]}\n')
        with pytest.raises(DataFormatError, match="no sequences"):
            load_jsonl(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"labels": []}\n')
        with pytest.raises(DataFormatError, match="line 1"):
            load_jsonl(path)

    @pytest.mark.parametrize("classes", ['"ab"', '{"a": 0, "b": 1}', '["a", 1]'],
                             ids=["string", "dict", "non_string_item"])
    def test_classes_must_be_list_of_strings(self, tmp_path, classes):
        path = tmp_path / "c.jsonl"
        path.write_text(f'{{"classes": {classes}}}\n'
                        '{"id": "x", "label": 0, "frames": [[1.0]]}\n')
        with pytest.raises(DataFormatError, match="line 1: .*list of strings"):
            load_jsonl(path)

    def test_mixed_dims_rejected_with_line(self, tmp_path):
        path = tmp_path / "mix.jsonl"
        path.write_text("\n".join([
            '{"classes": ["a", "b"]}',
            '{"id": "x", "label": 0, "frames": [[1.0, 2.0]]}',
            '{"id": "y", "label": 1, "frames": [[1.0, 2.0, 3.0]]}',
        ]) + "\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_jsonl(path)

    @pytest.mark.parametrize("frames, message", [
        ("[[]]", "each frame must be a list of at least one number"),
        ("[[], []]", "each frame must be a list of at least one number"),
        ("[]", "a sequence needs at least one frame"),
        ("[1, 2]", "each frame must be a list of at least one number"),
        ("[[[1.0, 2.0]]]", "each frame must be a list of at least one number"),
        ("[[1, [2]], [3, 4]]", "each frame must be a list of at least one number"),
    ])
    def test_frames_lacking_a_frame_or_number_rejected_with_line(self, tmp_path, frames, message):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n".join([
            '{"classes": ["a", "b"]}',
            '{"id": "x", "label": 0, "frames": [[1.0, 2.0]]}',
            '{"id": "y", "label": 1, "frames": %s}' % frames,
        ]) + "\n")
        with pytest.raises(DataFormatError) as err:
            load_jsonl(path)
        assert str(err.value) == f"line 3: {message}"

    @pytest.mark.parametrize("frames, message", [
        ("[[1, 2], [3]]", "frames of differing lengths"),
        ("[[1], [2, 3], [4]]", "frames of differing lengths"),
        ("[[1, 2], 3]", "each frame must be a list of at least one number"),
    ])
    def test_ragged_frames_rejected_with_line(self, tmp_path, frames, message):
        path = tmp_path / "ragged.jsonl"
        path.write_text("\n".join([
            '{"classes": ["a", "b"]}',
            '{"id": "x", "label": 0, "frames": [[1.0, 2.0]]}',
            '{"id": "y", "label": 1, "frames": %s}' % frames,
        ]) + "\n")
        with pytest.raises(DataFormatError) as err:
            load_jsonl(path)
        assert str(err.value) == f"line 3: {message}"

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "lab.jsonl"
        path.write_text("\n".join([
            '{"classes": ["a", "b"]}',
            '{"id": "x", "label": 7, "frames": [[1.0]]}',
        ]) + "\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_jsonl(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_frame_rejected_with_line(self, tmp_path, value):
        path = tmp_path / "nan.jsonl"
        path.write_text("\n".join([
            '{"classes": ["a", "b"]}',
            '{"id": "x", "label": 0, "frames": [[1.0, 2.0]]}',
            '{"id": "y", "label": 1, "frames": [[1.0, %s]]}' % value,
        ]) + "\n")
        with pytest.raises(DataFormatError, match="line 3: frames hold a non-finite"):
            load_jsonl(path)

    def test_frame_too_large_for_float64_rejected_with_line(self, tmp_path):
        # json reads an integer of any size; float64 cannot hold 1e400
        path = tmp_path / "big.jsonl"
        path.write_text("\n".join([
            '{"classes": ["a", "b"]}',
            '{"id": "x", "label": 0, "frames": [[1.0, 2.0]]}',
            '{"id": "y", "label": 1, "frames": [[1.0, 1%s]]}' % ("0" * 400),
        ]) + "\n")
        with pytest.raises(DataFormatError, match="line 3: int too large"):
            load_jsonl(path)

    @pytest.mark.parametrize("label", ["1.7", "1.0", "true", '"1"'])
    def test_non_integer_label_rejected_with_line(self, tmp_path, label):
        path = tmp_path / "lab.jsonl"
        path.write_text("\n".join([
            '{"classes": ["a", "b"]}',
            '{"id": "x", "label": %s, "frames": [[1.0]]}' % label,
        ]) + "\n")
        with pytest.raises(DataFormatError, match="line 2: label .* is not an integer"):
            load_jsonl(path)

    @pytest.mark.parametrize("frame_labels", ["[1.7, 0.2]", "[0, 5]", "[0, -1]", "[0, true]"],
                             ids=["fractional", "too_large", "negative", "bool"])
    def test_bad_frame_label_rejected_with_line(self, tmp_path, frame_labels):
        path = tmp_path / "frame.jsonl"
        path.write_text("\n".join([
            '{"classes": ["a", "b"]}',
            '{"id": "x", "label": 0, "frames": [[1.0], [2.0]], "frame_labels": %s}'
            % frame_labels,
        ]) + "\n")
        with pytest.raises(DataFormatError, match=r"line 2: frame label .* \[0, 2\)"):
            load_jsonl(path)

    def test_unparseable_line(self, tmp_path):
        path = tmp_path / "syn.jsonl"
        path.write_text('{"classes": ["a", "b"]}\nnot json\n')
        with pytest.raises(DataFormatError, match="line 2"):
            load_jsonl(path)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), classes=st.integers(2, 4),
           length=st.integers(2, 6))
    def test_round_trip_property(self, tmp_path_factory, seed, classes, length):
        ds = gen_synthetic("velocity", classes, classes * 2, length, 3, 0.2,
                           seed=seed)
        path = tmp_path_factory.mktemp("jsonl") / "ds.jsonl"
        save_jsonl(ds, path)
        back = load_jsonl(path)
        for a, b in zip(ds.sequences, back.sequences):
            assert np.array_equal(a.frames, b.frames)
            assert a.label == b.label


class TestSplits:
    def test_kfold_partition(self):
        ds = gen_synthetic("velocity", 2, 10, 5, 2, 0.0, seed=0)
        splits = make_splits(ds, KFold(5, seed=1))
        assert len(splits) == 5
        all_test = [i for _, test in splits for i in test]
        assert sorted(all_test) == list(range(10))          # exhaustive
        assert len(set(all_test)) == 10                     # disjoint
        for train_idx, test_idx in splits:
            assert len(test_idx) == 2
            assert sorted(train_idx + test_idx) == list(range(10))

    def test_kfold_seeded(self):
        ds = gen_synthetic("velocity", 2, 10, 5, 2, 0.0, seed=0)
        assert make_splits(ds, KFold(5, seed=3)) == make_splits(ds, KFold(5, seed=3))
        assert make_splits(ds, KFold(5, seed=3)) != make_splits(ds, KFold(5, seed=4))

    def test_kfold_bounds(self):
        ds = gen_synthetic("velocity", 2, 4, 5, 2, 0.0, seed=0)
        with pytest.raises(ValueError):
            make_splits(ds, KFold(5))
        with pytest.raises(ValueError):
            make_splits(ds, KFold(1))

    def test_monte_carlo_stratified_counts(self):
        ds = gen_synthetic("velocity", 2, 20, 5, 2, 0.0, seed=0)  # 10 per class
        splits = make_splits(ds, MonteCarlo(0.8, trials=5, seed=2))
        assert len(splits) == 5
        for train_idx, test_idx in splits:
            labels = [ds.sequences[i].label for i in train_idx]
            assert labels.count(0) == 8 and labels.count(1) == 8
            assert len(test_idx) == 4
            assert sorted(train_idx + test_idx) == list(range(20))

    def test_monte_carlo_floor_rounding(self):
        ds = gen_synthetic("velocity", 2, 14, 5, 2, 0.0, seed=0)  # 7 per class
        for train_idx, _ in make_splits(ds, MonteCarlo(0.8, trials=2, seed=0)):
            labels = [ds.sequences[i].label for i in train_idx]
            assert labels.count(0) == 5 and labels.count(1) == 5  # floor(5.6)

    def test_monte_carlo_fraction_validated(self):
        ds = gen_synthetic("velocity", 2, 4, 5, 2, 0.0, seed=0)
        with pytest.raises(ValueError):
            make_splits(ds, MonteCarlo(1.0))

    def test_monte_carlo_trials_validated(self):
        # zero trials used to yield no splits and a mean accuracy of nan
        ds = gen_synthetic("velocity", 2, 4, 5, 2, 0.0, seed=0)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            make_splits(ds, MonteCarlo(0.5, trials=0))

    def test_unknown_plan(self):
        ds = gen_synthetic("velocity", 2, 4, 5, 2, 0.0, seed=0)
        with pytest.raises(TypeError):
            make_splits(ds, "5fold")


class TestPreprocess:
    def test_rank1_reduces_to_one_dim(self):
        d = np.array([1.0, -1.0, 2.0, 0.5])
        seqs = [Sequence(frames=np.outer([1.0, 2, 3], d) * (i + 1), label=i % 2)
                for i in range(4)]
        ds = Dataset(seqs, ["a", "b"])
        t = fit_preprocess(ds, energy=0.9)
        assert t.basis.shape[0] == 1
        out = apply_preprocess(t, ds)
        assert out.feature_dim == 1
        assert out.sequences[0].label == 0

    def test_energy_one_preserves_dim(self):
        ds = gen_synthetic("mixed", 2, 8, 6, 3, 0.3, seed=5)
        t = fit_preprocess(ds, energy=1.0)
        assert apply_preprocess(t, ds).feature_dim == 3

    def test_transform_reused_not_refit(self):
        train_ds = gen_synthetic("mixed", 2, 8, 6, 3, 0.3, seed=5)
        test_ds = gen_synthetic("mixed", 2, 4, 6, 3, 0.3, seed=6)
        t = fit_preprocess(train_ds, energy=0.9)
        basis_before = t.basis.copy()
        apply_preprocess(t, test_ds)
        assert np.array_equal(t.basis, basis_before)
