import json

import numpy as np
import pytest

import diffrnn.cli as cli
from diffrnn.backprop import GradCheckReport
from diffrnn.cells import build_model, dos_energy
from diffrnn.cli import build_config, main, parse_split
from diffrnn.data import KFold, MonteCarlo, load_jsonl
from diffrnn.train import checkpoint_load, checkpoint_save, model_to_doc


def make_data(tmp_path, name="data.jsonl", count=12, length=6, dim=4, seed=0):
    path = tmp_path / name
    rc = main(["synth", "--task", "velocity", "--classes", "2",
               "--count", str(count), "--len", str(length), "--dim", str(dim),
               "--noise", "0.05", "--seed", str(seed), "--out", str(path)])
    assert rc == 0
    return path


FAST = ["--epochs", "2", "--lr", "0.01", "--state-units", "4"]

# JSON nested deeper than the decoder's recursion limit
TOO_DEEP = "[" * 10_000 + "]" * 10_000


class TestParsers:
    def test_arch_strings(self):
        def layers(arch):
            return [(k.kind, k.order) for k, _ in build_config(arch, 3, 2, 2).layers]

        assert layers("lstm") == [("lstm", 0)]
        assert layers("rnn") == [("rnn", 0)]
        assert layers("stacked:3") == [("lstm", 0)] * 3
        assert layers("d2rnn:2") == [("dos", 0), ("dos", 1)]
        assert layers("drnn:1") == [("drnn", 1)]
        assert layers("dos:0") == [("dos", 0)]

    @pytest.mark.parametrize("bad", ["gru", "stacked", "d2rnn:x", "lstm:2", ""])
    def test_arch_rejects(self, bad):
        with pytest.raises(cli.UsageError):
            build_config(bad, 3, 2, 2)

    def test_d2rnn_builds_increasing_orders(self):
        cfg = build_config("d2rnn:3", 5, 4, 2)
        assert [k.order for k, _ in cfg.layers] == [0, 1, 2]
        assert all(k.kind == "dos" for k, _ in cfg.layers)

    def test_stacked_builds_lstm_layers(self):
        cfg = build_config("stacked:3", 5, 4, 2)
        assert [k.kind for k, _ in cfg.layers] == ["lstm"] * 3

    def test_split_strings(self):
        assert parse_split("none", 0) is None
        assert parse_split("kfold:5", 7) == KFold(k=5, seed=7)
        assert parse_split("mc:0.8:3", 7) == MonteCarlo(0.8, 3, 7)
        assert parse_split("mc:0.8", 7) == MonteCarlo(0.8, 5, 7)
        with pytest.raises(cli.UsageError):
            parse_split("loocv", 0)


class TestSynth:
    def test_writes_header_plus_count_lines(self, tmp_path, capsys):
        path = make_data(tmp_path, count=10)
        assert len(path.read_text().splitlines()) == 11
        out = capsys.readouterr().out
        assert "class0: 5 sequences" in out
        assert "class1: 5 sequences" in out

    def test_same_seed_byte_identical(self, tmp_path):
        a = make_data(tmp_path, "a.jsonl", seed=3)
        b = make_data(tmp_path, "b.jsonl", seed=3)
        assert a.read_bytes() == b.read_bytes()

    def test_short_length_warns(self, tmp_path, capsys):
        rc = main(["synth", "--len", "3", "--count", "2",
                   "--out", str(tmp_path / "s.jsonl")])
        assert rc == 0
        assert "order-2 derivative window" in capsys.readouterr().err

    def test_missing_out_is_usage_error(self, capsys):
        assert main(["synth", "--count", "2"]) == 1


class TestTrain:
    def test_artifacts_and_determinism(self, tmp_path):
        data = make_data(tmp_path)
        outs = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            rc = main(["train", "--data", str(data), "--arch", "dos:1",
                       "--split", "kfold:3", "--seed", "1", *FAST,
                       "--out", str(out)])
            assert rc == 0
            outs.append(out)
        for name in ("metrics.csv", "loss_epochs.csv", "effective_config.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert (outs[0] / "checkpoint_split0.json").exists()
        assert (outs[0] / "checkpoint_split2.json").exists()
        lines = (outs[0] / "metrics.csv").read_text().splitlines()
        assert lines[0] == "split,n_test,accuracy,mean_loss"
        assert len(lines) == 5                    # 3 folds + mean row
        assert lines[-1].startswith("mean,12,")

    def test_effective_config_echo(self, tmp_path):
        data = make_data(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), *FAST, "--out", str(out)]) == 0
        doc = json.loads((out / "effective_config.json").read_text())
        assert doc["command"] == "train"
        assert doc["config"]["epochs"] == 2
        assert doc["config"]["arch"] == "d2rnn:3"  # default survived

    def test_config_file_and_flag_precedence(self, tmp_path):
        data = make_data(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "arch": "lstm",
                                   "learning_rate": 0.01, "state_units": 4}))
        out = tmp_path / "run"
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--epochs", "2", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "effective_config.json").read_text())
        assert doc["config"]["arch"] == "lstm"    # from file
        assert doc["config"]["epochs"] == 2       # flag wins

    def test_unknown_config_key(self, tmp_path, capsys):
        data = make_data(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": "adam"}))
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_bad_arch_is_usage_error(self, tmp_path):
        data = make_data(tmp_path)
        rc = main(["train", "--data", str(data), "--arch", "gru", *FAST,
                   "--out", str(tmp_path / "run")])
        assert rc == 1

    def test_missing_data_is_data_error(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope.jsonl"), *FAST,
                   "--out", str(tmp_path / "run")])
        assert rc == 2

    def test_malformed_data_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        rc = main(["train", "--data", str(bad), *FAST,
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_out_of_range_frame_label_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "frame.jsonl"
        bad.write_text('{"classes": ["a", "b"]}\n'
                       '{"id": "x", "label": 0, "frames": [[1.0], [2.0]], '
                       '"frame_labels": [0, 5]}\n')
        rc = main(["train", "--data", str(bad), *FAST, "--mode", "frame",
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "line 2: frame label 5" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_frame_too_large_for_float64_is_data_error(self, tmp_path, capsys, command):
        bad = tmp_path / "big.jsonl"
        bad.write_text('{"classes": ["a", "b"]}\n'
                       '{"id": "x", "label": 0, "frames": [[1%s]]}\n' % ("0" * 400))
        checkpoint = tmp_path / "ck.json"
        checkpoint_save(build_model(build_config("lstm", 1, 3, 2)), checkpoint)
        rest = ([*FAST, "--out", str(tmp_path / "run")] if command == "train"
                else ["--checkpoint", str(checkpoint)])
        rc = main([command, "--data", str(bad), *rest])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "line 2: int too large" in err

    @pytest.mark.parametrize("command", ["train", "eval", "dos-energy"])
    @pytest.mark.parametrize("frames, message", [
        ("[[]]", "each frame must be a list of at least one number"),
        ("[]", "a sequence needs at least one frame"),
        ("[1, 2]", "each frame must be a list of at least one number"),
        ("[[1, [2]], [3, 4]]", "each frame must be a list of at least one number"),
    ])
    def test_frames_lacking_a_frame_or_number_are_data_errors(self, tmp_path, capsys,
                                                              command, frames, message):
        bad = tmp_path / "empty.jsonl"
        bad.write_text('{"classes": ["a", "b"]}\n'
                       '{"id": "x", "label": 0, "frames": %s}\n' % frames)
        checkpoint = tmp_path / "ck.json"
        checkpoint_save(build_model(build_config("lstm", 3, 3, 2)), checkpoint)
        rest = ([*FAST, "--out", str(tmp_path / "run")] if command == "train"
                else ["--checkpoint", str(checkpoint)])
        rc = main([command, "--data", str(bad), *rest])
        assert rc == 2
        assert capsys.readouterr().err == f"error: line 2: {message}\n"


    @pytest.mark.parametrize("command", ["train", "eval", "dos-energy"])
    def test_ragged_frames_are_data_errors(self, tmp_path, capsys, command):
        bad = tmp_path / "ragged.jsonl"
        bad.write_text('{"classes": ["a", "b"]}\n'
                       '{"id": "x", "label": 0, "frames": [[1, 2], [3]]}\n')
        checkpoint = tmp_path / "ck.json"
        checkpoint_save(build_model(build_config("lstm", 2, 3, 2)), checkpoint)
        rest = ([*FAST, "--out", str(tmp_path / "run")] if command == "train"
                else ["--checkpoint", str(checkpoint)])
        rc = main([command, "--data", str(bad), *rest])
        assert rc == 2
        assert capsys.readouterr().err == "error: line 2: frames of differing lengths\n"


class TestEval:
    def test_eval_trained_checkpoint(self, tmp_path, capsys):
        data = make_data(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--arch", "dos:0", *FAST,
                     "--out", str(out)]) == 0
        rc = main(["eval", "--checkpoint", str(out / "checkpoint_split0.json"),
                   "--data", str(data), "--out", str(tmp_path / "eval")])
        assert rc == 0
        assert "accuracy" in capsys.readouterr().out
        assert (tmp_path / "eval" / "confusion.csv").exists()
        assert (tmp_path / "eval" / "metrics.csv").exists()

    def test_bad_checkpoint(self, tmp_path):
        data = make_data(tmp_path)
        bad = tmp_path / "ckpt.json"
        bad.write_text("{}")
        assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 2

    @pytest.mark.parametrize("tag", ["output", "lstm", 7, ["cell"]])
    def test_unknown_layer_tag_fails_with_one_line(self, tmp_path, capsys, tag):
        data = make_data(tmp_path, dim=3)
        doc = model_to_doc(build_model(build_config("lstm", 3, 3, 2)))
        doc["layers"][0]["type"] = tag
        checkpoint = tmp_path / "ck.json"
        checkpoint.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: unknown layer type {tag!r}\n"


class TestGradcheck:
    def test_pass_exit_zero(self, capsys):
        rc = main(["gradcheck", "--arch", "dos:1", "--state-units", "3",
                   "--input-dim", "3", "--len", "4", "--seed", "0"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_fail_exit_three(self, monkeypatch, capsys):
        def failing(model, frames, label):
            return GradCheckReport(entries=[], max_rel_error=1.0,
                                   worst="layer0.w_ix[0, 0]", passed=False)

        monkeypatch.setattr(cli, "grad_check", failing)
        rc = main(["gradcheck"])
        assert rc == 3
        assert "FAIL" in capsys.readouterr().out


class TestDosEnergy:
    def _checkpoint(self, tmp_path, data):
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--arch", "d2rnn:3", *FAST,
                     "--out", str(out)]) == 0
        return out / "checkpoint_split0.json"

    def test_columns_and_values_match_library(self, tmp_path):
        data = make_data(tmp_path)
        ckpt = self._checkpoint(tmp_path, data)
        csv_path = tmp_path / "energy.csv"
        rc = main(["dos-energy", "--checkpoint", str(ckpt), "--data", str(data),
                   "--layer", "2", "--index", "1", "--out", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "frame,order0,order1,order2"
        model = checkpoint_load(ckpt)
        ds = load_jsonl(data)
        direct = dos_energy(model, ds.sequences[1].frames, 2)
        assert len(lines) == 1 + direct.shape[0]
        got = np.array([[float(v) for v in line.split(",")[1:]]
                        for line in lines[1:]])
        assert np.array_equal(got, direct)       # repr round trip is lossless

    def test_constant_input_order1_decays_to_zero(self, tmp_path):
        data = make_data(tmp_path, dim=3)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--arch", "dos:1", *FAST,
                     "--out", str(out)]) == 0
        model = checkpoint_load(out / "checkpoint_split0.json")
        frames = np.full((60, 3), 0.3)
        e = dos_energy(model, frames, 0)
        assert e[-1, 1] < 1e-6
        assert e[-1, 1] < e[0, 1]

    def test_index_out_of_range(self, tmp_path):
        data = make_data(tmp_path)
        ckpt = self._checkpoint(tmp_path, data)
        rc = main(["dos-energy", "--checkpoint", str(ckpt), "--data", str(data),
                   "--index", "99"])
        assert rc == 2


class TestEnsembleCommand:
    def test_member_rows_and_determinism(self, tmp_path):
        data = make_data(tmp_path)
        outs = []
        for run in ("e1", "e2"):
            out = tmp_path / run
            rc = main(["ensemble", "--data", str(data), "--max-order", "1",
                       "--seed", "2", *FAST, "--out", str(out)])
            assert rc == 0
            outs.append(out)
        lines = (outs[0] / "metrics.csv").read_text().splitlines()
        assert lines[0] == "model,mean_accuracy"
        assert [l.split(",")[0] for l in lines[1:]] == ["dos:0", "dos:1", "ensemble"]
        assert (outs[0] / "metrics.csv").read_bytes() == \
               (outs[1] / "metrics.csv").read_bytes()
        assert (outs[0] / "ensemble_split0.json").exists()

    def test_order_zero_matches_single_model_accuracy(self, tmp_path):
        data = make_data(tmp_path)
        ens_out = tmp_path / "ens"
        trn_out = tmp_path / "trn"
        args = ["--data", str(data), "--seed", "3", *FAST]
        assert main(["ensemble", *args, "--max-order", "0",
                     "--out", str(ens_out)]) == 0
        assert main(["train", *args, "--arch", "dos:0",
                     "--out", str(trn_out)]) == 0
        ens_rows = (ens_out / "metrics.csv").read_text().splitlines()[1:]
        single_acc = (trn_out / "metrics.csv").read_text().splitlines()[1].split(",")[2]
        assert ens_rows[0].split(",")[1] == single_acc       # dos:0 member
        assert ens_rows[1].split(",")[1] == single_acc       # ensemble == member


class TestBadValues:
    """Bad values fail where they enter, with a one-line error, never with a
    traceback."""

    @pytest.mark.parametrize("reader, body", [
        ("train", "5"),
        ("train", "[1, 2]"),
        ("train", '{"epochs": "x"}'),
        ("train", '{"arch": 5}'),
        ("train", '{"epochs": 2.5}'),
        ("train", '{"epochs": true}'),
        ("train", '{"learning_rate": "0.1"}'),
        ("train", '{"clip_norm": false}'),
        ("train", '{"shuffle": 1}'),
        ("ensemble", '{"boost_variant": "m1"}'),
        ("ensemble", '{"max_order": 1.0}'),
    ], ids=["not_object", "list", "str_for_int", "int_for_str", "float_for_int",
            "bool_for_int", "str_for_float", "bool_for_float", "int_for_bool",
            "removed_key", "float_for_int_ensemble"])
    def test_bad_config_or_ensemble_file(self, tmp_path, capsys, reader, body):
        path = tmp_path / "file.json"
        path.write_text(body)
        data = make_data(tmp_path)
        rc = main([reader, "--data", str(data), "--config", str(path), *FAST,
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind, message", [
        ("record", "error: line 2: maximum recursion depth exceeded"),
        ("header", "error: line 1: bad header"),
        ("checkpoint", "error: cannot read checkpoint"),
        ("config", "error: cannot read config"),
    ], ids=["record", "header", "checkpoint", "config"])
    def test_json_nested_too_deep_is_data_error(self, tmp_path, capsys, kind, message):
        data, bad = make_data(tmp_path), tmp_path / "deep.json"
        argv = {
            "record": ["train", "--data", str(bad), *FAST, "--out", str(tmp_path / "run")],
            "header": ["train", "--data", str(bad), *FAST, "--out", str(tmp_path / "run")],
            "checkpoint": ["eval", "--checkpoint", str(bad), "--data", str(data)],
            "config": ["synth", "--config", str(bad), "--out", str(tmp_path / "s.jsonl")],
        }[kind]
        bad.write_text({
            "record": '{"classes": ["a", "b"]}\n{"label": 0, "frames": %s}\n' % TOO_DEEP,
            "header": '{"classes": %s}\n{"label": 0, "frames": [[1.0]]}\n' % TOO_DEEP,
            "checkpoint": '{"format_version": 1, "config": %s}' % TOO_DEEP,
            "config": '{"seed": %s}' % TOO_DEEP,
        }[kind])
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    def test_config_accepts_int_for_float_and_null_for_unset(self, tmp_path):
        data = make_data(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 1, "clip_norm": None,
                                   "shuffle": False}))
        assert main(["train", "--data", str(data), "--config", str(cfg), *FAST,
                     "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("argv", [
        ["train", "--state-units", "0"],
        ["train", "--clip-norm", "-1"],
        ["train", "--split", "mc:0.5:0"],
        ["gradcheck", "--input-dim", "0"],
        ["train", "--epochs", "0"],
        # binomial weights of these orders overflow float64
        ["gradcheck", "--arch", "dos:1100", "--len", "3"],
        ["gradcheck", "--arch", "drnn:1100"],
        ["train", "--arch", "drnn:1100"],
    ], ids=["zero_units", "negative_clip", "zero_trials", "zero_input_dim",
            "zero_epochs", "dos_order_1100", "drnn_order_1100", "train_order_1100"])
    def test_out_of_range_value_fails_with_one_line(self, tmp_path, capsys, argv):
        # a value bad for any data is a usage error, not a data error
        if argv[0] == "train":
            argv = ["train", "--data", str(make_data(tmp_path)), "--epochs", "1",
                    "--out", str(tmp_path / "run"), *argv[1:]]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("body", ['{"epochs": 0}', '{"split": "kfold:1"}',
                                      '{"arch": "dos:1100"}'],
                             ids=["zero_epochs", "one_fold", "order_1100"])
    def test_out_of_range_config_value_is_usage_error(self, tmp_path, capsys, body):
        data = make_data(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(body)
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # sizes whose byte count exceeds any address space: numpy refuses the
    # allocation without touching memory
    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--state-units", "100000000"],
        ["train", "--state-units", "100000000"],
        ["ensemble", "--state-units", "100000000"],
        ["synth", "--dim", "100000000000000000"],
    ], ids=["gradcheck", "train", "ensemble", "synth"])
    def test_oversized_value_fails_with_one_line_before_any_output(self, tmp_path, capsys,
                                                                   argv):
        data, out = make_data(tmp_path), tmp_path / "out"
        if argv[0] in ("train", "ensemble"):
            argv = [*argv, "--data", str(data)]
        if argv[0] != "gradcheck":
            argv = [*argv, "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]

    def test_value_bad_only_for_this_data_is_data_error(self, tmp_path, capsys):
        data = make_data(tmp_path, count=12)
        capsys.readouterr()
        assert main(["train", "--data", str(data), *FAST, "--split", "kfold:13",
                     "--out", str(tmp_path / "run")]) == 2
        assert "k must be in [2, 12]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["train"], ["train", "--pca-energy", "0.9"],
                                      ["ensemble"]], ids=["train", "train_pca", "ensemble"])
    def test_empty_monte_carlo_training_side_is_named(self, tmp_path, capsys, argv):
        # 6 sequences per class: a fraction of 0.05 draws none of either
        data = make_data(tmp_path, count=12)
        capsys.readouterr()
        assert main([*argv, "--data", str(data), *FAST, "--split", "mc:0.05:2",
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err == ("error: Monte Carlo trial 0: a train fraction of 0.05 leaves no "
                       "training sequence\n")


class TestFileSystemErrors:
    @pytest.mark.parametrize("argv", [
        lambda tmp, data: ["train", "--data", str(tmp), *FAST,
                           "--out", str(tmp / "run")],
        lambda tmp, data: ["train", "--data", str(data), *FAST, "--out", str(data)],
        lambda tmp, data: ["synth", "--count", "2", "--out", str(tmp)],
    ], ids=["train_data_is_dir", "train_out_is_file", "synth_out_is_dir"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, argv):
        data = make_data(tmp_path)
        capsys.readouterr()
        assert main(argv(tmp_path, data)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_eval_rejects_other_class_count(tmp_path, capsys):
    three = make_data(tmp_path, "three.jsonl")
    assert main(["synth", "--classes", "3", "--count", "9", "--len", "6",
                 "--dim", "4", "--out", str(three)]) == 0
    out = tmp_path / "run"
    assert main(["train", "--data", str(three), "--arch", "dos:0", *FAST,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(out / "checkpoint_split0.json"),
               "--data", str(make_data(tmp_path))])
    assert rc == 2
    assert "dataset has 2 classes but the model has 3" in capsys.readouterr().err


class TestParserStatesTheOptions:
    """The argparse flags are the one list of options and their defaults."""

    TRAINING = {"clip_norm": None, "epochs": 50, "learning_rate": 0.0001,
                "mode": "sequence", "pca_energy": None, "seed": 0,
                "shuffle": True, "split": "none", "state_units": 16,
                "truncation": "full"}

    @pytest.mark.parametrize("command, own", [
        ("train", {"arch": "d2rnn:3"}),
        ("ensemble", {"max_order": 2}),
    ])
    def test_default_effective_config(self, tmp_path, command, own):
        data = make_data(tmp_path, count=6, length=4, dim=2)
        out = tmp_path / "run"
        assert main([command, "--data", str(data), "--out", str(out)]) == 0
        doc = json.loads((out / "effective_config.json").read_text())
        assert doc == {"command": command, "config": {**self.TRAINING, **own}}

    def test_no_shuffle_flag_equals_config_key(self, tmp_path):
        data = make_data(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shuffle": False}))
        runs = {"flag": ["--no-shuffle"], "file": ["--config", str(cfg)]}
        for name, extra in runs.items():
            assert main(["train", "--data", str(data), "--arch", "dos:1", *FAST,
                         *extra, "--out", str(tmp_path / name)]) == 0
        doc = json.loads((tmp_path / "flag" / "effective_config.json").read_text())
        assert doc["config"]["shuffle"] is False
        for name in ("effective_config.json", "loss_epochs.csv", "metrics.csv",
                     "checkpoint_split0.json"):
            assert (tmp_path / "flag" / name).read_bytes() == \
                   (tmp_path / "file" / name).read_bytes()

    def test_config_defaults_do_not_leak_into_later_calls(self, tmp_path, capsys):
        # the parser is built once per process, so a config file's defaults
        # must hold for its own call only
        data = make_data(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "frame", "truncation": "truncated",
                                   "arch": "lstm", "seed": 3}))

        def usage_error():
            with pytest.raises(SystemExit) as exc:
                main(["train", "--out", str(tmp_path / "x")])
            assert exc.value.code == 1
            return capsys.readouterr().err

        before = usage_error()
        assert before.startswith("usage: diffrnn train ")
        for name, extra in (("file", ["--config", str(cfg)]), ("plain", [])):
            assert main(["train", "--data", str(data), *FAST, *extra,
                         "--out", str(tmp_path / name)]) == 0
        assert cli._parser() is cli._parser()
        docs = {name: json.loads((tmp_path / name / "effective_config.json").read_text())
                for name in ("file", "plain")}
        assert docs["file"]["config"]["mode"] == "frame"
        assert docs["file"]["config"]["seed"] == 3
        defaults = {"mode": "sequence", "truncation": "full", "arch": "d2rnn:3", "seed": 0}
        assert {k: docs["plain"]["config"][k] for k in defaults} == defaults
        capsys.readouterr()
        assert usage_error() == before

    def test_a_config_run_writes_no_parser_state(self, tmp_path, monkeypatch):
        # the file's values are the run's preset values, never the parser's
        # defaults: the command's parser is the same before the run, while
        # it parses, inside the running command and after the run
        data = make_data(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "frame", "arch": "lstm", "seed": 3}))
        command = cli._parser()[1]["train"]

        def parser_state():
            return dict(command._defaults), [a.default for a in command._actions]

        seen, run, parse = [], command._defaults["run"], command.parse_known_args
        monkeypatch.setitem(command._defaults, "run",
                            lambda args: seen.append(parser_state()) or run(args))
        monkeypatch.setattr(command, "parse_known_args",
                            lambda *a: seen.append(parser_state()) or parse(*a))
        before = parser_state()
        assert main(["train", "--data", str(data), *FAST, "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 0
        assert len(seen) >= 2 and all(state == before for state in seen)
        assert parser_state() == before
        doc = json.loads((tmp_path / "run" / "effective_config.json").read_text())
        assert {k: doc["config"][k] for k in ("mode", "arch", "seed")} == \
               {"mode": "frame", "arch": "lstm", "seed": 3}

    @pytest.mark.parametrize("command, key", [
        ("synth", "task"), ("train", "mode"), ("train", "truncation"),
    ])
    def test_config_value_outside_choices(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "bogus"}))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "train":
            argv += ["--data", str(make_data(tmp_path)), *FAST]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key '{key}' must be one of")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "--checkpoint", "ck.json", "--data", "d.jsonl",
         "--config", "x.json"],
        ["dos-energy", "--checkpoint", "ck.json", "--data", "d.jsonl",
         "--seed", "1"],
        ["gradcheck", "--out", "r.txt"],
    ], ids=["eval_config", "dos_energy_seed", "gradcheck_out"])
    def test_commands_without_options_take_no_config_or_seed(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
