"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench -q"""
import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from diffrnn import cells, ensemble  # noqa: E402
from diffrnn.cli import build_config  # noqa: E402

REF = checks.load_reference(ROOT / "tests" / "reference.py")


# -- percentiles -------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.beyond(1000, 99) == 10
    assert run.tail_percentile(list(range(1000))) == (99.0, 989)
    assert run.beyond(999, 99) == 9
    assert run.tail_percentile(list(range(999)))[0] == 90.0
    assert run.tail_percentile(list(range(20))) == (50.0, 9)
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(10000)))[0] == 99.9


def test_percentile_is_nearest_rank():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(xs, 50) == 3.0
    assert run.percentile(xs, 99) == 5.0
    assert run.percentile(xs, 1) == 1.0


def test_cycle_rate_corrects_partial_cycles():
    # a cycle is 2 units of a and 1 of b doing 20 work; a ran 4 units in 2 s,
    # b one unit in 3 s: a full cycle takes 2 * 0.5 + 3 = 4 s.
    assert run.cycle_rate({"a": 2, "b": 1}, 20.0, {"a": 4, "b": 1}, {"a": 2.0, "b": 3.0}) \
        == pytest.approx(5.0)


def test_units_are_scaled_by_the_calibration_around_them():
    # calibration units every 0.1 s: reference speed until t=5, half speed after
    ref = run.CAL_REF_S
    host_log = [(t, t + (ref if t < 5 else 2 * ref), "host") for t in np.arange(0.0, 10.0, 0.1)]
    slowdown = run.slowdown_from(host_log)
    assert slowdown(1.0, 1.05) == pytest.approx(1.0)
    assert slowdown(8.0, 8.05) == pytest.approx(2.0)
    assert slowdown(4.95, 5.0) == pytest.approx(1.5)
    phase = run.Phase("p", iter(()), {"a": 1}, cycle_work=10.0)
    phase.log = [(1.0, 1.5, "a"), (8.0, 9.0, "a")]
    assert phase.durations(slowdown) == pytest.approx([0.5, 0.5])
    assert phase.rate(slowdown) == pytest.approx(20.0)
    assert phase.rate() == pytest.approx(10.0 / 0.75)


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    #   a [0, 10]
    #     b [1, 4]
    #       c [2, 3]
    #     d [5, 9]
    keys = [("a", ""), ("b", ""), ("c", ""), ("d", "")]
    key = np.array([0, 1, 2, 3])
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    s = spans.summarize(keys, key, parent, start, end, np.zeros(4, dtype=np.int64))
    assert [s[k]["self_s"] for k in keys] == [3.0, 2.0, 1.0, 4.0]
    assert [s[k]["busy_s"] for k in keys] == [10.0, 3.0, 1.0, 4.0]
    assert sum(v["self_s"] for v in s.values()) == 10.0


def test_tracer_wraps_every_binding_site_and_restores_them():
    train_mod = sys.modules["diffrnn.train"]
    original = cells.stack_forward
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (cells, train_mod, sys.modules["diffrnn.backprop"], sys.modules["diffrnn"]):
            assert module.stack_forward is not original
            assert module.stack_forward.__wrapped__ is original
        assert cells.sigmoid.__wrapped__ is sys.modules["diffrnn.numerics"].sigmoid.__wrapped__
        assert ensemble.train.__wrapped__ is train_mod.train.__wrapped__
        model = cells.build_model(build_config("d2rnn:3", 4, 5, 3), seed=0)
        ensemble.predict_sequence(model, np.ones((6, 4)))
    finally:
        tracer.uninstall()
    assert cells.stack_forward is original and train_mod.stack_forward is original
    key, parent, start, end, amount = tracer.rows()
    names = [tracer.key_list[k] for k in key]
    assert names[0] == ("cells.predict_sequence", "")
    assert names[1] == ("cells.stack_forward", "d2rnn3") and parent[1] == 0
    assert amount[1] == 6
    assert all(p >= 0 for p in parent[1:])
    s = tracer.summary()
    assert s[("numerics.sigmoid", "")]["calls"] == 3 * 3 * 6
    assert sum(v["self_s"] for v in s.values()) == pytest.approx(end[0] - start[0])


def test_absent_function_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(spans, "WRAPPED", spans.WRAPPED + (
        ("cells", "no_such_function", "cells.no_such_function", None),
        ("no_such_module", "f", "no_such_module.f", None)))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["cells.no_such_function", "no_such_module.f"]


def test_arch_tags():
    tags = {a: spans.arch_tag(build_config(a, 4, 5, 3))
            for a in ("rnn", "lstm", "stacked:3", "dos:2", "drnn:2", "d2rnn:3")}
    assert tags == {"rnn": "rnn", "lstm": "lstm", "stacked:3": "stacked3",
                    "dos:2": "dos2", "drnn:2": "drnn2", "d2rnn:3": "d2rnn3"}


# -- correctness checks ------------------------------------------------------


def _model(arch="d2rnn:3"):
    return cells.build_model(build_config(arch, 4, 5, 3), seed=1)


def test_perturbed_forward_is_a_failed_operation():
    model = _model()
    frames = np.random.default_rng(0).normal(size=(30, 4))
    logits = cells.stack_forward(model, frames).logits
    checker = checks.Checker(out=lambda line: None)
    checks.check_logits(checker, REF, "exact", model, frames, logits)
    assert checker.failures == []
    bad = logits.copy()
    bad[17, 1] += 1e-8
    checks.check_logits(checker, REF, "perturbed", model, frames, bad)
    assert checker.checks == 2 and len(checker.failures) == 1
    assert checker.failures[0].startswith("FAILED perturbed")


def test_perturbed_energy_and_prediction_fail():
    model = _model()
    frames = np.random.default_rng(1).normal(size=(12, 4))
    checker = checks.Checker(out=lambda line: None)
    for layer in range(3):
        e = cells.dos_energy(model, frames, layer)
        checks.check_energy(checker, REF, "energy", model, frames, layer, e)
        e[-1, -1] *= 1 + 1e-6
        checks.check_energy(checker, REF, "energy perturbed", model, frames, layer, e)
    pred, probs = cells.predict_sequence(model, frames)
    checks.check_predict(checker, REF, "predict", model, frames, pred, probs)
    checks.check_predict(checker, REF, "predict wrong class", model, frames, (pred + 1) % 3,
                         probs)
    assert checker.checks == 8
    assert [f.split(":")[0] for f in checker.failures] == \
        ["FAILED energy perturbed"] * 3 + ["FAILED predict wrong class"]


def test_ensemble_alpha_check_catches_a_wrong_weight():
    from diffrnn.data import gen_synthetic
    from diffrnn.train import TrainConfig

    ds = gen_synthetic("mixed", 3, 9, 6, 4, 0.05, seed=2)
    tc = TrainConfig(learning_rate=0.003, epochs=1, mode="frame", seed=2, shuffle=False)
    ens = ensemble.fit_ernn(ds, 2, tc, 4)
    votes = [ensemble.predict_ensemble(ens, s.frames) for s in ds.sequences]
    checker = checks.Checker(out=lambda line: None)
    checks.check_ensemble(checker, REF, "ens", ens, ds, votes)
    assert checker.failures == []
    model, alpha = ens.members[0]
    ens.members[0] = (model, alpha + 1e-6)
    checks.check_ensemble(checker, REF, "ens", ens, ds, votes)
    assert any(f.startswith("FAILED ens alphas") for f in checker.failures)


def test_expected_alphas_follow_samme():
    # member 0: one of four wrong; member 1: perfect; member 2: at chance
    labels = [0, 1, 0, 1]
    alphas = checks.expected_alphas([[0, 1, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0]], labels, 2)
    assert alphas[0] == pytest.approx(np.log(3.0))
    assert alphas[1] == checks.ALPHA_CAP
    assert alphas[2] == 0.0
    assert checks.expected_alphas([[1, 0, 1, 0]], labels, 2) == [1.0]


def test_failed_gradcheck_report_is_counted():
    from diffrnn.backprop import grad_check

    model = _model("dos:1")
    report = grad_check(model, np.random.default_rng(3).normal(size=(5, 4)), 0)
    checker = checks.Checker(out=lambda line: None)
    checks.check_gradcheck(checker, "ok", model, report)
    report.passed = False
    checks.check_gradcheck(checker, "failed", model, report)
    assert len(checker.failures) == 1 and checker.failures[0].startswith("FAILED failed")


def test_phases_keep_the_last_output_for_the_checks():
    # every call returns a new value; the checks must see the last, warm one
    calls = iter(range(1000))
    fake = lambda *args: next(calls)  # noqa: E731
    lib = SimpleNamespace(cells=SimpleNamespace(predict_sequence=lambda m, f: (fake(), None),
                                                dos_energy=fake),
                          backprop=SimpleNamespace(grad_check=fake))
    seq = SimpleNamespace(frames=np.zeros((3, 2)))
    model = SimpleNamespace(config=SimpleNamespace(layers=[None]))
    env = SimpleNamespace(eval_set=SimpleNamespace(sequences=[seq]),
                          predict_set=SimpleNamespace(sequences=[seq]), predict_model=model,
                          gradcheck=[("k", model, seq.frames, 0)])
    predicts, energies, reports = {}, {}, {}
    for units in (run.predict_units(lib, env, [0], predicts, {0}, []),
                  run.energy_units(lib, env, [0], energies, {0}),
                  run.gradcheck_units(lib, env, reports)):
        next(units)
        next(units)
    assert predicts[0][0] == 1 and energies[(0, 0)] == 3 and reports["k"] == 5


# -- whole runs --------------------------------------------------------------


def _shrunk(w):
    """A minimum-size copy of a workload: every phase, a handful of units."""
    return dataclasses.replace(
        w, train_lengths=w.train_lengths[:w.classes], eval_lengths=w.eval_lengths[:w.classes],
        predict_lengths=w.predict_lengths[:w.classes],
        holdout=1, predict_passes=1, gradcheck=w.gradcheck[:1], gradcheck_seeds=1)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_declared_metric(monkeypatch, workload, trace):
    monkeypatch.setitem(run.WORKLOADS, workload, _shrunk(run.WORKLOADS[workload]))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    result = json.loads(buf.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not list(ROOT.glob(".perfbench-*"))


def test_benchmark_json_names_this_programs_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in run.WORKLOADS.values()]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tiny-oracle",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
