"""Acceptance suite: one test (and one printed PASS line) per criterion.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the per-criterion
summaries; without ``-s`` the pytest PASSED/FAILED verdicts carry the same
information.
"""
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from diffrnn.backprop import GRAD_CHECK_H, GRAD_CHECK_TOL, backward, grad_check
from diffrnn.cells import (
    CellKind,
    StackConfig,
    build_model,
    d2rnn_config,
    dos,
    param_arrays,
    stack_forward,
    stacked_lstm_config,
)
from diffrnn.cli import main as cli_main
from diffrnn.data import KFold, gen_synthetic, load_jsonl, make_splits, save_jsonl
from diffrnn.ensemble import fit_ernn, predict_ensemble, samme_round
from diffrnn.numerics import seeded_rng
from diffrnn.train import (
    TrainConfig,
    checkpoint_load,
    checkpoint_save,
    evaluate,
    loss_frame,
    train,
)
from test_backprop import _fd_frozen_surrogate

DATA_DIR = Path(__file__).parent / "data"


def report(line):
    print(f"\n{line}")


def test_criterion_1_gradient_correctness():
    """The full backward vs central differences (h=1e-5): max rel err < 1e-4
    for five architectures x three seeds, within one minute."""
    assert (GRAD_CHECK_H, GRAD_CHECK_TOL) == (1e-5, 1e-4)
    archs = {
        "lstm": stacked_lstm_config(1, 4, 6, 3),
        "dos1": StackConfig(((CellKind("dos", 1), 6),), 4, 3),
        "dos2": StackConfig(((CellKind("dos", 2), 6),), 4, 3),
        "drnn2": StackConfig(((CellKind("drnn", 2), 6),), 4, 3),
        "d2rnn3": d2rnn_config(3, 4, 5, 3),
    }
    start = time.time()
    worst = 0.0
    for name, cfg in archs.items():
        for seed in (0, 1, 2):
            model = build_model(cfg, seed=seed)
            frames = seeded_rng(100 + seed).normal(size=(5, 4))
            rep = grad_check(model, frames, label=seed % 3)
            assert rep.passed, (
                f"ACCEPTANCE 1: FAIL — {name} seed {seed}: {rep.format()}")
            worst = max(worst, rep.max_rel_error)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"ACCEPTANCE 1: FAIL — took {elapsed:.1f}s (>= 60s)"
    report(f"ACCEPTANCE 1: PASS — gradient check, max rel error "
           f"{worst:.2e} < 1e-4 over 5 archs x 3 seeds in {elapsed:.1f}s")


def _copy_shared_lstm_weights(dst, src):
    for name in ("w_ix", "w_fx", "w_ox", "w_sx", "w_ih", "w_fh", "w_oh",
                 "w_sh", "b_i", "b_f", "b_o", "b_s"):
        getattr(dst, name)[:] = getattr(src, name)


def test_criterion_2_reduction_equivalences():
    """DosCell(0) with zeroed DoS matrices == Lstm, and DrnnCell(2) with one
    surviving order j == DosCell(j), bitwise, over 10 random sequences."""
    lstm = build_model(stacked_lstm_config(1, 4, 5, 2), seed=0)
    dos0 = build_model(StackConfig(((CellKind("dos", 0), 5),), 4, 2), seed=0)
    _copy_shared_lstm_weights(dos0.layers[0], lstm.layers[0])
    dos0.output.w_yh[:] = lstm.output.w_yh
    dos0.output.b_y[:] = lstm.output.b_y
    for d in (dos0.layers[0].w_id, dos0.layers[0].w_fd, dos0.layers[0].w_od):
        d[0][:] = 0.0

    drnn = build_model(StackConfig(((CellKind("drnn", 2), 5),), 4, 2), seed=1)
    singles = {}
    for j in range(3):
        m = build_model(StackConfig(((CellKind("dos", j), 5),), 4, 2), seed=1)
        _copy_shared_lstm_weights(m.layers[0], drnn.layers[0])
        m.output.w_yh[:] = drnn.output.w_yh
        m.output.b_y[:] = drnn.output.b_y
        for dname in ("w_id", "w_fd", "w_od"):
            getattr(m.layers[0], dname)[j][:] = getattr(drnn.layers[0], dname)[j]
        singles[j] = m

    rng = seeded_rng(2)
    for si in range(10):
        frames = rng.normal(size=(6, 4))
        assert np.array_equal(stack_forward(dos0, frames).logits,
                              stack_forward(lstm, frames).logits), \
            f"ACCEPTANCE 2: FAIL — dos0/lstm logits differ on sequence {si}"
        for j, single in singles.items():
            zeroed = build_model(StackConfig(((CellKind("drnn", 2), 5),), 4, 2),
                                 seed=1)
            _copy_shared_lstm_weights(zeroed.layers[0], drnn.layers[0])
            zeroed.output.w_yh[:] = drnn.output.w_yh
            zeroed.output.b_y[:] = drnn.output.b_y
            for dname in ("w_id", "w_fd", "w_od"):
                for n in range(3):
                    getattr(zeroed.layers[0], dname)[n][:] = \
                        getattr(drnn.layers[0], dname)[n] if n == j else 0.0
            assert np.array_equal(stack_forward(zeroed, frames).logits,
                                  stack_forward(single, frames).logits), \
                (f"ACCEPTANCE 2: FAIL — drnn(order {j} only)/dos{j} logits "
                 f"differ on sequence {si}")
    report("ACCEPTANCE 2: PASS — reduction equivalences bitwise over "
           "10 random sequences (dos0==lstm, drnn-single-order==dos)")


def test_criterion_3_truncation_contract():
    """Truncated == full with zero DoS matrices; differs with nonzero order-1
    weights; truncated gradients match the constant-substitution oracle
    within 1e-10."""
    # (a) zero DoS matrices -> bitwise identical
    model = build_model(d2rnn_config(3, 3, 4, 2), seed=8)
    for p in model.layers:
        for d in (p.w_id, p.w_fd, p.w_od):
            for n in d:
                d[n][:] = 0.0
    frames = seeded_rng(9).normal(size=(5, 3))
    tape = stack_forward(model, frames)
    _, dlogits = loss_frame(tape.logits, [0])
    full = dict(param_arrays(model.layout, backward(model, tape, dlogits, truncated=False)))
    trunc = dict(param_arrays(model.layout, backward(model, tape, dlogits, truncated=True)))
    assert all(np.array_equal(full[k], trunc[k]) for k in full), \
        "ACCEPTANCE 3: FAIL — zero-DoS model: truncated != full bitwise"

    # (b) nonzero order-1 weights on a >=3-step sequence -> gradients differ
    model = build_model(StackConfig(((CellKind("dos", 1), 4),), 3, 2), seed=8)
    frames = seeded_rng(9).normal(size=(4, 3))
    tape = stack_forward(model, frames)
    _, dlogits = loss_frame(tape.logits, [0])
    g_full = dict(param_arrays(model.layout, backward(model, tape, dlogits, truncated=False)))
    g_trunc = dict(param_arrays(model.layout, backward(model, tape, dlogits, truncated=True)))
    diff = float(np.max(np.abs(g_full["layer0.w_ix"] - g_trunc["layer0.w_ix"])))
    assert diff > 1e-10, \
        "ACCEPTANCE 3: FAIL — full and truncated agree on order-1 instance"

    # (c) constant-substitution oracle within 1e-10
    kind = CellKind("dos", 1)
    model = build_model(StackConfig(((kind, 3),), 3, 2), seed=14)
    frames = seeded_rng(15).normal(size=(5, 3))
    tape = stack_forward(model, frames)
    _, dlogits = loss_frame(tape.logits, [1])
    trunc = dict(param_arrays(model.layout, backward(model, tape, dlogits, truncated=True)))
    frozen = {1: dos(1, tape.layers[0].s).astype(np.longdouble)}
    numeric = _fd_frozen_surrogate(model, kind, frames, 1, frozen)
    worst = max(abs(float(trunc[name][idx]) - gn) for name, idx, gn in numeric)
    assert worst < 1e-10, (
        f"ACCEPTANCE 3: FAIL — constant-substitution oracle off by {worst:.2e}")
    report(f"ACCEPTANCE 3: PASS — truncation contract (bitwise when severed "
           f"paths are zero; differs otherwise; oracle agreement {worst:.2e} "
           f"< 1e-10)")


def test_criterion_4_discretization_identities():
    """dos(1)=0 on constant, dos(2)=0 on linear trajectories; dos(2) equals
    the difference of consecutive dos(1) within 1e-12."""
    rng = seeded_rng(20)
    c = rng.normal(size=4)
    assert np.array_equal(dos(1, np.stack([c, c]))[1], np.zeros(4)), \
        "ACCEPTANCE 4: FAIL — dos(1) nonzero on constant trajectory"
    base, slope = rng.normal(size=4), rng.normal(size=4)
    line = np.stack([base + t * slope for t in range(5)])
    d2_line = dos(2, line)
    worst = 0.0
    for t in range(2, 5):
        worst = max(worst, float(np.max(np.abs(d2_line[t]))))
    assert worst <= 1e-12, \
        f"ACCEPTANCE 4: FAIL — dos(2) on linear trajectory = {worst:.2e}"
    states = np.stack([rng.normal(size=4) for _ in range(6)])
    v, d2 = dos(1, states), dos(2, states)
    for t in range(2, 6):
        delta = float(np.max(np.abs(d2[t] - (v[t] - v[t - 1]))))
        worst = max(worst, delta)
        assert delta <= 1e-12, \
            f"ACCEPTANCE 4: FAIL — dos(2) != delta dos(1) by {delta:.2e}"
    report(f"ACCEPTANCE 4: PASS — discretization identities hold "
           f"(max deviation {worst:.2e} <= 1e-12)")


def test_criterion_5_training_sanity():
    """Velocity task (2 classes, 200 sequences, length 20, dim 16): 50 epochs
    at lr 1e-4 halves the mean loss for every architecture in < 5 minutes."""
    dataset = gen_synthetic("velocity", 2, 200, 20, 16, noise_sigma=0.05,
                            seed=0)
    archs = {
        "rnn": StackConfig(((CellKind("rnn"), 16),), 16, 2),
        "lstm": stacked_lstm_config(1, 16, 16, 2),
        "stacked3": stacked_lstm_config(3, 16, 16, 2),
        "dos1": StackConfig(((CellKind("dos", 1), 16),), 16, 2),
        "drnn2": StackConfig(((CellKind("drnn", 2), 16),), 16, 2),
        "d2rnn3": d2rnn_config(3, 16, 16, 2),
    }
    tc = TrainConfig(learning_rate=0.0001, epochs=50, mode="frame", seed=0)
    start = time.time()
    ratios = {}
    for name, cfg in archs.items():
        model = build_model(cfg, seed=0)
        history = train(model, dataset, tc)
        ratio = history[-1].mean_loss / history[0].mean_loss
        ratios[name] = ratio
        assert ratio < 0.5, (
            f"ACCEPTANCE 5: FAIL — {name} final/first loss ratio "
            f"{ratio:.3f} >= 0.5")
    elapsed = time.time() - start
    assert elapsed < 300.0, \
        f"ACCEPTANCE 5: FAIL — took {elapsed:.1f}s (>= 300s)"
    worst = max(ratios, key=ratios.get)
    report(f"ACCEPTANCE 5: PASS — all architectures halved training loss "
           f"(worst {worst} at {ratios[worst]:.3f} < 0.5) in {elapsed:.0f}s")


def test_criterion_6_ordering_trend():
    """d2rnn:3 >= stacked:3 and >= lstm on the acceleration task, by the
    margins recorded at build time; seed-0 replay must reproduce the
    recorded accuracies exactly."""
    record_path = DATA_DIR / "ordering_margins.json"
    assert record_path.exists(), (
        "ACCEPTANCE 6: FAIL — no recorded margins; run "
        "scripts/derive_ordering_margins.py")
    record = json.loads(record_path.read_text())
    m_stacked = record["margin_vs_stacked3"]
    m_lstm = record["margin_vs_lstm"]
    assert m_stacked >= 0 and m_lstm >= 0, (
        f"ACCEPTANCE 6: FAIL — recorded margins negative: "
        f"vs stacked3 {m_stacked:+.4f}, vs lstm {m_lstm:+.4f}")

    exp = record["experiment"]
    dataset = gen_synthetic(exp["task"], exp["classes"], exp["count"],
                            exp["length"], exp["dim"], exp["noise_sigma"],
                            exp["data_seed"])
    cfgs = {
        "d2rnn3": d2rnn_config(3, exp["dim"], exp["state_units"], exp["classes"]),
        "stacked3": stacked_lstm_config(3, exp["dim"], exp["state_units"],
                                        exp["classes"]),
        "lstm": stacked_lstm_config(1, exp["dim"], exp["state_units"],
                                    exp["classes"]),
    }
    tc = TrainConfig(epochs=exp["epochs"], learning_rate=exp["learning_rate"],
                     mode=exp["mode"], seed=0)
    seed = exp["seeds"][0]
    splits = make_splits(dataset, KFold(exp["folds"], seed=seed))
    replay = {}
    for name, cfg in cfgs.items():
        accs = []
        for si, (train_idx, test_idx) in enumerate(splits):
            model = build_model(cfg, seed=seed * 10 + si)
            train(model, dataset.subset(train_idx), tc)
            accs.append(evaluate(model, dataset.subset(test_idx)).accuracy)
        replay[name] = float(np.mean(accs))
        recorded = record["per_seed_accuracy"][name][0]
        assert replay[name] == recorded, (
            f"ACCEPTANCE 6: FAIL — seed-{seed} replay of {name} gives "
            f"{replay[name]:.4f}, recorded {recorded:.4f}")
    assert replay["d2rnn3"] >= replay["stacked3"] and \
        replay["d2rnn3"] >= replay["lstm"], (
        f"ACCEPTANCE 6: FAIL — seed-{seed} ordering violated: {replay}")
    report(f"ACCEPTANCE 6: PASS — ordering trend holds; recorded margins "
           f"vs stacked3 {m_stacked:+.4f}, vs lstm {m_lstm:+.4f}; seed-{seed} "
           f"replay reproduced the recording exactly")


def test_criterion_7_ernn_hand_oracle():
    """SAMME weight updates match hand computation to 1e-12; an order-0
    ensemble is the single model."""
    # member 1 errs on example 0, member 2 on example 1 (k = 2):
    # err1 = 1/4, alpha1 = ln 3, weights -> (1/2, 1/6, 1/6, 1/6)
    # err2 = 1/6, alpha2 = ln 5, weights -> (3/10, 1/2, 1/10, 1/10)
    w = np.full(4, 0.25)
    a1, w = samme_round([True, False, False, False], w, k=2)
    a2, w2 = samme_round([False, True, False, False], w, k=2)
    expect_a = (math.log(3), math.log(5))
    expect_w1 = [float(f) for f in (Fraction(1, 2), Fraction(1, 6),
                                    Fraction(1, 6), Fraction(1, 6))]
    expect_w2 = [float(f) for f in (Fraction(3, 10), Fraction(1, 2),
                                    Fraction(1, 10), Fraction(1, 10))]
    err = max(abs(a1 - expect_a[0]), abs(a2 - expect_a[1]),
              float(np.max(np.abs(w - expect_w1))),
              float(np.max(np.abs(w2 - expect_w2))))
    assert err <= 1e-12, \
        f"ACCEPTANCE 7: FAIL — SAMME update off hand values by {err:.2e}"

    ds = gen_synthetic("velocity", 2, 12, 8, 3, 0.05, seed=4)
    tc = TrainConfig(epochs=3, learning_rate=0.01, seed=5)
    ens = fit_ernn(ds, max_order=0, config=tc, state_units=4)
    single = build_model(StackConfig(((CellKind("dos", 0), 4),), 3, 2),
                         seed=tc.seed)
    train(single, ds, tc)
    member = ens.members[0][0]
    for (name, a), (_, b) in zip(param_arrays(member.layout, member.theta),
                                 param_arrays(single.layout, single.theta)):
        assert np.array_equal(a, b), \
            f"ACCEPTANCE 7: FAIL — N=0 ensemble differs from single model at {name}"
    for seq in ds.sequences:
        assert predict_ensemble(ens, seq.frames)[0] == \
            int(np.argmax(stack_forward(single, seq.frames).logits[-1])), \
            "ACCEPTANCE 7: FAIL — N=0 ensemble prediction differs"
    report(f"ACCEPTANCE 7: PASS — SAMME hand oracle within {err:.2e} <= 1e-12; "
           f"order-0 ensemble bitwise equals single-model training")


def test_criterion_8_cli_determinism(tmp_path):
    """Fixed-seed CLI runs produce byte-identical metrics CSVs."""
    data = tmp_path / "data.jsonl"
    assert cli_main(["synth", "--task", "velocity", "--classes", "2",
                     "--count", "12", "--len", "6", "--dim", "4",
                     "--seed", "0", "--out", str(data)]) == 0
    fast = ["--epochs", "2", "--lr", "0.01", "--state-units", "4",
            "--seed", "1"]
    artifacts = []
    for run in ("a", "b"):
        t_out = tmp_path / f"train_{run}"
        e_out = tmp_path / f"ens_{run}"
        assert cli_main(["train", "--data", str(data), "--arch", "d2rnn:2",
                         "--split", "kfold:3", *fast, "--out", str(t_out)]) == 0
        assert cli_main(["ensemble", "--data", str(data), "--max-order", "1",
                         *fast, "--out", str(e_out)]) == 0
        artifacts.append((
            (t_out / "metrics.csv").read_bytes(),
            (t_out / "loss_epochs.csv").read_bytes(),
            (e_out / "metrics.csv").read_bytes(),
        ))
    assert artifacts[0] == artifacts[1], \
        "ACCEPTANCE 8: FAIL — fixed-seed CLI runs differ byte-wise"
    report("ACCEPTANCE 8: PASS — train and ensemble metrics CSVs are "
           "byte-identical across fixed-seed reruns")


def test_criterion_9_round_trips(tmp_path):
    """Checkpoint round trip preserves forward outputs bitwise; JSONL round
    trip preserves labels exactly and values to printed precision."""
    model = build_model(d2rnn_config(2, 4, 5, 3), seed=6)
    path = tmp_path / "ckpt.json"
    checkpoint_save(model, path)
    loaded = checkpoint_load(path)
    frames = seeded_rng(7).normal(size=(6, 4))
    assert np.array_equal(stack_forward(model, frames).logits,
                          stack_forward(loaded, frames).logits), \
        "ACCEPTANCE 9: FAIL — checkpoint round trip changed forward outputs"

    ds = gen_synthetic("mixed", 3, 9, 6, 4, 0.1, seed=8)
    dpath = tmp_path / "ds.jsonl"
    save_jsonl(ds, dpath)
    back = load_jsonl(dpath)
    for a, b in zip(ds.sequences, back.sequences):
        assert a.label == b.label, "ACCEPTANCE 9: FAIL — labels changed"
        assert np.array_equal(a.frames, b.frames), \
            "ACCEPTANCE 9: FAIL — frame values changed in JSONL round trip"
    report("ACCEPTANCE 9: PASS — checkpoint forward bitwise-identical; "
           "JSONL labels and values preserved exactly")
