import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrnn.cells import CellKind, StackConfig, build_model, param_arrays, predict_sequence
from diffrnn.data import gen_synthetic
from diffrnn.ensemble import (
    ALPHA_CAP,
    EnsembleModel,
    ensemble_save,
    fit_ernn,
    predict_ensemble,
    samme_round,
    vote,
)
from diffrnn.train import TrainConfig, model_to_doc, train


def constant_predictor(cls, classes=2, dim=2):
    """A model whose argmax is always ``cls`` regardless of input."""
    cfg = StackConfig(((CellKind("lstm"), 2),), input_units=dim,
                      output_classes=classes)
    model = build_model(cfg, seed=0)
    model.output.w_yh[:] = 0.0
    model.output.b_y[:] = -1.0
    model.output.b_y[cls] = 1.0
    return model


class TestSammeRound:
    def test_hand_computed_two_rounds(self):
        """[DERIVED] SAMME by hand on 4 examples, k=2, exact fractions.

        Round 1: member errs on example 0 only.
          err = 1/4, alpha = ln(3); weights -> (1/2, 1/6, 1/6, 1/6).
        Round 2: member errs on example 1 only.
          err = 1/6, alpha = ln(5); weights -> (3/10, 1/2, 1/10, 1/10).
        """
        w = np.full(4, 0.25)
        a1, w = samme_round([True, False, False, False], w, k=2)
        assert abs(a1 - math.log(3)) < 1e-15
        expect1 = [Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)]
        assert np.max(np.abs(w - [float(f) for f in expect1])) < 1e-15

        a2, w = samme_round([False, True, False, False], w, k=2)
        assert abs(a2 - math.log(5)) < 1e-14
        expect2 = [Fraction(3, 10), Fraction(1, 2), Fraction(1, 10), Fraction(1, 10)]
        assert np.max(np.abs(w - [float(f) for f in expect2])) < 1e-15

    def test_multiclass_correction_term(self):
        w = np.full(4, 0.25)
        a6, _ = samme_round([True, False, False, False], w, k=6)
        a2, _ = samme_round([True, False, False, False], w, k=2)
        assert abs(a6 - (a2 + math.log(5))) < 1e-14

    def test_perfect_member_capped(self):
        alpha, w = samme_round([False] * 4, np.full(4, 0.25), k=3)
        assert alpha == ALPHA_CAP
        assert abs(w.sum() - 1.0) < 1e-15

    def test_chance_member_dropped_and_reset(self):
        w = np.array([0.7, 0.1, 0.1, 0.1])
        alpha, w2 = samme_round([True, True, False, False], w, k=2)
        assert alpha == 0.0
        assert np.array_equal(w2, np.full(4, 0.25))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.booleans(), min_size=2, max_size=20), st.integers(2, 6),
           st.integers(0, 10_000))
    def test_weights_always_normalized(self, wrong, k, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.01, 1.0, size=len(wrong))
        w /= w.sum()
        _, w2 = samme_round(wrong, w, k)
        assert abs(w2.sum() - 1.0) <= 1e-12
        assert np.all(w2 > 0)


class TestPredictEnsemble:
    def test_single_member_is_member_argmax(self):
        model = constant_predictor(1)
        e = EnsembleModel(members=[(model, 1.0)], n_classes=2)
        frames = np.zeros((3, 2))
        assert predict_ensemble(e, frames)[0] == predict_sequence(model, frames)[0]

    def test_heavier_member_wins(self):
        e = EnsembleModel(members=[(constant_predictor(1), 2.0),
                                   (constant_predictor(0), 1.0)], n_classes=2)
        pred, scores = predict_ensemble(e, np.zeros((3, 2)))
        assert pred == 1
        assert scores.tolist() == [1.0, 2.0]

    def test_tie_breaks_to_lowest_class(self):
        e = EnsembleModel(members=[(constant_predictor(1), 1.0),
                                   (constant_predictor(0), 1.0)], n_classes=2)
        assert predict_ensemble(e, np.zeros((3, 2)))[0] == 0

    def test_scaling_weights_argmax_invariant(self):
        e1 = EnsembleModel(members=[(constant_predictor(1), 2.0),
                                    (constant_predictor(0), 1.0)], n_classes=2)
        e2 = EnsembleModel(members=[(m, 7.5 * a) for m, a in e1.members],
                           n_classes=2)
        frames = np.zeros((3, 2))
        assert predict_ensemble(e1, frames)[0] == predict_ensemble(e2, frames)[0]

    def test_zero_weight_member_ignored(self):
        e = EnsembleModel(members=[(constant_predictor(1), 0.0),
                                   (constant_predictor(0), 1.0)], n_classes=2)
        pred, scores = predict_ensemble(e, np.zeros((3, 2)))
        assert pred == 0 and scores[1] == 0.0

    def test_vote_on_member_decisions_is_predict_ensemble(self):
        # the CLI votes on the member decisions it already has
        e = EnsembleModel(members=[(constant_predictor(1), 0.0),
                                   (constant_predictor(0), 0.5),
                                   (constant_predictor(1), 0.7)], n_classes=2)
        frames = np.zeros((3, 2))
        decisions = [predict_sequence(m, frames)[0] for m, _ in e.members]
        pred, scores = vote(e, decisions)
        want_pred, want_scores = predict_ensemble(e, frames)
        assert pred == want_pred == 1
        assert np.array_equal(scores, want_scores)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            EnsembleModel(members=[(constant_predictor(0), 0.0)], n_classes=2)

    def test_members_share_the_class_count_and_input_width(self):
        # a 3-class member of a 2-class ensemble would vote for a class the
        # score vector does not have
        with pytest.raises(ValueError, match="member 1 has 3 classes, the ensemble 2"):
            EnsembleModel(members=[(constant_predictor(0), 1.0),
                                   (constant_predictor(0, classes=3), 1.0)], n_classes=2)
        with pytest.raises(ValueError, match="member 1 takes 3 inputs, member 0 2"):
            EnsembleModel(members=[(constant_predictor(0), 1.0),
                                   (constant_predictor(0, dim=3), 1.0)], n_classes=2)


class TestFitErnn:
    CFG = TrainConfig(epochs=3, learning_rate=0.01, seed=5)

    def _dataset(self):
        return gen_synthetic("velocity", 2, 12, 8, 3, 0.05, seed=4)

    def test_order_zero_equals_single_model(self):
        ds = self._dataset()
        e = fit_ernn(ds, max_order=0, config=self.CFG, state_units=4)
        cfg = StackConfig(((CellKind("dos", 0), 4),), input_units=3,
                          output_classes=2)
        single = build_model(cfg, seed=self.CFG.seed)
        train(single, ds, self.CFG)
        member = e.members[0][0]
        for (name, a), (_, b) in zip(param_arrays(member.layout, member.theta),
                                     param_arrays(single.layout, single.theta)):
            assert np.array_equal(a, b), name
        for seq in ds.sequences:
            assert predict_ensemble(e, seq.frames)[0] == \
                predict_sequence(single, seq.frames)[0]

    def test_members_cover_all_orders(self):
        e = fit_ernn(self._dataset(), max_order=2, config=self.CFG, state_units=3)
        orders = [m.config.layers[0][0].order for m, _ in e.members]
        assert orders == [0, 1, 2]
        assert all(a >= 0 and math.isfinite(a) for _, a in e.members)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_ernn(self._dataset(), max_order=-1, config=self.CFG, state_units=3)

    def test_file_is_the_document_as_one_json_line(self, tmp_path):
        e = fit_ernn(self._dataset(), max_order=1, config=self.CFG, state_units=3)
        path = tmp_path / "ensemble.json"
        ensemble_save(e, path)
        doc = {"format_version": 1, "n_classes": e.n_classes,
               "members": [{"alpha": alpha, "checkpoint": model_to_doc(model)}
                           for model, alpha in e.members]}
        assert path.read_text() == json.dumps(doc) + "\n"
