import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diffrnn.numerics import (
    DegenerateDataError,
    ShapeMismatchError,
    pca_apply,
    pca_fit,
    seeded_rng,
    sigmoid,
    softmax,
)
from reference import ref_softmax_mp

finite_vec = arrays(np.float64, st.integers(1, 8),
                    elements=st.floats(-50, 50, allow_nan=False))


class TestSoftmax:
    def test_uniform_logits(self):
        assert np.allclose(softmax(np.zeros(3)), [1 / 3] * 3, atol=1e-15)

    def test_large_logits_no_overflow(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] > 1 - 1e-12 and p[1] < 1e-12

    def test_matches_high_precision(self):
        logits = [1.0, 2.0, 3.0]
        expected = ref_softmax_mp(logits)
        assert np.allclose(softmax(np.array(logits)), expected, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatchError):
            softmax(np.array([]))
        with pytest.raises(ShapeMismatchError):
            softmax(np.zeros((3, 0)))

    def test_rows_read_out_one_by_one(self):
        # a (T, k) call is T one-frame calls, bitwise
        y = seeded_rng(5).normal(scale=3.0, size=(20, 7))
        p = softmax(y)
        for t in range(20):
            assert np.array_equal(p[t], softmax(y[t]))

    def test_keeps_longdouble(self):
        y = np.array([[0.5, -1.0, 2.0]], dtype=np.longdouble)
        p = softmax(y)
        assert p.dtype == np.longdouble and abs(p.sum() - 1) < 1e-18

    @given(finite_vec)
    def test_sums_to_one(self, v):
        assert abs(softmax(v).sum() - 1.0) <= 1e-12

    @given(finite_vec, st.floats(-30, 30))
    def test_shift_invariance(self, v, c):
        assert np.max(np.abs(softmax(v) - softmax(v + c))) <= 1e-12


class TestActivations:
    def test_sigmoid_zero(self):
        assert sigmoid(np.zeros(1))[0] == 0.5

    def test_sigmoid_extremes_stable(self):
        v = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(v))
        assert 0 <= v[0] < 1e-12 and 1 - 1e-12 < v[1] <= 1

    @staticmethod
    def _two_branch_sigmoid(v):
        out = np.empty_like(v)
        pos = v >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        out[~pos] = ev / (1.0 + ev)
        return out

    @given(arrays(np.float64, st.integers(1, 64),
                  elements=st.floats(allow_nan=False, allow_subnormal=True)))
    def test_sigmoid_bitwise_equals_two_branch_form(self, v):
        with np.errstate(over="ignore"):
            expected = self._two_branch_sigmoid(v)
        assert np.array_equal(sigmoid(v).view(np.uint64), expected.view(np.uint64))

    def test_sigmoid_bitwise_at_special_values(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        v = np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310,
                      709.8, -709.8, 745.2, -745.2, 1e308, -1e308, np.nan])
        with np.errstate(over="ignore", invalid="ignore"):
            expected = self._two_branch_sigmoid(v)
            got = sigmoid(v)
        finite = ~np.isnan(v)
        assert np.array_equal(got[finite].view(np.uint64),
                              expected[finite].view(np.uint64))
        assert np.isnan(got[-1])   # NaN stays NaN (its sign bit may differ)

    @staticmethod
    def _assert_longdouble_bitwise(got, expected):
        # a longdouble's padding bytes are undefined, so compare values and
        # signs: equal values differ in bits only as +0 and -0
        assert got.dtype == expected.dtype == np.longdouble
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    # full 64-bit significands at any scale, and often at |v| < 2**14,
    # where exp(-|v|) does not underflow
    @given(st.lists(st.tuples(st.integers(-(2 ** 64) + 1, 2 ** 64 - 1),
                              st.integers(-16500, 16300) | st.integers(-130, -50)),
                    min_size=1, max_size=64))
    def test_longdouble_sigmoid_bitwise_equals_two_branch_form(self, parts):
        with np.errstate(over="ignore", under="ignore"):
            v = np.array([np.ldexp(np.longdouble(m), e) for m, e in parts])
            expected = self._two_branch_sigmoid(v)
            got = sigmoid(v)
        self._assert_longdouble_bitwise(got, expected)

    def test_longdouble_sigmoid_bitwise_at_special_values(self):
        fi = np.finfo(np.longdouble)
        v = np.array([0.0, np.inf, fi.smallest_subnormal, fi.smallest_normal, fi.eps,
                      np.ldexp(np.longdouble(1), -16400), np.longdouble("11355.1"),
                      np.longdouble("11356.6"), np.longdouble("11400"), fi.max],
                     dtype=np.longdouble)
        v = np.concatenate([v, -v, [np.nan]])
        with np.errstate(over="ignore", invalid="ignore"):
            expected = self._two_branch_sigmoid(v)
            got = sigmoid(v)
        self._assert_longdouble_bitwise(got[:-1], expected[:-1])
        assert np.isnan(got[-1])

    def test_sigmoid_keeps_longdouble(self):
        v = np.array([-3.0, 0.0, 2.5], dtype=np.longdouble)
        got = sigmoid(v)
        assert got.dtype == np.longdouble
        assert np.max(np.abs(got - 1 / (1 + np.exp(-v)))) <= 4 * np.finfo(np.longdouble).eps

    @given(finite_vec)
    def test_ranges(self, v):
        assert np.all((sigmoid(v) >= 0) & (sigmoid(v) <= 1))


class TestPca:
    def test_rank1_line_needs_one_component(self):
        d = np.array([1.0, 2.0, -1.0])
        samples = [t * d for t in np.linspace(-2, 2, 9)]
        t = pca_fit(samples, energy=0.9)
        assert t.n_components == 1

    def test_isotropic_cloud_needs_both(self):
        # equal eigenvalues: one component covers ~50% < 90%
        rng = seeded_rng(5)
        theta = rng.uniform(0, 2 * np.pi, size=400)
        samples = list(np.stack([np.cos(theta), np.sin(theta)], axis=1))
        t = pca_fit(samples, energy=0.9)
        assert t.n_components == 2

    def test_energy_one_keeps_all(self):
        rng = seeded_rng(6)
        samples = list(rng.normal(size=(20, 4)))
        t = pca_fit(samples, energy=1.0)
        assert t.n_components == 4

    def test_mean_maps_to_zero(self):
        rng = seeded_rng(7)
        samples = list(rng.normal(size=(10, 3)))
        t = pca_fit(samples, energy=1.0)
        mean = np.mean(samples, axis=0)
        assert np.allclose(pca_apply(t, mean), 0.0, atol=1e-12)

    def test_rank1_round_trip(self):
        d = np.array([2.0, -1.0, 0.5])
        samples = [t * d for t in np.linspace(-1, 3, 7)]
        t = pca_fit(samples, energy=0.9)
        for s in samples:
            back = t.basis.T @ pca_apply(t, s) + t.mean
            assert np.allclose(back, s, atol=1e-8)

    def test_orthonormal_basis(self):
        rng = seeded_rng(8)
        samples = list(rng.normal(size=(50, 6)) @ np.diag([3, 2, 1, 0.5, 0.2, 0.1]))
        t = pca_fit(samples, energy=0.95)
        gram = t.basis @ t.basis.T
        assert np.max(np.abs(gram - np.eye(t.n_components))) <= 1e-8

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDataError):
            pca_fit([np.ones(3)] * 5, energy=0.9)

    def test_dimension_mismatch(self):
        t = pca_fit([np.array([float(i), 0.0]) for i in range(5)], energy=1.0)
        with pytest.raises(ShapeMismatchError):
            pca_apply(t, np.zeros(3))

    @pytest.mark.parametrize("energy", [0.9, 1.0])
    def test_sequence_projects_bitwise_like_its_rows(self, energy):
        rng = seeded_rng(10)
        frames = rng.normal(size=(20, 16)) @ rng.normal(size=(16, 16))
        t = pca_fit(list(frames), energy)
        projected = pca_apply(t, frames)
        assert projected.shape == (20, t.n_components)
        rows = np.stack([pca_apply(t, f) for f in frames])
        assert projected.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (2, 4, 2), ()])
    def test_sequence_width_or_rank_mismatch(self, shape):
        t = pca_fit([np.array([float(i), 0.0]) for i in range(5)], energy=1.0)
        with pytest.raises(ShapeMismatchError):
            pca_apply(t, np.zeros(shape))

    def test_deterministic(self):
        rng = seeded_rng(9)
        samples = list(rng.normal(size=(30, 4)))
        a = pca_fit(samples, 0.9)
        b = pca_fit(samples, 0.9)
        assert np.array_equal(a.basis, b.basis)
        assert np.array_equal(a.mean, b.mean)


class TestRng:
    def test_same_seed_same_stream(self):
        a = seeded_rng(42).uniform(size=10)
        b = seeded_rng(42).uniform(size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = seeded_rng(1).uniform(size=10)
        b = seeded_rng(2).uniform(size=10)
        assert not np.array_equal(a, b)

    def test_uniform_mean(self):
        rng = seeded_rng(3)
        draws = rng.uniform(0.0, 1.0, size=100_000)
        assert 0.49 <= draws.mean() <= 0.51
