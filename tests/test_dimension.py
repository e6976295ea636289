import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdm import (
    DegenerateSpectrumError,
    InvalidInputError,
    InvalidParameterError,
    batch_empirical_dimension,
    empirical_dimension,
    numerical_rank,
    p_lower_bound,
    singular_values,
)

from oracles import random_orthogonal

# All 15 published lower-bound values for p, indexed (K, d).
P_BOUND_TABLE = {
    (2, 8): 5.89, (2, 7): 5.19, (2, 6): 4.50, (2, 5): 3.80, (2, 4): 3.11,
    (3, 8): 9.33, (3, 7): 8.23, (3, 6): 7.13, (3, 5): 6.03, (3, 4): 4.92,
    (4, 8): 11.77, (4, 7): 10.38, (4, 6): 8.99, (4, 5): 7.60, (4, 4): 6.21,
}


def subspace_sample(rng, ambient, d, n):
    basis, _ = np.linalg.qr(rng.normal(size=(ambient, d)))
    return basis @ rng.normal(size=(d, n))


class TestEmpiricalDimension:
    def test_equal_spectrum_is_exact(self):
        assert empirical_dimension([2.0, 2.0, 2.0, 0.0], 0.35) == pytest.approx(3.0, abs=1e-12)
        for d in (1, 2, 5, 9):
            sigma = np.zeros(9)
            sigma[:d] = 0.7
            for eps in (0.1, 0.35, 0.9, 1.0):
                assert empirical_dimension(sigma, eps) == pytest.approx(d, abs=1e-9)

    def test_rank_one(self):
        assert empirical_dimension([5.0, 0.0, 0.0], 0.35) == 1.0

    def test_known_value_eps_half(self):
        # ||(1, .5)||_.5 / ||(1, .5)||_1 = (1 + sqrt(.5))^2 / 1.5
        expected = (1.5 + np.sqrt(2.0)) / 1.5
        assert empirical_dimension([1.0, 0.5], 0.5) == pytest.approx(expected, abs=1e-12)

    def test_eps_one_is_effective_rank(self):
        sigma = np.array([3.0, 1.0, 1.0])
        assert empirical_dimension(sigma, 1.0) == pytest.approx(sigma.sum() / 3.0)

    def test_errors(self):
        with pytest.raises(DegenerateSpectrumError):
            empirical_dimension([0.0, 0.0], 0.35)
        with pytest.raises(InvalidParameterError):
            empirical_dimension([1.0], 0.0)
        with pytest.raises(InvalidParameterError):
            empirical_dimension([1.0], 1.2)
        with pytest.raises(InvalidInputError):
            empirical_dimension([1.0, -0.1], 0.35)
        with pytest.raises(InvalidInputError):
            empirical_dimension([], 0.35)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-20, max_value=20).filter(lambda a: abs(a) > 1e-6))
    def test_scale_invariance(self, alpha):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 30))
        base = empirical_dimension(np.linalg.svd(a, compute_uv=False), 0.35)
        scaled = empirical_dimension(np.linalg.svd(alpha * a, compute_uv=False), 0.35)
        assert abs(scaled - base) < 1e-10

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(9, 40))
            q = random_orthogonal(9, rng)
            d0 = empirical_dimension(np.linalg.svd(a, compute_uv=False), 0.35)
            d1 = empirical_dimension(np.linalg.svd(q @ a, compute_uv=False), 0.35)
            assert abs(d1 - d0) < 1e-8

    def test_never_exceeds_subspace_dimension(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3, 5, 8):
            a = subspace_sample(rng, 9, d, 100)
            s = np.linalg.svd(a, compute_uv=False)
            for eps in (0.1, 0.35, 0.9, 1.0):
                assert empirical_dimension(s, eps) <= d + 1e-8

    def test_statistical_convergence_quick(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = subspace_sample(rng, 9, 3, 2000)
            d_hat = empirical_dimension(np.linalg.svd(a, compute_uv=False), 0.35)
            hits += 2.8 <= d_hat <= 3.0
        assert hits == 10

    def test_collapse_is_monotone_and_eps_ordered(self):
        rng = np.random.default_rng(5)
        cloud = rng.normal(size=(3, 4000))
        shrink = np.linspace(0.0, 1.0, 21)
        dims = {}
        for eps in (0.1, 0.35, 0.9):
            vals = []
            for t in shrink:
                squashed = cloud * np.array([1.0, 1.0, 1.0 - t])[:, None]
                vals.append(
                    empirical_dimension(np.linalg.svd(squashed, compute_uv=False), eps)
                )
            vals = np.array(vals)
            assert np.all(np.diff(vals) <= 1e-9), "not monotone for eps=%s" % eps
            dims[eps] = vals
        # end points interpolate 3 -> 2
        assert 2.9 <= dims[0.35][0] <= 3.0
        assert 1.9 <= dims[0.35][-1] <= 2.0 + 1e-9
        # stricter estimator sits above the lenient one along the collapse
        assert np.all(dims[0.1] >= dims[0.9] - 1e-6)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(13)
        sig = np.abs(rng.normal(size=(8, 9)))
        sig[2] = 0.0
        out = batch_empirical_dimension(sig, 0.35)
        assert out[2] == 0.0
        for i in (0, 1, 3, 7):
            assert out[i] == pytest.approx(empirical_dimension(sig[i], 0.35), abs=1e-12)

    @pytest.mark.parametrize("sigmas", [
        [1.0, 0.5],
        [[[1.0, 0.5]]],
        np.zeros((2, 0)),
        [[1.0, np.nan, 0.5]],
        [[np.inf, 1.0]],
        [[1.0, -2.0, 0.5]],
    ], ids=["1-d", "3-d", "empty-rows", "nan", "inf", "negative"])
    def test_batch_rejects_invalid_input(self, sigmas):
        with pytest.raises(InvalidInputError):
            batch_empirical_dimension(sigmas, 0.35)


def test_eps_whose_norm_overflows_is_rejected():
    # The eps-norm root of up to 9 values at most 1 needs 9**(1/eps) < inf.
    for run in (lambda eps: empirical_dimension(np.ones(9), eps),
                lambda eps: batch_empirical_dimension(np.ones((2, 9)), eps)):
        with pytest.raises(InvalidParameterError, match="smallest eps allowed is 0.0031"):
            run(1e-3)
        assert run(0.0032) == pytest.approx(9.0)
    # One value has norm 1 whatever eps is.
    assert empirical_dimension([2.0], 1e-6) == 1.0


class TestPLowerBound:
    def test_table_values(self):
        for (k, d), expected in P_BOUND_TABLE.items():
            assert p_lower_bound(k, d) == pytest.approx(expected, abs=0.01)

    def test_errors(self):
        with pytest.raises(InvalidParameterError):
            p_lower_bound(1, 4)
        with pytest.raises(InvalidParameterError):
            p_lower_bound(2, 0)
        with pytest.raises(InvalidParameterError):
            p_lower_bound(2.5, 4)
        with pytest.raises(InvalidParameterError):
            p_lower_bound(2, True)


def test_numerical_rank():
    assert numerical_rank([5.0, 1.0, 1e-14]) == 2
    assert numerical_rank([5.0, 1.0, 1e-10]) == 3
    assert numerical_rank([5.0, 1.0, 1e-10], rel_tol=1e-8) == 2
    assert numerical_rank([1.0, 0.5, 1e-3]) == 3
    assert numerical_rank(np.zeros(4)) == 0


def test_singular_values():
    np.testing.assert_allclose(singular_values(np.diag([1.0, 3.0, 2.0])), [3.0, 2.0, 1.0])
    np.testing.assert_array_equal(singular_values(np.zeros((4, 6))), np.zeros(4))
    with pytest.raises(InvalidInputError):
        singular_values([[1.0, np.nan]])
