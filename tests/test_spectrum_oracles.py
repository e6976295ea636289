"""The spectrum-to-dimension primitives against their bitwise references.

Every empirical dimension the library computes goes through one kernel
in gdm.dimension. These tests pin that kernel, and each caller of it,
to the separate routines in oracles.py: results must be equal bit for
bit, not merely close, because the optimizer's labels depend on exact
ties and on comparisons between these values.
"""

import itertools

import numpy as np
import pytest

from gdm import (
    DegenerateClusterError,
    DegenerateSpectrumError,
    ObjectiveParams,
    batch_empirical_dimension,
    empirical_dimension,
    pnorm,
)
from gdm.objective import value_and_gradient
from gdm.optimizer import _dim_lower_bounds

from oracles import (
    reference_batch_empirical_dimension,
    reference_cluster_svd_terms,
    reference_dim_lower_bounds,
    reference_empirical_dimension,
    reference_pnorm,
    reference_value_and_gradient,
)

EPS_VALUES = [0.1, 0.35, 0.9]


def assert_bitwise(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def rank_deficient(rng, d=9, n=30, rank=3):
    return rng.normal(size=(d, rank)) @ rng.normal(size=(rank, n))


def spectra(seed):
    """Seeded spectra, one per row: log-uniform over 16 decades with two
    entries forced below 1e-12 times the largest, exact zeros, exactly
    rank-deficient SVD spectra, and an all-zero row."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(6):
        s = 10.0 ** -rng.uniform(0.0, 16.0, size=9) * 10.0 ** rng.uniform(-5, 5)
        s[rng.choice(9, size=2, replace=False)] = s.max() * 10.0 ** -rng.uniform(12.1, 15.0, size=2)
        rows.append(s)
    rows.append(np.array([3.0, 2.0, 0.0, 1.0, 0.0, 0.0, 1e-13, 5e-12, 0.5]))
    for rank in (1, 2, 5):
        rows.append(np.linalg.svd(rank_deficient(rng, rank=rank), compute_uv=False))
    rows.append(np.zeros(9))
    return np.array(rows)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("eps", EPS_VALUES + [1.0])
def test_empirical_dimension_matches_reference(seed, eps):
    stack = spectra(seed)
    for sigma in stack[:-1]:
        assert_bitwise(empirical_dimension(sigma, eps),
                       reference_empirical_dimension(sigma, eps))
    for fn in (empirical_dimension, reference_empirical_dimension):
        with pytest.raises(DegenerateSpectrumError):
            fn(stack[-1], eps)
    assert_bitwise(batch_empirical_dimension(stack, eps),
                   reference_batch_empirical_dimension(stack, eps))
    assert_bitwise(batch_empirical_dimension(np.zeros((3, 9)), eps),
                   reference_batch_empirical_dimension(np.zeros((3, 9)), eps))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("eps", EPS_VALUES)
def test_cluster_terms_match_reference(seed, eps):
    # One stacked kernel call covers every 3-row membership made of these
    # rows, with and without the outlier row; each membership's value and
    # gradient must be those of its reference cluster terms.
    rng = np.random.default_rng(seed)
    params = ObjectiveParams(eps=eps)
    full = rng.normal(size=(9, 30))
    deficient = rank_deficient(rng)
    deficient[:, :4] = 0.0
    rows = [
        rng.uniform(size=30),
        (rng.uniform(size=30) < 0.3).astype(float),
        np.zeros(30),
        np.full(30, 1e-17),
    ]
    stack = np.array(list(itertools.product(rows, repeat=3)))
    for a in (full, deficient):
        for outlier in (False, True):
            for want_grad in (False, True):
                values, grads = value_and_gradient(a, stack, params, outlier, "zero",
                                                   want_grad)
                assert values.shape == (stack.shape[0],)
                for i, m in enumerate(stack):
                    value, grad = reference_value_and_gradient(a, m, params, outlier,
                                                               want_grad)
                    assert_bitwise(values[i].item(), value)
                    if want_grad:
                        assert_bitwise(grads[i], grad)
                if not want_grad:
                    assert grads is None
    for want_grad in (False, True):
        with pytest.raises(DegenerateClusterError):
            value_and_gradient(full, stack, params, False, "raise", want_grad)
        with pytest.raises(DegenerateClusterError):
            reference_cluster_svd_terms(full, np.zeros(30), params, "raise", want_grad)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("eps", EPS_VALUES)
@pytest.mark.parametrize("exp", [0, -3, 40])
def test_dim_lower_bounds_match_reference(seed, eps, exp):
    rng = np.random.default_rng(seed)
    grams = []
    for rank in (1, 3, 9, 9, 2, 0):
        cols = rng.normal(size=(9, rank)) @ rng.normal(size=(rank, 20))
        grams.append(cols @ cols.T)
    evals = np.linalg.eigvalsh(np.array(grams).reshape(2, 3, 9, 9))
    for err in (np.zeros((2, 3)), 10.0 ** -rng.uniform(3, 14, size=(2, 3))):
        assert_bitwise(_dim_lower_bounds(evals, err, exp, eps),
                       reference_dim_lower_bounds(evals, err, exp, eps))
    # The merge screen's inputs: the eigenvalues of the m x m Grams of
    # unions of m = 2 and m = 4 points in R^9, padded with zeros to D = 9,
    # with its error 2 c (m + D) (u mass + tiny), c = 8. Scaled by 2^-80
    # every union's top singular value is below DEGENERATE_SMAX.
    padded, err = np.zeros((4, 9)), np.zeros(4)
    for row, m in enumerate((2, 2, 4, 4)):
        v = rng.normal(size=(9, m)) * 10.0 ** rng.uniform(-3, 3)
        padded[row, :m] = np.linalg.eigvalsh(v.T @ v)
        err[row] = 16.0 * (m + 9) * (2.0**-53 * np.sum(v**2) + np.finfo(float).tiny)
    for e in (exp, -80):
        dims = _dim_lower_bounds(padded, err, e, eps)
        assert_bitwise(dims, reference_dim_lower_bounds(padded, err, e, eps))
        assert np.all(dims > 0.0) if e == exp else np.all(dims == 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("eps", EPS_VALUES)
@pytest.mark.parametrize("exp", [0, -3, 40, -80])
def test_dim_lower_bounds_pad_zeros_in_closed_form(seed, eps, exp):
    # The merge screen bounds a union of m = 2 or 4 points in R^9 on the
    # m eigenvalues of its m x m Gram, stored after D - m explicit zeros.
    # Each bound must be the reference's and at or below the merged
    # dimension of the union's 9 x 9 Gram. The 4-point unions include a
    # repeated point and a zero one, as a 3-point union is padded; scaled
    # by 2^-80 every union is degenerate and bounded by 0.
    rng = np.random.default_rng(seed)
    for m in (2, 4):
        blocks = rng.normal(size=(6, 9, m)) * 10.0 ** rng.uniform(-3, 3, size=(6, 1, 1))
        if m == 4:
            blocks[:2, :, 3] = 0.0
            blocks[1:3, :, 2] = blocks[1:3, :, 0]
        err = 16.0 * (m + 9) * (2.0**-53 * np.sum(blocks**2, axis=(1, 2))
                                + np.finfo(float).tiny)
        padded = np.zeros((6, 9))
        padded[:, 9 - m :] = np.linalg.eigvalsh(blocks.transpose(0, 2, 1) @ blocks)
        dims = _dim_lower_bounds(padded, err, exp, eps)
        assert_bitwise(dims, reference_dim_lower_bounds(padded, err, exp, eps))
        full = np.linalg.eigvalsh(blocks @ blocks.transpose(0, 2, 1))
        merged = batch_empirical_dimension(np.sqrt(np.clip(full, 0.0, None)), eps)
        assert np.all(dims <= merged), (dims, merged)
        assert np.all(dims > 0.0) if exp != -80 else np.all(dims == 0.0)


@pytest.mark.parametrize("p", [2.0, 15.0, 30.0])
def test_pnorm_matches_reference(p):
    rng = np.random.default_rng(7)
    vectors = [rng.uniform(0.0, 9.0, size=k) for k in (1, 2, 3, 5)]
    vectors += [np.zeros(3), np.array([]), np.array([0.0, 2.5, 0.0]),
                np.array([3.0, 3.0, 1.0])]
    for v in vectors:
        assert_bitwise(pnorm(v, p), reference_pnorm(v, p))
    # A stack gives one norm per vector. Its roots are array powers, so
    # rows may differ from the 1-d value in the last bit only.
    stack = rng.uniform(0.0, 9.0, size=(4, 5, 3))
    stack[1, 2] = 0.0
    norms = pnorm(stack, p)
    assert norms.shape == (4, 5)
    want = np.array([[reference_pnorm(v, p) for v in block] for block in stack])
    np.testing.assert_allclose(norms, want, rtol=1e-15, atol=0.0)
    assert norms[1, 2] == 0.0
