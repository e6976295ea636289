"""Singular spectra and the empirical dimension estimator.

The empirical dimension of a point set is the ratio of two power-mean
norms of its singular values,

    d_hat(sigma; eps) = ||sigma||_eps / ||sigma||_delta,
    delta = eps / (1 - eps),

where ||u||_p = (sum u_i^p)^(1/p) for any p > 0 (not a norm for p < 1).
It is invariant to scaling and rotation, never exceeds the true
dimension of the span, and converges to it for spherically symmetric
samples. eps = 1 degenerates to the effective rank ||sigma||_1 / max(sigma).

This module is the one place where spectra become dimensions. _dims is
the one ratio rule: the public estimators, the objective's per-cluster
dimensions, the merge's dimensions and optimizer._dim_lower_bounds, the
one lower-bound kernel of both Gram screens (merge init and refine),
all take their dimensions from it, and value_and_gradient, which also
needs both norms for its gradient, takes their sums from _power_sums.
So the normalisation, the zero tolerance and the dimension 0 of an
all-zero spectrum live here. _degenerate is the one degenerate floor:
it marks the cluster matrices whose top singular value is at most
DEGENERATE_SMAX, for the objective and both screens.
"""

import math

import numpy as np

from ._checks import _count, _finite_power, _real, _reals
from .exceptions import (
    DegenerateClusterError,
    DegenerateSpectrumError,
    InvalidInputError,
    InvalidParameterError,
)


# Singular values below this fraction of the largest one are treated as
# exactly zero, both for rank counting and inside the empirical
# dimension: the x**eps powers otherwise turn numerical zeros
# (~1e-16 * sigma_max from the SVD of an exactly rank-deficient matrix)
# into contributions far above the estimator's stated tolerances.
RELATIVE_ZERO_TOL = 1e-12

# Cluster matrices with a top singular value at or below this are
# treated as empty; with on_degenerate="zero" they contribute dimension 0.
DEGENERATE_SMAX = 1e-14


def singular_values(a):
    """Singular values of a real matrix (of each matrix in a stack of
    them), sorted nonincreasing."""
    a = _reals(a, "matrix entries")
    if a.ndim < 2:
        raise InvalidInputError("expected a matrix or a stack of them, got shape %s" % (a.shape,))
    return np.linalg.svd(a, compute_uv=False)


def _spectra(sigma, ndim=None):
    """sigma as a float array, or InvalidInputError unless its entries are
    finite and nonnegative and, when ndim is given, it is an ndim-d stack
    of nonempty spectra."""
    sigma = _reals(sigma, "singular values")
    if ndim is not None and (sigma.ndim != ndim or sigma.shape[-1] == 0):
        raise InvalidInputError("singular values must be a %d-d array of nonempty spectra, "
                                "got shape %s" % (ndim, sigma.shape))
    if np.any(sigma < 0):
        raise InvalidInputError("singular values must be nonnegative")
    return sigma


def numerical_rank(sigma, rel_tol=RELATIVE_ZERO_TOL):
    """Number of singular values above rel_tol (>= 0) times the largest one."""
    _real(rel_tol, "rel_tol", 0.0, np.inf, "[)")
    sigma = _spectra(sigma)
    if sigma.size == 0 or sigma.max() <= 0:
        return 0
    return int(np.sum(sigma > rel_tol * sigma.max()))


def _check_eps(eps, d):
    """Raise InvalidParameterError unless eps lies in (0, 1] and the
    eps-norm of a spectrum of at most d values stays finite.

    The norm's root is taken of a sum of at most d powers of values at
    most 1, so it needs d**(1/eps) < inf: at d = 9, eps above 0.0031.
    """
    _real(eps, "eps", 0.0, 1.0, "(]")
    if not _finite_power(d, 1.0 / eps):
        # Rounded up to 0.0001, with room for the logarithms' rounding.
        bound = math.log(d) / math.log(np.finfo(float).max)
        smallest = math.ceil(bound * 1e4 + 1e-6) / 1e4
        raise InvalidParameterError(
            "eps = %g overflows the eps-norm of %d-dimensional spectra; "
            "the smallest eps allowed is %.4f" % (eps, d, smallest)
        )


def _degenerate(smax, on_degenerate="zero"):
    """Mask of the top singular values smax that are at most DEGENERATE_SMAX
    (or NaN): cluster matrices treated as empty, of dimension 0. Raises
    DegenerateClusterError where the mask holds unless on_degenerate is
    'zero'."""
    degenerate = ~(smax > DEGENERATE_SMAX)
    if on_degenerate != "zero" and degenerate.any():
        raise DegenerateClusterError("cluster is empty or identically zero")
    return degenerate


def _power_sums(s, eps, upper=None):
    """(sum sn**eps, sum un**delta) along the last axis, delta = eps / (1 - eps):
    the two norms of _dims before their roots.

    sn and un are s and upper (s when upper is None) divided by the
    largest entry of upper, with entries of sn below RELATIVE_ZERO_TOL
    zeroed; a spectrum whose top is zero is divided by 1 and keeps sums
    0. eps = 1 gives (sum sn, None).
    """
    # Scale invariance lets us normalize by the largest value, which
    # keeps the p-th powers bounded for any eps.
    top = (s if upper is None else upper).max(axis=-1, keepdims=True)
    top = np.where(top > 0.0, top, 1.0)
    sn = s / top
    sn[sn < RELATIVE_ZERO_TOL] = 0.0
    if eps == 1.0:
        return sn.sum(axis=-1), None
    un = sn if upper is None else upper / top
    delta = eps / (1.0 - eps)
    return (sn**eps).sum(axis=-1), (un**delta).sum(axis=-1)


def _dims(s, eps, upper=None):
    """Empirical dimensions ||s||_eps / ||upper||_delta along the last axis,
    delta = eps / (1 - eps), with upper = s when it is None.

    Both spectra are first divided by the largest entry of upper, and
    entries of s below RELATIVE_ZERO_TOL after that are zeroed. eps = 1
    gives ||s||_1 / ||upper||_inf. A spectrum whose top is zero gets 0.
    A 1-d spectrum gives a Python float: its roots are scalar powers,
    whose last bit can differ from the array powers a stack of spectra
    gets.
    """
    num, den = _power_sums(s, eps, upper)
    if eps < 1.0:
        # A live spectrum's top adds exactly 1 to den, so den >= 1 there;
        # a zero spectrum has sums 0 and gets 0 / 1.
        den = np.maximum(den, 1.0)
        if s.ndim == 1:
            num, den = float(num), float(den)
        delta = eps / (1.0 - eps)
        num = num ** (1.0 / eps) / den ** (1.0 / delta)
    return float(num) if s.ndim == 1 else num


def empirical_dimension(sigma, eps=0.35):
    """Empirical dimension of a singular spectrum.

    Parameters
    ----------
    sigma : array-like of nonnegative reals
        Singular values (any order).
    eps : float in (0, 1]
        Strictness parameter. Small values track true dimension
        tightly; values near 1 are lenient. eps = 1 gives the
        effective rank sum(sigma) / max(sigma).

    Returns
    -------
    float in [1, len(sigma)].
    """
    sigma = _spectra(sigma, 1)
    _check_eps(eps, sigma.size)
    if sigma.max() <= 0.0:
        raise DegenerateSpectrumError("all singular values are zero")
    return _dims(sigma, eps)


def batch_empirical_dimension(sigmas, eps=0.35):
    """Empirical dimension of each row of a stack of spectra.

    Rows that are identically zero get dimension 0 (the continuous
    extension used for empty clusters).
    """
    sigmas = _spectra(sigmas, 2)
    _check_eps(eps, sigmas.shape[1])
    return _dims(sigmas, eps)


def p_lower_bound(n_clusters, d):
    """Smallest exponent p guaranteeing the natural partition wins.

    For n_clusters subspaces of common dimension d sampled
    non-degenerately, any p above ln(K) / (ln(d+1) - ln(d)) makes the
    natural partition the unique minimizer of the rank-based global
    dimension over all partitions into at most K sets.
    """
    n_clusters = _count(n_clusters, "n_clusters", 2)
    d = _count(d, "d", 1)
    return math.log(n_clusters) / (math.log(d + 1) - math.log(d))
