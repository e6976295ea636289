"""Singular spectra and the empirical dimension estimator.

The empirical dimension of a point set is the ratio of two power-mean
norms of its singular values,

    d_hat(sigma; eps) = ||sigma||_eps / ||sigma||_delta,
    delta = eps / (1 - eps),

where ||u||_p = (sum u_i^p)^(1/p) for any p > 0 (not a norm for p < 1).
It is invariant to scaling and rotation, never exceeds the true
dimension of the span, and converges to it for spherically symmetric
samples. eps = 1 degenerates to the effective rank ||sigma||_1 / max(sigma).

This module is the one place where spectra become dimensions: the public
estimators, the objective's per-cluster dimensions and gradient, the
merge's dimensions, and optimizer._dim_lower_bounds, the one
lower-bound kernel of both Gram screens (merge init and refine), all
take their two norms from _power_norms, so the normalisation and the
zero tolerance live here.
"""

import math

import numpy as np

from .exceptions import (
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
    """Singular values of a real matrix, sorted nonincreasing."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix entries must be finite")
    return np.linalg.svd(a, compute_uv=False)


def numerical_rank(sigma, rel_tol=RELATIVE_ZERO_TOL):
    """Number of singular values above rel_tol times the largest one."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0 or sigma.max() <= 0:
        return 0
    return int(np.sum(sigma > rel_tol * sigma.max()))


def _check_eps(eps, d):
    """Raise InvalidParameterError unless eps lies in (0, 1] and the
    eps-norm of a spectrum of at most d values stays finite.

    The norm's root is taken of a sum of at most d powers of values at
    most 1, so it needs d**(1/eps) < inf: at d = 9, eps above 0.0031.
    """
    if not 0.0 < eps <= 1.0:
        raise InvalidParameterError("eps must be in (0, 1], got %r" % (eps,))
    try:
        finite = math.isfinite(float(d) ** (1.0 / eps))
    except OverflowError:
        finite = False
    if not finite:
        # Rounded up to 0.0001, with room for the logarithms' rounding.
        bound = math.log(d) / math.log(np.finfo(float).max)
        smallest = math.ceil(bound * 1e4 + 1e-6) / 1e4
        raise InvalidParameterError(
            "eps = %g overflows the eps-norm of %d-dimensional spectra; "
            "the smallest eps allowed is %.4f" % (eps, d, smallest)
        )


def _power_sums(s, eps, upper=None, pads=0, pad=None):
    """(sum sn**eps, sum un**delta) along the last axis, delta = eps / (1 - eps):
    the two norms of _power_norms before their roots.

    sn and un are s and upper (s when upper is None) divided by the
    largest entry of upper, with entries of sn below RELATIVE_ZERO_TOL
    zeroed. eps = 1 gives (sum sn, None).

    pads > 0 counts that many more entries without storing them: each is
    0 in s and pad (shape s.shape[:-1]) in upper. They add 0 to the first
    sum and pads * (pad / top)**delta to the second, and pad takes part
    in the largest entry top.
    """
    # Scale invariance lets us normalize by the largest value, which
    # keeps the p-th powers bounded for any eps.
    top = (s if upper is None else upper).max(axis=-1, keepdims=True)
    if pads:
        top = np.maximum(top, pad[..., None])
    sn = s / top
    sn[sn < RELATIVE_ZERO_TOL] = 0.0
    if eps == 1.0:
        return sn.sum(axis=-1), None
    un = sn if upper is None else upper / top
    delta = eps / (1.0 - eps)
    den = (un**delta).sum(axis=-1)
    if pads:
        den += pads * (pad / top[..., 0]) ** delta
    return (sn**eps).sum(axis=-1), den


def _power_norms(s, eps, upper=None, pads=0, pad=None):
    """(||s||_eps, ||upper||_delta) along the last axis, delta = eps / (1 - eps).

    Both spectra are first divided by the largest entry of upper (of s
    when upper is None), and entries of s below RELATIVE_ZERO_TOL after
    that are zeroed; pads and pad add unstored entries as _power_sums
    says. eps = 1 gives (||s||_1, ||upper||_inf = 1). A 1-d spectrum
    gives Python floats: its roots are scalar powers, whose last bit can
    differ from the array powers a stack of spectra gets.
    """
    num, den = _power_sums(s, eps, upper, pads, pad)
    if eps == 1.0:
        return (float(num) if s.ndim == 1 else num), 1.0
    if s.ndim == 1:
        num, den = float(num), float(den)
    delta = eps / (1.0 - eps)
    return num ** (1.0 / eps), den ** (1.0 / delta)


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
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1 or sigma.size == 0:
        raise InvalidInputError("sigma must be a nonempty 1-d vector")
    _check_eps(eps, sigma.size)
    if not np.all(np.isfinite(sigma)) or np.any(sigma < 0):
        raise InvalidInputError("singular values must be finite and nonnegative")
    if sigma.max() <= 0.0:
        raise DegenerateSpectrumError("all singular values are zero")
    num, den = _power_norms(sigma, eps)
    return num / den


def batch_empirical_dimension(sigmas, eps=0.35):
    """Empirical dimension of each row of a stack of spectra.

    Rows that are identically zero get dimension 0 (the continuous
    extension used for empty clusters).
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 2 or sigmas.shape[1] == 0:
        raise InvalidInputError("sigmas must be a 2-d stack of nonempty spectra")
    _check_eps(eps, sigmas.shape[1])
    if not np.all(np.isfinite(sigmas)) or np.any(sigmas < 0):
        raise InvalidInputError("singular values must be finite and nonnegative")
    ok = sigmas.max(axis=1) > 0.0
    dims = np.zeros(sigmas.shape[0])
    if np.any(ok):
        num, den = _power_norms(sigmas[ok], eps)
        dims[ok] = num / den
    return dims


def p_lower_bound(n_clusters, d):
    """Smallest exponent p guaranteeing the natural partition wins.

    For n_clusters subspaces of common dimension d sampled
    non-degenerately, any p above ln(K) / (ln(d+1) - ln(d)) makes the
    natural partition the unique minimizer of the rank-based global
    dimension over all partitions into at most K sets.
    """
    if (isinstance(n_clusters, bool) or not isinstance(n_clusters, (int, np.integer))
            or n_clusters < 2):
        raise InvalidParameterError(
            "n_clusters must be an integer >= 2, got %r" % (n_clusters,)
        )
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise InvalidParameterError("d must be an integer >= 1, got %r" % (d,))
    return math.log(n_clusters) / (math.log(d + 1) - math.log(d))
