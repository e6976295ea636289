"""The global dimension objective over soft partitions and its gradient.

A soft partition of N data vectors into K clusters is a column-stochastic
K x N membership matrix M. Cluster k sees the data scaled columnwise by
row k of M, and the objective is the p-norm of the per-cluster empirical
dimensions

    GD(M) = || (d_1, ..., d_K) ||_p,
    d_k = empirical dimension of (M[k, 0] v_0, ..., M[k, N-1] v_{N-1}).

At a 0/1 membership matrix this agrees with the global dimension of the
corresponding hard partition. The outlier-augmented variant adds a row
(index 0) whose mass is charged a quadratic price instead of a
dimension:

    GD_out(M) = alpha / 2 * sum(M[0]^2) + || (d_1, ..., d_K) ||_p,

so a point's outlier charge grows as alpha * M[0, n], the gradient of
that row.

The gradient is analytic. With A_k the scaled matrix for cluster k,
A_k = U_k S_k V_k^T its thin SVD, delta = eps / (1 - eps) and

    C1_k = ||s_k||_eps^(1-eps) / ||s_k||_delta,
    C2_k = ||s_k||_eps * ||s_k||_delta^(-1-delta),
    D_k  = C1_k * S_k^(eps-1) - C2_k * S_k^(delta-1),

the derivative with respect to M[k, n] is

    d GD / d M[k, n]
        = V_k[n, :] @ (d_k^(p-1) * GD^(1-p) * D_k @ U_k^T) @ A[:, n].

GD is only almost-everywhere differentiable: the powers in D_k blow up
as a singular value approaches zero, so each singular value is floored
at 1e-8 times its cluster's largest when forming D_k (objective values
are never floored).

One kernel, value_and_gradient, evaluates a stack of memberships at
once: the scaled matrices of all their clusters go through one batched
SVD, and each membership's value and gradient have the bits of
evaluating it alone. The public functions pass a stack of one.
"""

from dataclasses import dataclass, field

import numpy as np

from ._checks import _count, _labels, _real, _reals, _validate_data
from .dimension import _check_eps, _degenerate, _dims, _power_sums
from .exceptions import InvalidInputError, InvalidParameterError

# Relative floor applied to singular values inside the gradient's D_k
# diagonal (bounded subgradient surrogate near the non-smooth set).
GRADIENT_SIGMA_FLOOR = 1e-8


@dataclass(frozen=True)
class ObjectiveParams:
    """Tunables of the global dimension objective.

    eps is the empirical-dimension strictness (must be strictly inside
    (0, 1) so that delta = eps / (1 - eps) is finite), p the exponent of
    the combining norm (positive and finite, as in GdmConfig), and alpha
    the weight of the quadratic outlier-row charge alpha / 2 *
    sum(M[0]^2) (used only by the outlier-augmented objective).
    """

    eps: float = 0.35
    p: float = 15.0
    alpha: float = 0.01
    delta: float = field(init=False)

    def __post_init__(self):
        _real(self.eps, "eps", 0.0, 1.0, "()")
        _real(self.p, "p", 0.0, np.inf, "()")
        _real(self.alpha, "alpha", 0.0, np.inf, "[)")
        object.__setattr__(self, "delta", self.eps / (1.0 - self.eps))


def validate_membership(m, tol=1e-10):
    """Check that m is column-stochastic and return it as a float array."""
    m = _validate_weights(m)
    _real(tol, "tol", 0.0, np.inf, "[)")
    if np.any(m < -tol) or np.any(m > 1.0 + tol):
        raise InvalidInputError("membership entries must lie in [0, 1]")
    colsums = m.sum(axis=0)
    if np.any(np.abs(colsums - 1.0) > tol):
        raise InvalidInputError("membership columns must sum to 1")
    return m


def _validate_weights(m):
    """Shape and finiteness checks only: a 2-d matrix of at least one row.

    The objective and its gradient are smooth functions of arbitrary
    weight matrices (that is what makes finite differencing them
    meaningful); the simplex constraint is enforced by the optimizer,
    not here.
    """
    m = _reals(m, "membership entries")
    if m.ndim != 2 or m.shape[0] == 0:
        raise InvalidInputError("membership must be a 2-d matrix with at least one row")
    return m


def scaled_cluster_matrix(a, m, k):
    """Data matrix with column j scaled by the membership M[k, j]; k must be
    an integer row index (a Python or numpy one, not a bool)."""
    a = _validate_data(a)
    m = _validate_weights(m)
    k = _count(k, "cluster index", 0, m.shape[0])
    if a.shape[1] != m.shape[1]:
        raise InvalidInputError("data and membership disagree on point count")
    return a * m[k][None, :]


def pnorm(values, p):
    """(sum v_i^p)^(1/p) along the last axis for nonnegative values,
    stable for large p.

    Values are summed in sorted order so the result is exactly invariant
    under permutations of its input. A 1-d input gives a float (0.0 when
    empty), a stack of vectors an array with one norm per vector.
    """
    v = np.sort(np.asarray(values, dtype=float), axis=-1)
    if v.ndim == 1:
        if v.size == 0 or v[-1] <= 0.0:
            return 0.0
        top = scale = v[-1]
    else:
        top = v[..., -1]
        # An all-zero vector is divided by 1 and keeps norm 0.
        scale = np.where(top > 0.0, top, 1.0)[..., None]
    norm = top * ((v / scale) ** p).sum(axis=-1) ** (1.0 / p)
    return float(norm) if v.ndim == 1 else norm


def _check_on_degenerate(on_degenerate):
    if not (isinstance(on_degenerate, str) and on_degenerate in ("raise", "zero")):
        raise InvalidParameterError(
            "on_degenerate must be 'raise' or 'zero', got %r" % (on_degenerate,))


def _dim_of_columns(cols, eps, on_degenerate):
    """Empirical dimension of a (possibly empty) block of data columns."""
    s = np.linalg.svd(cols, compute_uv=False) if cols.size else np.zeros(1)
    return 0.0 if _degenerate(s[0], on_degenerate) else _dims(s, eps)


def hard_cluster_dims(a, labels, n_clusters, eps=0.35, on_degenerate="raise"):
    """Per-cluster empirical dimensions of a hard partition.

    Labels must be whole numbers below n_clusters; negative labels mark
    rejected points and are excluded.
    """
    a = _validate_data(a)
    n_clusters = _count(n_clusters, "n_clusters", 0)
    labels = _labels(labels, a.shape[1], n_clusters, rejects=True)
    _check_eps(eps, a.shape[0])
    _check_on_degenerate(on_degenerate)
    return np.array(
        [
            _dim_of_columns(a[:, labels == k], eps, on_degenerate)
            for k in range(n_clusters)
        ]
    )


def global_dimension_hard(a, labels, params=None, n_clusters=None, on_degenerate="raise"):
    """Global dimension of a hard partition.

    Parameters
    ----------
    a : ndarray, shape (D, N)
    labels : int array, shape (N,)
        Cluster ids, whole numbers below n_clusters; negative ids mark
        rejected points.
    params : ObjectiveParams, optional
    n_clusters : int, optional
        Defaults to max(labels) + 1.
    on_degenerate : {'raise', 'zero'}
        'raise' errors on an empty cluster; 'zero' uses the continuous
        extension in which an empty cluster contributes dimension 0.
    """
    params = params or ObjectiveParams()
    if n_clusters is None:
        labels = _labels(labels, _validate_data(a).shape[1], rejects=True)
        n_clusters = max(int(labels.max()), -1) + 1
    dims = hard_cluster_dims(a, labels, n_clusters, params.eps, on_degenerate)
    return pnorm(dims, params.p)


def value_and_gradient(a, m, params, outlier, on_degenerate, want_grad):
    """Soft objective values and, if want_grad, gradients of a stack of R
    memberships m, shape (R, rows, N), with respect to each membership.

    With outlier set, row 0 of each membership is the outlier row: it
    adds alpha / 2 * sum(M[0]^2) to the value, whose gradient row is
    alpha * M[0]; the p-norm runs over rows 1..K only. Returns (values,
    shape (R,); gradients, shape (R, rows, N), or None). Inputs are not
    validated: the public functions below check one membership and pass
    it as a stack of one, and the optimizer calls this kernel directly.

    All R K scaled clusters go through one batched SVD, and every entry
    has the bits of evaluating its membership alone, cluster by cluster:
    a batched SVD gives each matrix the same bits whatever else is in
    its batch, the per-cluster norm roots, C1 and C2 are Python-float
    powers as for a single spectrum, each p-norm is taken alone, products are only
    reordered where they commute, and sums over the D axis run in the
    same order as a single cluster's.
    """
    clusters = m[:, 1:] if outlier else m
    r, k, n = clusters.shape
    scaled = a * clusters.reshape(r * k, 1, n)
    if want_grad:
        u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    else:
        s = np.linalg.svd(scaled, compute_uv=False)
    # The scaled stack is as large as vt; free it before the products.
    del scaled
    smax = s[:, 0]
    degenerate = _degenerate(smax, on_degenerate)
    eps, delta = params.eps, params.delta
    dims, c1, c2 = np.zeros(r * k), np.zeros(r * k), np.zeros(r * k)
    ok = np.flatnonzero(~degenerate)
    if ok.size:
        sums_e, sums_d = _power_sums(s[ok], eps)
        for i, sum_e, sum_d in zip(ok.tolist(), sums_e.tolist(), sums_d.tolist()):
            norm_e, norm_d = sum_e ** (1.0 / eps), sum_d ** (1.0 / delta)
            dims[i] = norm_e / norm_d
            c1[i] = norm_e ** (1.0 - eps) / norm_d
            c2[i] = norm_e * norm_d ** (-1.0 - delta)
    dims = dims.reshape(r, k)
    gd = np.array([pnorm(row, params.p) for row in dims])
    values = gd + params.alpha / 2.0 * (m[:, 0] ** 2).sum(axis=-1) if outlier else gd
    if not want_grad:
        return values, None
    # D (diagonal of the chain rule through the singular values),
    # expressed in the normalized spectrum: the 1/smax factor restores
    # the original scale. The floor also covers the values the norms
    # zeroed. A degenerate cluster divides by 1 and gets a zero row.
    smax = np.where(degenerate, 1.0, smax)[:, None]
    sf = np.maximum(s / smax, GRADIENT_SIGMA_FLOOR)
    dvec = (c1[:, None] * sf ** (eps - 1.0) - c2[:, None] * sf ** (delta - 1.0)) / smax
    # V[n, :] @ D @ U.T @ A[:, n] for every cluster and point, multiplied
    # in place.
    w = u.transpose(0, 2, 1) @ a
    w *= dvec[:, :, None]
    w *= vt
    del u, vt
    grows = w.sum(axis=1)
    grows[degenerate] = 0.0
    grad = np.zeros(m.shape)
    if outlier:
        grad[:, 0] = params.alpha * m[:, 0]
    # The p-norm's chain factor; a membership with GD 0 has only
    # degenerate clusters and keeps zero rows. A degenerate cluster
    # (dimension 0, zero row) gets factor 0: for p < 1, 0**(p - 1) is inf,
    # and inf times its zero row NaN.
    live = gd > 0.0
    ratio = dims[live] / gd[live, None]
    factor = np.zeros_like(ratio)
    np.power(ratio, params.p - 1.0, out=factor, where=ratio > 0.0)
    grad[live, -k:] = factor[:, :, None] * grows.reshape(r, k, n)[live]
    return values, grad


def _validate_soft(a, m, outlier, eps, on_degenerate):
    _check_on_degenerate(on_degenerate)
    a = _validate_data(a)
    m = _validate_weights(m)
    if outlier and m.shape[0] < 2:
        raise InvalidInputError("outlier membership needs at least 2 rows")
    if a.shape[1] != m.shape[1]:
        raise InvalidInputError("data and membership disagree on point count")
    _check_eps(eps, a.shape[0])
    return a, m


def _checked_soft(a, m, params, outlier, on_degenerate, want_grad):
    """One membership's value (a float) or, if want_grad, gradient, after
    checking the arguments; params None means ObjectiveParams()."""
    params = params or ObjectiveParams()
    a, m = _validate_soft(a, m, outlier, params.eps, on_degenerate)
    values, grads = value_and_gradient(a, m[None], params, outlier, on_degenerate, want_grad)
    return grads[0] if want_grad else float(values[0])


def global_dimension_soft(a, m, params=None, on_degenerate="raise"):
    """Global dimension of a soft partition (membership matrix)."""
    return _checked_soft(a, m, params, False, on_degenerate, False)


def gd_gradient(a, m, params=None, on_degenerate="raise"):
    """Gradient of the soft global dimension with respect to M.

    Entry (k, n) is d GD / d M[k, n]. Requires every scaled cluster to
    have a nonzero spectrum unless on_degenerate='zero', in which case
    degenerate clusters get zero rows.
    """
    return _checked_soft(a, m, params, False, on_degenerate, True)


def global_dimension_outlier(a, m, params=None, on_degenerate="raise"):
    """Outlier-augmented global dimension.

    m has K + 1 rows; row 0 is the outlier row, charged
    alpha / 2 * sum(M[0]^2), and rows 1..K contribute their empirical
    dimensions through the usual p-norm.
    """
    return _checked_soft(a, m, params, True, on_degenerate, False)


def gd_gradient_outlier(a, m, params=None, on_degenerate="raise"):
    """Gradient of the outlier-augmented objective.

    Row 0 is alpha * M[0] (linear in the outlier mass); rows 1..K carry
    the same structure as the classic gradient with the p-norm taken
    over the K true clusters.
    """
    return _checked_soft(a, m, params, True, on_degenerate, True)
