"""Outlier detection and rejection around global dimension minimization.

The core idea: add an extra membership row (row 0) whose mass is
charged alpha / 2 * M[0, n]^2 per point instead of contributing a
dimension. A point that raises the dimension of every real cluster is
cheaper to park in the outlier row. Thresholding that row directly
("naive") is unreliable because the right alpha is data dependent, but
the *ranking* of points by outlier-row mass is stable, which the two
practical pipelines exploit:

* known_fraction: rank points by outlier-row mass, reject a preset
  fraction, and re-segment the survivors from scratch.
* model_reassign: run known_fraction, fit a subspace of rounded
  empirical dimension to each cluster, re-assign every point (including
  prior rejects) to its nearest subspace, and reject points farther
  than kappa from all of them.

Every pipeline marks a rejected point by the label -1 and by nothing
else: a result's outliers are derived from its labels,
np.flatnonzero(labels < 0).
"""

import copy
import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._checks import _count, _real, _reals, _validate_data
from .dimension import empirical_dimension
from .exceptions import (
    DegenerateClusterError,
    InsufficientInliersError,
    InvalidInputError,
    InvalidParameterError,
)
from .optimizer import _descend_loop, _hard_result, _merged_restarts, gdm

# Initial membership mass placed on the outlier row after merge
# initialization; the remaining 1 - beta sits on the point's own set.
OUTLIER_INIT_MASS = 0.05


@dataclass(frozen=True)
class OutlierConfig:
    """Outlier handling mode and its parameters.

    mode 'naive' thresholds the augmented membership directly and is
    provided for completeness only; it is unsound in practice because
    a good alpha is data dependent. Prefer 'known_fraction' or
    'model_reassign'.
    """

    mode: str = "none"
    alpha: float = 0.01
    fraction: float = 0.20
    kappa: float = 0.05

    def __post_init__(self):
        if self.mode not in _PIPELINES:
            raise InvalidParameterError("unknown outlier mode %r" % (self.mode,))
        _real(self.alpha, "alpha", 0.0, np.inf, "[)")
        _real(self.fraction, "fraction", 0.0, 1.0, "()")
        _real(self.kappa, "kappa", 0.0, np.inf, "(]")


class FittedSubspace(NamedTuple):
    """Orthonormal basis of a fitted cluster subspace and its dimension."""

    basis: np.ndarray
    dim: int


def gdm_outlier_core(a, cfg, alpha=0.01):
    """Optimize the outlier-augmented objective, returning the soft
    (K+1) x N membership (row 0 is the outlier row) of the restart with
    the lowest final objective value.

    Initialization runs the usual greedy merge to K sets, then each
    column receives mass 1 - beta on its own set and beta = 0.05 on the
    outlier row, letting gradient flow decide who pays the outlier price.
    All restarts merge in one lockstep wave and descend in another, and
    each restart's membership is the one it gets alone.
    """
    a = _validate_data(a)
    n = a.shape[1]
    params = cfg.objective_params(alpha=alpha)
    merged = _merged_restarts(a, cfg)
    m0 = np.zeros((len(merged), cfg.n_clusters + 1, n))
    m0[:, 0] = OUTLIER_INIT_MASS
    for m, labels0 in zip(m0, merged):
        m[labels0 + 1, np.arange(n)] = 1.0 - OUTLIER_INIT_MASS
    ms, traces = _descend_loop(a, m0, cfg, params, outlier=True)
    return ms[int(np.argmin([trace[-1] for trace in traces]))]


def known_fraction(a, cfg, fraction=0.20, alpha=0.01):
    """Reject a preset fraction of the data ranked by outlier-row mass,
    then re-segment the survivors with the classic pipeline.

    The rerun is cold started (fresh restarts on the survivor set) so
    results are deterministic given cfg.seed. A seeded call that repeats
    the last seeded call's data (bit for bit), cfg, number of rejects
    and alpha returns a deep copy of that call's result without
    segmenting again; the result is the one a fresh computation gives.
    So model_reassign, roc_sweep, reassignment_distances and
    segment_with_outliers, which all run known_fraction, segment a scene
    once when run on it in turn with the same cfg, fraction and alpha. A
    call with cfg.seed None always segments anew.
    """
    a = _validate_data(a)
    n = a.shape[1]
    n_out = math.ceil(_real(fraction, "fraction", 0.0, 1.0, "()") * n)
    # True equals 1 in the memo key, so alpha is checked before the lookup.
    _real(alpha, "alpha", 0.0, np.inf, "[)")
    if n - n_out <= cfg.n_clusters:
        raise InsufficientInliersError(
            "rejecting %d of %d points leaves too few to segment" % (n_out, n)
        )
    if cfg.seed is None:
        return _known_fraction(a, cfg, n_out, alpha)
    return copy.deepcopy(_last_known_fraction(a.shape, a.tobytes(), cfg, n_out, alpha))


# One entry is all that evaluating a scene and then sweeping it needs;
# more would carry results across passes over a set of scenes.
@functools.lru_cache(maxsize=1)
def _last_known_fraction(shape, data, cfg, n_out, alpha):
    return _known_fraction(np.frombuffer(data).reshape(shape), cfg, n_out, alpha)


def _known_fraction(a, cfg, n_out, alpha):
    membership = gdm_outlier_core(a, cfg, alpha=alpha)
    labels = np.zeros(a.shape[1], dtype=int)
    labels[np.argsort(-membership[0], kind="stable")[:n_out]] = -1
    survivors = labels == 0
    inner = gdm(a[:, survivors], cfg)
    labels[survivors] = inner.labels
    full_membership = np.zeros((cfg.n_clusters, a.shape[1]))
    full_membership[:, survivors] = inner.membership
    return replace(inner, labels=labels, membership=full_membership)


def fit_cluster_subspace(points, eps=0.35):
    """Fit a subspace of rounded empirical dimension to a cluster.

    The dimension is the empirical dimension rounded half up, clamped
    to [1, min(D, N_k)]; the basis holds the leading left singular
    vectors.
    """
    points = _reals(points, "cluster points")
    if points.ndim != 2 or points.shape[0] == 0:
        raise InvalidInputError("cluster points must be a D x N matrix with D >= 1")
    if points.shape[1] == 0:
        raise DegenerateClusterError("cannot fit a subspace to an empty cluster")
    u, s, _ = np.linalg.svd(points, full_matrices=False)
    if s[0] <= 0.0:
        raise DegenerateClusterError("cannot fit a subspace to zero data")
    d_hat = empirical_dimension(s, eps)
    dim = int(np.floor(d_hat + 0.5))
    dim = max(1, min(dim, min(points.shape)))
    return FittedSubspace(basis=u[:, :dim].copy(), dim=dim)


def subspace_distances(a, subspace):
    """Distance of every column of a to a fitted subspace."""
    a = _validate_data(a)
    basis = subspace.basis
    if a.shape[0] != basis.shape[0]:
        raise InvalidInputError("data in R^%d cannot be measured against a subspace of R^%d"
                                % (a.shape[0], basis.shape[0]))
    residual = a - basis @ (basis.T @ a)
    return np.linalg.norm(residual, axis=0)


def reassignment_distances(a, cfg, fraction=0.20, alpha=0.01):
    """Shared first stage of model_reassign and ROC sweeps.

    Runs known_fraction, fits one subspace per cluster that holds a
    nonzero point, and returns (nearest_labels, min_distances,
    distance_matrix, result of the known_fraction stage). Distances
    cover every point, including the ones known_fraction rejected; a
    cluster without a fit is at distance inf from all of them.
    """
    a = _validate_data(a)
    kf = known_fraction(a, cfg, fraction=fraction, alpha=alpha)
    if not np.any(a[:, kf.labels >= 0]):
        raise DegenerateClusterError("no nonempty cluster to fit")
    dists = np.full((cfg.n_clusters, a.shape[1]), np.inf)
    for k in range(cfg.n_clusters):
        cols = a[:, kf.labels == k]
        if np.any(cols):
            dists[k] = subspace_distances(a, fit_cluster_subspace(cols, cfg.eps))
    return np.argmin(dists, axis=0), dists.min(axis=0), dists, kf


def model_reassign(a, cfg, kappa=0.05, fraction=0.20, alpha=0.01, threads=1):
    """Re-assign every point to its nearest fitted cluster subspace and
    reject the ones farther than kappa from all of them.

    A rejected point gets label -1; membership is the 0/1 indicator of
    the labels, zero on rejects. threads is accepted for compatibility
    and has no effect: restarts always run in one thread.
    """
    _real(kappa, "kappa", 0.0, np.inf, "(]")
    a = _validate_data(a)
    nearest, min_dist, _, kf = reassignment_distances(
        a, cfg, fraction=fraction, alpha=alpha
    )
    labels = np.where(min_dist > kappa, -1, nearest)
    membership = (labels == np.arange(cfg.n_clusters)[:, None]).astype(float)
    return _hard_result(
        a, labels, cfg, membership=membership, restarts_run=kf.restarts_run,
        trace=kf.trace, restart_gd_values=kf.restart_gd_values,
    )


def gdm_naive(a, cfg, alpha=0.01):
    """Threshold the augmented membership directly.

    Unsound in practice (the right alpha is data dependent; a bad one
    silently dumps inliers into, or starves, the outlier group). Kept
    behind this explicit call for completeness and comparison.
    """
    a = _validate_data(a)
    membership = gdm_outlier_core(a, cfg, alpha=alpha)
    return _hard_result(
        a, np.argmax(membership, axis=0) - 1, cfg, membership=membership,
        restarts_run=cfg.restarts, trace=np.empty(0),
    )


# Each outlier mode's pipeline and the OutlierConfig fields it takes, in
# the order the CLI lists the modes.
_PIPELINES = {
    "none": (gdm, ()),
    "naive": (gdm_naive, ("alpha",)),
    "known_fraction": (known_fraction, ("fraction", "alpha")),
    "model_reassign": (model_reassign, ("kappa", "fraction", "alpha")),
}


def segment_with_outliers(a, cfg, outlier_cfg):
    """Dispatch to the pipeline selected by outlier_cfg.mode."""
    pipeline, fields = _PIPELINES[outlier_cfg.mode]
    return pipeline(a, cfg, **{field: getattr(outlier_cfg, field) for field in fields})


def tpr_fpr(predicted_outliers, true_outliers, n_points):
    """True and false positive rates of an outlier prediction, in percent.

    TPR is 0 when there are no true outliers; FPR is 0 when there are
    no true inliers. n_points must be a nonnegative integer (a Python or
    numpy one, not a bool).
    """
    n_points = _count(n_points, "n_points", 0, error=InvalidInputError)
    pred = _reals(predicted_outliers, "outlier indices", whole=True).ravel()
    true = _reals(true_outliers, "outlier indices", whole=True).ravel()
    both = np.concatenate([pred, true])
    if both.size and not 0 <= both.min() <= both.max() < n_points:
        raise InvalidInputError("outlier indices must lie in [0, n_points)")
    pred, true = set(pred.tolist()), set(true.tolist())
    n_true = len(true)
    n_inliers = n_points - n_true
    tpr = 100.0 * len(pred & true) / n_true if n_true else 0.0
    fpr = 100.0 * len(pred - true) / n_inliers if n_inliers else 0.0
    return tpr, fpr
