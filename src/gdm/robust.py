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

model_reassign, roc_sweep, reassignment_distances and
segment_with_outliers all run known_fraction. It remembers its last
seeded call: a call that repeats that call's data (bit for bit),
config, number of rejects and alpha returns copies of its result
instead of segmenting again, so a ROC sweep of the data a
model_reassign just segmented costs one segmentation, not two. No
result changes, and a call with cfg.seed None always segments anew.
"""

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .dimension import empirical_dimension
from .exceptions import (
    DegenerateClusterError,
    InsufficientInliersError,
    InvalidInputError,
    InvalidParameterError,
)
from .objective import _validate_data, _whole_numbers
from .optimizer import _descend_loop, _hard_result, _merged_restarts, gdm

# Initial membership mass placed on the outlier row after merge
# initialization; the remaining 1 - beta sits on the point's own set.
OUTLIER_INIT_MASS = 0.05

# known_fraction's last seeded call as one (key, result) tuple, replaced
# whole so that concurrent callers at worst both compute. One entry is
# all that evaluating a scene and then sweeping it needs; more would
# carry results across passes over a set of scenes.
_last_known_fraction = None


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
        if self.mode not in ("none", "naive", "known_fraction", "model_reassign"):
            raise InvalidParameterError("unknown outlier mode %r" % (self.mode,))
        # Written as not (x > 0) so that NaN is rejected too.
        if not 0.0 <= self.alpha < np.inf:
            raise InvalidParameterError("alpha must be nonnegative and finite")
        if not 0.0 < self.fraction < 1.0:
            raise InvalidParameterError("fraction must be in (0, 1)")
        if not self.kappa > 0.0:
            raise InvalidParameterError("kappa must be positive")


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


def _copy_arrays(result):
    """The result with a fresh copy of every array field."""
    return replace(result, **{
        f.name: getattr(result, f.name).copy()
        for f in fields(result)
        if isinstance(getattr(result, f.name), np.ndarray)
    })


def known_fraction(a, cfg, fraction=0.20, alpha=0.01):
    """Reject a preset fraction of the data ranked by outlier-row mass,
    then re-segment the survivors with the classic pipeline.

    The rerun is cold started (fresh restarts on the survivor set) so
    results are deterministic given cfg.seed. A seeded call that repeats
    the last seeded call's data (bit for bit), cfg, number of rejects
    and alpha returns copies of that call's result without segmenting
    again; the result is the one a fresh computation gives.
    """
    global _last_known_fraction
    a = _validate_data(a)
    n = a.shape[1]
    if not 0.0 < fraction < 1.0:
        raise InvalidParameterError("fraction must be in (0, 1)")
    n_out = math.ceil(fraction * n)
    if n - n_out <= cfg.n_clusters:
        raise InsufficientInliersError(
            "rejecting %d of %d points leaves too few to segment" % (n_out, n)
        )
    if cfg.seed is None:
        return _known_fraction(a, cfg, n_out, alpha)
    key = (a.shape, a.tobytes(), cfg, n_out, alpha)
    last = _last_known_fraction
    if last is None or last[0] != key:
        last = (key, _known_fraction(a, cfg, n_out, alpha))
        _last_known_fraction = last
    return _copy_arrays(last[1])


def _known_fraction(a, cfg, n_out, alpha):
    n = a.shape[1]
    membership = gdm_outlier_core(a, cfg, alpha=alpha)
    order = np.argsort(-membership[0], kind="stable")
    outliers = np.sort(order[:n_out])
    survivors = np.setdiff1d(np.arange(n), outliers)
    inner = gdm(a[:, survivors], cfg)
    labels = np.full(n, -1, dtype=int)
    labels[survivors] = inner.labels
    full_membership = np.zeros((cfg.n_clusters, n))
    full_membership[:, survivors] = inner.membership
    return replace(
        inner, labels=labels, outliers=outliers, membership=full_membership
    )


def fit_cluster_subspace(points, eps=0.35):
    """Fit a subspace of rounded empirical dimension to a cluster.

    The dimension is the empirical dimension rounded half up, clamped
    to [1, min(D, N_k)]; the basis holds the leading left singular
    vectors.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] == 0:
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
    basis = subspace.basis
    residual = a - basis @ (basis.T @ a)
    return np.linalg.norm(residual, axis=0)


def reassignment_distances(a, cfg, fraction=0.20, alpha=0.01):
    """Shared first stage of model_reassign and ROC sweeps.

    Runs known_fraction, fits one subspace per nonempty cluster, and
    returns (nearest_labels, min_distances, distance_matrix, result of
    the known_fraction stage). Distances cover every point, including
    the ones known_fraction rejected.
    """
    a = _validate_data(a)
    kf = known_fraction(a, cfg, fraction=fraction, alpha=alpha)
    n = a.shape[1]
    dists = np.full((cfg.n_clusters, n), np.inf)
    fitted_any = False
    for k in range(cfg.n_clusters):
        cols = a[:, kf.labels == k]
        if cols.shape[1] == 0 or not np.any(cols):
            continue
        sub = fit_cluster_subspace(cols, cfg.eps)
        dists[k] = subspace_distances(a, sub)
        fitted_any = True
    if not fitted_any:
        raise DegenerateClusterError("no nonempty cluster to fit")
    nearest = np.argmin(dists, axis=0)
    min_dist = dists[nearest, np.arange(n)]
    return nearest, min_dist, dists, kf


def model_reassign(a, cfg, kappa=0.05, fraction=0.20, alpha=0.01, threads=1):
    """Re-assign every point to its nearest fitted cluster subspace and
    reject the ones farther than kappa from all of them.

    The known_fraction stage is reused when it repeats the last seeded
    known_fraction call (same data, cfg, fraction and alpha), as after a
    roc_sweep of the same data; no result changes. threads is accepted
    for compatibility and has no effect: restarts always run in one
    thread.
    """
    if not kappa > 0.0:
        raise InvalidParameterError("kappa must be positive")
    a = _validate_data(a)
    n = a.shape[1]
    nearest, min_dist, _, kf = reassignment_distances(
        a, cfg, fraction=fraction, alpha=alpha
    )
    outlier_mask = min_dist > kappa
    labels = np.where(outlier_mask, -1, nearest)
    membership = np.zeros((cfg.n_clusters, n))
    inlier_idx = np.flatnonzero(~outlier_mask)
    membership[labels[inlier_idx], inlier_idx] = 1.0
    return _hard_result(
        a, labels, cfg, outliers=np.flatnonzero(outlier_mask),
        membership=membership, restarts_run=kf.restarts_run, trace=kf.trace,
        restart_gd_values=kf.restart_gd_values,
    )


def gdm_naive(a, cfg, alpha=0.01):
    """Threshold the augmented membership directly.

    Unsound in practice (the right alpha is data dependent; a bad one
    silently dumps inliers into, or starves, the outlier group). Kept
    behind this explicit call for completeness and comparison.
    """
    a = _validate_data(a)
    membership = gdm_outlier_core(a, cfg, alpha=alpha)
    winners = np.argmax(membership, axis=0)
    return _hard_result(
        a, winners - 1, cfg, outliers=np.flatnonzero(winners == 0),
        membership=membership, restarts_run=cfg.restarts, trace=np.empty(0),
    )


def segment_with_outliers(a, cfg, outlier_cfg):
    """Dispatch to the pipeline selected by outlier_cfg.mode."""
    if outlier_cfg.mode == "none":
        return gdm(a, cfg)
    if outlier_cfg.mode == "naive":
        return gdm_naive(a, cfg, alpha=outlier_cfg.alpha)
    if outlier_cfg.mode == "known_fraction":
        return known_fraction(
            a, cfg, fraction=outlier_cfg.fraction, alpha=outlier_cfg.alpha
        )
    return model_reassign(
        a, cfg, kappa=outlier_cfg.kappa, fraction=outlier_cfg.fraction,
        alpha=outlier_cfg.alpha,
    )


def tpr_fpr(predicted_outliers, true_outliers, n_points):
    """True and false positive rates of an outlier prediction, in percent.

    TPR is 0 when there are no true outliers; FPR is 0 when there are
    no true inliers.
    """
    pred = set(_whole_numbers(predicted_outliers, "outlier indices").ravel().tolist())
    true = set(_whole_numbers(true_outliers, "outlier indices").ravel().tolist())
    universe = range(n_points)
    if not pred <= set(universe) or not true <= set(universe):
        raise InvalidInputError("outlier indices must lie in [0, n_points)")
    n_true = len(true)
    n_inliers = n_points - n_true
    tpr = 100.0 * len(pred & true) / n_true if n_true else 0.0
    fpr = 100.0 * len(pred - true) / n_inliers if n_inliers else 0.0
    return tpr, fpr
