"""Synthetic scene generators, segmentation metrics, and ROC sweeps."""

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._checks import _count, _labels, _real, _reals
from .exceptions import InvalidParameterError, SceneGenerationError
from .robust import reassignment_distances, tpr_fpr

# Pinhole scene constants: bodies sit a few units in front of the
# camera and every 3-d point must keep at least this depth in both
# views.
_MIN_DEPTH = 0.5


def _per_group(value, name, n_groups=None, low=None, high=None):
    """value as a tuple of ints, each checked by _count: a sequence of one
    per group (of n_groups entries when n_groups is given), or, when
    n_groups is given, also one integer for every group. Anything else is
    an InvalidParameterError naming the argument."""
    if n_groups is not None and np.isscalar(value):
        return (_count(value, name, low, high),) * n_groups
    try:
        counts = tuple(_count(c, name, low, high) for c in value)
    except TypeError:  # not iterable, as a 0-d array is not
        raise InvalidParameterError("%s must be a sequence of integers%s, got %r" % (
            name, "" if n_groups is None else " or one integer", value))
    if n_groups is not None and len(counts) != n_groups:
        raise InvalidParameterError("%s length must be %d, one per group, got %d"
                                    % (name, n_groups, len(counts)))
    return counts


@dataclass(frozen=True)
class SyntheticSpec:
    """Layout of a planted union-of-subspaces data set.

    dims lists one subspace dimension per cluster; points_per_cluster
    is an int applied to all clusters or a per-cluster sequence, and is
    stored as a tuple of one count per cluster. Each cluster needs at
    least dim + 1 points so it is adequately represented. Dimensions and
    counts must be integers (Python or numpy ones, not bools).
    """

    dims: tuple
    ambient: int = 9
    points_per_cluster: object = 60
    noise_sigma: float = 0.0
    outlier_count: int = 0
    outlier_radius: float = 3.0
    seed: int | None = None

    def __post_init__(self):
        ambient = _count(self.ambient, "ambient")
        dims = _per_group(self.dims, "dims", low=1, high=ambient)
        object.__setattr__(self, "dims", dims)
        _count(self.outlier_count, "outlier_count", 0)
        if not dims:
            raise InvalidParameterError("need at least one cluster")
        counts = _per_group(self.points_per_cluster, "points_per_cluster", len(dims))
        object.__setattr__(self, "points_per_cluster", counts)
        if any(c < d + 1 for d, c in zip(dims, counts)):
            raise InvalidParameterError("each cluster needs at least dim + 1 points")
        _real(self.noise_sigma, "noise_sigma", 0.0, np.inf, "[)")
        _real(self.outlier_radius, "outlier_radius", 0.0, np.inf, "()")

    def counts(self):
        return self.points_per_cluster


class SubspaceMixture(NamedTuple):
    """Planted data with ground truth (labels use -1 for outliers)."""

    data: np.ndarray
    labels: np.ndarray
    outliers: np.ndarray


def sample_subspace_mixture(spec):
    """Draw points from random subspaces plus uniform-ball outliers.

    Each cluster gets a uniformly random orthonormal basis and isotropic
    Gaussian coefficients; ambient Gaussian noise of scale
    spec.noise_sigma is added to the cluster points, and
    spec.outlier_count points drawn uniformly from the centered ball of
    radius spec.outlier_radius are appended.
    """
    rng = np.random.default_rng(spec.seed)
    blocks = []
    labels = []
    for k, (d, c) in enumerate(zip(spec.dims, spec.counts())):
        basis, _ = np.linalg.qr(rng.normal(size=(spec.ambient, d)))
        blocks.append(basis @ rng.normal(size=(d, c)))
        labels.extend([k] * c)
    data = np.concatenate(blocks, axis=1)
    if spec.noise_sigma > 0:
        data = data + rng.normal(scale=spec.noise_sigma, size=data.shape)
    n_in = data.shape[1]
    if spec.outlier_count:
        directions = rng.normal(size=(spec.ambient, spec.outlier_count))
        directions /= np.linalg.norm(directions, axis=0)
        radii = spec.outlier_radius * rng.uniform(
            size=spec.outlier_count
        ) ** (1.0 / spec.ambient)
        data = np.concatenate([data, directions * radii], axis=1)
        labels.extend([-1] * spec.outlier_count)
    return SubspaceMixture(
        data=data,
        labels=np.array(labels, dtype=int),
        outliers=np.arange(n_in, data.shape[1]),
    )


class TwoViewScene(NamedTuple):
    """A generated pair of views of rigidly moving point clouds.

    correspondences holds one (x, y, x', y') row per feature; motions
    the per-body (rotation, translation) so the true epipolar geometry
    is available to tests; labels use -1 for injected bad matches.
    """

    correspondences: np.ndarray
    labels: np.ndarray
    outliers: np.ndarray
    motions: list


def _cross_matrix(v):
    """The 3 x 3 matrix [v]_x with [v]_x @ w = cross(v, w)."""
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def rotation_matrix(axis, angle):
    """Rotation by a finite angle around a (non-zero) axis, via Rodrigues."""
    _real(angle, "angle", -np.inf, np.inf, "()")
    axis = _reals(axis, "axis", InvalidParameterError, shape=(3,))
    norm = np.linalg.norm(axis)
    if not 0.0 < norm < np.inf:
        raise InvalidParameterError("axis must be a non-zero, finite 3-vector, got %r" % (axis,))
    k = _cross_matrix(axis / norm)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def fundamental_from_motion(rotation, translation):
    """Fundamental matrix of one rigid motion under the unit pinhole
    camera: cross(t) @ R, satisfying x2_h^T F x1_h = 0. The rotation
    must be a 3 x 3 matrix and the translation a 3-vector."""
    return (_cross_matrix(_reals(translation, "translation", InvalidParameterError, shape=(3,)))
            @ _reals(rotation, "rotation", InvalidParameterError, shape=(3, 3)))


def _sample_body(rng, n_points, coplanar, max_retries):
    for _ in range(max_retries):
        center = np.array([
            rng.uniform(-1.5, 1.5),
            rng.uniform(-1.5, 1.5),
            rng.uniform(5.0, 9.0),
        ])
        if coplanar:
            plane, _ = np.linalg.qr(rng.normal(size=(3, 2)))
            scatter = plane @ rng.normal(size=(2, n_points))
        else:
            scatter = rng.normal(size=(3, n_points))
        pts1 = center[:, None] + scatter
        rot = rotation_matrix(rng.normal(size=3), rng.uniform(0.1, 0.45))
        shift = np.array([
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0),
            rng.uniform(-0.5, 0.5),
        ])
        pts2 = rot @ (pts1 - center[:, None]) + center[:, None] + shift[:, None]
        if pts1[2].min() > _MIN_DEPTH and pts2[2].min() > _MIN_DEPTH:
            t_eff = center - rot @ center + shift
            return pts1, pts2, rot, t_eff
    raise SceneGenerationError("could not place a body in front of the camera")


def sample_two_view_scene(n_bodies, points_per_body, noise_sigma=0.0,
                          n_outliers=0, coplanar=False, seed=None,
                          max_retries=50):
    """Generate two perspective views of independently moving bodies.

    Each body is a Gaussian point cloud (or a planar one when coplanar
    is set) placed in front of a unit-focal pinhole camera and given its
    own random rotation about its centroid plus a random translation.
    Image coordinates get additive Gaussian noise of scale noise_sigma;
    n_outliers bad matches (both views drawn independently over the
    inlier image extent) are appended with label -1. n_bodies,
    points_per_body, n_outliers and max_retries must be integers (Python
    or numpy ones, not bools).
    """
    n_bodies = _count(n_bodies, "n_bodies", 1)
    n_outliers = _count(n_outliers, "n_outliers", 0)
    max_retries = _count(max_retries, "max_retries", 0)
    counts = _per_group(points_per_body, "points_per_body", n_bodies, low=1)
    _real(noise_sigma, "noise_sigma", 0.0, np.inf, "[)")
    rng = np.random.default_rng(seed)
    rows = []
    labels = []
    motions = []
    for b, count in enumerate(counts):
        pts1, pts2, rot, t_eff = _sample_body(rng, count, coplanar, max_retries)
        view1 = pts1[:2] / pts1[2]
        view2 = pts2[:2] / pts2[2]
        rows.append(np.concatenate([view1, view2]).T)
        labels.extend([b] * count)
        motions.append((rot, t_eff))
    corr = np.concatenate(rows, axis=0)
    if noise_sigma > 0:
        corr = corr + rng.normal(scale=noise_sigma, size=corr.shape)
    n_in = corr.shape[0]
    if n_outliers:
        lo = corr.min(axis=0)
        hi = corr.max(axis=0)
        bogus = rng.uniform(lo, hi, size=(n_outliers, 4))
        corr = np.concatenate([corr, bogus], axis=0)
        labels.extend([-1] * n_outliers)
    return TwoViewScene(
        correspondences=corr,
        labels=np.array(labels, dtype=int),
        outliers=np.arange(n_in, corr.shape[0]),
        motions=motions,
    )


def misclassification_rate(pred_labels, true_labels):
    """Percentage of points mislabeled under the best label permutation.

    Points marked -1 (rejected/outlier) in either labeling are excluded,
    so this is the misclassification rate of retained true inliers.
    Exhaustive permutation matching; supports at most 6 clusters.
    """
    true = _labels(true_labels, rejects=True)
    pred = _labels(pred_labels, true.size, rejects=True)
    mask = (pred >= 0) & (true >= 0)
    p, t = pred[mask], true[mask]
    if p.size == 0:
        return 0.0
    pu, pi = np.unique(p, return_inverse=True)
    tu, ti = np.unique(t, return_inverse=True)
    k = max(pu.size, tu.size)
    if k > 6:
        raise InvalidParameterError(
            "exhaustive permutation matching supports at most 6 clusters"
        )
    confusion = np.zeros((k, k), dtype=int)
    np.add.at(confusion, (ti, pi), 1)
    best = max(
        sum(confusion[perm[j], j] for j in range(k))
        for perm in itertools.permutations(range(k))
    )
    return 100.0 * (p.size - best) / p.size


def roc_sweep(a, cfg, true_outliers, kappa_grid, fraction=0.20, alpha=0.01,
              threads=1):
    """TPR/FPR curve of the nearest-subspace distance test.

    The segmentation and subspace fitting run once per call; every kappa
    in the grid is then applied to the same point-to-subspace distances.
    Returns a list of (kappa, tpr, fpr) tuples in grid order. Kappas
    must be nonnegative; 0 and inf give the curve's end points. threads
    is accepted for compatibility and has no effect: restarts always run
    in one thread.
    """
    grid = np.asarray(kappa_grid, dtype=object)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidParameterError("kappa grid must be a nonempty 1-d sequence")
    grid = [_real(kappa, "kappa", 0.0, np.inf) for kappa in grid]
    _, min_dist, _, _ = reassignment_distances(a, cfg, fraction=fraction, alpha=alpha)
    n = min_dist.size
    points = []
    for kappa in grid:
        flagged = np.flatnonzero(min_dist > kappa)
        tpr, fpr = tpr_fpr(flagged, true_outliers, n)
        points.append((float(kappa), tpr, fpr))
    return points
