"""Synthetic scene generators, segmentation metrics, and ROC sweeps."""

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import (
    InvalidInputError,
    InvalidParameterError,
    SceneGenerationError,
)
from .objective import _whole_numbers
from .robust import reassignment_distances, tpr_fpr

# Pinhole scene constants: bodies sit a few units in front of the
# camera and every 3-d point must keep at least this depth in both
# views.
_MIN_DEPTH = 0.5


def _count(value, name):
    """int(value), or InvalidParameterError unless value is an integer (a
    Python or numpy one, not a bool), as GdmConfig requires of its counts."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError("%s must be an integer, got %r" % (name, value))
    return int(value)


@dataclass(frozen=True)
class SyntheticSpec:
    """Layout of a planted union-of-subspaces data set.

    dims lists one subspace dimension per cluster; points_per_cluster
    is an int applied to all clusters or a per-cluster sequence. Each
    cluster needs at least dim + 1 points so it is adequately
    represented. Dimensions and counts must be integers (Python or
    numpy ones, not bools).
    """

    dims: tuple
    ambient: int = 9
    points_per_cluster: object = 60
    noise_sigma: float = 0.0
    outlier_count: int = 0
    outlier_radius: float = 3.0
    seed: int | None = None

    def __post_init__(self):
        dims = tuple(_count(d, "dims") for d in self.dims)
        object.__setattr__(self, "dims", dims)
        _count(self.ambient, "ambient")
        _count(self.outlier_count, "outlier_count")
        if not dims:
            raise InvalidParameterError("need at least one cluster")
        counts = self.counts()
        if len(counts) != len(dims):
            raise InvalidParameterError("points_per_cluster length must match dims")
        for d, c in zip(dims, counts):
            if not 1 <= d < self.ambient:
                raise InvalidParameterError(
                    "subspace dimensions must lie in [1, ambient)"
                )
            if c < d + 1:
                raise InvalidParameterError(
                    "each cluster needs at least dim + 1 points"
                )
        # Written so that NaN fails the range tests too.
        if (not 0.0 <= self.noise_sigma < np.inf or self.outlier_count < 0
                or not 0.0 < self.outlier_radius < np.inf):
            raise InvalidParameterError("invalid noise/outlier settings")

    def counts(self):
        if np.isscalar(self.points_per_cluster):
            return (_count(self.points_per_cluster, "points_per_cluster"),) * len(self.dims)
        return tuple(_count(c, "points_per_cluster") for c in self.points_per_cluster)


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


def rotation_matrix(axis, angle):
    """Rotation by angle around a (non-zero) axis, via Rodrigues."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def fundamental_from_motion(rotation, translation):
    """Fundamental matrix of one rigid motion under the unit pinhole
    camera: cross(t) @ R, satisfying x2_h^T F x1_h = 0."""
    t = np.asarray(translation, dtype=float)
    cross = np.array([
        [0.0, -t[2], t[1]],
        [t[2], 0.0, -t[0]],
        [-t[1], t[0], 0.0],
    ])
    return cross @ np.asarray(rotation, dtype=float)


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
    n_bodies = _count(n_bodies, "n_bodies")
    n_outliers = _count(n_outliers, "n_outliers")
    max_retries = _count(max_retries, "max_retries")
    if n_bodies < 1:
        raise InvalidParameterError("need at least one rigid body")
    if np.isscalar(points_per_body):
        counts = [_count(points_per_body, "points_per_body")] * n_bodies
    else:
        counts = [_count(c, "points_per_body") for c in points_per_body]
        if len(counts) != n_bodies:
            raise InvalidParameterError("points_per_body length must match n_bodies")
    if min(counts) < 1 or n_outliers < 0 or not noise_sigma >= 0.0:
        raise InvalidParameterError("invalid point counts or noise/outlier settings")
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
    pred = _whole_numbers(pred_labels, "labels")
    true = _whole_numbers(true_labels, "labels")
    if pred.shape != true.shape or pred.ndim != 1:
        raise InvalidInputError("label vectors must be 1-d and equal length")
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
    The segmentation itself (known_fraction) is reused when it repeats
    the last seeded known_fraction call, as when model_reassign has just
    segmented the same data with the same cfg, fraction and alpha; no
    result changes. Returns a list of (kappa, tpr, fpr) tuples in grid
    order. Kappas must be nonnegative; 0 and inf give the curve's end
    points. threads is accepted for compatibility and has no effect:
    restarts always run in one thread.
    """
    grid = np.asarray(kappa_grid, dtype=float)
    if grid.size == 0:
        raise InvalidParameterError("kappa grid must be nonempty")
    if not np.all(grid >= 0.0):
        raise InvalidParameterError("every kappa must be a nonnegative number")
    _, min_dist, _, _ = reassignment_distances(a, cfg, fraction=fraction, alpha=alpha)
    n = min_dist.size
    points = []
    for kappa in grid:
        flagged = np.flatnonzero(min_dist > kappa)
        tpr, fpr = tpr_fpr(flagged, true_outliers, n)
        points.append((float(kappa), tpr, fpr))
    return points
