"""Embeddings of two-view point correspondences.

A correspondence ((x, y), (x', y')) can be lifted into quadratic
coordinates in R^9, where all correspondences belonging to a single
rigid motion lie in a linear subspace of dimension at most 8, or kept
as the plain 4-vector (x, y, x', y').
"""

from typing import NamedTuple

import numpy as np

from ._checks import _reals
from .exceptions import InvalidInputError


class PointCorrespondence(NamedTuple):
    """Image coordinates of one tracked feature in two views."""

    x: float
    y: float
    xp: float
    yp: float


def _coords(pcs, one=False):
    """pcs as a float (n, 4) array of finite coordinates with n >= 1 (a
    single 4-vector is one row), or InvalidInputError; with one, pcs must
    be that single 4-vector."""
    given = _reals(pcs, "correspondence coordinates")
    if one and given.ndim != 1:
        raise InvalidInputError("a correspondence must be one vector of 4 coordinates")
    coords = given[None, :] if given.ndim == 1 else given
    if coords.ndim != 2 or coords.shape[1] != 4 or not coords.size:
        raise InvalidInputError(
            "expected correspondences of shape (n, 4), n >= 1, got %s" % (given.shape,)
        )
    return coords


def embed_nonlinear(pc):
    """Quadratic (Kronecker) embedding of one correspondence into R^9.

    Returns the vector (xx', x'y, x', xy', yy', y', x, y, 1). The last
    coordinate is fixed at exactly 1 (standard homogeneous coordinates,
    no rescaling).
    """
    return embed_dataset(_coords(pc, one=True))[:, 0]


def embed_linear(pc):
    """The plain 4-dimensional embedding (x, y, x', y')."""
    return _coords(pc, one=True)[0].copy()


def normalize_views(coords):
    """Affinely map each view's coordinates into [-1, 1].

    Each view is translated so its centroid sits at the origin and then
    shrunk by a single isotropic scale (the largest absolute deviation
    over both coordinates of that view).

    Parameters
    ----------
    coords : array-like, shape (n, 4)
        Rows are (x, y, x', y').

    Returns
    -------
    normalized : ndarray, shape (n, 4)
    """
    out = _coords(coords).copy()
    for view in (slice(0, 2), slice(2, 4)):
        block = out[:, view]
        block -= block.mean(axis=0)
        scale = np.abs(block).max()
        if scale > 0:
            block /= scale
    return out


def embed_dataset(pcs, mode="nonlinear", normalize=False):
    """Embed a batch of correspondences into a D x N data matrix.

    Parameters
    ----------
    pcs : sequence of PointCorrespondence or array-like, shape (n, 4)
    mode : {'nonlinear', 'linear'}
        'nonlinear' produces 9-dimensional quadratic coordinates,
        'linear' the raw 4-vectors.
    normalize : bool
        Map each view's coordinates into [-1, 1] before embedding.
        Off by default: raw coordinates are the faithful choice, the
        flag exists because large pixel magnitudes make the constant-1
        coordinate negligible.

    Returns
    -------
    data : ndarray, shape (D, n) with D = 9 or 4
        Column j is the embedding of pcs[j].
    """
    coords = _coords(pcs)
    if mode not in ("nonlinear", "linear"):
        raise InvalidInputError("unknown embedding mode %r" % (mode,))
    if normalize:
        coords = normalize_views(coords)
    if mode == "linear":
        return coords.T.copy()
    x, y, xp, yp = coords.T
    ones = np.ones_like(x)
    return np.stack([x * xp, xp * y, xp, x * yp, y * yp, yp, x, y, ones])
