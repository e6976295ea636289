"""Global dimension minimization by projected gradient descent.

One restart runs four stages: a greedy merge initialization (from the
all-singletons partition, repeatedly merge the sampled pair of sets
whose union yields the lowest global dimension), projected gradient
descent on the soft membership matrix, thresholding back to a hard
partition, and a greedy point-reassignment cleanup. Several restarts
are run and the partition with the lowest hard global dimension wins.

All restarts of one call merge in one lockstep wave (_merge_init),
descend in a second (_descend_loop) and, after thresholding, refine in
a third (_refine_wave), whose sweeps after the first stop at the
previous sweep's last move until they make one; gdm then scores each
in restart order from the per-cluster dimensions its refine kept, and
keeps the first with the lowest score. The waves batch, cache and
screen work across restarts, but each restart gets the labels it gets
alone. Both screens bound dimensions with one kernel
(_dim_lower_bounds), one Gram error term (_GRAM_ERROR_FACTOR) and one
rounding slack (_SCREEN_SLACK). The docstrings of _merge_init,
_descend_loop, _refine_wave and genetic_refine give the caches, screens
and batching of each stage.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import _count, _finite_power, _labels, _real, _reals, _validate_data
from .dimension import _check_eps, _degenerate, _dims
from .exceptions import InvalidInputError, InvalidParameterError
from .objective import (
    ObjectiveParams,
    _dim_of_columns,
    _validate_soft,
    _validate_weights,
    hard_cluster_dims,
    pnorm,
    value_and_gradient,
)


@dataclass(frozen=True)
class GdmConfig:
    """All tunables of the segmentation pipeline.

    Defaults follow the values the method was designed around:
    eps = 0.35, p = 15, 10 restarts, 30 gradient iterations, 10
    reassignment passes, target step length 0.3, and at most 100
    candidate pairs per merge round.
    """

    n_clusters: int
    eps: float = 0.35
    p: float = 15.0
    restarts: int = 10
    grad_iters: int = 30
    genetic_passes: int = 10
    step_target: float = 0.3
    merge_candidates: int = 100
    seed: int | None = None

    def __post_init__(self):
        for name, low in (("n_clusters", 1), ("restarts", 1), ("grad_iters", 0),
                          ("genetic_passes", 0), ("merge_candidates", 1)):
            _count(getattr(self, name), name, low)
        if self.seed is not None:
            _count(self.seed, "seed", 0)
        for name, high in (("step_target", np.inf), ("eps", 1.0), ("p", np.inf)):
            _real(getattr(self, name), name, 0.0, high, "()")

    def objective_params(self, alpha=0.01):
        return ObjectiveParams(eps=self.eps, p=self.p, alpha=alpha)


@dataclass
class SegmentationResult:
    """Outcome of a segmentation run.

    labels holds one cluster id per point (-1 marks a rejected point),
    and the rejected points' indices are derived from it: outliers is
    np.flatnonzero(labels < 0), a read-only property, not a field (the
    constructor, replace and asdict neither take nor list it). gd_value
    is the hard global dimension of labels (rejects left out), the
    p-norm of per_cluster_dims. membership is the K x N soft
    membership of the winning restart's descent (for known_fraction the
    survivor run's, zero on rejects; for model_reassign the 0/1
    indicator of labels); gdm_naive returns the (K+1) x N augmented one,
    row 0 the outlier row. restarts_run is cfg.restarts. trace holds the
    winning restart's descent objective values and restart_gd_values
    every restart's hard global dimension in restart order; for
    known_fraction and model_reassign both are the survivor run's, and
    for gdm_naive both are empty.
    """

    labels: np.ndarray
    gd_value: float
    per_cluster_dims: np.ndarray
    membership: np.ndarray
    restarts_run: int
    trace: np.ndarray
    restart_gd_values: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def outliers(self):
        return np.flatnonzero(self.labels < 0)


def project_simplex(v):
    """Euclidean projection of a vector onto the probability simplex.

    Returns the closest point of {w : w >= 0, sum(w) = 1}. Idempotent.
    """
    v = _reals(v, "vector entries")
    if v.ndim != 1 or v.size == 0:
        raise InvalidInputError("expected a nonempty vector")
    return project_columns(v[:, None])[:, 0]


def project_columns(m):
    """Project every column of a K x N matrix, or of each matrix in a
    stack of them (..., K, N), onto the simplex. The matrices must be
    nonempty and finite."""
    m = _reals(m, "matrix entries")
    if m.ndim < 2 or m.size == 0:
        raise InvalidInputError("expected a nonempty K x N matrix or a stack of them")
    k = m.shape[-2]
    u = -np.sort(-m, axis=-2)
    css = np.cumsum(u, axis=-2)
    counts = np.arange(1, k + 1)[:, None]
    cond = u + (1.0 - css) / counts > 0.0
    # cond[..., 0, :] is always true, so each column has a last true row.
    rho = k - 1 - np.argmax(cond[..., ::-1, :], axis=-2)
    top = np.take_along_axis(css, rho[..., None, :], axis=-2)[..., 0, :]
    lam = (1.0 - top) / (rho + 1.0)
    return np.maximum(m + lam[..., None, :], 0.0)


def indicator_membership(labels, n_clusters):
    """0/1 membership matrix of a hard labeling, labels whole numbers in
    [0, n_clusters)."""
    n_clusters = _count(n_clusters, "n_clusters", 0)
    labels = _labels(labels, n_clusters=n_clusters)
    m = np.zeros((n_clusters, labels.size))
    m[labels, np.arange(labels.size)] = 1.0
    return m


def _decode_pairs(codes, m, tri):
    """Map flat pair codes to index pairs (i, j), i < j, among m items.

    Codes run row-major over (0, 1), (0, 2), ..., (m-2, m-1). Counted
    from the last code, row i = m-1-u holds codes u(u-1)/2 to u(u+1)/2 - 1,
    with j falling from m-1, so one search in tri (tri[u] = u(u-1)/2 for
    u = 0, 1, ..., at least m entries) finds every row.
    """
    back = (m * (m - 1) // 2 - 1) - codes
    u = np.searchsorted(tri, back, side="right") - 1
    return (m - 1) - u, (m - 1 - back) + tri[u]


def _pair_bases(n):
    """b with b[i] + j the number of the pair (i, j), i < j, among n items,
    numbered row-major as pair codes are: rows k >= i hold (n-i)(n-i-1)/2
    of the n(n-1)/2 pairs, and row i's first pair is (i, i + 1)."""
    i = np.arange(n)
    return n * (n - 1) // 2 - (n - i) * (n - i - 1) // 2 - i - 1


def _point_grams(a):
    """Outer products v v^T of the columns of a, shape (N, D, D).

    The columns are first scaled by 2^-exp, the power of two that puts
    max|a| in [0.5, 1), so sums of these Grams cannot overflow. Returns
    (grams, exp). Empirical dimension is scale-invariant and a power of
    two changes no rounding (barring underflow), so spectra are those of
    the unscaled data times 4^-exp.
    """
    _, exp = np.frexp(np.max(np.abs(a)))
    cols = np.ldexp(a, -exp).T
    return cols[:, :, None] * cols[:, None, :], int(exp)


# Error bound of a Gram eigenvalue against the SVD path's squared
# singular value. Let A be a candidate cluster's rescaled D x n block
# and Ghat its computed Gram: a sum of m rounded point outer products
# fl(v v^T), one per member (refine subtracts or adds one more, the
# moving point's), and let mass = sum ||v||^2 over those terms, so
# ||A||_2^2 <= mass.
# - Recursive summation: |Ghat - A A^T| <= gamma_m sum |v||v|^T
#   entrywise, gamma_m = m u / (1 - m u), so ||Ghat - A A^T||_2 <=
#   gamma_m * mass.
# - eigvalsh is backward stable: its eigenvalues are exact for Ghat + F,
#   ||F||_2 <= p(D) u ||Ghat||_2.
# - The SVD path's singular values s are exact for A + dA, ||dA||_2 <=
#   p(D, n) u ||A||_2, so |s_i^2 - sigma_i^2| <= (2 p(D, n) u + O(u^2)) mass.
# By Weyl's theorem each perturbation moves every eigenvalue by at most
# its 2-norm, so each computed eigenvalue lam lies within
#     E = c * ((m + D) * u * mass + m * tiny)
# of the matching s^2. (m + D) covers gamma_m and LAPACK's modestly
# growing p(D) and p(D, n), taken as at most n + D with n <= m; c = 8
# absorbs their constant factors and the O(u^2) terms; m * tiny covers
# products and rescaled entries that underflow. Hence
# sqrt(max(lam - E, 0)) <= s <= sqrt(lam + E).
# Each screen reads mass off what it decomposes: the traces of its
# computed Grams (refine adds the moving point's to its cluster's), or
# the squared Frobenius norm of the union's block (the merge). Either is
# a rounding of sum ||v||^2, within a relative (m + D) u of it, which
# c = 8 absorbs too.
_GRAM_ERROR_FACTOR = 8.0
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
_TINY = np.finfo(float).tiny


def _dim_lower_bounds(evals, err, exp, eps):
    """Lower bounds on the empirical dimension of matrices whose squared
    singular values lie within err of the Gram eigenvalues evals (shape
    (..., D)); the data were scaled by 2^-exp. The refine screen bounds
    SVD-path dimensions with it, the merge screen merged ones.

    Each bound is dimension._dims of the low singular values with the
    high ones as its upper spectrum: the numerator norm takes the low
    values and the denominator every high one, both divided by the
    largest high one. _dims zeroes low values below its relative
    tolerance, so the numerator keeps only values the bounded path keeps
    too, and gives 0 where every high value is zero. A matrix whose top
    singular value may lie under dimension._degenerate's floor, once
    scaled back by 2^exp, gets 0.
    """
    lo = np.sqrt(np.maximum(evals - err[..., None], 0.0))
    hi = np.sqrt(np.maximum(evals + err[..., None], 0.0))
    dims = _dims(lo, eps, upper=hi)
    dims[_degenerate(np.ldexp(lo.max(axis=-1), exp))] = 0.0
    return dims


# Both screens compare a value built from _dim_lower_bounds with one built
# from computed dimensions, and allow for their rounding with one relative
# slack. A computed dimension or bound is within
#     rho = (D + 4) u (1/eps + 1/delta) + 9 u
# of the exact ratio of its power norms (pow within 4 ulps, at most D + 1
# terms summed, roots 1/eps and 1/delta taken). Refine compares p-norms
# of such values, so gd_lo >= gd * (1 + _SCREEN_SLACK) needs a slack
# above about 2 rho + (K + 4) u. The merge compares p-th powers: the
# ratio of a bound to its dimension, at most 1 + 2 rho, is raised to p
# and each pow rounds within 4 ulps, so bound**p * (1 - _SCREEN_SLACK)
# <= dim**p needs a slack above about 2 p rho + 9 u; taken outside the
# power, the slack covers pow's own rounding however small p is. At
# D = 9, 1e-9 covers every p up to 322.7, the largest _check_merge
# accepts, for eps >= 0.002, and p = 15 for eps >= 1e-4; _check_eps
# rejects eps below 0.0031 there anyway. The row-stacked refine screen
# takes the p-norm of each row's current dimensions as an array power,
# whose last bits can differ from a lone scalar power's: a few more
# ulps, which the slack covers.
_SCREEN_SLACK = 1e-9

# The merge screen (_merge_init) bounds the merged dimension of a union of
# m <= min(_SCREEN_POINTS, D) points from below with _dim_lower_bounds.
# With V the union's rescaled D x m block and mass its computed squared
# Frobenius norm, the eigenvalues of its m x m Gram fl(V^T V), stored
# with D - m zeros, stand for those of V V^T. Both they and the merge's
# own lam carry the error above (the small Gram's entries sum D
# products), so the margin is doubled: 2 c (m + D) (u mass + tiny).
# Point pairs take this path too, the first time a round samples them.
_SCREEN_POINTS = 4


def greedy_merge_init(a, cfg, rng=None):
    """Agglomerative initialization: merge down to n_clusters sets.

    Starting from the all-singletons partition, each round samples up
    to cfg.merge_candidates distinct pairs of current sets (all pairs
    when fewer exist), scores the global dimension of each hypothetical
    merge, and commits the best one. Spectra of merged sets come from
    D x D Gram matrices, which add under merging. A union of at most
    four points is first bounded from below through its small Gram;
    when the bound shows it cannot beat the round's best exact score its
    D x D Gram is not decomposed, which changes no merge.

    Returns a label vector. If N <= n_clusters each point keeps its own
    singleton label and no merging happens. This is _merge_init with a
    single restart; gdm and gdm_outlier_core merge all their restarts in
    one lockstep wave through the same function, which gives every
    restart these labels.
    """
    a = _validate_data(a)
    _check_merge(a.shape[0], cfg)
    n = a.shape[1]
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if n <= cfg.n_clusters:
        return np.arange(n)
    return _merge_init(a, cfg, [rng])[0]


def _check_merge(d, cfg):
    """Raise unless cfg suits a merge of d-dimensional data: its eps must
    pass _check_eps, and its p must keep a merge score, dim**p - dp[sa]
    - dp[sb] with every dimension at most D, finite. That needs
    2 * D**p < inf, since inf - inf is NaN and argmin would commit the
    first NaN pair."""
    if not _finite_power(d, cfg.p, scale=2.0):
        # Rounded down to 0.01, with room for the logarithms' rounding.
        bound = math.log(np.finfo(float).max / 2.0) / math.log(d)
        largest = math.floor(bound * 100.0 - 1e-6) / 100.0
        raise InvalidParameterError(
            "p = %g overflows the merge scores of %d-dimensional data; "
            "the largest p allowed is %.2f" % (cfg.p, d, largest)
        )
    _check_eps(cfg.eps, d)


def _check_p(k, p):
    """Raise unless p keeps the p-norm of k cluster dimensions and its
    gradient finite. For p < 1 the norm's chain factor, (d_k / GD)**(p -
    1) = (sum_j (d_j / d_k)**p)**((1 - p) / p), grows as k**(1/p) (all k
    dimensions equal), and every nonzero dimension lies in [1, D], so it
    is at most D k**(1/p). Descent squares the gradient for its column
    norms, so k**(1/p) may take at most 2**256, the fourth root of the
    float range, which leaves the rest for the gradient's other factors
    and sums: p >= log2(k) / 256."""
    bound = math.log2(k) / 256.0
    if p < bound:
        # Rounded up to 1e-6.
        raise InvalidParameterError(
            "p = %g may overflow the gradient of the p-norm of %d cluster dimensions; "
            "the smallest p allowed is %.6f" % (p, k, math.ceil(bound * 1e6) / 1e6)
        )


def _merged_dims(grams, tril, x, y, eps, piece):
    """Merged dimensions of packed Gram rows x and y, from batched eigvalsh
    calls on at most piece of their sums each; a batched eigvalsh gives
    each matrix the same bits whatever else is in its batch.

    A packed row holds the lower triangle of a symmetric D x D Gram at
    tril = np.tril_indices(D). Each sum is scattered into the lower
    triangle of a D x D matrix whose upper triangle is zero: eigvalsh
    reads only the lower one, so it gives the full sum's bits.

    Each stack of spectra becomes dimensions through dimension._dims,
    which gives an all-zero spectrum 0. That exact-zero test is the
    merge's only degenerate rule: its Grams are of rescaled data, so a
    zero test is scale-invariant where the absolute floor of
    dimension._degenerate would not be.

    A union of m < D points reads above the SVD path's dimension: its
    D x D Gram has rank at most m, and eigvalsh leaves the zero part of
    its spectrum as a tail sigma ~ 1e-8 sigma_max, which survives
    dimension.RELATIVE_ZERO_TOL. On sample_two_view_scene(2, [60, 60],
    noise_sigma=0.001, seed=3), 200 random unions per size read a mean
    0.009 above it for m = 2-4, 0.007 at m = 6 and 0.003 at m = 8, at
    most 0.019, and agree within 1e-8 from m = 9. The m x m Gram of the
    same union agrees with the SVD path within 1e-9, but a prototype
    that scored unions from it moved labels and did not lower CPU. The
    excess is deterministic, so it moves no result between runs."""
    d = tril[0][-1] + 1
    dims = np.empty(x.size)
    batch = np.zeros((min(piece, x.size), d, d))
    for first in range(0, x.size, piece):
        sums = grams[x[first : first + piece]]
        sums += grams[y[first : first + piece]]
        # Even a single pair is a (1, D) stack: a 1-d spectrum would take
        # scalar roots, whose last bit can differ from a stack's.
        mats = batch[: sums.shape[0]]
        mats[:, tril[0], tril[1]] = sums
        spectra = np.sqrt(np.clip(np.linalg.eigvalsh(mats), 0.0, None))
        dims[first : first + piece] = _dims(spectra, eps)
    return dims


def _merge_init(a, cfg, rngs):
    """Merge one restart per generator in rngs, all in one lockstep
    wave, on validated data with N > n_clusters; returns one label
    vector per generator.

    Every restart goes from N sets to n_clusters, one merge per round,
    so each round draws every restart's candidates from its own
    generator (the same rng.choice call as a lone restart), scores them
    as one (R, C) array with one eigvalsh over every restart's cache
    misses, and commits each restart's own argmin. A restart keeps each
    set in the slot of its first point. Restart i's slot s is entry
    i * N + s of the per-slot arrays. The partition is held in count,
    the per-slot point count of each set (0 once the set is absorbed, so
    a slot is live while its count is not), and in the (R, N) array
    part, part[i, j] the slot of point j's set. Each round decodes a
    restart's codes against its live slots in ascending order, so
    candidates have sa < sb, and the final labels number each restart's
    n_clusters live slots in that order.

    Set Grams are pooled, each packed as the D(D+1)/2 entries of its
    lower triangle (tril = np.tril_indices(D)), the only ones eigvalsh
    reads. A singleton slot reads its point's Gram, row s of grams. The
    union of two singletons takes the next of its restart's N // 2 pool
    rows (there are at most N // 2 such merges), and every later merge
    adds into a pool row that the pair already holds. Addition commutes,
    so each set's Gram has the bits of a running sum kept per slot.

    Merged dimensions are cached by pair of sets in one array, value,
    with a mask, exact: an exact entry holds the merged dimension, any
    other a screen bound on it, or NaN where nothing is known. The
    merged dimension of point pairs {i}, {j}, i < j, is a pure function
    of the data, shared by every restart, at _pair_bases(N)[i] + j: the
    row-major order that _decode_pairs inverts for pair codes, P =
    N(N-1)/2 entries. Other pairs are not cached while more than
    C + 1 sets remain (C = cfg.merge_candidates). Unions do recur there
    (on two-view scenes of N = 240 and 400, 19 % of those rounds' 9 x 9
    decompositions repeat a union its restart decomposed before), but a
    cache of every pair of sets would take R N(N-1)/2 entries, 7.2 MB at
    N = 400 and R = 10. At the round with L = min(N, C + 1) live sets,
    each restart numbers its live slots 0..L-1 in ascending order; these
    compact indices are fixed from then on. From that round each restart
    caches its other pairs in its own packed triangle of L(L-1)/2
    entries, numbered as pair codes are, restart i's at P + i L(L-1)/2.
    When slot x absorbs another set, the pairs of x in its restart's
    triangle are invalidated. For N <= C + 1 the triangles cache from
    the first round. A cached value is the one a fresh eigendecomposition
    would return (a slot's Gram is a sum of the same point Grams, and a
    batched eigvalsh gives each matrix the same bits whatever else is in
    its batch), so every restart samples, scores and merges exactly as
    it would alone with no cache. A cached pair costs 9 bytes, and each
    restart adds at most N/2 packed pool Grams and one triangle to the
    call's memory: O(N D(D+1)/4 + C^2).

    Most misses are unions of a few points that lose their round, so a
    screen spares their D x D eigendecompositions. While a slot's set has
    at most _SCREEN_POINTS points, the slot keeps its members. A miss
    whose union has m <= min(_SCREEN_POINTS, D) points gets a rigorous
    lower bound on its merged dimension: the refine screen's
    _dim_lower_bounds on the eigenvalues of the union's m x m Gram,
    stored after D - m zeros, with the mass of its error term read off
    the union's block, computed when a round first samples the union (a
    point pair's bound goes to its shared entry, so every restart reuses
    it); hence a lower bound, lower = bound**p * (1 - _SCREEN_SLACK) -
    dp[sa] - dp[sb], on its score as computed (+inf for every other
    candidate). Each round scores in two passes: the first scores
    exactly each restart's other misses and its candidate of lowest
    bound, the second every candidate whose bound does not exceed its
    restart's best exact score.
    The rest score +inf: their exact scores would exceed the minimum, so
    argmin and its tie rule pick the same pair and every cached dimension
    is still a fresh eigendecomposition's. A bound stays in value until
    its union is decomposed; an exact dimension is a bound too.
    """
    d, n = a.shape
    r = len(rngs)
    n_pairs = n * (n - 1) // 2
    # Live sets at the round where the restarts' triangles start; none
    # are needed if the merge stops before it.
    late = min(n, cfg.merge_candidates + 1)
    n_late = late * (late - 1) // 2 if late > cfg.n_clusters else 0
    rows = np.arange(r)
    base = rows[:, None] * n
    late_block = n_pairs + rows * n_late
    compact = np.zeros(r * n, dtype=np.int64)
    caching = False
    tri = np.arange(n) * (np.arange(n) - 1) // 2
    pair_base = _pair_bases(n)
    late_base = _pair_bases(late)
    others = np.arange(late - 1)
    tril = np.tril_indices(d)
    grams = np.empty((n + r * (n // 2), tril[0].size))
    points, exp = _point_grams(a)
    grams[:n] = points[:, tril[0], tril[1]]
    # Index N is a zero point that pads a union's members.
    cols = np.zeros((n + 1, d))
    cols[:n] = np.ldexp(a, -exp).T
    del points
    # The point pairs, restart i's triangle at n_pairs + i * n_late, and
    # one last entry that every uncached pair reads, reset every round.
    value = np.full(n_pairs + r * n_late + 1, np.nan)
    exact = np.zeros(value.size, dtype=bool)
    uncached = value.size - 1
    limit = min(_SCREEN_POINTS, d)
    gram_row = np.tile(np.arange(n), r)
    # Restart i's next free pool row.
    pool = n + rows * (n // 2)
    count = np.ones(r * n, dtype=np.int64)
    members = np.full((r * n, limit), n)
    members[:, 0] = np.tile(np.arange(n), r)
    # A singleton has dimension 1 unless the point is exactly zero.
    dp = np.tile(np.any(a != 0.0, axis=0).astype(float) ** cfg.p, r)
    part = np.tile(np.arange(n), (r, 1))
    for m_sets in range(n, cfg.n_clusters, -1):
        live = np.nonzero(count.reshape(r, n))[1].reshape(r, m_sets)
        if m_sets == late:
            late_slots = live + base
            compact[late_slots] = np.arange(late)
            caching = True
        total_pairs = m_sets * (m_sets - 1) // 2
        n_cand = min(cfg.merge_candidates, total_pairs)
        codes = np.array([rng.choice(total_pairs, size=n_cand, replace=False)
                          for rng in rngs])
        ia, ib = _decode_pairs(codes, m_sets, tri)
        sa, sb = live[rows[:, None], ia], live[rows[:, None], ib]
        ga, gb = sa + base, sb + base
        size = count[ga] + count[gb]
        own = uncached
        if caching:
            own = late_block[:, None] + late_base[compact[ga]] + compact[gb]
        at = np.where(size == 2, pair_base[sa] + sb, own)
        held, known = value[at], exact[at]
        merged_dims = np.where(known, held, np.nan)
        small = ~known & (size <= limit)
        da, db = dp[ga], dp[gb]
        ra, rb = gram_row[ga].ravel(), gram_row[gb].ravel()
        fresh = np.flatnonzero(np.isnan(held) & small)
        if fresh.size:
            # The padding index N sorts last, after the union's points.
            union = np.sort(np.concatenate([members[ga.ravel()[fresh]],
                                            members[gb.ravel()[fresh]]], axis=1),
                            axis=1)[:, :limit]
            v = cols[union]
            err = (2.0 * _GRAM_ERROR_FACTOR * (size.ravel()[fresh] + d)) * (
                _UNIT_ROUNDOFF * np.einsum("fij,fij->f", v, v) + _TINY)
            evals = np.zeros((fresh.size, d))
            evals[:, d - limit :] = np.linalg.eigvalsh(v @ v.transpose(0, 2, 1))
            held.ravel()[fresh] = value[at.ravel()[fresh]] = _dim_lower_bounds(
                evals, err, exp, cfg.eps)
        lower = np.where(small, held**cfg.p * (1.0 - _SCREEN_SLACK) - da - db, np.inf)
        # Pass one scores every other miss and each restart's lowest
        # bound, so every restart has a best exact score to clear; pass
        # two scores every candidate whose bound does not clear it. The
        # rest cannot win.
        todo = ~(known | small)
        first = lower.argmin(axis=1)
        todo[rows, first] |= small[rows, first]
        for _ in range(2):
            pos = np.flatnonzero(todo)
            if pos.size:
                merged_dims.ravel()[pos] = value[at.ravel()[pos]] = _merged_dims(
                    grams, tril, ra[pos], rb[pos], cfg.eps, n)
                exact[at.ravel()[pos]] = True
            scores = merged_dims**cfg.p - da - db
            todo = np.isnan(scores) & ~(lower > np.fmin.reduce(scores, axis=1)[:, None])
        scores[np.isnan(scores)] = np.inf
        value[uncached], exact[uncached] = np.nan, False
        pick = scores.argmin(axis=1) + rows * n_cand
        x, y = ga.ravel()[pick], gb.ravel()[pick]
        rx, ry = ra[pick], rb[pick]
        cx, cy = count[x], count[y]
        # The union's Gram goes to the pool row that x or y holds, or for
        # two singletons to their restart's next free one.
        to = np.where(cx > 1, rx, np.where(cy > 1, ry, pool))
        grams[to] = grams[rx] + grams[ry]
        gram_row[x] = to
        pool += cx + cy == 2
        # Members of a set beyond limit points are never read again.
        members[x] = np.sort(np.concatenate([members[x], members[y]], axis=1),
                             axis=1)[:, :limit]
        count[x], count[y] = cx + cy, 0
        np.copyto(part, x[:, None] - base, where=part == y[:, None] - base)
        if caching:
            # Row i of other lists every compact index but that of
            # restart i's kept slot.
            kept = compact[x][:, None]
            other = others + (others >= kept)
            lo, hi = np.minimum(kept, other), np.maximum(kept, other)
            stale = late_block[:, None] + late_base[lo] + hi
            value[stale], exact[stale] = np.nan, False
        for slot, dim in zip(x.tolist(), merged_dims.ravel()[pick].tolist()):
            # A scalar power (libm pow), as a lone restart computes it.
            dp[slot] = dim**cfg.p
    live = np.nonzero(count.reshape(r, n))[1].reshape(r, cfg.n_clusters)
    return [np.searchsorted(slots, labels) for slots, labels in zip(live, part)]


def _descend_loop(a, m0, cfg, params, outlier):
    """Projected gradient descent of a stack of start memberships m0,
    shape (R, rows, N), all in one lockstep wave; returns (memberships,
    one objective trace per membership).

    Each iteration evaluates every moving membership with one kernel
    call. A membership whose step scale rho is 0 stops there, and one
    last kernel call gives every membership's final value, so a wave of
    any size makes at most cfg.grad_iters + 1 SVD calls. Every step is
    elementwise or per membership, so each membership and trace has the
    bits of descending it alone.
    """
    m = np.array(m0, dtype=float)
    r, _, n = m.shape
    n_top = -(-n // 10)
    traces = [[] for _ in range(r)]
    moving = np.arange(r)
    for _ in range(cfg.grad_iters):
        step = m if moving.size == r else m[moving]
        values, grad = value_and_gradient(a, step, params, outlier, "zero", True)
        for i, value in zip(moving.tolist(), values.tolist()):
            traces[i].append(value)
        col_norms = np.linalg.norm(grad, axis=1)
        rho = np.partition(col_norms, n - n_top, axis=1)[:, n - n_top :].mean(axis=1)
        go = rho != 0.0
        if not go.all():
            moving, step, grad, rho = moving[go], step[go], grad[go], rho[go]
            if not moving.size:
                break
        m[moving] = project_columns(step - (cfg.step_target / rho)[:, None, None] * grad)
    values, _ = value_and_gradient(a, m, params, outlier, "zero", False)
    for trace, value in zip(traces, values.tolist()):
        trace.append(value)
    return m, [np.array(trace) for trace in traces]


def descend(a, m0, cfg):
    """Run cfg.grad_iters projected gradient iterations on the soft
    global dimension, starting from membership m0.

    Each iteration computes the gradient, scales the step so the
    mean norm of the ceil(N/10) largest gradient columns moves a
    membership vector a distance of cfg.step_target, then projects
    every column back onto the simplex. A zero gradient stops early.
    This is one membership's part of the wave in which gdm descends all
    its restarts together, with the same bits. m0 must be a finite
    matrix with one column per data column.
    """
    a, m0 = _validate_soft(a, m0, False, cfg.eps, "zero")
    _check_p(m0.shape[0], cfg.p)
    return _descend_loop(a, m0[None], cfg, cfg.objective_params(), outlier=False)[0][0]


def threshold(m):
    """Hard labels from a membership matrix: argmax per column, ties to
    the lowest cluster index. m must be a finite 2-d matrix."""
    return np.argmax(_validate_weights(m), axis=0)


# Refinement screens the points of a scan in blocks that start at
# _FIRST_BLOCK points, after every accepted move and at every pass start,
# and double while no move is accepted.
_FIRST_BLOCK = 8


def _screen_moves(req, idx, labels, dims, grams, sizes, point_grams, exp, cfg):
    """For row i, point idx[i] of restart req[i], True when no single
    move of it can lower that restart's hard global dimension below
    pnorm(dims[req[i]]) by the SVD path.

    labels, dims, grams and sizes hold one row per restart; a cluster's
    Gram is the sum of its members' point Grams. Each row's point needs
    its cluster's Gram minus v v^T and every other cluster's Gram plus
    v v^T, whose error term takes as mass the trace of the cluster's Gram
    plus that of v v^T. Each candidate partition's GD is bounded
    from below with _dim_lower_bounds, the merge screen's bound kernel,
    in pieces of at most N Grams per batched eigvalsh, as _merged_dims
    decomposes; a point is cleared only when every bound reaches
    gd * (1 + _SCREEN_SLACK), which leaves room for the rounding of both
    p-norms.
    """
    b, k_total, d = idx.size, grams.shape[1], grams.shape[2]
    rows = np.arange(b)
    src = labels[req, idx]
    count = sizes[req] + 1.0
    total = np.einsum("rkii->rk", grams)[req] + np.einsum("nii->n", point_grams)[idx, None]
    err = _GRAM_ERROR_FACTOR * ((count + d) * _UNIT_ROUNDOFF * total + count * _TINY)
    dim_lo = np.empty((b, k_total))
    piece = max(1, labels.shape[1] // k_total)
    for first in range(0, b, piece):
        at = slice(first, first + piece)
        batch = grams[req[at]]
        batch += point_grams[idx[at], None]
        batch[rows[: batch.shape[0]], src[at]] = grams[req[at], src[at]] - point_grams[idx[at]]
        dim_lo[at] = _dim_lower_bounds(np.linalg.eigvalsh(batch), err[at], exp, cfg.eps)
    # cand[i, k] is row i's candidate partition when its point moves to k.
    cur = dims[req]
    cand = np.repeat(cur[:, None], k_total, axis=1)
    cand[rows, :, src] = dim_lo[rows, src][:, None]
    diag = np.arange(k_total)
    cand[:, diag, diag] = dim_lo
    gd_lo = pnorm(cand, cfg.p)
    gd_lo[rows, src] = np.inf
    return np.all(gd_lo >= pnorm(cur, cfg.p)[:, None] * (1.0 + _SCREEN_SLACK), axis=1)


def _refine_restart(a, labels, dims, grams, sizes, skip, point_grams, cfg):
    """Greedy passes of one restart, in place on its rows of the wave's
    labels, dims, grams, sizes and skip. Sizes and grams are rebuilt from
    the labels at the start and after each accepted move, rather than
    updated move by move.

    A generator: it yields the points it needs screened, in index order,
    and reads their screen results from skip when next resumes it. The
    first pass scans every point. A later pass scans only up to and
    including the point of the previous pass's last move, until it
    accepts a move of its own; then it scans on to N. Every point past
    that last move was found unable to move after it, and labels, dims
    and sizes, on which its decision depends, have not changed since, so
    it is not screened or tried again. A pass with no move ends refine.
    """
    k_total = cfg.n_clusters
    n = labels.size

    def build():
        sizes[:] = np.bincount(labels, minlength=k_total)
        grams[:] = np.tensordot(indicator_membership(labels, k_total), point_grams, axes=1)

    build()
    stop = n
    for _ in range(cfg.genetic_passes):
        # end bounds this pass's scan; stop becomes one past its last move.
        j, width, end, stop = 0, _FIRST_BLOCK, stop, 0
        while True:
            # A point alone in its cluster cannot move.
            block = j + np.flatnonzero(sizes[labels[j:end]] > 1)[:width]
            if not block.size:
                break
            yield block
            j, width = block[-1] + 1, 2 * width
            for i in block[~skip[block]].tolist():
                k0 = labels[i]
                # Relabelled in place, labels == k selects the columns of
                # each candidate cluster in index order.
                labels[i] = -1
                dim_src = _dim_of_columns(a[:, labels == k0], cfg.eps, "zero")
                best_gd, best_k, best_tgt = pnorm(dims, cfg.p), k0, 0.0
                for k in range(k_total):
                    if k == k0:
                        continue
                    labels[i] = k
                    dim_tgt = _dim_of_columns(a[:, labels == k], cfg.eps, "zero")
                    cand = dims.copy()
                    cand[[k0, k]] = dim_src, dim_tgt
                    gd_cand = pnorm(cand, cfg.p)
                    if gd_cand < best_gd:
                        best_gd, best_k, best_tgt = gd_cand, k, dim_tgt
                labels[i] = best_k
                if best_k == k0:
                    continue
                dims[[k0, best_k]] = dim_src, best_tgt
                build()
                j, width, end, stop = i + 1, _FIRST_BLOCK, n, i + 1
                break
        if not stop:
            break


def _refine_wave(a, starts, cfg):
    """Refine every start labeling of validated data a in one lockstep
    wave; returns one (labels, dims) pair per start: the refined labels,
    each the ones genetic_refine gives it alone, and their per-cluster
    dimensions. Those are SVD values, kept up to date move by move, with
    the bits of hard_cluster_dims(a, labels, K, eps, on_degenerate="zero").

    Starts with equal labels are refined once. Each restart runs its
    passes (_refine_restart) until it yields a block of points to screen;
    then one _screen_moves call, stacked by rows (restart, point), serves
    every such block, writes its results into the (R, N) array skip and
    resumes those restarts. A restart's blocks depend only on its
    accepted moves, so the wave makes as many screen calls as its
    busiest restart needs alone.
    """
    k_total = cfg.n_clusters
    d, n = a.shape
    labels, which = np.unique(np.array(starts, dtype=int), axis=0, return_inverse=True)
    r = labels.shape[0]
    dims = np.array([hard_cluster_dims(a, row, k_total, cfg.eps, on_degenerate="zero")
                     for row in labels])
    point_grams, exp = _point_grams(a)
    grams = np.empty((r, k_total, d, d))
    sizes = np.empty((r, k_total), dtype=int)
    skip = np.zeros((r, n), dtype=bool)
    restarts = [_refine_restart(a, labels[i], dims[i], grams[i], sizes[i], skip[i],
                                point_grams, cfg) for i in range(r)]
    blocks = [next(restart, None) for restart in restarts]
    while live := [i for i in range(r) if blocks[i] is not None]:
        req = np.repeat(live, [blocks[i].size for i in live])
        idx = np.concatenate([blocks[i] for i in live])
        skip[req, idx] = _screen_moves(req, idx, labels, dims, grams, sizes, point_grams,
                                       exp, cfg)
        for i in live:
            blocks[i] = next(restarts[i], None)
    return [(labels[u].copy(), dims[u].copy()) for u in which.ravel()]


def genetic_refine(a, labels, cfg):
    """Greedy single-point reassignment passes.

    Visits points in index order; for each point tries every other
    cluster (all other assignments fixed) and keeps the move only if it
    strictly lowers the hard global dimension. Moves that would empty a
    cluster are disallowed. Stops after cfg.genetic_passes sweeps or
    after the first sweep with no accepted move.

    Every decision is the one the per-candidate SVDs give, but most
    points never need them. A sweep after the first stops at the point
    of the previous sweep's last move unless it accepts a move itself:
    every point past that move was found unable to move after it, and
    nothing its decision depends on has changed. The points a sweep
    reaches are screened in blocks (_screen_moves) with rigorous lower
    bounds from per-cluster D x D Grams, the sums of the members' point
    Grams, rebuilt from the labels after each accepted move; only a
    point whose bounds do not rule out every move runs the
    per-candidate SVDs, so accepted moves and stored dimensions are SVD
    values. Blocks start at 8 points after each accepted move and at
    each pass start, and double while no move is accepted.

    This is a wave of one; gdm refines all its restarts in one lockstep
    wave (_refine_wave), which gives every restart these labels.
    """
    a = _validate_data(a)
    _check_eps(cfg.eps, a.shape[0])
    _check_p(cfg.n_clusters, cfg.p)
    labels = _labels(labels, a.shape[1], cfg.n_clusters)
    return _refine_wave(a, [labels], cfg)[0][0]


def _merged_restarts(a, cfg):
    """Every restart's merged labels of validated data a, in restart
    order.

    Restart i merges the points down to cfg.n_clusters sets, drawing
    from default_rng(seed_i), where seed_i is the i-th child of
    SeedSequence(cfg.seed).spawn(cfg.restarts). All restarts merge
    together in one lockstep wave (_merge_init), which changes no merged
    label.
    """
    d, n = a.shape
    _check_merge(d, cfg)
    _check_p(cfg.n_clusters, cfg.p)
    if n <= cfg.n_clusters:
        raise InvalidParameterError(
            "need more points than clusters (N=%d, K=%d)" % (n, cfg.n_clusters)
        )
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    return _merge_init(a, cfg, [np.random.default_rng(c) for c in children])


def gdm(a, cfg, threads=1):
    """Segment the columns of a into cfg.n_clusters clusters.

    Runs cfg.restarts restarts (merge initialization, gradient descent,
    thresholding, reassignment cleanup) and returns the result whose
    hard partition has the lowest global dimension, ties going to the
    earliest restart. All restarts merge in one lockstep wave
    (_merged_restarts) and descend in another, starting from the
    indicator memberships of their merged labels; their thresholded
    labels are refined in a third (_refine_wave), in which one screen
    call per step serves every restart and a sweep stops at the previous
    sweep's last move until it makes one. Each restart is then scored in
    restart order by the p-norm of the per-cluster dimensions its refine
    returns, and only the winner's result is built. Each restart's
    result is the one it gets alone.
    Fully deterministic given cfg.seed. threads is accepted for
    compatibility and has no effect: everything runs in one thread.
    """
    a = _validate_data(a)
    merged = _merged_restarts(a, cfg)
    m0 = np.array([indicator_membership(labels0, cfg.n_clusters) for labels0 in merged])
    ms, traces = _descend_loop(a, m0, cfg, cfg.objective_params(), outlier=False)
    refined = _refine_wave(a, [threshold(m) for m in ms], cfg)
    # One scalar p-norm per restart, the bits of a lone restart's score.
    values = np.array([pnorm(dims, cfg.p) for _, dims in refined])
    best = int(np.argmin(values))
    labels, dims = refined[best]
    return SegmentationResult(labels=labels, gd_value=float(values[best]), per_cluster_dims=dims,
                              membership=ms[best], restarts_run=cfg.restarts,
                              trace=traces[best], restart_gd_values=values)
