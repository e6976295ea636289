"""Global dimension minimization by projected gradient descent.

One restart runs four stages: a greedy merge initialization (from the
all-singletons partition, repeatedly merge the sampled pair of sets
whose union yields the lowest global dimension), projected gradient
descent on the soft membership matrix, thresholding back to a hard
partition, and a greedy point-reassignment cleanup. Several restarts
are run and the partition with the lowest hard global dimension wins.

The restarts of one call merge in lockstep waves: each round draws
every restart's candidate pairs from its own generator, scores them as
one array with one eigvalsh batch, and commits each restart's own best
merge; a wave holds as many restarts as fit in _WAVE_BYTES. Every merge
starts from the same N singletons, so the merged dimension of two
points is a function of the data alone, and one call computes each
such point-pair dimension at most once for all its restarts. The labels
are those of merging each restart alone and scoring every pair afresh.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dimension import DEGENERATE_SMAX, _power_norms
from .exceptions import InvalidInputError, InvalidParameterError
from .objective import (
    ObjectiveParams,
    _dim_of_columns,
    _validate_data,
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
        counts = ("n_clusters", "restarts", "grad_iters", "genetic_passes",
                  "merge_candidates")
        for name in counts:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidParameterError("%s must be an integer" % name)
        if self.n_clusters < 1:
            raise InvalidParameterError("n_clusters must be >= 1")
        if min(self.restarts, self.grad_iters, self.genetic_passes) < 0:
            raise InvalidParameterError("iteration counts must be >= 0")
        # The tests below are written so that NaN fails them too.
        if not 0.0 < self.step_target < np.inf:
            raise InvalidParameterError("step_target must be positive and finite")
        if not 0.0 < self.eps < 1.0:
            raise InvalidParameterError("eps must be in (0, 1)")
        if not 0.0 < self.p < np.inf:
            raise InvalidParameterError("p must be positive and finite")
        if self.merge_candidates < 1:
            raise InvalidParameterError("merge_candidates must be >= 1")
        if self.seed is not None and not (
            isinstance(self.seed, (int, np.integer)) and self.seed >= 0
        ):
            raise InvalidParameterError("seed must be None or an integer >= 0")

    def objective_params(self, alpha=0.01):
        return ObjectiveParams(eps=self.eps, p=self.p, alpha=alpha)


@dataclass
class SegmentationResult:
    """Outcome of a segmentation run.

    labels holds one cluster id per point (-1 marks a rejected point)
    and outliers the rejected points' indices, np.flatnonzero(labels < 0).
    gd_value is the hard global dimension of labels (rejects left out),
    the p-norm of per_cluster_dims. membership is the K x N soft
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
    outliers: np.ndarray
    gd_value: float
    per_cluster_dims: np.ndarray
    membership: np.ndarray
    restarts_run: int
    trace: np.ndarray
    restart_gd_values: np.ndarray = field(default_factory=lambda: np.empty(0))


def project_simplex(v):
    """Euclidean projection of a vector onto the probability simplex.

    Returns the closest point of {w : w >= 0, sum(w) = 1}. Idempotent.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InvalidInputError("expected a nonempty vector")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("entries must be finite")
    return project_columns(v[:, None])[:, 0]


def project_columns(m):
    """Project every column of a K x N matrix onto the simplex."""
    m = np.asarray(m, dtype=float)
    k, n = m.shape
    u = -np.sort(-m, axis=0)
    css = np.cumsum(u, axis=0)
    counts = np.arange(1, k + 1)[:, None]
    cond = u + (1.0 - css) / counts > 0.0
    # cond[0] is always true, so each column has a last true row.
    rho = k - 1 - np.argmax(cond[::-1], axis=0)
    lam = (1.0 - css[rho, np.arange(n)]) / (rho + 1.0)
    return np.maximum(m + lam[None, :], 0.0)


def indicator_membership(labels, n_clusters):
    """0/1 membership matrix of a hard labeling."""
    labels = np.asarray(labels, dtype=int)
    m = np.zeros((n_clusters, labels.size))
    m[labels, np.arange(labels.size)] = 1.0
    return m


def _decode_pairs(codes, m, tri, first):
    """Map flat pair codes to index pairs (i, j), i < j, among m items,
    each shifted by first.

    Codes run row-major over (0, 1), (0, 2), ..., (m-2, m-1). Counted
    from the last code, row i = m-1-u holds codes u(u-1)/2 to u(u+1)/2 - 1,
    with j falling from m-1, so one search in tri (tri[u] = u(u-1)/2 for
    u = 0, 1, ..., at least m entries) finds every row.
    """
    back = (m * (m - 1) // 2 - 1) - codes
    u = np.searchsorted(tri, back, side="right") - 1
    last = (m - 1) + first
    return last - u, (last - back) + tri[u]


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


def greedy_merge_init(a, cfg, rng=None):
    """Agglomerative initialization: merge down to n_clusters sets.

    Starting from the all-singletons partition, each round samples up
    to cfg.merge_candidates distinct pairs of current sets (all pairs
    when fewer exist), scores the global dimension of each hypothetical
    merge, and commits the best one. Spectra of merged sets come from
    D x D Gram matrices, which add under merging.

    Returns a label vector. If N <= n_clusters each point keeps its own
    singleton label and no merging happens. This is _merge_init on a
    wave of one restart with a fresh cache; gdm and gdm_outlier_core
    merge their restarts in waves through the same function, which gives
    every restart these labels.
    """
    a = _validate_data(a)
    _check_merge_power(a.shape[0], cfg.p)
    n = a.shape[1]
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if n <= cfg.n_clusters:
        return np.arange(n)
    return _merge_init(a, cfg, [rng], np.full(_merge_cache_size(n, 1), np.nan))[0]


# Bytes one merge wave may hold: _merge_bytes per restart. With D = 9 and
# 100 candidates, N = 400 merges one restart at a time, N = 240 three
# and N = 150 five in lockstep. Each restart in a wave adds its bytes to
# the peak memory of the call, so the budget trades rounds for memory.
_WAVE_BYTES = 1_750_000


def _check_merge_power(d, p):
    """Raise unless a merge score, dim**p - dp[sa] - dp[sb] with every
    dimension at most D, stays finite: it needs 2 * D**p < inf, since
    inf - inf is NaN and argmin would commit the first NaN pair."""
    try:
        finite = math.isfinite(2.0 * float(d) ** p)
    except OverflowError:
        finite = False
    if not finite:
        # Rounded down to 0.01, with room for the logarithms' rounding.
        bound = math.log(np.finfo(float).max / 2.0) / math.log(d)
        largest = math.floor(bound * 100.0 - 1e-6) / 100.0
        raise InvalidParameterError(
            "p = %g overflows the merge scores of %d-dimensional data; "
            "the largest p allowed is %.2f" % (p, d, largest)
        )


def _merge_bytes(n, d, candidates):
    """Bytes _merge_init holds per restart: N set Grams (D x D), a packed
    upper triangle of merged dimensions, and at most two D x D matrices
    per candidate for a round's eigvalsh batch."""
    return 8 * (n * d * d + n * (n - 1) // 2 + 2 * candidates * d * d)


def _merge_cache_size(n, restarts):
    """Length of _merge_init's cache for a wave of that many restarts:
    the shared point-pair block plus one block per restart."""
    return (restarts + 1) * (n * (n - 1) // 2)


def _merge_init(a, cfg, rngs, cache):
    """Merge a wave of restarts in lockstep on validated data with
    N > n_clusters; returns one label vector per generator in rngs.

    Every restart of the wave goes from N sets to n_clusters, one merge
    per round, so each round draws every restart's candidates from its
    own generator (the same rng.choice call as a lone restart), scores
    them as one (R, C) array with one eigvalsh over every restart's cache
    misses, and commits each restart's own argmin. A restart keeps each
    set in the slot of its first point. Restart i's slot s is entry
    i * N + s of the set Grams, and its live slots stay in ascending
    order in live[i * N : i * N + sets], so candidates have sa < sb.

    Merged dimensions are cached by pair of slots (i, j), i < j, at
    _pair_bases(N)[i] + j, the row-major order that _decode_pairs inverts
    for pair codes (P = N(N-1)/2 pairs). cache[:P] holds, NaN where
    unknown, the merged dimension of point pairs {i}, {j}: a pure
    function of the data, shared by every restart of one call. A pair
    with a slot that holds more than one point lives in its restart's
    own block of P entries after that, restart i's at (i + 1) * P
    (_merge_cache_size); this call clears those blocks. When slot x
    absorbs another set, the pairs (x, j), j != x, of its restart's block
    are invalidated. A cached value is the one a fresh eigendecomposition
    would return (a slot's Gram is a sum of the same point Grams, and a
    batched eigvalsh gives each matrix the same bits whatever else is in
    its batch), so every restart samples, scores and merges exactly as
    it would alone with no cache.
    """
    n = a.shape[1]
    r = len(rngs)
    n_pairs = n * (n - 1) // 2
    rows = np.arange(r)
    base = rows[:, None] * n
    # Where restart i's own block starts; a slot's offset is 0 while it
    # holds one point, so a pair of singletons indexes the shared block.
    block = (rows + 1) * n_pairs
    cache[n_pairs : _merge_cache_size(n, r)] = np.nan
    offset = np.zeros(r * n, dtype=np.int64)
    tri = np.arange(n) * (np.arange(n) - 1) // 2
    pair_base = _pair_bases(n)
    others = np.arange(n - 1)
    grams = np.tile(_point_grams(a)[0], (r, 1, 1))
    # A singleton has dimension 1 unless the point is exactly zero.
    dp = np.tile(np.any(a != 0.0, axis=0).astype(float) ** cfg.p, r)
    live = np.tile(np.arange(n), r)
    merges = []
    for m_sets in range(n, cfg.n_clusters, -1):
        total_pairs = m_sets * (m_sets - 1) // 2
        n_cand = min(cfg.merge_candidates, total_pairs)
        codes = np.array([rng.choice(total_pairs, size=n_cand, replace=False)
                          for rng in rngs])
        # Positions in live, so restart i's are shifted by i * N.
        ia, ib = _decode_pairs(codes, m_sets, tri, base)
        sa, sb = live[ia], live[ib]
        ga, gb = sa + base, sb + base
        at = pair_base[sa] + sb + np.maximum(offset[ga], offset[gb])
        merged_dims = cache[at]
        miss = np.flatnonzero(np.isnan(merged_dims))
        if miss.size:
            # Even a single miss is a (1, D) stack: a 1-d spectrum would
            # take scalar roots, whose last bit can differ from a stack's.
            batch = grams[ga.ravel()[miss]]
            batch += grams[gb.ravel()[miss]]
            evals = np.linalg.eigvalsh(batch)
            spectra = np.sqrt(np.clip(evals, 0.0, None))
            with np.errstate(divide="ignore", invalid="ignore"):
                num, den = _power_norms(spectra, cfg.eps)
                dims = num / den
            # eigvalsh sorts ascending: an all-zero spectrum has dimension 0.
            dims[spectra[:, -1] == 0.0] = 0.0
            merged_dims.ravel()[miss] = dims
            cache[at.ravel()[miss]] = dims
        scores = merged_dims**cfg.p - dp[ga] - dp[gb]
        pick = scores.argmin(axis=1) + rows * n_cand
        x, y = ga.ravel()[pick], gb.ravel()[pick]
        grams[x] += grams[y]
        offset[x] = block
        merges.append((x, y))
        # Row i of other lists every slot but restart i's kept slot.
        kept = sa.ravel()[pick][:, None]
        other = others + (others >= kept)
        lo, hi = np.minimum(kept, other), np.maximum(kept, other)
        cache[pair_base[lo] + hi + block[:, None]] = np.nan
        for i, slot, gone, dim in zip(rows.tolist(), x.tolist(), ib.ravel()[pick].tolist(),
                                      merged_dims.ravel()[pick].tolist()):
            # A scalar power (libm pow), as a lone restart computes it.
            dp[slot] = dim**cfg.p
            live[gone : i * n + m_sets - 1] = live[gone + 1 : i * n + m_sets]
    # Set y joined set x: replayed from the last merge back, every slot
    # takes the slot of its final set.
    owner = np.arange(r * n)
    for x, y in reversed(merges):
        owner[y] = owner[x]
    return [np.searchsorted(live[i * n : i * n + cfg.n_clusters] + i * n,
                            owner[i * n : (i + 1) * n]) for i in rows]


def _descend_loop(a, m0, cfg, params, outlier):
    """Projected gradient descent; returns (membership, objective trace)."""
    m = np.array(m0, dtype=float)
    n = m.shape[1]
    n_top = -(-n // 10)
    trace = []
    for _ in range(cfg.grad_iters):
        value, grad = value_and_gradient(a, m, params, outlier, "zero", True)
        trace.append(value)
        col_norms = np.linalg.norm(grad, axis=0)
        rho = float(np.partition(col_norms, n - n_top)[n - n_top :].mean())
        if rho == 0.0:
            break
        m = project_columns(m - (cfg.step_target / rho) * grad)
    value, _ = value_and_gradient(a, m, params, outlier, "zero", False)
    trace.append(value)
    return m, np.array(trace)


def descend(a, m0, cfg):
    """Run cfg.grad_iters projected gradient iterations on the soft
    global dimension, starting from membership m0.

    Each iteration computes the gradient, scales the step so the
    mean norm of the ceil(N/10) largest gradient columns moves a
    membership vector a distance of cfg.step_target, then projects
    every column back onto the simplex. A zero gradient stops early.
    """
    a = _validate_data(a)
    m0 = np.asarray(m0, dtype=float)
    m, _ = _descend_loop(a, m0, cfg, cfg.objective_params(), outlier=False)
    return m


def threshold(m):
    """Hard labels from a membership matrix: argmax per column, ties to
    the lowest cluster index."""
    m = np.asarray(m, dtype=float)
    return np.argmax(m, axis=0)


# Points whose candidate moves one batched eigvalsh screens in
# genetic_refine.
_SCREEN_BLOCK = 32

# Error bound of a Gram eigenvalue against the SVD path's squared
# singular value. Let A be a candidate cluster's rescaled D x n block
# and Ghat its computed Gram: a running sum of m rounded point outer
# products +-fl(v v^T) (every term added or subtracted since the last
# rebuild), with mass = sum ||v||^2 over those terms, so ||A||_2^2 <= mass.
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
_GRAM_ERROR_FACTOR = 8.0
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
_TINY = np.finfo(float).tiny


def _dim_lower_bounds(evals, err, exp, eps):
    """Lower bounds on the SVD-path empirical dimension of matrices whose
    squared singular values lie within err of the Gram eigenvalues evals
    (shape (..., D)); the data were scaled by 2^-exp.

    The numerator norm takes the low singular values and the denominator
    every high one, both divided by the largest high one. The spectrum
    kernel zeroes low values below its relative tolerance, so the
    numerator keeps only values the SVD path keeps too.
    A matrix whose top singular value may be at most DEGENERATE_SMAX, or
    whose bound is not finite, gets 0.
    """
    lo = np.sqrt(np.maximum(evals - err[..., None], 0.0))
    hi = np.sqrt(np.maximum(evals + err[..., None], 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        num, den = _power_norms(lo, eps, upper=hi)
        dims = num / den
    degenerate = np.ldexp(lo.max(axis=-1), exp) <= DEGENERATE_SMAX
    dims[degenerate | ~np.isfinite(dims)] = 0.0
    return dims


def _screen_moves(idx, labels, dims, grams, terms, mass, point_grams, sq_norms,
                  exp, cfg):
    """For each point of idx, True when no single move of it can lower
    the hard global dimension below pnorm(dims) by the SVD path.

    One batched eigvalsh covers, per point, its cluster's Gram minus
    v v^T and every other cluster's Gram plus v v^T. Each candidate
    partition's GD is bounded from below with _dim_lower_bounds; a point
    is cleared only when every bound reaches gd * (1 + 1e-9), which
    leaves room for the rounding of both p-norms.
    """
    b, k_total, d = idx.size, grams.shape[0], grams.shape[1]
    rows = np.arange(b)
    src = labels[idx]
    batch = grams[None] + point_grams[idx, None]
    batch[rows, src] = grams[src] - point_grams[idx]
    count = terms[None] + 1.0
    total = mass[None] + sq_norms[idx, None]
    err = _GRAM_ERROR_FACTOR * ((count + d) * _UNIT_ROUNDOFF * total + count * _TINY)
    dim_lo = _dim_lower_bounds(np.linalg.eigvalsh(batch), err, exp, cfg.eps)
    # cand[i, k] is point i's candidate partition when it moves to k.
    cand = np.broadcast_to(dims, (b, k_total, k_total)).copy()
    cand[rows, :, src] = dim_lo[rows, src][:, None]
    diag = np.arange(k_total)
    cand[:, diag, diag] = dim_lo
    gd_lo = pnorm(cand, cfg.p)
    gd_lo[rows, src] = np.inf
    return np.all(gd_lo >= pnorm(dims, cfg.p) * (1.0 + 1e-9), axis=1)


def genetic_refine(a, labels, cfg):
    """Greedy single-point reassignment passes.

    Visits points in index order; for each point tries every other
    cluster (all other assignments fixed) and keeps the move only if it
    strictly lowers the hard global dimension. Moves that would empty a
    cluster are disallowed. Stops after cfg.genetic_passes sweeps or
    after the first sweep with no accepted move.

    Every decision is the one the per-candidate SVDs give, but most
    points never need them. Per-cluster D x D Grams are rebuilt from the
    point Grams at the start of each pass and updated by -+v v^T on each
    accepted move. The next 32 points are screened with one batched
    eigvalsh (_screen_moves), and a point is skipped only when a
    rigorous lower bound on every candidate's global dimension shows
    that no move can win. Every other point runs the per-candidate SVDs,
    so accepted moves and stored dimensions are SVD values. After an
    accepted move the screen restarts at the next point.
    """
    a = _validate_data(a)
    labels = np.array(labels, dtype=int)
    k_total = cfg.n_clusters
    n = labels.size
    sizes = np.bincount(labels, minlength=k_total)
    dims = hard_cluster_dims(a, labels, k_total, cfg.eps, on_degenerate="zero")
    point_grams, exp = _point_grams(a)
    sq_norms = np.einsum("nii->n", point_grams)
    for _ in range(cfg.genetic_passes):
        changed = False
        grams = np.tensordot(indicator_membership(labels, k_total), point_grams, axes=1)
        terms = sizes.astype(float)
        mass = np.bincount(labels, weights=sq_norms, minlength=k_total)
        skip, first = np.zeros(0, dtype=bool), 0
        for j in range(n):
            k0 = labels[j]
            if sizes[k0] <= 1:
                continue
            if j - first >= skip.size:
                first = j
                skip = _screen_moves(
                    np.arange(j, min(j + _SCREEN_BLOCK, n)), labels, dims, grams,
                    terms, mass, point_grams, sq_norms, exp, cfg,
                )
            if skip[j - first]:
                continue
            gd_cur = pnorm(dims, cfg.p)
            mask_src = labels == k0
            mask_src[j] = False
            dim_src = _dim_of_columns(a[:, mask_src], cfg.eps, "zero")
            best_gd, best_k, best_tgt = gd_cur, -1, 0.0
            for k in range(k_total):
                if k == k0:
                    continue
                mask_tgt = labels == k
                mask_tgt[j] = True
                dim_tgt = _dim_of_columns(a[:, mask_tgt], cfg.eps, "zero")
                cand = dims.copy()
                cand[k0] = dim_src
                cand[k] = dim_tgt
                gd_cand = pnorm(cand, cfg.p)
                if gd_cand < best_gd:
                    best_gd, best_k, best_tgt = gd_cand, k, dim_tgt
            if best_k >= 0:
                labels[j] = best_k
                dims[k0] = dim_src
                dims[best_k] = best_tgt
                sizes[k0] -= 1
                sizes[best_k] += 1
                grams[k0] -= point_grams[j]
                grams[best_k] += point_grams[j]
                terms[[k0, best_k]] += 1.0
                mass[[k0, best_k]] += sq_norms[j]
                skip = skip[:0]
                changed = True
        if not changed:
            break
    return labels


def _hard_result(a, labels, cfg, **fields):
    """SegmentationResult whose per-cluster dimensions and global
    dimension are those of the hard partition given by labels."""
    dims = hard_cluster_dims(a, labels, cfg.n_clusters, cfg.eps, on_degenerate="zero")
    return SegmentationResult(
        labels=labels, gd_value=pnorm(dims, cfg.p), per_cluster_dims=dims, **fields
    )


def _run_restarts(a, cfg, run):
    """Run every restart and keep the best.

    Restart i merges the points down to cfg.n_clusters sets, drawing
    from default_rng(seed_i), where seed_i is the i-th child of
    SeedSequence(cfg.seed).spawn(cfg.restarts), then calls run(labels0)
    on the merged labels, which returns (value, outcome). Consecutive
    restarts merge together in lockstep waves (_merge_init), as many per
    wave as fit in _WAVE_BYTES; run is then called for each restart of
    the wave in restart order before the next wave merges. All waves
    share one point-pair cache, since every merge starts from the same N
    singletons. Neither changes any merged label. Returns the outcome
    with the lowest (value, restart index) and every value in restart
    order.
    """
    d, n = a.shape
    _check_merge_power(d, cfg.p)
    if cfg.restarts < 1:
        raise InvalidParameterError("needs at least one restart")
    if n <= cfg.n_clusters:
        raise InvalidParameterError(
            "need more points than clusters (N=%d, K=%d)" % (n, cfg.n_clusters)
        )
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    wave = _WAVE_BYTES // _merge_bytes(n, d, cfg.merge_candidates)
    wave = min(cfg.restarts, max(1, wave))
    cache = np.full(_merge_cache_size(n, wave), np.nan)
    runs = []
    for first in range(0, cfg.restarts, wave):
        rngs = [np.random.default_rng(c) for c in children[first : first + wave]]
        runs += [run(labels0) for labels0 in _merge_init(a, cfg, rngs, cache)]
    best = min(range(cfg.restarts), key=lambda i: (runs[i][0], i))
    return runs[best][1], np.array([value for value, _ in runs])


def _run_restart(a, cfg, params, labels0):
    m0 = indicator_membership(labels0, cfg.n_clusters)
    m, trace = _descend_loop(a, m0, cfg, params, outlier=False)
    labels = genetic_refine(a, threshold(m), cfg)
    result = _hard_result(
        a, labels, cfg, outliers=np.empty(0, dtype=int), membership=m,
        restarts_run=cfg.restarts, trace=trace,
    )
    return result.gd_value, result


def gdm(a, cfg, threads=1):
    """Segment the columns of a into cfg.n_clusters clusters.

    Runs cfg.restarts independent restarts (merge initialization,
    gradient descent, thresholding, reassignment cleanup) and returns
    the result whose hard partition has the lowest global dimension,
    ties going to the earliest restart. The merges of consecutive
    restarts run in lockstep waves and the later stages one restart
    after the other; each restart's result is the one it gets alone.
    Fully deterministic given cfg.seed. threads is accepted for
    compatibility and has no effect: everything runs in one thread.
    """
    a = _validate_data(a)
    params = cfg.objective_params()
    best, values = _run_restarts(
        a, cfg, lambda labels0: _run_restart(a, cfg, params, labels0)
    )
    return replace(best, restart_gd_values=values)
