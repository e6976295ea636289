"""Global dimension minimization by projected gradient descent.

One restart runs four stages: a greedy merge initialization (from the
all-singletons partition, repeatedly merge the sampled pair of sets
whose union yields the lowest global dimension), projected gradient
descent on the soft membership matrix, thresholding back to a hard
partition, and a greedy point-reassignment cleanup. Several restarts
are run and the partition with the lowest hard global dimension wins.

Every restart's merge starts from the same N singletons, so the merged
dimension of two points is a function of the data alone. One call
computes each such point-pair dimension at most once and shares it
across its restarts through an N x N cache (NaN where not yet scored);
the labels are those of scoring every pair afresh.
"""

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
        if self.n_clusters < 1:
            raise InvalidParameterError("n_clusters must be >= 1")
        if min(self.restarts, self.grad_iters, self.genetic_passes) < 0:
            raise InvalidParameterError("iteration counts must be >= 0")
        if self.step_target <= 0.0:
            raise InvalidParameterError("step_target must be positive")
        if not 0.0 < self.eps < 1.0:
            raise InvalidParameterError("eps must be in (0, 1)")
        if self.p <= 0.0:
            raise InvalidParameterError("p must be positive")
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

    labels holds one cluster id per point (-1 marks rejected points),
    outliers the indices of rejected points, gd_value the hard global
    dimension of the returned partition, and trace the per-iteration
    objective values of the winning restart's descent stage.
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


def _decode_pairs(codes, m):
    """Map flat pair codes to index pairs (i, j), i < j, among m items."""
    counts = m - 1 - np.arange(m - 1)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    i = np.searchsorted(starts, codes, side="right") - 1
    j = codes - starts[i] + i + 1
    return i, j


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
    singleton label and no merging happens. Each call scores its pairs
    afresh; the restarts of gdm and gdm_outlier_core run the same merge
    through _merge_init with one singleton-pair cache per call, which
    changes no label.
    """
    a = _validate_data(a)
    n = a.shape[1]
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if n <= cfg.n_clusters:
        return np.arange(n)
    return _merge_init(a, cfg, rng, np.full((n, n), np.nan))


def _merge_init(a, cfg, rng, pair_dims):
    """greedy_merge_init on validated data with N > n_clusters, sharing
    singleton-pair dimensions through pair_dims.

    Each set lives in the slot of its first point: one (N, D, D) array
    holds the set Grams and the first entries of an ordered array the
    live slots. The merged dimension of every scored pair of slots is
    cached in an N x N array; when slot x absorbs slot y, row and column
    x are invalidated, so a pair is re-scored only after one of its sets
    changed. pair_dims (N x N, NaN where unknown) holds the merged
    dimension of point pairs {i}, {j}, i < j: a pure function of the
    data, so every restart of one call may share it. The cache starts as
    a copy of it, and every point-pair value this merge computes is
    written back. A cached value is the one a fresh eigendecomposition
    would return (a slot's Gram is a sum of the same point Grams, and a
    batched eigvalsh gives each matrix the same bits whatever else is in
    its batch), so the sampled pairs, the scores and the chosen merge
    are those of scoring every pair afresh.
    """
    n = a.shape[1]
    grams, _ = _point_grams(a)
    live = np.arange(n)
    owner = np.arange(n)
    singleton = np.ones(n, dtype=bool)
    # A singleton has dimension 1 unless the point is exactly zero.
    dp = np.any(a != 0.0, axis=0).astype(float) ** cfg.p
    merged_cache = pair_dims.copy()
    for m_sets in range(n, cfg.n_clusters, -1):
        total_pairs = m_sets * (m_sets - 1) // 2
        n_cand = min(cfg.merge_candidates, total_pairs)
        codes = rng.choice(total_pairs, size=n_cand, replace=False)
        ia, ib = _decode_pairs(codes, m_sets)
        sa, sb = live[ia], live[ib]
        merged_dims = merged_cache[sa, sb]
        miss = np.flatnonzero(np.isnan(merged_dims))
        if miss.size:
            ma, mb = sa[miss], sb[miss]
            # Even a single miss is a (1, D) stack: a 1-d spectrum would
            # take scalar roots, whose last bit can differ from a stack's.
            evals = np.linalg.eigvalsh(grams[ma] + grams[mb])
            spectra = np.sqrt(np.clip(evals, 0.0, None))
            with np.errstate(divide="ignore", invalid="ignore"):
                num, den = _power_norms(spectra, cfg.eps)
                dims = num / den
            # eigvalsh sorts ascending: an all-zero spectrum has dimension 0.
            dims[spectra[:, -1] == 0.0] = 0.0
            merged_dims[miss] = dims
            merged_cache[ma, mb] = dims
            both = singleton[ma] & singleton[mb]
            pair_dims[ma[both], mb[both]] = dims[both]
        scores = merged_dims**cfg.p - dp[sa] - dp[sb]
        best = int(np.argmin(scores))
        x, y = sa[best], sb[best]
        grams[x] += grams[y]
        dp[x] = merged_dims[best] ** cfg.p
        singleton[x] = False
        owner[owner == y] = x
        merged_cache[x, :] = np.nan
        merged_cache[:, x] = np.nan
        gone = ib[best]
        live[gone : m_sets - 1] = live[gone + 1 : m_sets]
    return np.searchsorted(live[: cfg.n_clusters], owner)


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
    """Run every restart serially and keep the best.

    Restart i merges the points down to cfg.n_clusters sets with
    _merge_init, drawing from default_rng(seed_i), where seed_i is the
    i-th child of SeedSequence(cfg.seed).spawn(cfg.restarts), then calls
    run(labels0) on the merged labels, which returns (value, outcome).
    All restarts share one singleton-pair cache, since every merge
    starts from the same N singletons. Returns the outcome with the
    lowest (value, restart index) and every value in restart order.
    """
    n = a.shape[1]
    if cfg.restarts < 1:
        raise InvalidParameterError("needs at least one restart")
    if n <= cfg.n_clusters:
        raise InvalidParameterError(
            "need more points than clusters (N=%d, K=%d)" % (n, cfg.n_clusters)
        )
    pair_dims = np.full((n, n), np.nan)
    runs = [
        run(_merge_init(a, cfg, np.random.default_rng(child), pair_dims))
        for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    ]
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
    gradient descent, thresholding, reassignment cleanup) one after the
    other and returns the result whose hard partition has the lowest
    global dimension, ties going to the earliest restart. Fully
    deterministic given cfg.seed. threads is accepted for compatibility
    and has no effect: restarts always run serially.
    """
    a = _validate_data(a)
    params = cfg.objective_params()
    best, values = _run_restarts(
        a, cfg, lambda labels0: _run_restart(a, cfg, params, labels0)
    )
    return replace(best, restart_gd_values=values)
