"""Independent oracles the tests check the library against.

Everything here is deliberately brute force: central differences for
gradients, KKT support enumeration for the simplex projection,
exhaustive set-partition enumeration, rank counting for dimensions.
None of it shares code with the implementation under test, except the
two reference optimizer stages: they are the straightforward greedy
merge init (a Python list of Grams, every sampled pair scored afresh)
and greedy refine (one SVD per candidate move) that the cached,
Gram-screened optimizer stages must reproduce label for label. They
call the library's spectrum primitives, which the stages under test
also use.

The spectrum references at the end check those primitives in turn:
they spell out, separately for each caller and with their own copies
of the tolerances, the spectrum-to-dimension arithmetic that the
library shares in one kernel, and the library must match them bit for
bit.
"""

import itertools

import numpy as np

from gdm.dimension import batch_empirical_dimension
from gdm.exceptions import (
    DegenerateClusterError,
    DegenerateSpectrumError,
    InvalidInputError,
    InvalidParameterError,
)
from gdm.objective import _dim_of_columns, _validate_data, hard_cluster_dims, pnorm
from gdm.optimizer import project_columns


def finite_difference_gradient(fn, m, h=1e-6):
    """Central-difference gradient of a scalar function of a matrix."""
    g = np.zeros_like(m, dtype=float)
    for k in range(m.shape[0]):
        for n in range(m.shape[1]):
            up = m.copy()
            up[k, n] += h
            dn = m.copy()
            dn[k, n] -= h
            g[k, n] = (fn(up) - fn(dn)) / (2.0 * h)
    return g


def project_simplex_qp(v):
    """Exact simplex projection by enumerating KKT support sets.

    For support S the candidate is w_S = v_S + (1 - sum(v_S)) / |S|,
    w = 0 elsewhere; the feasible candidate closest to v is the
    projection.
    """
    v = np.asarray(v, dtype=float)
    k = v.size
    best = None
    for r in range(1, k + 1):
        for support in itertools.combinations(range(k), r):
            idx = list(support)
            w = np.zeros(k)
            w[idx] = v[idx] + (1.0 - v[idx].sum()) / r
            if np.any(w[idx] < -1e-12):
                continue
            dist = float(np.sum((w - v) ** 2))
            if best is None or dist < best[0]:
                best = (dist, w)
    return best[1]


def partitions_into_at_most(n, max_sets):
    """All set partitions of range(n) into at most max_sets nonempty
    sets, as canonical (first-appearance numbered) label tuples."""
    current = []

    def rec(i, used):
        if i == n:
            yield tuple(current)
            return
        for k in range(min(used + 1, max_sets)):
            current.append(k)
            yield from rec(i + 1, used + (1 if k == used else 0))
            current.pop()

    yield from rec(0, 0)


def canonical_labels(labels):
    """Relabel by order of first appearance, for set-partition equality."""
    mapping = {}
    out = []
    for lab in labels:
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out.append(mapping[lab])
    return tuple(out)


def rank_based_gd(a, labels, p, tol=1e-9):
    """Global dimension with exact numerical rank as the set-dimension
    oracle (the noiseless stand-in for the empirical dimension)."""
    labels = np.asarray(labels)
    dims = []
    for k in sorted(set(labels.tolist())):
        cols = a[:, labels == k]
        s = np.linalg.svd(cols, compute_uv=False)
        dims.append(int(np.sum(s > tol * s.max())) if s.max() > 0 else 0)
    return float(sum(d**p for d in dims)) ** (1.0 / p)


def lstsq_subspace_distance(v, basis):
    """Distance to span(basis) via an independent least-squares solve."""
    coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
    return float(np.linalg.norm(v - basis @ coef))


def random_orthogonal(dim, rng):
    """Haar-ish random orthogonal matrix from a QR decomposition."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def interior_membership(k, n, rng, floor=0.3):
    """Random column-stochastic matrix with all entries >= floor / k."""
    m = rng.uniform(size=(k, n))
    m /= m.sum(axis=0)
    return (1.0 - floor) * m + floor / k


def reference_decode_pairs(codes, m):
    """Map flat pair codes to index pairs (i, j), i < j, among m items."""
    counts = m - 1 - np.arange(m - 1)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    i = np.searchsorted(starts, codes, side="right") - 1
    j = codes - starts[i] + i + 1
    return i, j


def reference_merge_init(a, cfg, rng=None):
    """Greedy merge init scoring every sampled pair from a list of Grams."""
    a = _validate_data(a)
    n = a.shape[1]
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if n <= cfg.n_clusters:
        return np.arange(n)
    members = [[j] for j in range(n)]
    grams = list(a.T[:, :, None] * a.T[:, None, :])
    # A singleton has dimension 1 unless the point is exactly zero.
    dims = (np.linalg.norm(a, axis=0) > 0.0).astype(float)
    dp = dims**cfg.p
    while len(members) > cfg.n_clusters:
        m_sets = len(members)
        total_pairs = m_sets * (m_sets - 1) // 2
        n_cand = min(cfg.merge_candidates, total_pairs)
        codes = rng.choice(total_pairs, size=n_cand, replace=False)
        ia, ib = reference_decode_pairs(codes, m_sets)
        gram_stack = np.stack([grams[x] + grams[y] for x, y in zip(ia, ib)])
        evals = np.linalg.eigvalsh(gram_stack)
        spectra = np.sqrt(np.clip(evals, 0.0, None))
        merged_dims = batch_empirical_dimension(spectra, cfg.eps)
        scores = merged_dims**cfg.p - dp[ia] - dp[ib]
        best = int(np.argmin(scores))
        x, y = int(ia[best]), int(ib[best])
        members[x] = members[x] + members[y]
        grams[x] = grams[x] + grams[y]
        dims[x] = merged_dims[best]
        dp[x] = merged_dims[best] ** cfg.p
        del members[y]
        del grams[y]
        dims = np.delete(dims, y)
        dp = np.delete(dp, y)
    labels = np.empty(n, dtype=int)
    for k, idx in enumerate(members):
        labels[idx] = k
    return labels


def reference_refine(a, labels, cfg):
    """Greedy single-point reassignment with one SVD per candidate move."""
    a = _validate_data(a)
    labels = np.array(labels, dtype=int)
    k_total = cfg.n_clusters
    n = labels.size
    sizes = np.bincount(labels, minlength=k_total)
    dims = hard_cluster_dims(a, labels, k_total, cfg.eps, on_degenerate="zero")
    for _ in range(cfg.genetic_passes):
        changed = False
        for j in range(n):
            k0 = labels[j]
            if sizes[k0] <= 1:
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
                changed = True
        if not changed:
            break
    return labels


# Tolerances of the spectrum references, fixed independently of the
# library's constants.
RELATIVE_ZERO_TOL = 1e-12
DEGENERATE_SMAX = 1e-14
GRADIENT_SIGMA_FLOOR = 1e-8


def reference_empirical_dimension(sigma, eps=0.35):
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
    if not 0.0 < eps <= 1.0:
        raise InvalidParameterError("eps must be in (0, 1], got %r" % (eps,))
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1 or sigma.size == 0:
        raise InvalidInputError("sigma must be a nonempty 1-d vector")
    if not np.all(np.isfinite(sigma)) or np.any(sigma < 0):
        raise InvalidInputError("singular values must be finite and nonnegative")
    smax = sigma.max()
    if smax <= 0.0:
        raise DegenerateSpectrumError("all singular values are zero")
    # Scale invariance lets us normalize by the largest value, which
    # keeps the p-th powers bounded for any eps.
    s = sigma / smax
    s[s < RELATIVE_ZERO_TOL] = 0.0
    if eps == 1.0:
        return float(s.sum())
    delta = eps / (1.0 - eps)
    num = float(np.sum(s**eps)) ** (1.0 / eps)
    den = float(np.sum(s**delta)) ** (1.0 / delta)
    return num / den


def reference_batch_empirical_dimension(sigmas, eps=0.35):
    """Empirical dimension of each row of a stack of spectra.

    Rows that are identically zero get dimension 0 (the continuous
    extension used for empty clusters).
    """
    if not 0.0 < eps <= 1.0:
        raise InvalidParameterError("eps must be in (0, 1], got %r" % (eps,))
    sigmas = np.asarray(sigmas, dtype=float)
    smax = sigmas.max(axis=1)
    ok = smax > 0.0
    dims = np.zeros(sigmas.shape[0])
    if not np.any(ok):
        return dims
    s = sigmas[ok] / smax[ok, None]
    s[s < RELATIVE_ZERO_TOL] = 0.0
    if eps == 1.0:
        dims[ok] = s.sum(axis=1)
        return dims
    delta = eps / (1.0 - eps)
    num = np.sum(s**eps, axis=1) ** (1.0 / eps)
    den = np.sum(s**delta, axis=1) ** (1.0 / delta)
    dims[ok] = num / den
    return dims


def reference_pnorm(values, p):
    """(sum v_i^p)^(1/p) for nonnegative values, stable for large p.

    Values are summed in sorted order so the result is exactly invariant
    under permutations of its input.
    """
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        return 0.0
    top = v[-1]
    if top <= 0.0:
        return 0.0
    return float(top * np.sum((v / top) ** p) ** (1.0 / p))


def reference_cluster_svd_terms(a, row, params, on_degenerate, want_uv):
    """Spectrum-derived quantities for one scaled cluster.

    Returns (dim, grad_row or None). The gradient row is the unweighted
    part V[n, :] @ D @ U.T @ A[:, n]; the caller applies the p-norm
    chain factor.
    """
    scaled = a * row[None, :]
    if want_uv:
        u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    else:
        s = np.linalg.svd(scaled, compute_uv=False)
    smax = s[0] if s.size else 0.0
    if smax <= DEGENERATE_SMAX:
        if on_degenerate == "zero":
            return 0.0, np.zeros(a.shape[1]) if want_uv else None
        raise DegenerateClusterError("scaled cluster matrix is identically zero")
    sn = s / smax
    sn[sn < RELATIVE_ZERO_TOL] = 0.0
    eps, delta = params.eps, params.delta
    norm_e = float(np.sum(sn**eps)) ** (1.0 / eps)
    norm_d = float(np.sum(sn**delta)) ** (1.0 / delta)
    dim = norm_e / norm_d
    if not want_uv:
        return dim, None
    # D (diagonal of the chain rule through the singular values),
    # expressed in the normalized spectrum: the 1/smax factor restores
    # the original scale.
    sf = np.maximum(sn, GRADIENT_SIGMA_FLOOR)
    c1 = norm_e ** (1.0 - eps) / norm_d
    c2 = norm_e * norm_d ** (-1.0 - delta)
    dvec = (c1 * sf ** (eps - 1.0) - c2 * sf ** (delta - 1.0)) / smax
    w = dvec[:, None] * (u.T @ a)
    grad_row = np.sum(vt * w, axis=0)
    return dim, grad_row


def reference_value_and_gradient(a, m, params, outlier, want_grad):
    """Soft objective value and, if want_grad, gradient of one membership,
    cluster by cluster from reference_cluster_svd_terms (degenerate
    clusters count 0). With outlier set, row 0 is the outlier row."""
    rows = m[1:] if outlier else m
    terms = [reference_cluster_svd_terms(a, row, params, "zero", want_grad)
             for row in rows]
    dims = np.array([dim for dim, _ in terms])
    gd = reference_pnorm(dims, params.p)
    value = gd + params.alpha / 2.0 * float(np.sum(m[0] ** 2)) if outlier else gd
    if not want_grad:
        return value, None
    grad = np.zeros(m.shape)
    if outlier:
        grad[0] = params.alpha * m[0]
    if gd > 0.0:
        grows = np.array([row for _, row in terms])
        grad[m.shape[0] - rows.shape[0]:] = ((dims / gd) ** (params.p - 1.0))[:, None] * grows
    return value, grad


def reference_descend(a, m0, cfg, params, outlier):
    """Projected gradient descent of one membership, iteration by
    iteration from reference_value_and_gradient; returns (membership,
    objective trace). A step scale rho of 0 stops the descent."""
    m = np.array(m0, dtype=float)
    n = m.shape[1]
    n_top = -(-n // 10)
    trace = []
    for _ in range(cfg.grad_iters):
        value, grad = reference_value_and_gradient(a, m, params, outlier, True)
        trace.append(value)
        col_norms = np.linalg.norm(grad, axis=0)
        rho = float(np.partition(col_norms, n - n_top)[n - n_top :].mean())
        if rho == 0.0:
            break
        m = project_columns(m - (cfg.step_target / rho) * grad)
    trace.append(reference_value_and_gradient(a, m, params, outlier, False)[0])
    return m, np.array(trace)


def reference_dim_lower_bounds(evals, err, exp, eps):
    """Lower bounds on the SVD-path empirical dimension of matrices whose
    squared singular values lie within err of the Gram eigenvalues evals
    (shape (..., D)); the data were scaled by 2^-exp.

    The numerator norm takes the low singular values, zeroed below
    RELATIVE_ZERO_TOL times the largest high one, so it keeps only
    values the SVD path keeps too; the denominator takes every high one.
    A matrix whose top singular value may be at most DEGENERATE_SMAX, or
    whose bound is not finite, gets 0.
    """
    lo = np.sqrt(np.maximum(evals - err[..., None], 0.0))
    hi = np.sqrt(np.maximum(evals + err[..., None], 0.0))
    top = hi.max(axis=-1, keepdims=True)
    delta = eps / (1.0 - eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        slo = lo / top
        slo[slo < RELATIVE_ZERO_TOL] = 0.0
        num = np.sum(slo**eps, axis=-1) ** (1.0 / eps)
        den = np.sum((hi / top) ** delta, axis=-1) ** (1.0 / delta)
        dims = num / den
    degenerate = np.ldexp(lo.max(axis=-1), exp) <= DEGENERATE_SMAX
    dims[degenerate | ~np.isfinite(dims)] = 0.0
    return dims
