"""Independent oracles the tests check the library against.

Everything here is deliberately brute force: central differences for
gradients, KKT support enumeration for the simplex projection,
exhaustive set-partition enumeration, rank counting for dimensions.
None of it shares code with the implementation under test, except the
two reference optimizer stages at the end: they are the straightforward
greedy merge init (a Python list of Grams, every sampled pair scored
afresh) and greedy refine (one SVD per candidate move) that the cached,
Gram-screened optimizer stages must reproduce label for label. They
call the library's spectrum primitives, which the stages under test
also use.
"""

import itertools

import numpy as np

from gdm.dimension import batch_empirical_dimension
from gdm.objective import _dim_of_columns, _validate_data, hard_cluster_dims, pnorm
from gdm.optimizer import _decode_pairs


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
        ia, ib = _decode_pairs(codes, m_sets)
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
