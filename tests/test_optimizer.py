import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdm import (
    GdmConfig,
    InvalidParameterError,
    ObjectiveParams,
    SyntheticSpec,
    descend,
    embed_dataset,
    gdm,
    genetic_refine,
    global_dimension_hard,
    greedy_merge_init,
    hard_cluster_dims,
    indicator_membership,
    misclassification_rate,
    pnorm,
    project_columns,
    project_simplex,
    sample_subspace_mixture,
    sample_two_view_scene,
    threshold,
    validate_membership,
)
from gdm.dimension import _power_norms
from gdm import optimizer
from gdm.optimizer import (
    _decode_pairs,
    _descend_loop,
    _merge_bytes,
    _merge_cache_size,
    _merge_init,
    _pair_bases,
    _point_grams,
)
from gdm.robust import OUTLIER_INIT_MASS, gdm_outlier_core

from oracles import project_simplex_qp, reference_merge_init, reference_refine

PARAMS = ObjectiveParams()


def two_separated_lines(n_per=5, seed=0):
    rng = np.random.default_rng(seed)
    a = np.zeros((9, 2 * n_per))
    a[0, :n_per] = rng.uniform(1.0, 2.0, n_per)
    a[1, n_per:] = rng.uniform(1.0, 2.0, n_per)
    return a


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        GdmConfig(n_clusters=0)
    with pytest.raises(InvalidParameterError):
        GdmConfig(n_clusters=2, restarts=-1)
    with pytest.raises(InvalidParameterError):
        GdmConfig(n_clusters=2, step_target=0.0)
    with pytest.raises(InvalidParameterError):
        GdmConfig(n_clusters=2, eps=1.0)
    for seed in (-1, -(2**40), 1.5, "7"):
        with pytest.raises(InvalidParameterError):
            GdmConfig(n_clusters=2, seed=seed)
    for seed in (None, 0, 2**70, np.int64(5)):
        assert GdmConfig(n_clusters=2, seed=seed).seed is seed
    nan = float("nan")
    for bad in (dict(p=nan), dict(p=np.inf), dict(step_target=nan), dict(step_target=np.inf),
                dict(n_clusters=2.5), dict(n_clusters=True), dict(restarts=2.5),
                dict(grad_iters=1.5), dict(genetic_passes=3.0), dict(merge_candidates=2.5)):
        with pytest.raises(InvalidParameterError):
            GdmConfig(**{"n_clusters": 2, **bad})
    assert GdmConfig(n_clusters=np.int64(2), restarts=np.int32(3)).restarts == 3


def test_p_that_overflows_merge_scores_is_rejected():
    # With D = 9, 2 * 9**p is finite up to p = 322.72.
    a = np.random.default_rng(0).normal(size=(9, 12))
    cfg = GdmConfig(n_clusters=2, restarts=2, seed=1)
    for run in (gdm, gdm_outlier_core, greedy_merge_init):
        with pytest.raises(InvalidParameterError, match="largest p allowed is 322.72"):
            run(a, replace(cfg, p=322.73))
    assert gdm(a, replace(cfg, p=322.72)).labels.size == 12


class TestProjectSimplex:
    def test_fixed_points_and_symmetry(self):
        np.testing.assert_array_equal(project_simplex([1.0, 0.0, 0.0]), [1, 0, 0])
        np.testing.assert_allclose(
            project_simplex([0.5, 0.5, 0.5]), [1 / 3, 1 / 3, 1 / 3], atol=1e-15
        )
        np.testing.assert_allclose(project_simplex([2.0, 0.0, 0.0]), [1, 0, 0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(scale=3.0, size=rng.integers(1, 8))
            w = project_simplex(v)
            np.testing.assert_allclose(project_simplex(w), w, atol=1e-12)

    def test_matches_qp_oracle_seeded(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(scale=2.0, size=rng.integers(2, 7))
            np.testing.assert_allclose(
                project_simplex(v), project_simplex_qp(v), atol=1e-8
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_qp_oracle_property(self, values):
        v = np.array(values)
        np.testing.assert_allclose(project_simplex(v), project_simplex_qp(v), atol=1e-8)

    def test_columnwise_projection_matches(self):
        rng = np.random.default_rng(2)
        m = rng.normal(scale=2.0, size=(4, 15))
        cols = project_columns(m)
        for j in range(15):
            np.testing.assert_allclose(cols[:, j], project_simplex(m[:, j]), atol=1e-12)


class TestGreedyMergeInit:
    def test_pair_codes_and_positions_run_row_major(self):
        # Code c and packed position c both name the c-th pair of
        # (0, 1), (0, 2), ..., (m-2, m-1).
        tri = np.arange(40) * (np.arange(40) - 1) // 2
        for m in range(2, 41):
            pairs = np.array(list(itertools.combinations(range(m), 2))).T
            codes = np.arange(pairs.shape[1])
            np.testing.assert_array_equal(_decode_pairs(codes, m, tri, 0), pairs)
            np.testing.assert_array_equal(_decode_pairs(codes, m, tri, 5), pairs + 5)
            np.testing.assert_array_equal(_pair_bases(m)[pairs[0]] + pairs[1], codes)

    def test_identity_when_n_equals_k(self):
        a = np.eye(3)
        cfg = GdmConfig(n_clusters=3, seed=0)
        np.testing.assert_array_equal(greedy_merge_init(a, cfg), [0, 1, 2])

    def test_single_cluster(self):
        a = np.random.default_rng(0).normal(size=(4, 7))
        cfg = GdmConfig(n_clusters=1, seed=0)
        assert set(greedy_merge_init(a, cfg)) == {0}

    def test_recovers_separated_clusters(self):
        a = two_separated_lines()
        cfg = GdmConfig(n_clusters=2, seed=0)
        labels = greedy_merge_init(a, cfg)
        assert misclassification_rate(labels, [0] * 5 + [1] * 5) == 0.0
        # every cross-cluster merge yields a strictly larger global dimension
        committed = global_dimension_hard(a, labels, PARAMS, n_clusters=2)
        merged = global_dimension_hard(a, np.zeros(10, dtype=int), PARAMS, n_clusters=1)
        assert merged > committed


class TestDescend:
    def test_zero_iterations_is_identity(self):
        a = two_separated_lines()
        m0 = indicator_membership(np.array([0] * 5 + [1] * 5), 2)
        cfg = GdmConfig(n_clusters=2, grad_iters=0, seed=0)
        np.testing.assert_array_equal(descend(a, m0, cfg), m0)

    def test_columns_stay_on_simplex_every_iteration(self):
        mix = sample_subspace_mixture(
            SyntheticSpec(dims=(2, 3), points_per_cluster=20, noise_sigma=0.02, seed=3)
        )
        m = indicator_membership(np.zeros(mix.data.shape[1], dtype=int) , 2)
        m[1] = 0.4
        m[0] = 0.6
        cfg = GdmConfig(n_clusters=2, grad_iters=1, seed=3)
        for _ in range(15):
            m = descend(mix.data, m, cfg)
            validate_membership(m, tol=1e-10)

    def test_zero_gradient_returns_immediately(self):
        a = np.zeros((4, 6))
        m0 = indicator_membership(np.array([0, 0, 0, 1, 1, 1]), 2)
        cfg = GdmConfig(n_clusters=2, grad_iters=30, seed=0)
        np.testing.assert_array_equal(descend(a, m0, cfg), m0)

    def test_descent_sanity_band(self):
        # from a generic interior start, at least 80% of the fixed-step
        # iterations must not increase the objective (tolerance 1e-6)
        good = total = 0
        for seed in range(50):
            mix = sample_subspace_mixture(
                SyntheticSpec(dims=(2, 3), points_per_cluster=30,
                              noise_sigma=0.01, seed=seed)
            )
            rng = np.random.default_rng(seed + 500)
            m0 = project_columns(rng.uniform(size=(2, mix.data.shape[1])))
            cfg = GdmConfig(n_clusters=2, seed=seed)
            _, trace = _descend_loop(mix.data, m0, cfg, cfg.objective_params(),
                                     outlier=False)
            diffs = np.diff(trace)
            good += int(np.sum(diffs <= 1e-6))
            total += diffs.size
        assert good / total >= 0.8


def test_threshold_rules():
    m = np.array([
        [0.0, 1 / 3, 0.40],
        [1.0, 1 / 3, 0.35],
        [0.0, 1 / 3, 0.25],
    ])
    np.testing.assert_array_equal(threshold(m), [1, 0, 0])


class TestGeneticRefine:
    def test_fixed_point_unchanged(self):
        a = two_separated_lines()
        labels = np.array([0] * 5 + [1] * 5)
        cfg = GdmConfig(n_clusters=2, seed=0)
        np.testing.assert_array_equal(genetic_refine(a, labels, cfg), labels)

    def test_zero_passes_is_identity(self):
        a = two_separated_lines()
        bad = np.array([0] * 5 + [1] * 4 + [0])
        cfg = GdmConfig(n_clusters=2, genetic_passes=0, seed=0)
        np.testing.assert_array_equal(genetic_refine(a, bad, cfg), bad)

    def test_corrects_single_mislabeled_point(self):
        a = two_separated_lines()
        bad = np.array([0, 0, 0, 1, 0, 1, 1, 1, 1, 1])
        cfg = GdmConfig(n_clusters=2, seed=0)
        before = global_dimension_hard(a, bad, PARAMS, n_clusters=2)
        fixed = genetic_refine(a, bad, cfg)
        after = global_dimension_hard(a, fixed, PARAMS, n_clusters=2)
        np.testing.assert_array_equal(fixed, [0] * 5 + [1] * 5)
        assert after < before

    def test_never_increases_hard_gd(self):
        for seed in range(8):
            mix = sample_subspace_mixture(
                SyntheticSpec(dims=(2, 2), points_per_cluster=15,
                              noise_sigma=0.05, seed=seed)
            )
            rng = np.random.default_rng(seed)
            labels = rng.integers(0, 2, size=mix.data.shape[1])
            labels[:2] = [0, 1]
            cfg = GdmConfig(n_clusters=2, seed=seed)
            before = global_dimension_hard(mix.data, labels, PARAMS, n_clusters=2,
                                           on_degenerate="zero")
            refined = genetic_refine(mix.data, labels, cfg)
            after = global_dimension_hard(mix.data, refined, PARAMS, n_clusters=2,
                                          on_degenerate="zero")
            assert after <= before

    def test_label_permutation_equivariance(self):
        mix = sample_subspace_mixture(
            SyntheticSpec(dims=(1, 2, 3), points_per_cluster=12,
                          noise_sigma=0.05, seed=9)
        )
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 3, size=mix.data.shape[1])
        labels[:3] = [0, 1, 2]
        cfg = GdmConfig(n_clusters=3, seed=9)
        base = genetic_refine(mix.data, labels, cfg)
        perm = np.array([2, 0, 1])
        permuted = genetic_refine(mix.data, perm[labels], cfg)
        np.testing.assert_array_equal(permuted, perm[base])

    def test_never_empties_a_cluster(self):
        # both clusters live on the same line: merging would lower the
        # global dimension, but the only member of cluster 1 must stay
        a = np.zeros((5, 6))
        a[0] = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
        labels = np.array([0, 0, 0, 0, 0, 1])
        cfg = GdmConfig(n_clusters=2, seed=0)
        refined = genetic_refine(a, labels, cfg)
        assert (refined == 1).sum() == 1


class TestGdm:
    def test_noiseless_orthogonal_subspaces(self):
        rng = np.random.default_rng(0)
        basis = np.eye(9)
        a = np.concatenate(
            [
                basis[:, :2] @ rng.normal(size=(2, 60)),
                basis[:, 2:5] @ rng.normal(size=(3, 60)),
            ],
            axis=1,
        )
        res = gdm(a, GdmConfig(n_clusters=2, seed=0))
        truth = np.array([0] * 60 + [1] * 60)
        assert misclassification_rate(res.labels, truth) == 0.0

    def test_selection_invariant_and_consistency(self):
        mix = sample_subspace_mixture(
            SyntheticSpec(dims=(2, 3), points_per_cluster=25, noise_sigma=0.01, seed=5)
        )
        res = gdm(mix.data, GdmConfig(n_clusters=2, seed=5))
        assert res.gd_value == min(res.restart_gd_values)
        assert np.all(res.gd_value <= res.restart_gd_values)
        recomputed = global_dimension_hard(
            mix.data, res.labels, PARAMS, n_clusters=2, on_degenerate="zero"
        )
        assert res.gd_value == pytest.approx(recomputed, abs=1e-8)
        assert res.restarts_run == 10
        assert res.membership.shape == (2, mix.data.shape[1])
        assert res.trace.size >= 1

    def test_determinism_bit_for_bit(self):
        mix = sample_subspace_mixture(
            SyntheticSpec(dims=(2, 3), points_per_cluster=25, noise_sigma=0.01, seed=6)
        )
        cfg = GdmConfig(n_clusters=2, seed=42)
        r1 = gdm(mix.data, cfg)
        r2 = gdm(mix.data, cfg)
        np.testing.assert_array_equal(r1.labels, r2.labels)
        assert r1.gd_value == r2.gd_value
        np.testing.assert_array_equal(r1.membership, r2.membership)

    def test_thread_count_does_not_change_winner(self):
        mix = sample_subspace_mixture(
            SyntheticSpec(dims=(2, 3), points_per_cluster=25, noise_sigma=0.01, seed=7)
        )
        cfg = GdmConfig(n_clusters=2, seed=7)
        r1 = gdm(mix.data, cfg, threads=1)
        r4 = gdm(mix.data, cfg, threads=4)
        np.testing.assert_array_equal(r1.labels, r4.labels)
        assert r1.gd_value == r4.gd_value

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("kind", ["zero", "rank1"])
    def test_degenerate_data_completes_every_restart(self, kind, k):
        rng = np.random.default_rng(k)
        if kind == "zero":
            a = np.zeros((9, 12))
        else:
            a = np.outer(rng.normal(size=9), rng.normal(size=12))
        res = gdm(a, GdmConfig(n_clusters=k, restarts=3, seed=5))
        assert res.restart_gd_values.size == res.restarts_run == 3

    def test_single_cluster(self):
        mix = sample_subspace_mixture(
            SyntheticSpec(dims=(3,), points_per_cluster=40, seed=8)
        )
        res = gdm(mix.data, GdmConfig(n_clusters=1, seed=8))
        assert set(res.labels) == {0}
        assert res.per_cluster_dims[0] == pytest.approx(res.gd_value)

    def test_requires_more_points_than_clusters(self):
        with pytest.raises(InvalidParameterError):
            gdm(np.eye(3), GdmConfig(n_clusters=3, seed=0))


def oracle_case(kind, k, seed):
    """Data for comparing the optimizer stages with the reference oracles."""
    rng = np.random.default_rng(seed)
    if kind == "mixture":
        spec = SyntheticSpec(dims=(2, 3, 1)[:k], points_per_cluster=16,
                             noise_sigma=0.01, seed=seed)
        return sample_subspace_mixture(spec).data
    if kind == "two_view":
        scene = sample_two_view_scene(k, [48 // k] * k, noise_sigma=0.001, seed=seed)
        return embed_dataset(scene.correspondences)
    # exactly rank-deficient clusters: ranks 1-3 in R^9, no noise
    a = np.concatenate(
        [rng.normal(size=(9, r)) @ rng.normal(size=(r, 16)) for r in (1, 3, 2)[:k]],
        axis=1,
    )
    if kind == "zero_and_duplicate":
        a[:, [3, 20]] = 0.0
        a[:, [5, 9, 30]] = a[:, [1, 1, 17]]
        a[4] = 0.0
    return a


# Powers of two near 1e-150 and 1e150: the scaled data carry the same
# bits, so the labels of the unscaled reference are the exact answer.
ORACLE_SCALES = [1.0, 2.0**-498, 2.0**498]
ORACLE_KINDS = ["mixture", "two_view", "rank_deficient", "zero_and_duplicate"]


@pytest.mark.parametrize("scale", ORACLE_SCALES, ids=["unscaled", "2^-498", "2^498"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_stages_match_reference_oracles(kind, k, scale):
    seed = 40 + k
    a = oracle_case(kind, k, seed)
    cfg = GdmConfig(n_clusters=k, seed=seed)
    merged = greedy_merge_init(a * scale, cfg, np.random.default_rng(seed))
    np.testing.assert_array_equal(
        merged, reference_merge_init(a, cfg, np.random.default_rng(seed))
    )
    scrambled = np.random.default_rng(seed).integers(0, k, size=a.shape[1])
    scrambled[:k] = np.arange(k)
    for start in (merged, scrambled):
        np.testing.assert_array_equal(
            genetic_refine(a * scale, start, cfg), reference_refine(a * scale, start, cfg)
        )


def replay_merges(a, cfg):
    """Reference merge init of every restart, one fresh call per child
    seed, in the order gdm draws them."""
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    return [reference_merge_init(a, cfg, np.random.default_rng(c)) for c in children]


# How 4 restarts split into merge waves: one at a time, a ragged 3 + 1,
# and all in one wave.
WAVE_LAYOUTS = [[1, 1, 1, 1], [3, 1], [4]]


def in_waves(monkeypatch, a, cfg, layout, call):
    """call() with the wave budget set so that the restarts of cfg merge
    in the given layout; checks that they did."""
    seen = []

    def spy(a, cfg, rngs, cache):
        seen.append(len(rngs))
        return _merge_init(a, cfg, rngs, cache)

    with monkeypatch.context() as patch:
        per_restart = _merge_bytes(a.shape[1], a.shape[0], cfg.merge_candidates)
        patch.setattr(optimizer, "_WAVE_BYTES", layout[0] * per_restart)
        patch.setattr(optimizer, "_merge_init", spy)
        out = call()
    assert seen == layout
    return out


@pytest.mark.parametrize("scale", ORACLE_SCALES, ids=["unscaled", "2^-498", "2^498"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_restarts_match_reference_replay(kind, k, scale, monkeypatch):
    # The restarts of one gdm call merge in lockstep waves and share
    # point-pair merge dimensions; replaying each restart alone from the
    # unshared reference stages must give the same values and the same
    # winner, bit for bit, whatever the waves.
    seed = 40 + k
    a = oracle_case(kind, k, seed)
    cfg = GdmConfig(n_clusters=k, restarts=4, seed=seed)
    values, outcomes = [], []
    for merged in replay_merges(a, cfg):
        m = descend(a * scale, indicator_membership(merged, k), cfg)
        labels = reference_refine(a * scale, threshold(m), cfg)
        dims = hard_cluster_dims(a * scale, labels, k, cfg.eps, on_degenerate="zero")
        values.append(pnorm(dims, cfg.p))
        outcomes.append(labels)
    for layout in WAVE_LAYOUTS:
        res = in_waves(monkeypatch, a, cfg, layout, lambda: gdm(a * scale, cfg))
        np.testing.assert_array_equal(res.restart_gd_values, values)
        np.testing.assert_array_equal(res.labels, outcomes[int(np.argmin(values))])


@pytest.mark.parametrize("scale", ORACLE_SCALES, ids=["unscaled", "2^-498", "2^498"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_outlier_core_matches_reference_replay(kind, k, scale, monkeypatch):
    seed = 40 + k
    a = oracle_case(kind, k, seed)
    n = a.shape[1]
    cfg = GdmConfig(n_clusters=k, restarts=4, seed=seed)
    params = cfg.objective_params(alpha=0.01)
    values, outcomes = [], []
    for merged in replay_merges(a, cfg):
        m0 = np.zeros((k + 1, n))
        m0[0] = OUTLIER_INIT_MASS
        m0[merged + 1, np.arange(n)] = 1.0 - OUTLIER_INIT_MASS
        m, trace = _descend_loop(a * scale, m0, cfg, params, outlier=True)
        values.append(trace[-1])
        outcomes.append(m)
    for layout in WAVE_LAYOUTS:
        membership = in_waves(monkeypatch, a, cfg, layout,
                              lambda: gdm_outlier_core(a * scale, cfg, alpha=0.01))
        np.testing.assert_array_equal(membership, outcomes[int(np.argmin(values))])


@pytest.mark.parametrize("kind", ["two_view", "zero_and_duplicate"])
def test_shared_pair_dims_are_fresh_merged_dimensions(kind):
    # Five restarts merge in waves of 3 and 2 on one cache: each must give
    # its lone merge's labels, and every entry of the shared point-pair
    # block (packed upper triangle) the dimension of one fresh
    # eigendecomposition.
    a = oracle_case(kind, 3, 43)
    n = a.shape[1]
    cfg = GdmConfig(n_clusters=3, merge_candidates=40, seed=43)
    cache = np.full(_merge_cache_size(n, 3), np.nan)
    children = np.random.SeedSequence(cfg.seed).spawn(5)
    for wave in (children[:3], children[3:]):
        merged = _merge_init(a, cfg, [np.random.default_rng(c) for c in wave], cache)
        for child, labels in zip(wave, merged):
            fresh = greedy_merge_init(a, cfg, np.random.default_rng(child))
            np.testing.assert_array_equal(labels, fresh)
    i, j = np.triu_indices(n, 1)
    pair_dims = cache[: i.size]
    known = ~np.isnan(pair_dims)
    i, j = i[known], j[known]
    assert i.size > 2 * n
    grams, _ = _point_grams(a)
    for x, y, got in zip(i, j, pair_dims[known]):
        evals = np.linalg.eigvalsh((grams[x] + grams[y])[None])
        spectrum = np.sqrt(np.clip(evals, 0.0, None))
        if spectrum.max() == 0.0:
            want = 0.0
        else:
            num, den = _power_norms(spectrum, cfg.eps)
            want = (num / den)[0]
        assert got.tobytes() == np.float64(want).tobytes(), (x, y)


def test_refine_matches_reference_below_the_degenerate_floor():
    # Cluster 1 stays below DEGENERATE_SMAX (dimension 0) when the
    # off-line point 10 joins it, so that move lowers the global
    # dimension; its Gram spectrum alone would score cluster 1 near 3.
    rng = np.random.default_rng(0)
    a = np.zeros((9, 15))
    a[0, :10] = 1e-13 * rng.uniform(1.0, 3.0, 10)
    a[1, 10] = 1e-15
    a[2:4, 11:] = 1e-15 * rng.normal(size=(2, 4))
    labels = np.array([0] * 11 + [1] * 4)
    cfg = GdmConfig(n_clusters=2, seed=0)
    refined = genetic_refine(a, labels, cfg)
    np.testing.assert_array_equal(refined, reference_refine(a, labels, cfg))
    assert refined[10] == 1


def test_large_finite_input_gives_the_unscaled_labels():
    mix = sample_subspace_mixture(
        SyntheticSpec(dims=(2, 3), points_per_cluster=25, noise_sigma=0.01, seed=12)
    )
    cfg = GdmConfig(n_clusters=2, restarts=3, seed=12)
    np.testing.assert_array_equal(gdm(mix.data * 1e160, cfg).labels,
                                  gdm(mix.data, cfg).labels)


# SHA-256 of the int64 labels gdm returns on one fixed two-view scene per
# K. A change that alters them must say why and record the new digest.
GOLDEN_LABEL_SHA256 = {
    2: "7a2d1817052f5e48eadb566600fcc15d186cd3d7b2f2bfb2994008c15993a210",
    3: "a74fe69936ae735691b99b3386b4343001f53cb49ac6052728acb30edd3b41df",
}


@pytest.mark.parametrize("k", [2, 3])
def test_golden_labels_two_view(k):
    scene = sample_two_view_scene(k, {2: [50, 50], 3: [34, 33, 33]}[k],
                                  noise_sigma=0.001, seed=3)
    res = gdm(embed_dataset(scene.correspondences), GdmConfig(n_clusters=k, seed=3))
    labels = np.asarray(res.labels, dtype=np.int64)
    assert hashlib.sha256(labels.tobytes()).hexdigest() == GOLDEN_LABEL_SHA256[k]


# Gram matrices that the merges of one default gdm call decompose on a
# fixed two-view scene per K. A merge cache that drops entries it could
# keep gives the same labels but raises these counts.
MERGE_EIGVALSH_MATRICES = {2: 46651, 3: 65781}


@pytest.mark.parametrize("k, sizes, seed", [(2, [60, 60], 900), (3, [50, 50, 50], 901)],
                         ids=["k2_n120", "k3_n150"])
def test_merge_eigvalsh_counts(k, sizes, seed, monkeypatch):
    scene = sample_two_view_scene(k, sizes, noise_sigma=0.001, seed=seed)
    a = embed_dataset(scene.correspondences)
    matrices = []
    eigvalsh = np.linalg.eigvalsh

    def counting(batch):
        matrices.append(batch.shape[0])
        return eigvalsh(batch)

    def merge(*args):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", counting)
            return _merge_init(*args)

    monkeypatch.setattr(optimizer, "_merge_init", merge)
    gdm(a, GdmConfig(n_clusters=k, seed=11))
    assert sum(matrices) == MERGE_EIGVALSH_MATRICES[k]
