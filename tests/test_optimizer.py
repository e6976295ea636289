import hashlib
import itertools
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdm import (
    GdmConfig,
    InvalidInputError,
    InvalidParameterError,
    ObjectiveParams,
    SyntheticSpec,
    batch_empirical_dimension,
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
from gdm import optimizer
from gdm.optimizer import (
    _decode_pairs,
    _descend_loop,
    _merge_init,
    _pair_bases,
    _point_grams,
    _refine_wave,
)
from gdm.robust import OUTLIER_INIT_MASS, gdm_outlier_core

from oracles import (
    project_simplex_qp,
    reference_descend,
    reference_merge_init,
    reference_refine,
)

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
    for restarts in (0, -1):
        with pytest.raises(InvalidParameterError, match="restarts must be >= 1"):
            GdmConfig(n_clusters=2, restarts=restarts)
    with pytest.raises(InvalidParameterError):
        GdmConfig(n_clusters=2, step_target=0.0)
    with pytest.raises(InvalidParameterError):
        GdmConfig(n_clusters=2, eps=1.0)
    for seed in (-1, -(2**40), 1.5, "7", True, False):
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


@pytest.mark.parametrize("k, smallest", [(2, 0.003907), (3, 0.006192)])
def test_p_that_overflows_the_gradient_is_rejected(k, smallest):
    # The smallest p is log2(K) / 256, rounded up to 1e-6: K**(1/p), the
    # p-norm's chain factor when all K dimensions are equal, stays within
    # 2**256. gdm runs there without a RuntimeWarning (an error here);
    # at p = 0.002 (K = 2) or 0.003 (K = 3) descent's gradient overflows.
    scene = sample_two_view_scene(k, [20] * k, noise_sigma=0.001, seed=5)
    a = embed_dataset(scene.correspondences)
    start = np.arange(a.shape[1]) % k
    cfg = GdmConfig(n_clusters=k, p=smallest, restarts=3, seed=5)
    assert np.isfinite(gdm(a, cfg).gd_value)
    runs = (gdm, gdm_outlier_core,
            lambda a, cfg: genetic_refine(a, start, cfg),
            lambda a, cfg: descend(a, indicator_membership(start, k), cfg))
    for run in runs:
        with pytest.raises(InvalidParameterError, match="smallest p allowed is %g" % smallest):
            run(a, replace(cfg, p=smallest - 1e-6))


def test_eps_that_overflows_dimensions_is_rejected():
    # With D = 9 the eps-norm root of a spectrum, at most 9**(1/eps),
    # is finite for eps above 0.003096.
    mix = sample_subspace_mixture(
        SyntheticSpec(dims=(2, 3), points_per_cluster=8, noise_sigma=0.01, seed=2))
    a, n = mix.data, mix.data.shape[1]
    cfg = GdmConfig(n_clusters=2, restarts=2, seed=1)
    runs = (gdm, gdm_outlier_core, greedy_merge_init,
            lambda a, cfg: genetic_refine(a, np.arange(n) % 2, cfg),
            lambda a, cfg: descend(a, indicator_membership(np.arange(n) % 2, 2), cfg))
    for run in runs:
        with pytest.raises(InvalidParameterError, match="smallest eps allowed is 0.0031"):
            run(a, replace(cfg, eps=1e-3))
        run(a, replace(cfg, eps=0.0032))


class TestProjectSimplex:
    def test_fixed_points_and_symmetry(self):
        np.testing.assert_array_equal(project_simplex([1.0, 0.0, 0.0]), [1, 0, 0])
        np.testing.assert_allclose(
            project_simplex([0.5, 0.5, 0.5]), [1 / 3, 1 / 3, 1 / 3], atol=1e-15
        )
        np.testing.assert_allclose(project_simplex([2.0, 0.0, 0.0]), [1, 0, 0])

    @pytest.mark.parametrize("v", [[], [np.nan, 1.0]])
    def test_rejects_empty_and_nonfinite_vectors(self, v):
        with pytest.raises(InvalidInputError):
            project_simplex(v)

    @pytest.mark.parametrize("m", [np.ones(3), np.zeros((0, 3)), [[np.nan], [1.0]]])
    def test_columns_reject_vectors_and_empty_or_nonfinite_matrices(self, m):
        with pytest.raises(InvalidInputError):
            project_columns(m)

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
            np.testing.assert_array_equal(_decode_pairs(codes, m, tri), pairs)
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
            _, (trace,) = _descend_loop(mix.data, m0[None], cfg, cfg.objective_params(),
                                        outlier=False)
            diffs = np.diff(trace)
            good += int(np.sum(diffs <= 1e-6))
            total += diffs.size
        assert good / total >= 0.8

    @pytest.mark.parametrize("m0", [np.full((2, 9), 0.5), np.full((2, 10), np.nan),
                                    np.full(10, 0.5)], ids=["short", "nan", "1d"])
    def test_malformed_start_membership_is_rejected(self, m0):
        cfg = GdmConfig(n_clusters=2, seed=0)
        with pytest.raises(InvalidInputError):
            descend(two_separated_lines(), m0, cfg)


def descent_wave_starts(a, rows, seed):
    """Start memberships with rows rows for one descent wave: interior
    ones, one with an all-zero last row, and an all-zero one, whose zero
    gradient stops it at the first iteration (rho == 0)."""
    rng = np.random.default_rng(seed)
    n = a.shape[1]
    starts = [project_columns(rng.uniform(size=(rows, n))) for _ in range(2)]
    starts.append(indicator_membership(rng.integers(0, rows - 1, size=n), rows))
    starts.insert(1, np.zeros((rows, n)))
    return np.array(starts)


@pytest.mark.parametrize("grad_iters", [0, 1, 30])
@pytest.mark.parametrize("outlier", [False, True], ids=["plain", "outlier_row"])
def test_descent_wave_matches_lone_descents(outlier, grad_iters):
    # Every membership of one lockstep wave, also those that stop at
    # rho == 0 while the others go on, gets the membership and trace of
    # the reference descent run alone, bit for bit.
    mix = sample_subspace_mixture(
        SyntheticSpec(dims=(2, 3), points_per_cluster=15, noise_sigma=0.01, seed=5)
    )
    a = mix.data
    cfg = GdmConfig(n_clusters=2, grad_iters=grad_iters, seed=5)
    params = cfg.objective_params(alpha=0.01)
    starts = descent_wave_starts(a, 2 + outlier, 5)
    ms, traces = _descend_loop(a, starts, cfg, params, outlier)
    assert len(traces) == starts.shape[0]
    assert traces[1].size == min(grad_iters, 1) + 1
    assert max(trace.size for trace in traces) == grad_iters + 1
    for m0, m, trace in zip(starts, ms, traces):
        want_m, want_trace = reference_descend(a, m0, cfg, params, outlier)
        assert m.tobytes() == want_m.tobytes()
        assert trace.tobytes() == want_trace.tobytes()
        if not outlier:
            assert descend(a, m0, cfg).tobytes() == want_m.tobytes()


@pytest.mark.parametrize("restarts", [1, 3, 10])
def test_descent_makes_one_svd_call_per_iteration(restarts, monkeypatch):
    # One gdm call descends all its restarts in one wave: one batched SVD
    # per iteration and one for the final values, whatever restarts is.
    mix = sample_subspace_mixture(
        SyntheticSpec(dims=(2, 3), points_per_cluster=20, noise_sigma=0.01, seed=6)
    )
    calls = []
    svd = np.linalg.svd
    descend_loop = optimizer._descend_loop

    def counting(batch, *args, **kwargs):
        calls.append(batch.shape[0])
        return svd(batch, *args, **kwargs)

    def wave(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", counting)
            return descend_loop(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_descend_loop", wave)
    cfg = GdmConfig(n_clusters=2, restarts=restarts, grad_iters=7, seed=6)
    gdm(mix.data, cfg)
    assert calls == [restarts * cfg.n_clusters] * (cfg.grad_iters + 1)


def refine_wave_starts(a, k, seed):
    """Start labelings for one refine wave: scrambled ones, duplicates of
    two of them, and one with every cluster but 0 a singleton."""
    rng = np.random.default_rng(seed)
    n = a.shape[1]
    starts = [rng.integers(0, k, size=n) for _ in range(3)]
    for start in starts:
        start[:k] = np.arange(k)
    singletons = np.zeros(n, dtype=int)
    singletons[n - k + 1 :] = np.arange(1, k)
    return starts + [starts[1].copy(), singletons, starts[0].copy()]


@pytest.mark.parametrize("passes", [0, 1, 10])
@pytest.mark.parametrize("k", [2, 3])
def test_refine_wave_matches_reference_per_start(k, passes):
    # Every start of one refine wave, duplicates and singleton clusters
    # included, gets the labels of the reference refine run alone.
    a = oracle_case("two_view", k, 40 + k)
    cfg = GdmConfig(n_clusters=k, genetic_passes=passes, seed=40 + k)
    starts = refine_wave_starts(a, k, k)
    kept = [start.copy() for start in starts]
    refined = [labels for labels, _ in _refine_wave(a, starts, cfg)]
    assert len(refined) == len(starts)
    for start, start_copy, labels in zip(starts, kept, refined):
        np.testing.assert_array_equal(start, start_copy)
        np.testing.assert_array_equal(labels, reference_refine(a, start, cfg))
    # A duplicate start is refined once but gets its own array.
    assert refined[3] is not refined[1] and refined[5] is not refined[0]
    refined[3][:] = -1
    assert refined[1].min() >= 0


def screen_steps(monkeypatch, call):
    """(call(), the number of _screen_moves calls it makes)."""
    steps = []
    screen = optimizer._screen_moves

    def counting(*args):
        steps.append(1)
        return screen(*args)

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_screen_moves", counting)
        return call(), len(steps)


def test_refine_makes_as_many_screen_steps_as_its_busiest_restart(monkeypatch):
    # One gdm call refines all its restarts in one wave: each screen step
    # serves every restart still going, so the call makes as many steps
    # as the restart that needs the most alone.
    scene = sample_two_view_scene(2, [30, 30], noise_sigma=0.001, seed=8)
    a = embed_dataset(scene.correspondences)
    cfg = GdmConfig(n_clusters=2, restarts=6, seed=8)
    starts = []
    refine_wave = optimizer._refine_wave

    def spy(a, labels, cfg):
        starts.extend(start.copy() for start in labels)
        return refine_wave(a, labels, cfg)

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_refine_wave", spy)
        _, in_wave = screen_steps(monkeypatch, lambda: gdm(a, cfg))
    assert len(starts) == cfg.restarts
    alone = [screen_steps(monkeypatch, lambda: genetic_refine(a, start, cfg))[1]
             for start in starts]
    assert in_wave == max(alone) < sum(alone)


def test_refine_eigvalsh_batches_hold_at_most_n_grams(monkeypatch):
    # A screen step stacks every waiting restart's points, K Grams each,
    # and decomposes them in pieces of at most N Grams.
    scene = sample_two_view_scene(3, [20, 20, 20], noise_sigma=0.001, seed=9)
    a = embed_dataset(scene.correspondences)
    n = a.shape[1]
    cfg = GdmConfig(n_clusters=3, seed=9)
    batches, steps = [], []
    eigvalsh = np.linalg.eigvalsh
    screen = optimizer._screen_moves

    def counting(batch):
        batches.append(int(np.prod(batch.shape[:-2])))
        return eigvalsh(batch)

    def spy(req, idx, *args):
        steps.append(idx.size * cfg.n_clusters)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", counting)
            return screen(req, idx, *args)

    monkeypatch.setattr(optimizer, "_screen_moves", spy)
    gdm(a, cfg)
    assert max(batches) <= n < max(steps)
    assert sum(batches) == sum(steps)


def test_threshold_rules():
    m = np.array([
        [0.0, 1 / 3, 0.40],
        [1.0, 1 / 3, 0.35],
        [0.0, 1 / 3, 0.25],
    ])
    np.testing.assert_array_equal(threshold(m), [1, 0, 0])


@pytest.mark.parametrize("m", [[0.2, 0.8], [[0.5, np.nan], [0.5, 0.0]], [[[1.0]]]],
                         ids=["1-d", "nan", "3-d"])
def test_threshold_rejects_bad_memberships(m):
    with pytest.raises(InvalidInputError):
        threshold(m)


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

    @pytest.mark.parametrize("bad", [5, -1])
    def test_labels_out_of_range_are_rejected(self, bad):
        labels = np.array([0] * 5 + [1] * 5)
        labels[3] = bad
        cfg = GdmConfig(n_clusters=2, seed=0)
        with pytest.raises(InvalidInputError, match="labels"):
            genetic_refine(two_separated_lines(), labels, cfg)

    @pytest.mark.parametrize("bad", [0.5, 1.7, np.nan, np.inf])
    def test_labels_that_are_not_whole_numbers_are_rejected(self, bad):
        labels = np.array([0] * 5 + [1] * 5, dtype=float)
        labels[3] = bad
        cfg = GdmConfig(n_clusters=2, seed=0)
        with pytest.raises(InvalidInputError, match="whole numbers"):
            genetic_refine(two_separated_lines(), labels, cfg)
        labels[3] = 1.0
        np.testing.assert_array_equal(genetic_refine(two_separated_lines(), labels, cfg),
                                      [0] * 5 + [1] * 5)

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
        assert res.gd_value == recomputed
        np.testing.assert_array_equal(
            res.per_cluster_dims,
            hard_cluster_dims(mix.data, res.labels, 2, PARAMS.eps, on_degenerate="zero"),
        )
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


def refine_case(kind, k):
    """(data, start labelings) of one refine wave: the oracle case's
    scrambled starts of refine_wave_starts, or for kind "n120" the
    thresholded descents of gdm's restarts on the N = 120 two-view scene
    of test_merge_eigvalsh_counts."""
    if kind != "n120":
        a = oracle_case(kind, k, 40 + k)
        return a, refine_wave_starts(a, k, k)
    scene = sample_two_view_scene(2, [60, 60], noise_sigma=0.001, seed=900)
    a = embed_dataset(scene.correspondences)
    cfg = GdmConfig(n_clusters=2, seed=11)
    merged = optimizer._merged_restarts(a, cfg)
    m0 = np.array([indicator_membership(labels, 2) for labels in merged])
    ms, _ = _descend_loop(a, m0, cfg, cfg.objective_params(), outlier=False)
    return a, [threshold(m) for m in ms]


@pytest.mark.parametrize("kind, k", [(kind, k) for kind in ORACLE_KINDS for k in (2, 3)]
                         + [("n120", 2)])
def test_refine_wave_dims_are_hard_cluster_dims_of_its_labels(kind, k):
    # gdm scores its restarts from the dimensions the refine wave kept up
    # to date, so they must be the SVD path's of the refined labels, bit
    # for bit, and each start must get its own array.
    a, starts = refine_case(kind, k)
    cfg = GdmConfig(n_clusters=k, seed=40 + k)
    refined = _refine_wave(a, starts, cfg)
    for labels, dims in refined:
        expected = hard_cluster_dims(a, labels, k, cfg.eps, on_degenerate="zero")
        assert dims.dtype == expected.dtype and dims.tobytes() == expected.tobytes()
    assert len({id(dims) for _, dims in refined}) == len(starts)


def replay_merges(a, cfg):
    """Reference merge init of every restart, one fresh call per child
    seed, in the order gdm draws them."""
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    return [reference_merge_init(a, cfg, np.random.default_rng(c)) for c in children]


# 100 candidates cache every pair of the oracle cases' 32-48 points from
# the first round; 7 leave the restarts uncached until 8 sets remain.
REPLAY_CANDIDATES = [100, 7]


def in_one_wave(monkeypatch, cfg, call):
    """call(), checking that it merges all restarts of cfg in one wave."""
    seen = []

    def spy(a, cfg, rngs):
        seen.append(len(rngs))
        return _merge_init(a, cfg, rngs)

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_merge_init", spy)
        out = call()
    assert seen == [cfg.restarts]
    return out


@pytest.mark.parametrize("scale", ORACLE_SCALES, ids=["unscaled", "2^-498", "2^498"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_restarts_match_reference_replay(kind, k, scale, monkeypatch):
    # The restarts of one gdm call merge in one lockstep wave and share
    # point-pair merge dimensions; replaying each restart alone from the
    # unshared reference stages must give the same values and the same
    # winner, bit for bit, with and without uncached early rounds.
    seed = 40 + k
    a = oracle_case(kind, k, seed)
    for candidates in REPLAY_CANDIDATES:
        cfg = GdmConfig(n_clusters=k, restarts=4, merge_candidates=candidates, seed=seed)
        values, outcomes = [], []
        for merged in replay_merges(a, cfg):
            m = descend(a * scale, indicator_membership(merged, k), cfg)
            labels = reference_refine(a * scale, threshold(m), cfg)
            dims = hard_cluster_dims(a * scale, labels, k, cfg.eps, on_degenerate="zero")
            values.append(pnorm(dims, cfg.p))
            outcomes.append(labels)
        res = in_one_wave(monkeypatch, cfg, lambda: gdm(a * scale, cfg))
        np.testing.assert_array_equal(res.restart_gd_values, values)
        np.testing.assert_array_equal(res.labels, outcomes[int(np.argmin(values))])


@pytest.mark.parametrize("scale", ORACLE_SCALES, ids=["unscaled", "2^-498", "2^498"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_outlier_core_matches_reference_replay(kind, k, scale, monkeypatch):
    seed = 40 + k
    a = oracle_case(kind, k, seed)
    n = a.shape[1]
    for candidates in REPLAY_CANDIDATES:
        cfg = GdmConfig(n_clusters=k, restarts=4, merge_candidates=candidates, seed=seed)
        params = cfg.objective_params(alpha=0.01)
        values, outcomes = [], []
        for merged in replay_merges(a, cfg):
            m0 = np.zeros((k + 1, n))
            m0[0] = OUTLIER_INIT_MASS
            m0[merged + 1, np.arange(n)] = 1.0 - OUTLIER_INIT_MASS
            (m,), (trace,) = _descend_loop(a * scale, m0[None], cfg, params, outlier=True)
            values.append(trace[-1])
            outcomes.append(m)
        membership = in_one_wave(monkeypatch, cfg,
                                 lambda: gdm_outlier_core(a * scale, cfg, alpha=0.01))
        np.testing.assert_array_equal(membership, outcomes[int(np.argmin(values))])


def fresh_merged_dims(grams, x, y, eps):
    """Merged dimension of each Gram pair (x, y) from one fresh batched
    eigvalsh, which gives each matrix the bits it gets alone."""
    spectra = np.sqrt(np.clip(np.linalg.eigvalsh(grams[x] + grams[y]), 0.0, None))
    return batch_empirical_dimension(spectra, eps)


def unpacked(grams, d):
    """Symmetric D x D Grams from rows packed as their lower triangles at
    np.tril_indices(D), as the merge keeps them."""
    i, j = np.tril_indices(d)
    full = np.zeros((grams.shape[0], d, d))
    full[:, i, j] = grams
    full[:, j, i] = grams
    return full


def check_cached(grams, value, exact, x, y, eps):
    """Check a merge cache (value and exact) against one fresh eigvalsh of
    the full Gram rows x and y: exact entries bit for bit, the others
    (screen bounds, NaN where unknown) from below; returns how many of
    each were checked."""
    some = np.flatnonzero(exact | ~np.isnan(value))
    value, exact = value[some], exact[some]
    want = fresh_merged_dims(grams, x[some], y[some], eps)
    assert value[exact].tobytes() == want[exact].tobytes()
    bounds, below = value[~exact], want[~exact]
    bad = np.flatnonzero(bounds > below)
    assert bad.size == 0, (bounds[bad], below[bad])
    return np.count_nonzero(exact), bounds.size


def check_merge_caches(a, cfg, restarts, monkeypatch):
    """Merge the first restarts of cfg in one wave and check its caches
    against fresh eigendecompositions of the unpacked Grams: whenever the
    merge decomposes Grams, every cached entry of each restart's triangle
    whose two slots are live (a value outlives its slots' changes only if
    invalidation fails; a dead slot's entries are never read), and at the
    end every point-pair entry that a round sampled. _merge_init keeps its
    caches in locals, read here from its frame. Returns the merged
    labels, how many triangle dimensions and bounds were checked, and how
    many point-pair dimensions."""
    d, n = a.shape
    children = np.random.SeedSequence(cfg.seed).spawn(restarts)
    seen, checked = {}, np.zeros(2, dtype=int)
    merged_dims = optimizer._merged_dims

    def spy(grams, tril, x, y, eps, piece):
        f = sys._getframe(1).f_locals
        seen.update(value=f["value"], exact=f["exact"], n_pairs=f["n_pairs"])
        if f["caching"]:
            full = unpacked(grams, d)
            ci, cj = np.triu_indices(f["late"], 1)
            alive = np.zeros(restarts * n, dtype=bool)
            for r in range(restarts):
                alive[f["live"][r] + r * n] = True
                block = slice(f["late_block"][r], f["late_block"][r] + ci.size)
                sx, sy = f["late_slots"][r, ci], f["late_slots"][r, cj]
                both = alive[sx] & alive[sy]
                checked[:] += check_cached(
                    full, f["value"][block][both], f["exact"][block][both],
                    f["gram_row"][sx[both]], f["gram_row"][sy[both]], eps)
        return merged_dims(grams, tril, x, y, eps, piece)

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_merged_dims", spy)
        labels = _merge_init(a, cfg, [np.random.default_rng(c) for c in children])
    i, j = np.triu_indices(n, 1)
    p = seen["n_pairs"]
    pair_dims, pair_bounds = check_cached(_point_grams(a)[0], seen["value"][:p],
                                          seen["exact"][:p], i, j, cfg.eps)
    # A point pair holds its screen bound from the round that first
    # samples it until it is decomposed; an unsampled pair holds nothing.
    # In R^1 no union is small enough to screen, so none holds a bound.
    if d < 2:
        assert pair_bounds == 0
    return labels, checked, pair_dims


@pytest.mark.parametrize("scale", ORACLE_SCALES, ids=["unscaled", "2^-498", "2^498"])
@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_packed_grams_keep_full_gram_spectra(kind, scale):
    # The merge keeps each Gram as its lower triangle, which is all that
    # eigvalsh reads. Unions of 2 to 12 points, each a running sum of its
    # point Grams as the merge's pool rows are, must give the full
    # sums' eigenvalues bit for bit when summed packed and scattered into
    # a zero upper triangle, and _merged_dims on pairs of them the merged
    # dimensions of the full sums.
    a = oracle_case(kind, 3, 43) * scale
    d, n = a.shape
    full, _ = _point_grams(a)
    tril = np.tril_indices(d)
    packed = full[:, tril[0], tril[1]]
    rng = np.random.default_rng(7)
    sets = [rng.choice(n, size=m, replace=False) for m in rng.integers(2, 13, size=40)]
    sums = []
    for grams in (full, packed):
        rows = []
        for members in sets:
            row = grams[members[0]].copy()
            for i in members[1:]:
                row += grams[i]
            rows.append(row)
        sums.append(np.array(rows))
    mats = np.zeros((len(sets), d, d))
    mats[:, tril[0], tril[1]] = sums[1]
    assert np.linalg.eigvalsh(mats).tobytes() == np.linalg.eigvalsh(sums[0]).tobytes()
    x, y = rng.integers(0, n + len(sets), size=(2, 60))
    cfg = GdmConfig(n_clusters=3)
    got = optimizer._merged_dims(np.concatenate([packed, sums[1]]), tril, x, y, cfg.eps, 16)
    want = fresh_merged_dims(np.concatenate([full, sums[0]]), x, y, cfg.eps)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["two_view", "zero_and_duplicate"])
def test_shared_pair_dims_are_fresh_merged_dimensions(kind, monkeypatch):
    # Five restarts of 48 points merge in one wave with 40 candidates, so
    # each restart caches its own pairs from 41 live sets down: each must
    # give its lone merge's labels, and every cached dimension must be
    # that of one fresh eigendecomposition.
    a = oracle_case(kind, 3, 43)
    cfg = GdmConfig(n_clusters=3, merge_candidates=40, seed=43)
    merged, checked, pair_dims = check_merge_caches(a, cfg, 5, monkeypatch)
    assert checked.min() > 0 and pair_dims > 2 * a.shape[1]
    for child, labels in zip(np.random.SeedSequence(cfg.seed).spawn(5), merged):
        np.testing.assert_array_equal(
            labels, greedy_merge_init(a, cfg, np.random.default_rng(child)))


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


# Gram matrices that the merges of one default call decompose on a
# fixed two-view scene, by size: 9 x 9 merged Grams and the 4 x 4 Grams
# behind the merge screen's bounds, point pairs' among them (zero-padded
# to 4 x 4, each bounded once per call, when first sampled). At N = 120
# and 150 the call is gdm; at N = 240 it is the merge alone, with the
# restarts' own caches starting at 101 live sets. A merge cache that
# drops entries it could keep gives the same labels but raises the first
# count; one that stops caching bounds raises the second; one that
# caches before its switch lowers them.
MERGE_EIGVALSH_MATRICES = {
    120: {9: 14712, 4: 34438},
    150: {9: 21029, 4: 52761},
    240: {9: 45133, 4: 110947},
}


@pytest.mark.parametrize("k, sizes, seed, merge_only",
                         [(2, [60, 60], 900, False), (3, [50, 50, 50], 901, False),
                          (3, [80, 80, 80], 11, True)],
                         ids=["k2_n120", "k3_n150", "k3_n240_merge"])
def test_merge_eigvalsh_counts(k, sizes, seed, merge_only, monkeypatch):
    scene = sample_two_view_scene(k, sizes, noise_sigma=0.001, seed=seed)
    a = embed_dataset(scene.correspondences)
    matrices = {}
    eigvalsh = np.linalg.eigvalsh

    def counting(batch):
        size = batch.shape[-1]
        matrices[size] = matrices.get(size, 0) + batch.shape[0]
        return eigvalsh(batch)

    def merge(*args):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", counting)
            return _merge_init(*args)

    monkeypatch.setattr(optimizer, "_merge_init", merge)
    cfg = GdmConfig(n_clusters=k, seed=11)
    if merge_only:
        optimizer._merged_restarts(a, cfg)
    else:
        gdm(a, cfg)
    assert matrices == MERGE_EIGVALSH_MATRICES[a.shape[1]]


# 9 x 9 Grams that the refine screens of the same N = 120 and N = 150
# gdm calls decompose. Screening points past the stop index again, or
# blocks that an accepted move throws away, gives the same labels but
# raises them.
REFINE_SCREEN_MATRICES = {120: 9846, 150: 27120}
# SVDs that their refine waves run: K per distinct start for its
# dimensions, and K per tried point. A try of a point that the screen
# clears, or of one past the stop index, raises them.
REFINE_SVDS = {120: 228, 150: 831}


@pytest.mark.parametrize("k, sizes, seed", [(2, [60, 60], 900), (3, [50, 50, 50], 901)],
                         ids=["k2_n120", "k3_n150"])
def test_refine_screen_counts(k, sizes, seed, monkeypatch):
    scene = sample_two_view_scene(k, sizes, noise_sigma=0.001, seed=seed)
    a = embed_dataset(scene.correspondences)
    matrices = []
    eigvalsh = np.linalg.eigvalsh
    screen = optimizer._screen_moves

    def counting(batch):
        assert batch.shape[-1] == 9
        matrices.append(int(np.prod(batch.shape[:-2])))
        return eigvalsh(batch)

    def spy(*args):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", counting)
            return screen(*args)

    monkeypatch.setattr(optimizer, "_screen_moves", spy)
    svd = np.linalg.svd
    refine_wave = optimizer._refine_wave
    svds = []

    def counting_svd(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    def wave(*args):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", counting_svd)
            return refine_wave(*args)

    monkeypatch.setattr(optimizer, "_refine_wave", wave)
    gdm(a, GdmConfig(n_clusters=k, seed=11))
    assert sum(matrices) == REFINE_SCREEN_MATRICES[a.shape[1]]
    assert len(svds) == REFINE_SVDS[a.shape[1]]


def merge_layout_bytes(d, n, r, c, cached):
    """Bytes that the merges of one call need by their layout, with
    cached pairs beyond the point pairs' P = N(N-1)/2. A cached pair is a
    float64 value and a bool mask entry, 9 bytes. A Gram is packed as its
    T = D(D+1)/2 lower-triangle entries: the N point Grams and N / 2
    pool Grams per restart, (N + R N / 2) T float64s. A round's
    temporaries are one eigvalsh piece of at most N Grams, the D x D
    batch and two gathered packed addends, N (D^2 + 2 T); and per
    candidate at most 40 + 4 D float64s of index, score and screen arrays
    (the 4 x D union blocks and their 4 x 4 Grams)."""
    t = d * (d + 1) // 2
    return (9 * (n * (n - 1) // 2 + cached)
            + 8 * ((n + r * (n // 2)) * t + n * (d * d + 2 * t) + r * c * (40 + 4 * d)))


def test_merge_peak_memory_is_bounded_by_its_layout():
    # The tracemalloc peak of the merges of one call, 10 restarts of
    # N = 240 points in R^9 with C = 100 candidates, against what the
    # layout needs (merge_layout_bytes), with each restart's triangle
    # from C + 1 live sets down, (C + 1) C / 2 pairs. That is 2.17 MB;
    # 0.5 MB more covers smaller arrays (2.31 MB measured). Full 9 x 9
    # pool Grams and a float64 bound array beside the values peak at
    # 3.42 MB.
    scene = sample_two_view_scene(3, [80, 80, 80], noise_sigma=0.001, seed=11)
    a = embed_dataset(scene.correspondences)
    (d, n), r, c = a.shape, 10, 100
    cfg = GdmConfig(n_clusters=3, restarts=r, merge_candidates=c, seed=11)
    layout = merge_layout_bytes(d, n, r, c, r * (c + 1) * c // 2)
    tracemalloc.start()
    try:
        optimizer._merged_restarts(a, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= layout + 500_000, (peak, layout)
    # With C >= N every restart caches all its pairs from the first
    # round, a triangle of N(N-1)/2 pairs, and merged Grams are still
    # decomposed in pieces of at most N. Ten restarts of N = 120 points
    # in R^20 with C = 120 give 3.86 MB (3.81 MB measured); full Gram
    # rows and a bound array peak at 5.06 MB, and decomposing all of a
    # round's misses at once adds more.
    a = sample_subspace_mixture(SyntheticSpec(
        dims=(2, 3, 4), ambient=20, points_per_cluster=40, noise_sigma=0.01, seed=11)).data
    (d, n), c = a.shape, 120
    cfg = GdmConfig(n_clusters=3, restarts=r, merge_candidates=c, seed=11)
    layout = merge_layout_bytes(d, n, r, c, r * n * (n - 1) // 2)
    tracemalloc.start()
    try:
        optimizer._merged_restarts(a, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= layout + 500_000, (peak, layout)


@pytest.mark.parametrize("scale", ORACLE_SCALES, ids=["unscaled", "2^-498", "2^498"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_merge_screen_bounds_are_below_fresh_dimensions(kind, k, scale, monkeypatch):
    _, checked, _ = check_merge_caches(oracle_case(kind, k, 40 + k) * scale,
                                    GdmConfig(n_clusters=k, seed=40 + k), 3, monkeypatch)
    assert checked[1] > 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_merge_screen_in_fewer_than_four_dimensions(d, monkeypatch):
    # With D < 4 the screen takes unions of at most D points: none in
    # R^1, point pairs alone in R^2, up to three points in R^3. The
    # merges stay the reference's.
    rng = np.random.default_rng(d)
    a = np.concatenate([np.outer(rng.normal(size=d), rng.normal(size=15)),
                        rng.normal(size=(d, 15))], axis=1)
    a[:, 3] = 0.0
    a[:, 7] = a[:, 2]
    cfg = GdmConfig(n_clusters=3, merge_candidates=40, seed=d)
    merged, checked, _ = check_merge_caches(a, cfg, 3, monkeypatch)
    assert (checked[1] > 0) == (d == 3)
    children = np.random.SeedSequence(cfg.seed).spawn(3)
    for child, labels in zip(children, merged):
        np.testing.assert_array_equal(
            labels, reference_merge_init(a, cfg, np.random.default_rng(child)))


@pytest.mark.parametrize("p", [1e-6, 322.72], ids=["p1e-6", "p322.72"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_merge_screen_slack_holds_at_both_ends_of_p(kind, k, p, monkeypatch):
    # The screen's rounding slack multiplies bound**p: as p -> 0 it must
    # cover pow's own rounding, and at 322.72, the largest p that
    # 9-dimensional data allow, the bounds' rounding raised to p. Three
    # restarts merge in one wave, with and without the screen; both must
    # give every restart's reference labels, and the screen must spare
    # some 9 x 9 eigendecompositions. 40 candidates keep the reference
    # cheap.
    a = oracle_case(kind, k, 40 + k)
    cfg = GdmConfig(n_clusters=k, p=p, merge_candidates=40, seed=40 + k)
    children = np.random.SeedSequence(cfg.seed).spawn(3)
    want = [reference_merge_init(a, cfg, np.random.default_rng(c)) for c in children]
    merged_dims = optimizer._merged_dims
    decomposed = []

    def counting(grams, tril, x, y, eps, piece):
        decomposed[-1] += x.size
        return merged_dims(grams, tril, x, y, eps, piece)

    monkeypatch.setattr(optimizer, "_merged_dims", counting)
    for points in (optimizer._SCREEN_POINTS, 1):
        monkeypatch.setattr(optimizer, "_SCREEN_POINTS", points)
        decomposed.append(0)
        merged = _merge_init(a, cfg, [np.random.default_rng(c) for c in children])
        for labels, ref in zip(merged, want):
            np.testing.assert_array_equal(labels, ref)
    assert decomposed[0] < decomposed[1]
