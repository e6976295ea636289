from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

from gdm import (
    DegenerateClusterError,
    GdmConfig,
    InsufficientInliersError,
    InvalidInputError,
    InvalidParameterError,
    OutlierConfig,
    SegmentationResult,
    SyntheticSpec,
    empirical_dimension,
    fit_cluster_subspace,
    gdm,
    gdm_naive,
    gdm_outlier_core,
    known_fraction,
    misclassification_rate,
    model_reassign,
    sample_subspace_mixture,
    segment_with_outliers,
    subspace_distances,
    tpr_fpr,
)
from gdm import robust
from gdm.robust import OUTLIER_INIT_MASS

from oracles import lstsq_subspace_distance


def planted(seed, outlier_count=12, points=30, noise=0.01, radius=3.0):
    spec = SyntheticSpec(
        dims=(2, 3), ambient=9, points_per_cluster=points, noise_sigma=noise,
        outlier_count=outlier_count, outlier_radius=radius, seed=seed,
    )
    return sample_subspace_mixture(spec)


def test_outlier_config_validation():
    OutlierConfig(mode="model_reassign")
    with pytest.raises(InvalidParameterError):
        OutlierConfig(mode="sometimes")
    with pytest.raises(InvalidParameterError):
        OutlierConfig(fraction=1.5)
    with pytest.raises(InvalidParameterError):
        OutlierConfig(kappa=0.0)
    for bad in (dict(alpha=float("nan")), dict(alpha=float("inf")), dict(kappa=float("nan"))):
        with pytest.raises(InvalidParameterError):
            OutlierConfig(**bad)


class TestOutlierCore:
    def test_large_alpha_starves_the_outlier_row(self):
        mix = planted(0)
        m = gdm_outlier_core(mix.data, GdmConfig(n_clusters=2, seed=0), alpha=1e3)
        assert m[0].max() < 1e-2

    def test_zero_alpha_lets_the_outlier_row_absorb_mass(self):
        mix = planted(1)
        m = gdm_outlier_core(mix.data, GdmConfig(n_clusters=2, seed=1), alpha=0.0)
        assert m[0].mean() > OUTLIER_INIT_MASS
        assert m[0][mix.labels < 0].mean() > 0.5

    def test_true_outliers_attract_more_outlier_mass(self):
        for seed in range(3):
            mix = planted(seed + 10)
            m = gdm_outlier_core(mix.data, GdmConfig(n_clusters=2, seed=seed), alpha=0.01)
            inlier_mass = m[0][mix.labels >= 0].mean()
            outlier_mass = m[0][mix.labels < 0].mean()
            assert outlier_mass > inlier_mass

    def test_ranking_stable_under_alpha_perturbation(self):
        overlaps = []
        for seed in range(3):
            mix = planted(seed, outlier_count=30, points=60)
            cfg = GdmConfig(n_clusters=2, seed=seed)
            n_top = mix.outliers.size
            tops = []
            for alpha in (0.005, 0.01, 0.02):
                m = gdm_outlier_core(mix.data, cfg, alpha=alpha)
                tops.append(set(np.argsort(-m[0], kind="stable")[:n_top].tolist()))
            overlaps.append(len(tops[0] & tops[1]) / n_top)
            overlaps.append(len(tops[2] & tops[1]) / n_top)
        assert np.median(overlaps) >= 0.9


class TestKnownFraction:
    @pytest.mark.parametrize("alpha", [float("inf"), float("nan")])
    def test_non_finite_alpha_is_rejected(self, alpha):
        # Rejected before any merge or descent runs: an infinite alpha
        # used to reach the SVDs as NaN memberships.
        mix = planted(4, outlier_count=3, points=12)
        with pytest.raises(InvalidParameterError, match="alpha"):
            known_fraction(mix.data, GdmConfig(n_clusters=2, seed=4), alpha=alpha)

    def test_tiny_fraction_marks_exactly_one_point(self):
        mix = planted(4, outlier_count=0, points=12)
        kf = known_fraction(mix.data, GdmConfig(n_clusters=2, seed=4), fraction=0.01)
        assert kf.outliers.size == 1
        assert (kf.labels == -1).sum() == 1

    def test_recovers_planted_outliers(self):
        mix = planted(5, outlier_count=30, points=60)
        n = mix.data.shape[1]
        kf = known_fraction(mix.data, GdmConfig(n_clusters=2, seed=5), fraction=0.2)
        tpr, fpr = tpr_fpr(kf.outliers, mix.outliers, n)
        assert tpr >= 80.0
        assert misclassification_rate(kf.labels, mix.labels) <= 5.0

    def test_over_rejection_is_mostly_harmless(self):
        # no planted outliers: rejecting 20% should cost little accuracy
        clean_err, kf_err = [], []
        for seed in range(6):
            mix = planted(seed + 30, outlier_count=0, points=25)
            cfg = GdmConfig(n_clusters=2, seed=seed)
            clean_err.append(misclassification_rate(gdm(mix.data, cfg).labels, mix.labels))
            kf = known_fraction(mix.data, cfg, fraction=0.2)
            kf_err.append(misclassification_rate(kf.labels, mix.labels))
        assert np.median(kf_err) <= np.median(clean_err) + 2.0

    def test_insufficient_inliers(self):
        mix = planted(6, outlier_count=0, points=4)
        with pytest.raises(InsufficientInliersError):
            known_fraction(mix.data, GdmConfig(n_clusters=2, seed=6), fraction=0.9)


RESULT_ARRAYS = ("labels", "outliers", "membership", "per_cluster_dims", "trace",
                 "restart_gd_values")


def assert_same_result(got, want):
    """Bitwise equality of every field of two SegmentationResults."""
    for name in RESULT_ARRAYS:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name
    assert np.float64(got.gd_value).tobytes() == np.float64(want.gd_value).tobytes()
    assert got.restarts_run == want.restarts_run


@pytest.fixture
def core_calls(monkeypatch):
    """Counts the gdm_outlier_core runs made by known_fraction."""
    calls = []
    real = robust.gdm_outlier_core

    def spy(a, cfg, alpha=0.01):
        calls.append((a.shape, cfg, alpha))
        return real(a, cfg, alpha=alpha)

    monkeypatch.setattr(robust, "gdm_outlier_core", spy)
    return calls


class TestKnownFractionSlot:
    """known_fraction remembers its last seeded call and nothing more."""

    cfg = GdmConfig(n_clusters=2, seed=21, restarts=2, grad_iters=8, genetic_passes=2)

    def data(self):
        a = planted(21, outlier_count=6, points=15).data
        a[0, 0] = 0.0
        return a

    def test_hit_is_a_fresh_computation(self, core_calls):
        a = self.data()
        first = known_fraction(a, self.cfg)
        for name in RESULT_ARRAYS:
            getattr(first, name)[...] = 7
        hit = known_fraction(a, self.cfg)
        again = known_fraction(a, self.cfg)
        assert len(core_calls) == 1
        for name in RESULT_ARRAYS:
            assert not np.shares_memory(getattr(hit, name), getattr(again, name))
            getattr(hit, name)[...] = -3
        robust._last_known_fraction = None
        fresh = known_fraction(a, self.cfg)
        assert len(core_calls) == 2
        assert_same_result(again, fresh)
        assert np.all(fresh.labels[fresh.outliers] == -1)

    @pytest.mark.parametrize("change", [
        "one_ulp", "negative_zero", "n_clusters", "eps", "p", "restarts",
        "grad_iters", "genetic_passes", "step_target", "merge_candidates",
        "seed", "fraction", "alpha",
    ])
    def test_misses_on_any_key_change(self, change, core_calls):
        a, cfg, kw = self.data(), self.cfg, dict(fraction=0.2, alpha=0.01)
        b, other_cfg, other_kw = a.copy(), cfg, dict(kw)
        if change == "one_ulp":
            b[3, 5] = np.nextafter(b[3, 5], np.inf)
        elif change == "negative_zero":
            b[0, 0] = -0.0
        elif change == "fraction":
            other_kw["fraction"] = 0.3
        elif change == "alpha":
            other_kw["alpha"] = 0.02
        else:
            value = getattr(cfg, change)
            step = 1 if isinstance(value, int) else 0.05
            other_cfg = replace(cfg, **{change: value + step})
        known_fraction(a, cfg, **kw)
        known_fraction(a, cfg, **kw)
        assert len(core_calls) == 1
        known_fraction(b, other_cfg, **other_kw)
        assert len(core_calls) == 2

    def test_equal_key_from_new_objects_hits(self, core_calls):
        a = self.data()
        n = a.shape[1]
        first = known_fraction(a, self.cfg, fraction=0.2)
        # Another array with the same bits, an equal config and a
        # fraction that rejects as many points.
        same_n_out = (np.ceil(0.2 * n) - 0.5) / n
        hit = known_fraction(a.tolist(), replace(self.cfg), fraction=same_n_out)
        assert len(core_calls) == 1
        assert_same_result(hit, first)

    def test_unseeded_calls_never_use_the_slot(self, core_calls):
        a = self.data()
        unseeded = replace(self.cfg, seed=None)
        known_fraction(a, unseeded)
        assert robust._last_known_fraction is None
        known_fraction(a, self.cfg)
        known_fraction(a, unseeded)
        known_fraction(a, unseeded)
        known_fraction(a, self.cfg)
        assert len(core_calls) == 4

    def test_one_slot(self, core_calls):
        a = self.data()
        b = planted(22, outlier_count=6, points=15).data
        for data in (a, b, b, a, a):
            known_fraction(data, self.cfg)
        assert len(core_calls) == 3

    def test_errors_are_not_remembered(self, core_calls):
        a = self.data()
        known_fraction(a, self.cfg)
        for _ in range(2):
            with pytest.raises(InvalidParameterError):
                known_fraction(a, self.cfg, alpha=float("nan"))
        known_fraction(a, self.cfg)
        # alpha is checked before the slot is read, so a rejected alpha
        # never reaches the outlier core and True does not hit alpha=1.
        assert len(core_calls) == 1
        known_fraction(a, self.cfg, alpha=1)
        with pytest.raises(InvalidParameterError, match="alpha must be a real number"):
            known_fraction(a, self.cfg, alpha=True)
        assert len(core_calls) == 2

    def test_model_reassign_then_roc_sweep_segments_once(self, core_calls):
        from gdm import reassignment_distances, roc_sweep

        mix = planted(21, outlier_count=6, points=15)
        grid = [0.01, 0.1, 1.0]
        res = model_reassign(mix.data, self.cfg)
        curve = roc_sweep(mix.data, self.cfg, mix.outliers, grid)
        nearest, _, _, _ = reassignment_distances(mix.data, self.cfg)
        assert len(core_calls) == 1
        robust._last_known_fraction = None
        assert roc_sweep(mix.data, self.cfg, mix.outliers, grid) == curve
        robust._last_known_fraction = None
        assert_same_result(model_reassign(mix.data, self.cfg), res)
        assert np.array_equal(res.labels[res.labels >= 0], nearest[res.labels >= 0])
        assert len(core_calls) == 3


class TestFittedSubspace:
    def test_rank_one_cluster(self):
        direction = np.array([3.0, 0.0, 4.0]) / 5.0
        pts = np.outer(direction, [1.0, -2.0, 0.5])
        sub = fit_cluster_subspace(pts, eps=0.35)
        assert sub.dim == 1
        assert abs(abs(sub.basis[:, 0] @ direction) - 1.0) < 1e-12

    def test_isotropic_three_subspace(self):
        rng = np.random.default_rng(7)
        basis, _ = np.linalg.qr(rng.normal(size=(9, 3)))
        pts = basis @ rng.normal(size=(3, 500))
        sub = fit_cluster_subspace(pts, eps=0.35)
        assert sub.dim == 3
        assert np.abs(sub.basis.T @ sub.basis - np.eye(3)).max() < 1e-10

    def test_round_half_up(self):
        # craft spectra whose empirical dimension sits at the rounding
        # boundary by bisection; exactly 2.5 (and just above) must round
        # up to 3, while anything below rounds down to 2
        def bisect_to(target):
            lo, hi = 0.0, 1.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if empirical_dimension(np.array([1.0, 1.0, mid]), 0.35) < target:
                    lo = mid
                else:
                    hi = mid
            return hi  # guaranteed d_hat(hi) >= target

        t = bisect_to(2.5)
        d_hat = empirical_dimension(np.array([1.0, 1.0, t]), 0.35)
        assert d_hat == pytest.approx(2.5, abs=1e-9) and d_hat >= 2.5
        assert fit_cluster_subspace(np.diag([1.0, 1.0, t]), eps=0.35).dim == 3
        t_low = bisect_to(2.45)
        assert fit_cluster_subspace(np.diag([1.0, 1.0, t_low]), eps=0.35).dim == 2

    def test_empty_cluster(self):
        with pytest.raises(DegenerateClusterError):
            fit_cluster_subspace(np.zeros((3, 0)))
        with pytest.raises(DegenerateClusterError):
            fit_cluster_subspace(np.zeros((3, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points(self, bad):
        pts = np.eye(3)
        pts[1, 2] = bad
        with pytest.raises(InvalidInputError):
            fit_cluster_subspace(pts)


def point_distance(v, sub):
    return subspace_distances(v[:, None], sub)[0]


class TestSubspaceDistance:
    def test_in_span_and_orthogonal(self):
        basis, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(5, 2)))
        sub = fit_cluster_subspace(basis @ np.random.default_rng(1).normal(size=(2, 10)))
        v_in = basis @ np.array([0.3, -0.7])
        assert point_distance(v_in, sub) < 1e-12
        # complete to an orthogonal direction
        q, _ = np.linalg.qr(np.concatenate([basis, np.eye(5)[:, :1]], axis=1))
        v_orth = 2.0 * q[:, 2]
        assert point_distance(v_orth, sub) == pytest.approx(2.0, abs=1e-10)

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(2)
        basis, _ = np.linalg.qr(rng.normal(size=(9, 3)))
        sub = fit_cluster_subspace(basis @ rng.normal(size=(3, 30)))
        for _ in range(10):
            v = rng.normal(size=9)
            assert point_distance(v, sub) == pytest.approx(
                lstsq_subspace_distance(v, sub.basis), abs=1e-10
            )


class TestModelReassign:
    def test_noiseless_planted_instance_perfect_fpr(self):
        mix = planted(8, outlier_count=12, points=30, noise=0.0)
        res = model_reassign(mix.data, GdmConfig(n_clusters=2, seed=8), kappa=0.05)
        tpr, fpr = tpr_fpr(res.outliers, mix.outliers, mix.data.shape[1])
        assert fpr == 0.0
        assert tpr >= 90.0
        assert misclassification_rate(res.labels, mix.labels) == 0.0

    def test_infinite_kappa_keeps_everyone(self):
        from gdm import reassignment_distances

        mix = planted(9, outlier_count=10, points=25)
        cfg = GdmConfig(n_clusters=2, seed=9)
        res = model_reassign(mix.data, cfg, kappa=np.inf)
        assert res.outliers.size == 0
        assert np.all(res.labels >= 0)
        # consistency: with no rejection the labels are exactly the
        # nearest-subspace reassignment of the known-fraction stage
        nearest, _, _, _ = reassignment_distances(mix.data, cfg)
        np.testing.assert_array_equal(res.labels, nearest)

    def test_kappa_must_be_positive(self):
        mix = planted(11, outlier_count=5, points=20)
        for kappa in (0.0, float("nan")):
            with pytest.raises(InvalidParameterError):
                model_reassign(mix.data, GdmConfig(n_clusters=2, seed=11), kappa=kappa)


@pytest.mark.parametrize("second", ["empty", "all zero"])
def test_reassignment_skips_a_cluster_it_cannot_fit(second, monkeypatch):
    rng = np.random.default_rng(0)
    a = np.hstack([rng.normal(size=(3, 1)) * rng.normal(size=10), np.zeros((3, 4))])
    labels = np.zeros(14, dtype=int)
    if second == "all zero":
        labels[10:] = 1
    stage = SimpleNamespace(labels=labels)
    monkeypatch.setattr(robust, "known_fraction", lambda *args, **kwargs: stage)
    nearest, min_dist, dists, kf = robust.reassignment_distances(
        a, GdmConfig(n_clusters=2, seed=0)
    )
    assert kf is stage
    assert np.all(dists[1] == np.inf)
    np.testing.assert_array_equal(nearest, 0)
    np.testing.assert_array_equal(min_dist, dists[0])
    assert min_dist.max() < 1e-12


def test_reassignment_needs_a_cluster_it_can_fit():
    cfg = GdmConfig(n_clusters=2, seed=0, restarts=2)
    with pytest.raises(DegenerateClusterError, match="no nonempty cluster"):
        model_reassign(np.zeros((9, 20)), cfg)


def test_outliers_are_derived_from_the_labels():
    res = SegmentationResult(
        labels=np.array([0, -1, 1, -1]), gd_value=0.0, per_cluster_dims=np.zeros(2),
        membership=np.zeros((2, 4)), restarts_run=1, trace=np.empty(0),
    )
    np.testing.assert_array_equal(res.outliers, [1, 3])
    np.testing.assert_array_equal(replace(res, labels=np.array([-1, 0, 0, 1])).outliers, [0])
    assert "outliers" not in asdict(res)
    with pytest.raises(TypeError):
        replace(res, outliers=np.array([0]))


def test_gdm_naive_flags_and_labels():
    mix = planted(12, outlier_count=12, points=30)
    res = gdm_naive(mix.data, GdmConfig(n_clusters=2, seed=12), alpha=0.02)
    assert res.labels.size == mix.data.shape[1]
    assert np.all(res.labels[res.outliers] == -1)
    assert np.all(res.labels[np.setdiff1d(np.arange(res.labels.size), res.outliers)] >= 0)


def test_segment_with_outliers_dispatch():
    mix = planted(13, outlier_count=8, points=20)
    n = mix.data.shape[1]
    cfg = GdmConfig(n_clusters=2, seed=13)
    results = {
        mode: segment_with_outliers(mix.data, cfg, OutlierConfig(mode=mode))
        for mode in ("none", "naive", "known_fraction", "model_reassign")
    }
    for res in results.values():
        assert res.labels.size == n
        np.testing.assert_array_equal(res.outliers, np.flatnonzero(res.labels < 0))
    assert results["none"].outliers.size == 0
    assert results["naive"].membership.shape == (3, n)
    assert results["known_fraction"].outliers.size == int(np.ceil(0.2 * n))


class TestTprFpr:
    def test_exact_prediction(self):
        assert tpr_fpr([1, 5, 9], [1, 5, 9], 20) == (100.0, 0.0)

    def test_empty_prediction(self):
        assert tpr_fpr([], [1, 5, 9], 20) == (0.0, 0.0)

    def test_partial(self):
        true = list(range(10))
        pred = list(range(7)) + [50, 60, 70]
        tpr, fpr = tpr_fpr(pred, true, 100)
        assert tpr == pytest.approx(70.0)
        assert fpr == pytest.approx(100.0 * 3 / 90)

    def test_no_true_outliers(self):
        assert tpr_fpr([3], [], 10) == (0.0, 100.0 / 10)

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            tpr_fpr([11], [0], 10)

    @pytest.mark.parametrize("pred, true", [([1.7], [1]), ([1], [0.5]), ([np.nan], [1]),
                                            ([1e20], [1]), ([float(2**63)], [1]),
                                            ([np.uint64(2**63)], [1])])
    def test_indices_that_are_not_whole_numbers(self, pred, true):
        with pytest.raises(InvalidInputError):
            tpr_fpr(pred, true, 3)
        assert tpr_fpr([1.0], [1], 3) == (100.0, 0.0)

    @pytest.mark.parametrize("n_points", [2.5, -1, True, 3.0])
    def test_bad_point_count(self, n_points):
        with pytest.raises(InvalidInputError):
            tpr_fpr([], [], n_points)
        assert tpr_fpr([], [], np.int64(3)) == (0.0, 0.0)
