import numpy as np
import pytest

from gdm import (
    GdmConfig,
    InvalidInputError,
    InvalidParameterError,
    SceneGenerationError,
    SyntheticSpec,
    embed_dataset,
    empirical_dimension,
    fundamental_from_motion,
    misclassification_rate,
    numerical_rank,
    roc_sweep,
    rotation_matrix,
    sample_subspace_mixture,
    sample_two_view_scene,
    singular_values,
)
from gdm import robust


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SyntheticSpec(dims=(9,), ambient=9)
        with pytest.raises(InvalidParameterError):
            SyntheticSpec(dims=(3,), points_per_cluster=3)
        with pytest.raises(InvalidParameterError):
            SyntheticSpec(dims=())
        with pytest.raises(InvalidParameterError):
            SyntheticSpec(dims=(2,), noise_sigma=-1.0)

    @pytest.mark.parametrize("dims, counts", [((2, 3), [50]), ((2,), [5, 40])],
                             ids=["short", "long"])
    def test_count_list_must_match_dims(self, dims, counts):
        with pytest.raises(InvalidParameterError, match="points_per_cluster length"):
            SyntheticSpec(dims=dims, points_per_cluster=counts)

    @pytest.mark.parametrize("bad", [dict(noise_sigma=float("nan")),
                                     dict(noise_sigma=np.inf),
                                     dict(outlier_radius=float("nan")),
                                     dict(outlier_radius=np.inf),
                                     dict(outlier_radius=0.0)],
                             ids=["nan_sigma", "inf_sigma", "nan_radius", "inf_radius",
                                  "zero_radius"])
    def test_non_finite_noise_or_radius_is_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            SyntheticSpec(dims=(2,), outlier_count=3, **bad)

    def test_per_cluster_counts(self):
        spec = SyntheticSpec(dims=(1, 2), points_per_cluster=(5, 9))
        assert spec.counts() == (5, 9)

    def test_counts_are_read_once(self):
        spec = SyntheticSpec(dims=(1, 2), points_per_cluster=iter([5, 6]))
        assert spec.points_per_cluster == (5, 6)
        mix = sample_subspace_mixture(spec)
        assert mix.data.shape == (9, 11)
        np.testing.assert_array_equal(mix.labels, [0] * 5 + [1] * 6)

    @pytest.mark.parametrize("bad", [dict(dims=(2.7,)), dict(dims=(True, 2)),
                                     dict(points_per_cluster=7.9),
                                     dict(points_per_cluster=(8, 9.5)),
                                     dict(points_per_cluster=True),
                                     dict(outlier_count=2.5), dict(outlier_count=True),
                                     dict(outlier_count=np.float64(3.0)),
                                     dict(ambient=9.5)],
                             ids=["float_dim", "bool_dim", "float_count", "float_in_list",
                                  "bool_count", "float_outliers", "bool_outliers",
                                  "numpy_float_outliers", "float_ambient"])
    def test_non_integer_counts_are_rejected(self, bad):
        spec = dict(dims=(2, 3), points_per_cluster=8, outlier_count=3)
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            SyntheticSpec(**{**spec, **bad})

    def test_numpy_integer_counts_are_accepted(self):
        spec = SyntheticSpec(dims=(np.int64(2), np.int32(3)),
                             points_per_cluster=np.int64(8), outlier_count=np.uint8(3))
        assert spec.dims == (2, 3) and spec.counts() == (8, 8)
        assert sample_subspace_mixture(spec).data.shape == (9, 19)


class TestSubspaceMixture:
    def test_noiseless_cluster_ranks(self):
        spec = SyntheticSpec(dims=(2,), ambient=9, points_per_cluster=40, seed=0)
        mix = sample_subspace_mixture(spec)
        assert numerical_rank(singular_values(mix.data), rel_tol=1e-10) == 2

    def test_deterministic(self):
        spec = SyntheticSpec(dims=(2, 3), points_per_cluster=20,
                             outlier_count=5, noise_sigma=0.01, seed=9)
        a = sample_subspace_mixture(spec)
        b = sample_subspace_mixture(spec)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_noiseless_empirical_dimension_close_to_true(self):
        spec = SyntheticSpec(dims=(2, 3, 4), points_per_cluster=200, seed=1)
        mix = sample_subspace_mixture(spec)
        for k, d in enumerate(spec.dims):
            s = singular_values(mix.data[:, mix.labels == k])
            d_hat = empirical_dimension(s, 0.35)
            assert d - 0.3 <= d_hat <= d

    def test_outlier_bookkeeping(self):
        spec = SyntheticSpec(dims=(2,), points_per_cluster=10,
                             outlier_count=4, outlier_radius=2.5, seed=2)
        mix = sample_subspace_mixture(spec)
        assert mix.data.shape[1] == 14
        np.testing.assert_array_equal(mix.outliers, [10, 11, 12, 13])
        assert np.all(mix.labels[mix.outliers] == -1)
        assert np.all(np.linalg.norm(mix.data[:, mix.outliers], axis=0) <= 2.5)


class TestTwoViewScene:
    def test_deterministic(self):
        a = sample_two_view_scene(2, 20, noise_sigma=0.001, n_outliers=3, seed=4)
        b = sample_two_view_scene(2, 20, noise_sigma=0.001, n_outliers=3, seed=4)
        np.testing.assert_array_equal(a.correspondences, b.correspondences)

    def test_single_body_rank_at_most_8(self):
        for seed in range(4):
            scene = sample_two_view_scene(1, 35, seed=seed)
            s = singular_values(embed_dataset(scene.correspondences))
            assert s[8] < 1e-8 * s[0]

    def test_coplanar_rank_at_most_6(self):
        for seed in range(4):
            scene = sample_two_view_scene(1, 35, coplanar=True, seed=seed)
            s = singular_values(embed_dataset(scene.correspondences))
            assert s[6] < 1e-8 * s[0]

    def test_epipolar_constraint_per_body(self):
        scene = sample_two_view_scene(3, 25, seed=7)
        data = embed_dataset(scene.correspondences)
        for body, (rot, shift) in enumerate(scene.motions):
            f = fundamental_from_motion(rot, shift)
            vec_f = f.reshape(-1)
            vec_f = vec_f / np.linalg.norm(vec_f)
            residuals = np.abs(vec_f @ data[:, scene.labels == body])
            assert residuals.max() < 1e-8

    def test_per_body_counts_and_outliers(self):
        scene = sample_two_view_scene(2, (12, 30), n_outliers=6, seed=8)
        assert (scene.labels == 0).sum() == 12
        assert (scene.labels == 1).sum() == 30
        assert scene.outliers.size == 6
        assert scene.correspondences.shape == (48, 4)

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            sample_two_view_scene(0, 10)
        with pytest.raises(InvalidParameterError):
            sample_two_view_scene(2, (10,))
        for kwargs in ({"points_per_body": 0}, {"points_per_body": (10, 0)},
                       {"n_outliers": -3}, {"noise_sigma": -1.0},
                       {"noise_sigma": np.nan}, {"noise_sigma": np.inf}):
            with pytest.raises(InvalidParameterError):
                sample_two_view_scene(**{"n_bodies": 2, "points_per_body": 10, **kwargs})
        with pytest.raises(SceneGenerationError):
            sample_two_view_scene(1, 10, seed=0, max_retries=0)

    @pytest.mark.parametrize("bad", [dict(points_per_body=7.9),
                                     dict(points_per_body=(10, 7.9)),
                                     dict(points_per_body=True), dict(n_bodies=2.5),
                                     dict(n_bodies=True), dict(n_outliers=2.5),
                                     dict(n_outliers=False), dict(max_retries=2.5)],
                             ids=["float_count", "float_in_list", "bool_count",
                                  "float_bodies", "bool_bodies", "float_outliers",
                                  "bool_outliers", "float_retries"])
    def test_non_integer_counts_are_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            sample_two_view_scene(**{"n_bodies": 2, "points_per_body": 10, **bad})

    def test_numpy_integer_counts_are_accepted(self):
        scene = sample_two_view_scene(np.int64(2), [np.int64(10), np.int32(12)],
                                      n_outliers=np.int64(3), seed=5)
        assert scene.correspondences.shape == (25, 4)


def test_rotation_matrix_is_orthogonal():
    rng = np.random.default_rng(0)
    for _ in range(5):
        r = rotation_matrix(rng.normal(size=3), rng.uniform(0, np.pi))
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0)


@pytest.mark.parametrize("axis", [[0, 0, 0], [np.nan, 0, 1], [np.inf, 0, 0], [1, 0]],
                         ids=["zero", "nan", "inf", "two_entries"])
def test_rotation_matrix_rejects_bad_axes(axis):
    with pytest.raises(InvalidParameterError):
        rotation_matrix(axis, 0.3)


class TestMisclassificationRate:
    def test_exact_match(self):
        assert misclassification_rate([0, 1, 1, 0], [0, 1, 1, 0]) == 0.0

    def test_swapped_labels(self):
        assert misclassification_rate([1, 0, 0, 1], [0, 1, 1, 0]) == 0.0

    def test_one_of_twenty(self):
        truth = [0] * 10 + [1] * 10
        pred = list(truth)
        pred[3] = 1
        assert misclassification_rate(pred, truth) == pytest.approx(5.0)

    def test_symmetric_under_relabeling(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 3, size=40)
        pred = rng.integers(0, 3, size=40)
        base = misclassification_rate(pred, truth)
        perm = np.array([2, 0, 1])
        assert misclassification_rate(perm[pred], truth) == base
        assert misclassification_rate(pred, perm[truth]) == base

    def test_outliers_excluded(self):
        truth = np.array([0, 0, 1, 1, -1, -1])
        pred = np.array([0, 0, 1, -1, 0, -1])
        # compared points: indices 0, 1, 2 -> all correct
        assert misclassification_rate(pred, truth) == 0.0

    def test_too_many_clusters(self):
        with pytest.raises(InvalidParameterError):
            misclassification_rate(np.arange(7), np.arange(7))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            misclassification_rate([0, 1], [0, 1, 1])

    @pytest.mark.parametrize("pred, true", [([0, 1.5], [0, 1]), ([0, 1], [0.2, 1]),
                                            ([0, np.nan], [0, 1]),
                                            ([0, 1, 1e20], [0, 1, 1]),
                                            ([0, 1, float(2**63)], [0, 1, 1]),
                                            ([0, 1, np.uint64(2**63)], [0, 1, 1]),
                                            ([0, 1, 2**63], [0, 1, 1]),
                                            ([0, 1, 10**400], [0, 1, 1])])
    def test_labels_that_are_not_whole_numbers(self, pred, true):
        with pytest.raises(InvalidInputError):
            misclassification_rate(pred, true)

    def test_labels_at_the_ends_of_the_int64_range(self):
        # -2**63 marks a reject; 2**63 - 1 is a label, also when unsigned,
        # where a float comparison would round it up to 2**63.
        top = 2**63 - 1
        assert misclassification_rate(np.array([-2**63, top, top, 0]), [0, 1, 1, 0]) == 0.0
        assert misclassification_rate(np.array([0, top, top], dtype=np.uint64),
                                      [0, 1, 1]) == 0.0


class TestRocSweep:
    def setup_method(self):
        spec = SyntheticSpec(dims=(1, 2), ambient=9, points_per_cluster=15,
                             noise_sigma=0.01, outlier_count=6,
                             outlier_radius=3.0, seed=3)
        self.mix = sample_subspace_mixture(spec)
        self.cfg = GdmConfig(n_clusters=2, seed=3)

    def test_extreme_thresholds(self):
        curve = roc_sweep(self.mix.data, self.cfg, self.mix.outliers,
                          [0.0, np.inf])
        assert curve[0][1:] == (100.0, 100.0)
        assert curve[-1][1:] == (0.0, 0.0)

    def test_monotone_in_kappa(self):
        grid = np.geomspace(1e-4, 5.0, 15)
        curve = roc_sweep(self.mix.data, self.cfg, self.mix.outliers, grid)
        tprs = [t for _, t, _ in curve]
        fprs = [f for _, _, f in curve]
        assert np.all(np.diff(tprs) <= 0)
        assert np.all(np.diff(fprs) <= 0)

    def test_reproducible(self):
        grid = [0.01, 0.1, 1.0]
        a = roc_sweep(self.mix.data, self.cfg, self.mix.outliers, grid)
        # Two computations, not a computation and a remembered result.
        robust._last_known_fraction.cache_clear()
        b = roc_sweep(self.mix.data, self.cfg, self.mix.outliers, grid)
        assert a == b

    def test_empty_grid(self):
        with pytest.raises(InvalidParameterError):
            roc_sweep(self.mix.data, self.cfg, self.mix.outliers, [])
        for grid in ([[0.1]], 0.1):
            with pytest.raises(InvalidParameterError):
                roc_sweep(self.mix.data, self.cfg, self.mix.outliers, grid)

    @pytest.mark.parametrize("kappa", [np.nan, -0.1, -np.inf])
    def test_invalid_kappa(self, kappa):
        with pytest.raises(InvalidParameterError):
            roc_sweep(self.mix.data, self.cfg, self.mix.outliers, [0.1, kappa])
