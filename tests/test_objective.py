import numpy as np
import pytest

from gdm import (
    DegenerateClusterError,
    InvalidInputError,
    InvalidParameterError,
    ObjectiveParams,
    gd_gradient,
    gd_gradient_outlier,
    global_dimension_hard,
    global_dimension_outlier,
    global_dimension_soft,
    hard_cluster_dims,
    indicator_membership,
    scaled_cluster_matrix,
    validate_membership,
)

from oracles import (
    canonical_labels,
    finite_difference_gradient,
    interior_membership,
    partitions_into_at_most,
    rank_based_gd,
)

PARAMS = ObjectiveParams(eps=0.35, p=15.0)


def test_objective_params_validation():
    assert ObjectiveParams(eps=0.35).delta == pytest.approx(0.35 / 0.65, abs=0)
    with pytest.raises(InvalidParameterError):
        ObjectiveParams(eps=1.0)
    with pytest.raises(InvalidParameterError):
        ObjectiveParams(p=0.0)
    with pytest.raises(InvalidParameterError):
        ObjectiveParams(alpha=-1.0)
    for bad in (dict(p=float("nan")), dict(alpha=float("nan")), dict(alpha=float("inf"))):
        with pytest.raises(InvalidParameterError):
            ObjectiveParams(**bad)


def test_validate_membership():
    good = np.array([[0.2, 1.0], [0.8, 0.0]])
    validate_membership(good)
    with pytest.raises(InvalidInputError):
        validate_membership(np.array([[0.2, 0.2], [0.7, 0.7]]))
    with pytest.raises(InvalidInputError):
        validate_membership(np.array([[1.2, 0.5], [-0.2, 0.5]]))


class TestScaledClusterMatrix:
    def setup_method(self):
        self.a = np.array([[2.0, 4.0], [0.0, 6.0]])

    def test_row_of_ones(self):
        m = np.array([[1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(scaled_cluster_matrix(self.a, m, 0), self.a)

    def test_row_of_zeros(self):
        m = np.array([[1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(
            scaled_cluster_matrix(self.a, m, 1), np.zeros((2, 2))
        )

    def test_columnwise_scaling(self):
        m = np.array([[1.0, 0.5], [0.0, 0.5]])
        np.testing.assert_array_equal(
            scaled_cluster_matrix(self.a, m, 0), [[2.0, 2.0], [0.0, 3.0]]
        )

    def test_bad_index(self):
        m = np.array([[1.0, 1.0]])
        with pytest.raises(InvalidParameterError):
            scaled_cluster_matrix(self.a, m, 3)

    @pytest.mark.parametrize("k", [True, 0.5, 0.0])
    def test_index_that_is_not_an_integer(self, k):
        m = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            scaled_cluster_matrix(self.a, m, k)
        np.testing.assert_array_equal(scaled_cluster_matrix(self.a, m, np.int64(0)), self.a)

    def test_point_count_mismatch(self):
        with pytest.raises(InvalidInputError, match="point count"):
            scaled_cluster_matrix(self.a, np.ones((1, 3)), 0)


class TestSoftGlobalDimension:
    def test_single_rank_one_cluster(self):
        a = np.outer([1.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        m = np.ones((1, 3))
        assert global_dimension_soft(a, m, PARAMS) == pytest.approx(1.0, abs=1e-12)

    def test_two_orthogonal_rank_one_clusters(self):
        a = np.zeros((9, 4))
        a[0, :2] = 1.0
        a[1, 2:] = 1.0
        labels = np.array([0, 0, 1, 1])
        m = indicator_membership(labels, 2)
        expected = 2.0 ** (1.0 / 15.0)
        assert global_dimension_soft(a, m, PARAMS) == pytest.approx(expected, abs=1e-12)

    def test_natural_partition_value_scales_like_root_k_times_d(self):
        rng = np.random.default_rng(0)
        blocks, labels = [], []
        for k in range(2):
            basis, _ = np.linalg.qr(rng.normal(size=(9, 3)))
            blocks.append(basis @ rng.normal(size=(3, 800)))
            labels += [k] * 800
        a = np.concatenate(blocks, axis=1)
        m = indicator_membership(np.array(labels), 2)
        got = global_dimension_soft(a, m, PARAMS)
        assert got == pytest.approx(2.0 ** (1.0 / 15.0) * 3.0, rel=0.02)

    def test_degenerate_cluster_raises_or_extends(self):
        a = np.eye(3)
        m = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateClusterError):
            global_dimension_soft(a, m, PARAMS)
        val = global_dimension_soft(a, m, PARAMS, on_degenerate="zero")
        assert val == pytest.approx(3.0, abs=1e-9)

    def test_relabeling_rows_is_exactly_invariant(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(9, 30))
        m = interior_membership(3, 30, rng)
        base = global_dimension_soft(a, m, PARAMS)
        for perm in ([1, 2, 0], [2, 0, 1], [1, 0, 2]):
            assert global_dimension_soft(a, m[perm], PARAMS) == base


@pytest.mark.parametrize("bad", [-1, 2, 0.7, np.inf])
def test_indicator_membership_rejects_labels_outside_the_clusters(bad):
    with pytest.raises(InvalidInputError):
        indicator_membership([0, bad, 1], 2)
    np.testing.assert_array_equal(indicator_membership([0, 1.0, 1], 2),
                                  [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])


class TestHardGlobalDimension:
    def test_single_point_cluster(self):
        a = np.array([[3.0], [4.0]])
        assert global_dimension_hard(a, [0], PARAMS) == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_soft_at_indicator(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            a = np.random.default_rng(seed).normal(size=(9, 25))
            labels = rng.integers(0, 3, size=25)
            labels[:3] = [0, 1, 2]  # keep every cluster nonempty
            hard = global_dimension_hard(a, labels, PARAMS, n_clusters=3)
            soft = global_dimension_soft(a, indicator_membership(labels, 3), PARAMS)
            assert hard == pytest.approx(soft, abs=1e-10)

    def test_empty_cluster_raises(self):
        a = np.eye(3)
        with pytest.raises(DegenerateClusterError):
            global_dimension_hard(a, [0, 0, 0], PARAMS, n_clusters=2)

    @pytest.mark.parametrize("bad", [7, 2, 0.5, np.nan])
    def test_labels_outside_the_clusters_are_rejected(self, bad):
        # Such a point would be left out of every cluster unscored.
        a = np.random.default_rng(2).normal(size=(9, 6))
        with pytest.raises(InvalidInputError):
            global_dimension_hard(a, [0, 0, 0, 1, 1, bad], PARAMS, n_clusters=2)
        # A negative label still marks a rejected point.
        assert global_dimension_hard(a, [0, 0, 0, 1, 1, -1], PARAMS, n_clusters=2) == (
            global_dimension_hard(a[:, :5], [0, 0, 0, 1, 1], PARAMS, n_clusters=2))

    def test_three_lines_in_the_plane_rank_oracle(self):
        # The p = 1 failure mode: the natural partition of 3 lines in
        # R^2 scores 3 while lumping everything together scores only 2.
        # A large p reverses the ordering.
        rng = np.random.default_rng(2)
        angles = [0.1, 1.2, 2.3]
        cols, labels = [], []
        for k, ang in enumerate(angles):
            direction = np.array([np.cos(ang), np.sin(ang)])
            cols.append(np.outer(direction, rng.uniform(0.5, 2.0, 10) * rng.choice([-1, 1], 10)))
            labels += [k] * 10
        a = np.concatenate(cols, axis=1)
        labels = np.array(labels)
        lumped = np.zeros_like(labels)
        assert rank_based_gd(a, labels, p=1.0) == pytest.approx(3.0)
        assert rank_based_gd(a, lumped, p=1.0) == pytest.approx(2.0)
        assert rank_based_gd(a, lumped, p=1.0) < rank_based_gd(a, labels, p=1.0)
        assert rank_based_gd(a, labels, p=15.0) < rank_based_gd(a, lumped, p=15.0)


# name: call with data a, a membership m whose row 1 is empty (an outlier
# row is prepended) and the on_degenerate value
DEGENERATE_RULE_FUNCTIONS = {
    "hard_cluster_dims": lambda a, m, rule: hard_cluster_dims(a, [0, 0, 0], 2,
                                                              on_degenerate=rule),
    "global_dimension_hard": lambda a, m, rule: global_dimension_hard(
        a, [0, 0, 0], PARAMS, n_clusters=2, on_degenerate=rule),
    "global_dimension_soft": lambda a, m, rule: global_dimension_soft(a, m, PARAMS, rule),
    "gd_gradient": lambda a, m, rule: gd_gradient(a, m, PARAMS, rule),
    "global_dimension_outlier": lambda a, m, rule: global_dimension_outlier(
        a, np.vstack([np.zeros(3), m]), PARAMS, rule),
    "gd_gradient_outlier": lambda a, m, rule: gd_gradient_outlier(
        a, np.vstack([np.zeros(3), m]), PARAMS, rule),
}


@pytest.mark.parametrize("bad", ["Zero", "bogus", None])
@pytest.mark.parametrize("call", DEGENERATE_RULE_FUNCTIONS.values(),
                         ids=DEGENERATE_RULE_FUNCTIONS.keys())
def test_on_degenerate_is_raise_or_zero(call, bad):
    # Any other value would act as 'raise' on the empty cluster.
    a, m = np.eye(3), indicator_membership([0, 0, 0], 2)
    with pytest.raises(InvalidParameterError, match="on_degenerate must be 'raise' or 'zero'"):
        call(a, m, bad)
    with pytest.raises(DegenerateClusterError):
        call(a, m, "raise")
    call(a, m, "zero")


class TestGradient:
    def test_matches_finite_differences(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            k = 2 + seed % 2
            a = rng.normal(size=(9, 40))
            m = interior_membership(k, 40, rng)
            grad = gd_gradient(a, m, PARAMS)
            fd = finite_difference_gradient(
                lambda mm: global_dimension_soft(a, mm, PARAMS), m
            )
            scale = np.abs(fd).max()
            assert np.abs(grad - fd).max() < 1e-5 * scale

    def test_identical_rows_give_identical_gradient_rows(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(9, 20))
        row = rng.uniform(0.2, 0.8, size=20)
        m = np.vstack([row / 2.0, row / 2.0, 1.0 - row])
        grad = gd_gradient(a, m, PARAMS)
        assert np.abs(grad[0] - grad[1]).max() < 1e-10

    def test_single_cluster_gradient(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(9, 30))
        m = interior_membership(1, 30, rng)
        grad = gd_gradient(a, m, PARAMS)
        fd = finite_difference_gradient(
            lambda mm: global_dimension_soft(a, mm, PARAMS), m
        )
        assert np.abs(grad - fd).max() < 1e-5 * np.abs(fd).max()

    def test_degenerate_cluster(self):
        a = np.eye(3)
        m = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateClusterError):
            gd_gradient(a, m, PARAMS)
        grad = gd_gradient(a, m, PARAMS, on_degenerate="zero")
        assert np.all(grad[1] == 0.0)

    @pytest.mark.parametrize("p", [0.05, 0.5])
    def test_empty_cluster_below_p_one(self, p):
        # For p < 1 the chain factor (dim / gd)**(p - 1) of an empty
        # cluster would be 0**(p - 1) = inf, and inf times its zero row
        # NaN. An empty cluster adds nothing to the p-norm, so the other
        # rows must be those of the membership without it.
        rng = np.random.default_rng(4)
        a = rng.normal(size=(9, 10))
        m = np.vstack([rng.uniform(size=10), rng.uniform(size=10), np.zeros(10)])
        params = ObjectiveParams(eps=0.35, p=p)
        grad = gd_gradient(a, m, params, on_degenerate="zero")
        assert np.all(grad[2] == 0.0)
        np.testing.assert_array_equal(grad[:2], gd_gradient(a, m[:2], params))


class TestOutlierObjective:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.a = rng.normal(size=(9, 30))
        self.m = interior_membership(3, 30, rng)  # rows: outlier + 2 clusters
        self.params = ObjectiveParams(eps=0.35, p=15.0, alpha=0.02)

    def test_zero_outlier_row_reduces_to_soft(self):
        m = np.vstack([np.zeros(30), interior_membership(2, 30, np.random.default_rng(3))])
        got = global_dimension_outlier(self.a, m, self.params)
        want = global_dimension_soft(self.a, m[1:], self.params)
        assert got == pytest.approx(want, abs=1e-12)

    def test_needs_an_outlier_row_and_a_cluster_row(self):
        with pytest.raises(InvalidInputError, match="at least 2 rows"):
            global_dimension_outlier(self.a, self.m[:1], self.params)

    def test_full_outlier_row_is_degenerate(self):
        m = np.zeros((3, 30))
        m[0] = 1.0
        with pytest.raises(DegenerateClusterError):
            global_dimension_outlier(self.a, m, self.params)

    def test_additivity_of_outlier_charge(self):
        base = global_dimension_soft(self.a, self.m[1:], self.params)
        got = global_dimension_outlier(self.a, self.m, self.params)
        charge = 0.02 / 2 * (self.m[0] ** 2).sum()
        assert got == pytest.approx(base + charge, abs=1e-12)

    def test_gradient_outlier_row_is_linear(self):
        grad = gd_gradient_outlier(self.a, self.m, self.params)
        np.testing.assert_array_equal(grad[0], 0.02 * self.m[0])
        m = self.m.copy()
        m[0, 5] = 0.0
        assert gd_gradient_outlier(self.a, m, self.params)[0, 5] == 0.0
        m[0, 6] = 0.5
        assert gd_gradient_outlier(self.a, m, self.params)[0, 6] == pytest.approx(0.01)

    def test_gradient_matches_finite_differences(self):
        # Row 0 checks that the value charges alpha / 2 * sum(M[0]^2), the
        # antiderivative of the outlier row's gradient alpha * M[0].
        grad = gd_gradient_outlier(self.a, self.m, self.params)
        fd = finite_difference_gradient(
            lambda mm: global_dimension_outlier(self.a, mm, self.params), self.m
        )
        for rows in (slice(0, 1), slice(1, None)):
            scale = np.abs(fd[rows]).max()
            assert np.abs(grad[rows] - fd[rows]).max() < 1e-5 * scale, rows


def test_natural_partition_minimizes_empirical_gd_brute_force():
    # Theorem-2 style check with the empirical dimension itself on
    # near-noiseless line samples: enumerating every partition of 6
    # points into at most 2 sets, the natural one attains the minimum.
    for seed in range(6):
        rng = np.random.default_rng(seed)
        d1 = rng.normal(size=3)
        d1 /= np.linalg.norm(d1)
        d2 = rng.normal(size=3)
        d2 /= np.linalg.norm(d2)
        coeffs = rng.uniform(0.5, 2.0, size=(2, 3)) * rng.choice([-1.0, 1.0], size=(2, 3))
        a = np.concatenate([np.outer(d1, coeffs[0]), np.outer(d2, coeffs[1])], axis=1)
        a = a + rng.normal(scale=1e-9, size=a.shape)
        natural = (0, 0, 0, 1, 1, 1)
        values = {
            part: global_dimension_hard(
                a, np.array(part), PARAMS, n_clusters=max(part) + 1
            )
            for part in partitions_into_at_most(6, 2)
        }
        best = min(values.values())
        for part, val in values.items():
            if val <= best + 1e-6:
                assert canonical_labels(part) == natural
