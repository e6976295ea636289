"""Every public entry point applies one rule to its integer arguments and
one to its label vectors."""

import numpy as np
import pytest

from gdm import (
    GdmConfig,
    GdmError,
    SyntheticSpec,
    genetic_refine,
    global_dimension_hard,
    hard_cluster_dims,
    indicator_membership,
    misclassification_rate,
    p_lower_bound,
    sample_two_view_scene,
    scaled_cluster_matrix,
    tpr_fpr,
)

DATA = np.random.default_rng(0).normal(size=(3, 4))
LABELS = [0, 0, 1, 1]

# name: (call with the argument, an accepted value, a value below the range)
INTEGER_ARGS = {
    "GdmConfig.n_clusters": (lambda v: GdmConfig(n_clusters=v), 2, 0),
    "GdmConfig.restarts": (lambda v: GdmConfig(n_clusters=2, restarts=v), 2, 0),
    "GdmConfig.grad_iters": (lambda v: GdmConfig(n_clusters=2, grad_iters=v), 2, -1),
    "GdmConfig.genetic_passes": (lambda v: GdmConfig(n_clusters=2, genetic_passes=v), 2, -1),
    "GdmConfig.merge_candidates": (lambda v: GdmConfig(n_clusters=2, merge_candidates=v),
                                   2, 0),
    "GdmConfig.seed": (lambda v: GdmConfig(n_clusters=2, seed=v), 2, -1),
    "SyntheticSpec.dims": (lambda v: SyntheticSpec(dims=(v,), points_per_cluster=8), 2, 0),
    "SyntheticSpec.ambient": (lambda v: SyntheticSpec(dims=(1,), ambient=v), 2, 1),
    "SyntheticSpec.points_per_cluster": (
        lambda v: SyntheticSpec(dims=(1,), points_per_cluster=v), 2, 1),
    "SyntheticSpec.outlier_count": (lambda v: SyntheticSpec(dims=(1,), outlier_count=v),
                                    2, -1),
    "sample_two_view_scene.n_bodies": (lambda v: sample_two_view_scene(v, 8, seed=0), 2, 0),
    "sample_two_view_scene.points_per_body": (
        lambda v: sample_two_view_scene(1, v, seed=0), 2, 0),
    "sample_two_view_scene.n_outliers": (
        lambda v: sample_two_view_scene(1, 8, n_outliers=v, seed=0), 2, -1),
    "sample_two_view_scene.max_retries": (
        lambda v: sample_two_view_scene(1, 8, seed=0, max_retries=v), 2, -1),
    "scaled_cluster_matrix.k": (
        lambda v: scaled_cluster_matrix(DATA, np.full((3, 4), 1 / 3), v), 2, -1),
    "tpr_fpr.n_points": (lambda v: tpr_fpr([0], [1], v), 2, -1),
    "p_lower_bound.n_clusters": (lambda v: p_lower_bound(v, 2), 2, 1),
    "p_lower_bound.d": (lambda v: p_lower_bound(2, v), 2, 0),
    "hard_cluster_dims.n_clusters": (lambda v: hard_cluster_dims(DATA, LABELS, v), 2, -1),
    "indicator_membership.n_clusters": (lambda v: indicator_membership(LABELS, v), 2, -1),
    "global_dimension_hard.n_clusters": (
        lambda v: global_dimension_hard(DATA, LABELS, n_clusters=v), 2, -1),
}


@pytest.mark.parametrize("call, good, low", INTEGER_ARGS.values(), ids=INTEGER_ARGS.keys())
def test_integer_arguments_follow_one_rule(call, good, low):
    for bad in (True, 2.5, np.float64(2.0)):
        with pytest.raises(GdmError, match="must be an integer"):
            call(bad)
    with pytest.raises(GdmError):
        call(low)
    call(np.int64(good))


LABEL_FUNCTIONS = {
    "indicator_membership": lambda labels: indicator_membership(labels, 2),
    "genetic_refine": lambda labels: genetic_refine(DATA, labels, GdmConfig(n_clusters=2)),
    "hard_cluster_dims": lambda labels: hard_cluster_dims(DATA, labels, 2),
    "global_dimension_hard": lambda labels: global_dimension_hard(DATA, labels, n_clusters=2),
    "global_dimension_hard.default_clusters": lambda labels: global_dimension_hard(DATA, labels),
    "misclassification_rate": lambda labels: misclassification_rate(labels, LABELS),
}
BAD_LABELS = {
    "nan": [0, 0, 1, np.nan],
    "fraction": [0, 0, 1, 0.5],
    "2-d": [[0, 0], [1, 1]],
    "out_of_range": [0, 0, 1, 2],
}
# Without a cluster count there is no upper end to leave.
UNBOUNDED = {"global_dimension_hard.default_clusters", "misclassification_rate"}


@pytest.mark.parametrize("bad", BAD_LABELS)
@pytest.mark.parametrize("function", LABEL_FUNCTIONS)
def test_label_vectors_follow_one_rule(function, bad):
    call = LABEL_FUNCTIONS[function]
    if not (bad == "out_of_range" and function in UNBOUNDED):
        with pytest.raises(GdmError):
            call(BAD_LABELS[bad])
    call([0.0, 0.0, 1.0, 1.0])
