"""Every public entry point applies one rule to its array arguments, one
to its data matrix, one to its integer arguments, one to its label
vectors and one to its real-valued parameters."""

import dataclasses

import numpy as np
import pytest

from gdm import (
    GdmConfig,
    GdmError,
    InvalidInputError,
    InvalidParameterError,
    ObjectiveParams,
    OutlierConfig,
    SyntheticSpec,
    batch_empirical_dimension,
    descend,
    embed_dataset,
    embed_linear,
    embed_nonlinear,
    empirical_dimension,
    fit_cluster_subspace,
    fundamental_from_motion,
    gd_gradient,
    gd_gradient_outlier,
    gdm,
    gdm_naive,
    gdm_outlier_core,
    genetic_refine,
    global_dimension_hard,
    global_dimension_outlier,
    global_dimension_soft,
    greedy_merge_init,
    hard_cluster_dims,
    indicator_membership,
    known_fraction,
    misclassification_rate,
    model_reassign,
    normalize_views,
    numerical_rank,
    p_lower_bound,
    project_columns,
    project_simplex,
    reassignment_distances,
    roc_sweep,
    rotation_matrix,
    sample_subspace_mixture,
    sample_two_view_scene,
    scaled_cluster_matrix,
    singular_values,
    threshold,
    tpr_fpr,
    validate_membership,
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
    "text": ["0", "0", "1", "1"],
    "ragged": [[0, 0], [1]],
    "complex": [0, 0, 1, 1 + 0j],
    # Python ints just outside the int64 range; as floats the first rounds
    # to 2**63 and the second to -2**63, which is a label.
    "object_2**63": np.array([0, 0, 1, 2**63], dtype=object),
    "object_-2**63-1": np.array([0, 0, 1, -2**63 - 1], dtype=object),
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


def test_object_labels_are_exact_at_the_int64_ends():
    # 2**63 - 1 as a Python int lies in the int64 range, though as a float
    # it would round up to 2**63; -2**63 marks a reject.
    top = np.array([2**63 - 1, 0], dtype=object)
    assert misclassification_rate(top, [0, 0]) == 50.0
    assert misclassification_rate(np.array([-2**63, 0], dtype=object), [1, 0]) == 0.0


MIXTURE = sample_subspace_mixture(
    SyntheticSpec(dims=(1, 1), ambient=3, points_per_cluster=6, seed=0)).data
CFG = GdmConfig(n_clusters=2, restarts=2, seed=0)
SPECTRUM = [2.0, 1.0, 0.5]
# The nearest floats outside the ends 0 and 1.
BELOW_0 = np.nextafter(0.0, -1.0)
ABOVE_1 = np.nextafter(1.0, 2.0)

# name: (call with the argument, accepted values, values just outside the range)
REAL_ARGS = {
    "GdmConfig.step_target": (lambda v: GdmConfig(n_clusters=2, step_target=v),
                              (np.float64(0.3), 2), (0, np.inf)),
    "GdmConfig.eps": (lambda v: GdmConfig(n_clusters=2, eps=v), (np.float64(0.35),), (0, 1)),
    "GdmConfig.p": (lambda v: GdmConfig(n_clusters=2, p=v), (np.float64(15.0), 15),
                    (0, np.inf)),
    "ObjectiveParams.eps": (lambda v: ObjectiveParams(eps=v), (np.float64(0.35),), (0, 1)),
    "ObjectiveParams.p": (lambda v: ObjectiveParams(p=v), (np.float64(15.0), 15),
                          (0, np.inf)),
    "ObjectiveParams.alpha": (lambda v: ObjectiveParams(alpha=v), (np.float64(0.01), 0),
                              (BELOW_0, np.inf)),
    "OutlierConfig.alpha": (lambda v: OutlierConfig(alpha=v), (np.float64(0.01), 0),
                            (BELOW_0, np.inf)),
    "OutlierConfig.fraction": (lambda v: OutlierConfig(fraction=v), (np.float64(0.2),),
                               (0, 1)),
    "OutlierConfig.kappa": (lambda v: OutlierConfig(kappa=v), (np.float64(0.05), 1, np.inf),
                            (0,)),
    "known_fraction.fraction": (lambda v: known_fraction(MIXTURE, CFG, fraction=v),
                                (np.float64(0.2),), (0, 1)),
    "known_fraction.alpha": (lambda v: known_fraction(MIXTURE, CFG, alpha=v),
                             (np.float64(0.01), 0), (BELOW_0, np.inf)),
    "model_reassign.kappa": (lambda v: model_reassign(MIXTURE, CFG, kappa=v),
                             (np.float64(0.05), 1, np.inf), (0,)),
    "SyntheticSpec.noise_sigma": (lambda v: SyntheticSpec(dims=(1,), noise_sigma=v),
                                  (np.float64(0.1), 0), (BELOW_0, np.inf)),
    "SyntheticSpec.outlier_radius": (lambda v: SyntheticSpec(dims=(1,), outlier_radius=v),
                                     (np.float64(3.0), 3), (0, np.inf)),
    "sample_two_view_scene.noise_sigma": (
        lambda v: sample_two_view_scene(1, 8, noise_sigma=v, seed=0),
        (np.float64(0.01), 0), (BELOW_0, np.inf)),
    "roc_sweep.kappa": (lambda v: roc_sweep(MIXTURE, CFG, [], [0.1, v]),
                        (np.float64(0.1), 0, np.inf), (BELOW_0,)),
    "rotation_matrix.angle": (lambda v: rotation_matrix([0, 0, 1], v),
                              (np.float64(0.3), 1), (np.inf, -np.inf)),
    "validate_membership.tol": (lambda v: validate_membership(np.full((2, 2), 0.5), v),
                                (np.float64(1e-10), 0), (BELOW_0, np.inf)),
    "numerical_rank.rel_tol": (lambda v: numerical_rank(SPECTRUM, v),
                               (np.float64(1e-12), 0), (BELOW_0, np.inf)),
    "empirical_dimension.eps": (lambda v: empirical_dimension(SPECTRUM, v),
                                (np.float64(0.35), 1), (0, ABOVE_1)),
    "batch_empirical_dimension.eps": (lambda v: batch_empirical_dimension([SPECTRUM], v),
                                      (np.float64(0.35), 1), (0, ABOVE_1)),
    "hard_cluster_dims.eps": (lambda v: hard_cluster_dims(DATA, LABELS, 2, eps=v),
                              (np.float64(0.35), 1), (0, ABOVE_1)),
    "fit_cluster_subspace.eps": (lambda v: fit_cluster_subspace(DATA, v),
                                 (np.float64(0.35), 1), (0, ABOVE_1)),
}


@pytest.mark.parametrize("call, good, outside", REAL_ARGS.values(), ids=REAL_ARGS.keys())
def test_real_arguments_follow_one_rule(call, good, outside):
    for bad in (True, "a", None, np.array(0.3), np.array([0.3])):
        with pytest.raises(GdmError, match="must be a real number"):
            call(bad)
    for bad in (np.nan, 10**400) + outside:
        with pytest.raises(GdmError, match="must be in"):
            call(bad)
    assert any(isinstance(v, np.float64) for v in good)
    for value in good:
        call(value)


def test_objective_p_is_finite_as_in_the_pipeline_config():
    with pytest.raises(GdmError, match=r"p must be in \(0, inf\), got inf"):
        ObjectiveParams(p=np.inf)
    with pytest.raises(GdmError, match=r"p must be in \(0, inf\), got inf"):
        GdmConfig(n_clusters=2, p=np.inf)


# Arguments each config class needs besides the field under test.
REQUIRED = {GdmConfig: dict(n_clusters=2), ObjectiveParams: {}, OutlierConfig: {},
            SyntheticSpec: dict(dims=(1,))}


@pytest.mark.parametrize("cls", REQUIRED, ids=lambda cls: cls.__name__)
def test_every_float_field_rejects_bools_and_strings(cls):
    names = [f.name for f in dataclasses.fields(cls) if f.init and f.type is float]
    assert names
    for name in names:
        for bad in (True, "a"):
            with pytest.raises(GdmError, match="%s must be a real number" % name):
                cls(**REQUIRED[cls], **{name: bad})


def with_entry(value):
    a = MIXTURE.copy()
    a[1, 2] = value
    return a


# name: call with a data matrix a of n columns, other arguments to match
DATA_FUNCTIONS = {
    "gdm": lambda a, n: gdm(a, CFG),
    "greedy_merge_init": lambda a, n: greedy_merge_init(a, CFG),
    "descend": lambda a, n: descend(a, np.full((2, n), 0.5), CFG),
    "genetic_refine": lambda a, n: genetic_refine(a, np.arange(n) % 2, CFG),
    "gdm_outlier_core": lambda a, n: gdm_outlier_core(a, CFG),
    "known_fraction": lambda a, n: known_fraction(a, CFG),
    "model_reassign": lambda a, n: model_reassign(a, CFG),
    "gdm_naive": lambda a, n: gdm_naive(a, CFG),
    "reassignment_distances": lambda a, n: reassignment_distances(a, CFG),
    "roc_sweep": lambda a, n: roc_sweep(a, CFG, [], [0.1]),
    "hard_cluster_dims": lambda a, n: hard_cluster_dims(a, np.arange(n) % 2, 2),
    "global_dimension_hard": lambda a, n: global_dimension_hard(a, np.arange(n) % 2),
    "scaled_cluster_matrix": lambda a, n: scaled_cluster_matrix(a, np.full((2, n), 0.5), 0),
}
BAD_DATA = {
    "nan": (with_entry(np.nan), "data entries must be finite"),
    "inf": (with_entry(np.inf), "data entries must be finite"),
    "no_columns": (np.zeros((9, 0)), "D x N matrix with N >= 1"),
    "no_rows": (np.zeros((0, 6)), "D x N matrix with N >= 1"),
    "1-d": (np.ones(MIXTURE.shape[1]), "D x N matrix with N >= 1"),
    "text": (MIXTURE.astype(str), "data entries must be real numbers"),
    "ragged": (MIXTURE.tolist()[:-1] + [MIXTURE[-1, :-1].tolist()],
               "data entries must be real numbers"),
    "complex": (MIXTURE + 0j, "data entries must be real numbers"),
}


@pytest.mark.parametrize("bad", BAD_DATA)
@pytest.mark.parametrize("function", DATA_FUNCTIONS)
def test_data_matrices_follow_one_rule(function, bad):
    a, message = BAD_DATA[bad]
    n = MIXTURE.shape[1] if isinstance(a, list) else a.shape[-1]
    with pytest.raises(InvalidInputError, match=message):
        DATA_FUNCTIONS[function](a, n)


# name: call with a membership of DATA's 4 columns
MEMBERSHIP_FUNCTIONS = {
    "threshold": threshold,
    "descend": lambda m: descend(DATA, m, CFG),
    "validate_membership": validate_membership,
    "scaled_cluster_matrix": lambda m: scaled_cluster_matrix(DATA, m, 0),
    "global_dimension_soft": lambda m: global_dimension_soft(DATA, m),
    "gd_gradient": lambda m: gd_gradient(DATA, m),
    "global_dimension_outlier": lambda m: global_dimension_outlier(DATA, m),
    "gd_gradient_outlier": lambda m: gd_gradient_outlier(DATA, m),
}
BAD_MEMBERSHIPS = {
    "no_rows": (np.zeros((0, 4)), "membership must be a 2-d matrix with at least one row"),
    "text": (np.full((2, 4), "0.5"), "membership entries must be real numbers"),
    "complex": (np.full((2, 4), 0.5 + 0j), "membership entries must be real numbers"),
}


@pytest.mark.parametrize("bad", BAD_MEMBERSHIPS)
@pytest.mark.parametrize("function", MEMBERSHIP_FUNCTIONS)
def test_memberships_follow_one_rule(function, bad):
    m, message = BAD_MEMBERSHIPS[bad]
    with pytest.raises(InvalidInputError, match=message):
        MEMBERSHIP_FUNCTIONS[function](m)
    MEMBERSHIP_FUNCTIONS[function](np.full((2, 4), 0.5))


COORDS = np.arange(12.0).reshape(3, 4) ** 1.5

# name: (call with the argument, an accepted value, the error a bad value raises)
ARRAY_ARGS = {
    "singular_values": (singular_values, DATA, InvalidInputError),
    "numerical_rank": (numerical_rank, SPECTRUM, InvalidInputError),
    "empirical_dimension": (empirical_dimension, SPECTRUM, InvalidInputError),
    "batch_empirical_dimension": (batch_empirical_dimension, [SPECTRUM], InvalidInputError),
    "embed_nonlinear": (embed_nonlinear, COORDS[0], InvalidInputError),
    "embed_linear": (embed_linear, COORDS[0], InvalidInputError),
    "normalize_views": (normalize_views, COORDS, InvalidInputError),
    "embed_dataset": (embed_dataset, COORDS, InvalidInputError),
    "project_simplex": (project_simplex, [0.2, 0.9], InvalidInputError),
    "project_columns": (project_columns, np.full((2, 3), 0.7), InvalidInputError),
    "fit_cluster_subspace": (fit_cluster_subspace, DATA, InvalidInputError),
    "tpr_fpr": (lambda v: tpr_fpr(v, [1], 4), [0, 2], InvalidInputError),
    "rotation_matrix.axis": (lambda v: rotation_matrix(v, 0.3), [0.0, 0.6, 0.8],
                             InvalidParameterError),
    "fundamental_from_motion.rotation": (lambda v: fundamental_from_motion(v, [1.0, 0.0, 0.0]),
                                         np.eye(3), InvalidParameterError),
    "fundamental_from_motion.translation": (
        lambda v: fundamental_from_motion(np.eye(3), v), [1.0, 0.0, 0.0], InvalidParameterError),
}
BAD_ARRAYS = {
    "text": lambda good: np.asarray(good).astype(str),
    "ragged": lambda good: [[0.0, 1.0], [2.0]],
    "complex": lambda good: np.asarray(good) + 0j,
}


@pytest.mark.parametrize("bad", BAD_ARRAYS)
@pytest.mark.parametrize("function", ARRAY_ARGS)
def test_array_arguments_follow_one_rule(function, bad):
    call, good, error = ARRAY_ARGS[function]
    with pytest.raises(error, match="must be real numbers in a regular array"):
        call(BAD_ARRAYS[bad](good))
    call(good)


# name: (rotation, translation, the argument the error names)
BAD_MOTIONS = {
    "short_translation": (np.eye(3), [1.0, 2.0], "translation"),
    "2x2_rotation": (np.eye(2), [1.0, 2.0, 3.0], "rotation"),
    "3x3x1_rotation": (np.eye(3)[:, :, None], [1.0, 2.0, 3.0], "rotation"),
}


@pytest.mark.parametrize("bad", BAD_MOTIONS)
def test_motions_are_a_3x3_rotation_and_a_3_vector(bad):
    rotation, translation, name = BAD_MOTIONS[bad]
    with pytest.raises(InvalidParameterError, match="%s must have shape" % name):
        fundamental_from_motion(rotation, translation)
