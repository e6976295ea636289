"""Subspace clustering by global dimension minimization, with a
two-view motion segmentation front end and outlier rejection."""

from .dimension import (
    batch_empirical_dimension,
    empirical_dimension,
    numerical_rank,
    p_lower_bound,
    singular_values,
)
from .embedding import (
    PointCorrespondence,
    embed_dataset,
    embed_linear,
    embed_nonlinear,
    normalize_views,
)
from .evalkit import (
    SubspaceMixture,
    SyntheticSpec,
    TwoViewScene,
    fundamental_from_motion,
    misclassification_rate,
    roc_sweep,
    rotation_matrix,
    sample_subspace_mixture,
    sample_two_view_scene,
)
from .exceptions import (
    DegenerateClusterError,
    DegenerateSpectrumError,
    GdmError,
    InsufficientInliersError,
    InvalidInputError,
    InvalidParameterError,
    SceneGenerationError,
)
from .objective import (
    ObjectiveParams,
    gd_gradient,
    gd_gradient_outlier,
    global_dimension_hard,
    global_dimension_outlier,
    global_dimension_soft,
    hard_cluster_dims,
    pnorm,
    scaled_cluster_matrix,
    validate_membership,
)
from .optimizer import (
    GdmConfig,
    SegmentationResult,
    descend,
    gdm,
    genetic_refine,
    greedy_merge_init,
    indicator_membership,
    project_columns,
    project_simplex,
    threshold,
)
from .robust import (
    FittedSubspace,
    OutlierConfig,
    fit_cluster_subspace,
    gdm_naive,
    gdm_outlier_core,
    known_fraction,
    model_reassign,
    reassignment_distances,
    segment_with_outliers,
    subspace_distances,
    tpr_fpr,
)

# Every public name the imports above bind; they bind each submodule
# too, and type(exceptions) is the module type.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, type(exceptions)))

__version__ = "0.1.0"
