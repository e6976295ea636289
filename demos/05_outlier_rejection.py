"""Outlier rejection built on the augmented objective.

A (K+1)-th membership row charges alpha/2 times the square of each
point's mass in it instead of a dimension, so points that fit no
cluster drift into it.
Thresholding that row is unreliable (the right alpha is data
dependent), but the ranking it induces is stable, giving two practical
detectors: reject a known fraction, or refit subspaces and reject by
distance.
"""

import numpy as np

from gdm import (
    GdmConfig,
    SyntheticSpec,
    gdm_outlier_core,
    known_fraction,
    misclassification_rate,
    model_reassign,
    roc_sweep,
    sample_subspace_mixture,
    tpr_fpr,
)

spec = SyntheticSpec(dims=(2, 3), ambient=9, points_per_cluster=60,
                     noise_sigma=0.01, outlier_count=30, outlier_radius=3.0,
                     seed=17)
mix = sample_subspace_mixture(spec)
n = mix.data.shape[1]
cfg = GdmConfig(n_clusters=2, seed=17)
print("planted: %d inliers on 2 subspaces + %d ball outliers"
      % (n - mix.outliers.size, mix.outliers.size))

membership = gdm_outlier_core(mix.data, cfg, alpha=0.01)
inlier_mass = membership[0][mix.labels >= 0].mean()
outlier_mass = membership[0][mix.labels < 0].mean()
print()
print("mean outlier-row mass: true inliers %.4f, true outliers %.4f"
      % (inlier_mass, outlier_mass))

kf = known_fraction(mix.data, cfg, fraction=0.2)
tpr, fpr = tpr_fpr(kf.outliers, mix.outliers, n)
print()
print("known-fraction (reject 20%%): TPR %.1f%%, FPR %.1f%%, "
      "inlier misclassification %.2f%%"
      % (tpr, fpr, misclassification_rate(kf.labels, mix.labels)))

mr = model_reassign(mix.data, cfg, kappa=0.05)
tpr, fpr = tpr_fpr(mr.outliers, mix.outliers, n)
print("model-reassign (kappa=0.05):  TPR %.1f%%, FPR %.1f%%, "
      "inlier misclassification %.2f%%"
      % (tpr, fpr, misclassification_rate(mr.labels, mix.labels)))

print()
print("ROC sweep over kappa (distances cached, no re-optimization):")
for kappa, tpr, fpr in roc_sweep(mix.data, cfg, mix.outliers,
                                 np.geomspace(0.01, 2.0, 8)):
    print("  kappa %6.3f   TPR %6.1f%%   FPR %6.1f%%" % (kappa, tpr, fpr))
