"""Search-gap probe: how close gdm's search gets to the true partition.

Runs nine fixed sets of seeded scenes at GdmConfig defaults (only
n_clusters and the seed are set) and prints one row per set:

  misclass  median misclassification, in percent
  zero      scenes segmented with 0 % misclassification
  gap       the search gap: scenes whose returned gd_value exceeds the
            hard global dimension of the true partition
  <=truth   restarts whose hard global dimension is at or below the
            truth's, over all restarts of the set
  margin    median GD margin: the returned gd_value minus the hard
            global dimension of the true partition (negative where the
            objective prefers a partition other than the truth)
  cpu_s     CPU seconds of the set's segmentation calls

Under the row of each two-view set, one line per scene gives its seed,
its GD margin and whether the truth is a fixed point of the pipeline's
last stages: descend from the truth's indicator membership, threshold
and genetic_refine give the truth back ("fixed yes"), or else the number
of points they move off it ("fixed no, 2 moved").

The outlier sets run known_fraction at its default fraction and alpha
and report, instead of the search columns, its median true positive
rate and its scenes over 5 % misclassified (rejected points excluded).

  acc6      20 two-body scenes, 30-80 points a body, seeds 0-19
  k3        three-body scenes of 3 x 80 points, seeds 900-905
  n400      two-body scenes of 2 x 200 points, seeds 14-16
  n800      two-body scenes of 2 x 400 points, seeds 11-12
  acc5      a 2-d and a 3-d subspace of R^9, 60 points each, noise 0.01,
            seeds 400-419 (GdmConfig seeds 0-19)
  acc5c     the same without noise, seeds 500-519
  acc7      acc5's mixtures plus 30 outliers of radius 3, seeds 900-919
  planted   a 2-d and a 3-d subspace of R^9, 30 points each, plus 12
            outliers of radius 3, no noise, seeds 0-19 (GdmConfig seeds
            the same)
  plantedn  the same with noise 0.01

acc5, acc6 and acc7 are the scenes of acceptance criteria 5, 6 and 7
in tests/test_acceptance.py; planted and plantedn are those of
tests/test_robust.py's planted(seed) at noise 0 and 0.01. Two-view
scenes have image noise 0.001 and are embedded nonlinearly. BLAS runs
in one thread. The probe gates nothing; it takes a few minutes.

Usage: python tools/search_gap_probe.py [SET ...]   (default: every set)
"""

import os
import sys
import time
from pathlib import Path

# Before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from gdm import (  # noqa: E402
    GdmConfig,
    SyntheticSpec,
    descend,
    embed_dataset,
    gdm,
    genetic_refine,
    global_dimension_hard,
    indicator_membership,
    known_fraction,
    misclassification_rate,
    sample_subspace_mixture,
    sample_two_view_scene,
    threshold,
    tpr_fpr,
)


def two_view(bodies, seeds, counts):
    """Scenes (data, true labels, true outliers, cfg) of a two-view set;
    counts(seed) gives the points of each body."""
    for seed in seeds:
        scene = sample_two_view_scene(bodies, counts(seed), noise_sigma=0.001, seed=seed)
        yield (embed_dataset(scene.correspondences), scene.labels, scene.outliers,
               GdmConfig(n_clusters=bodies, seed=seed))


def mixtures(first, noise, outliers=0, points=60):
    """The twenty subspace mixtures of a set, data seeds first to first + 19."""
    for seed in range(20):
        mix = sample_subspace_mixture(SyntheticSpec(
            dims=(2, 3), ambient=9, points_per_cluster=points, noise_sigma=noise,
            outlier_count=outliers, outlier_radius=3.0, seed=first + seed))
        yield mix.data, mix.labels, mix.outliers, GdmConfig(n_clusters=2, seed=seed)


SETS = {
    "acc6": lambda: two_view(2, range(20), lambda s: np.random.default_rng(600 + s).integers(
        30, 81, size=2)),
    "k3": lambda: two_view(3, range(900, 906), lambda s: 80),
    "n400": lambda: two_view(2, range(14, 17), lambda s: 200),
    "n800": lambda: two_view(2, range(11, 13), lambda s: 400),
    "acc5": lambda: mixtures(400, 0.01),
    "acc5c": lambda: mixtures(500, 0.0),
    "acc7": lambda: mixtures(900, 0.01, outliers=30),
    "planted": lambda: mixtures(0, 0.0, outliers=12, points=30),
    "plantedn": lambda: mixtures(0, 0.01, outliers=12, points=30),
}


TWO_VIEW = ("acc6", "k3", "n400", "n800")


def truth_moves(a, truth, cfg):
    """Points that descend, threshold and genetic_refine move off the
    true partition, started from its indicator membership."""
    m = descend(a, indicator_membership(truth, cfg.n_clusters), cfg)
    return int(np.count_nonzero(genetic_refine(a, threshold(m), cfg) != truth))


def probe(name):
    """The lines of one set: its row, then for a two-view set one line
    per scene."""
    mis, tprs, margins, at_or_below, restarts, cpu = [], [], [], 0, 0, 0.0
    scenes = []
    for a, truth, outliers, cfg in SETS[name]():
        start = time.process_time()
        res = known_fraction(a, cfg) if outliers.size else gdm(a, cfg)
        cpu += time.process_time() - start
        mis.append(misclassification_rate(res.labels, truth))
        if outliers.size:
            tprs.append(tpr_fpr(res.outliers, outliers, a.shape[1])[0])
            continue
        true_gd = global_dimension_hard(a, truth, cfg.objective_params(),
                                        n_clusters=cfg.n_clusters, on_degenerate="zero")
        margins.append(res.gd_value - true_gd)
        if name in TWO_VIEW:
            moves = truth_moves(a, truth, cfg)
            scenes.append("  seed %4d  margin %+8.3f  fixed %s" % (
                cfg.seed, margins[-1], "no, %d moved" % moves if moves else "yes"))
        at_or_below += int(np.count_nonzero(res.restart_gd_values <= true_gd))
        restarts += res.restart_gd_values.size
    if tprs:
        over = sum(m > 5.0 for m in mis)
        return ["%-8s %4d  median TPR %.1f %%, %d/%d over 5 %%%12.1f" % (
            name, len(tprs), np.median(tprs), over, len(tprs), cpu)]
    gap = sum(margin > 0.0 for margin in margins)
    return ["%-8s %4d %8.2f %% %4d/%-3d %3d/%-3d %7d/%-5d %+8.3f %8.1f" % (
        name, len(mis), np.median(mis), mis.count(0.0), len(mis), gap, len(mis),
        at_or_below, restarts, np.median(margins), cpu)] + scenes


def main(argv):
    names = argv[1:] or list(SETS)
    unknown = [name for name in names if name not in SETS]
    if unknown:
        print("unknown set %s; choose from %s" % (", ".join(unknown), ", ".join(SETS)),
              file=sys.stderr)
        return 2
    print("set    scenes misclass     zero     gap       <=truth    margin    cpu_s")
    for name in names:
        print("\n".join(probe(name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
