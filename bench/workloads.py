"""The benchmark's workloads: seeded scenes and the pipeline call each
scene makes into gdm.

A scene is one pipeline call. Every call uses the GdmConfig defaults;
only the number of clusters and the seed are set. Inputs depend on the
workload seed alone: the scene list is drawn from
default_rng([seed, crc32(workload name)]).
"""

import json
import sys
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from gdm.cli import read_correspondences
from gdm.embedding import embed_dataset
from gdm.evalkit import (
    SyntheticSpec,
    roc_sweep,
    sample_subspace_mixture,
    sample_two_view_scene,
)
from gdm.optimizer import GdmConfig, gdm
from gdm.robust import (
    fit_cluster_subspace,
    gdm_outlier_core,
    known_fraction,
    model_reassign,
    subspace_distances,
)

from proc import run_process
from tracer import replay_gdm

# Image noise of the two-view scenes and the kappa grid of the ROC
# sweep, as in the package's acceptance criteria 6 and 7.
IMAGE_NOISE = 0.001
KAPPA = 0.05
KAPPA_GRID = np.geomspace(0.01, 2.0, 12)
CLI_TIMEOUT_S = 150


@dataclass
class Scene:
    index: int
    n_clusters: int
    data: np.ndarray
    truth: np.ndarray
    gdm_seed: int
    true_outliers: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    correspondences: np.ndarray | None = None
    csv_path: str | None = None

    @property
    def n(self):
        return self.data.shape[1]

    def config(self):
        return GdmConfig(n_clusters=self.n_clusters, seed=self.gdm_seed)


@dataclass
class Outcome:
    labels: np.ndarray
    gd_value: float
    outliers: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    curve: list | None = None


class CliFailure(Exception):
    """The segment subprocess exited with an error."""


def scene_rng(name, seed):
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def split_counts(rng, total, bodies, lo, hi):
    """Random per-body point counts in [lo, hi] that sum to total."""
    counts = []
    for b in range(bodies - 1):
        rest = bodies - b - 1
        c = int(rng.integers(max(lo, total - hi * rest), min(hi, total - lo * rest) + 1))
        counts.append(c)
        total -= c
    counts.append(total)
    return counts


def two_view_scenes(name, seed, slots, lo, hi, workdir=None):
    """One scene per (bodies, total points) slot; per-body counts in
    [lo, hi]. With workdir set, each scene is also written as a CSV
    correspondence file with a label column."""
    rng = scene_rng(name, seed)
    scenes = []
    for i, (bodies, total) in enumerate(slots):
        counts = split_counts(rng, total, bodies, lo, hi)
        data_seed, gdm_seed = (int(v) for v in rng.integers(2**31, size=2))
        tv = sample_two_view_scene(bodies, counts, noise_sigma=IMAGE_NOISE,
                                   seed=data_seed)
        scene = Scene(index=i, n_clusters=bodies,
                      data=embed_dataset(tv.correspondences), truth=tv.labels,
                      gdm_seed=gdm_seed, correspondences=tv.correspondences)
        if workdir is not None:
            scene.csv_path = str(workdir / ("scene%02d.csv" % i))
            rows = ["%.17g,%.17g,%.17g,%.17g,%d" % (*row, label)
                    for row, label in zip(tv.correspondences, tv.labels)]
            with open(scene.csv_path, "w") as fh:
                fh.write("x,y,x2,y2,label\n" + "\n".join(rows) + "\n")
        scenes.append(scene)
    return scenes


def same_labels(name, expected, got):
    if np.array_equal(np.asarray(expected), np.asarray(got)):
        return []
    return ["%s labels differ from the pipeline's" % name]


class TwoViewSmall:
    """2- and 3-body scenes of 30-80 points per body, each segmented by
    one `python -m gdm.cli segment` process at threads=1."""

    name = "twoview_small"
    allows_rejects = False
    threads = 1
    sizes = {
        "full": dict(slots=[(2, 60), (2, 70), (2, 80), (2, 95), (2, 110), (2, 125),
                            (3, 90), (3, 100), (3, 110), (3, 125), (3, 140), (3, 155)],
                     lo=30, hi=80),
        "tiny": dict(slots=[(2, 24), (3, 30)], lo=8, hi=16),
    }

    def scenes(self, seed, size, workdir):
        return two_view_scenes(self.name, seed, workdir=workdir, **self.sizes[size])

    def pipeline(self, scene, tracer):
        cmd = [sys.executable, "-m", "gdm.cli", "segment", scene.csv_path,
               "--k", str(scene.n_clusters), "--seed", str(scene.gdm_seed),
               "--threads", str(self.threads)]
        start = time.perf_counter()
        with tracer.span("cli.process"):
            proc = run_process(cmd, CLI_TIMEOUT_S)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise CliFailure("exit %d: %s" % (proc.returncode, proc.stderr.strip()[-400:]))
        report = json.loads(proc.stdout)
        tracer.add("cli.startup_s", wall - report["wall_time_s"])
        return Outcome(labels=np.asarray(report["labels"], dtype=int),
                       gd_value=float(report["gd_value"]))

    def spot_check(self, scenes, outcomes):
        """Library gdm must return the CLI's labels: checked on the
        smallest scene of each body count. Returns {scene index: problems}."""
        problems = {}
        for k in sorted({s.n_clusters for s in scenes}):
            scene = min((s for s in scenes if s.n_clusters == k), key=lambda s: s.n)
            lib = gdm(scene.data, scene.config(), threads=1)
            problems[scene.index] = same_labels("library gdm", outcomes[scene.index].labels,
                                                lib.labels)
        return problems

    def replay(self, scene, outcome, tracer):
        cfg = scene.config()
        with tracer.span("cli.read_correspondences"):
            coords, _ = read_correspondences(scene.csv_path)
        with tracer.span("embedding.embed_dataset"):
            a = embed_dataset(coords)
        problems = [] if np.array_equal(a, scene.data) else ["CSV round trip changed the data"]
        with tracer.span("optimizer.gdm"):
            lib = gdm(a, cfg, threads=1)
        tracer.add("optimizer.restarts_completed_share", lib.restart_gd_values.size / cfg.restarts)
        labels, gd = replay_gdm(tracer, a, cfg)
        problems += same_labels("library gdm", outcome.labels, lib.labels)
        problems += same_labels("replayed", outcome.labels, labels)
        if gd != outcome.gd_value:
            problems.append("replayed gd_value %r != %r" % (gd, outcome.gd_value))
        return problems


class TwoViewLarge:
    """A 2-body N=400 and a 3-body N=240 scene per unit, embedded with
    embed_dataset and segmented by gdm(threads=2) in this process."""

    name = "twoview_large"
    allows_rejects = False
    threads = 2
    sizes = {
        "full": dict(slots=[(2, 400), (3, 240)] * 2, lo=80, hi=240),
        "tiny": dict(slots=[(2, 40), (3, 36)], lo=12, hi=28),
    }

    def scenes(self, seed, size, workdir):
        return two_view_scenes(self.name, seed, **self.sizes[size])

    def pipeline(self, scene, tracer):
        cfg = scene.config()
        with tracer.span("embedding.embed_dataset"):
            a = embed_dataset(scene.correspondences)
        with tracer.span("optimizer.gdm"):
            res = gdm(a, cfg, threads=self.threads)
        tracer.add("optimizer.restarts_completed_share", res.restart_gd_values.size / cfg.restarts)
        return Outcome(labels=res.labels, gd_value=res.gd_value)

    def replay(self, scene, outcome, tracer):
        labels, gd = replay_gdm(tracer, scene.data, scene.config())
        problems = same_labels("replayed", outcome.labels, labels)
        if gd != outcome.gd_value:
            problems.append("replayed gd_value %r != %r" % (gd, outcome.gd_value))
        return problems


class MixtureOutliers:
    """Subspaces of dims (2, 3) in R^9, 60 points each, noise 0.01 and
    30 outliers of radius 3; model_reassign then roc_sweep at threads=1."""

    name = "mixture_outliers"
    allows_rejects = True
    threads = 1
    sizes = {
        "full": dict(count=4, points=60, outliers=30),
        "tiny": dict(count=1, points=12, outliers=6),
    }

    def scenes(self, seed, size, workdir):
        opts = self.sizes[size]
        rng = scene_rng(self.name, seed)
        scenes = []
        for i in range(opts["count"]):
            data_seed, gdm_seed = (int(v) for v in rng.integers(2**31, size=2))
            mix = sample_subspace_mixture(SyntheticSpec(
                dims=(2, 3), ambient=9, points_per_cluster=opts["points"],
                noise_sigma=0.01, outlier_count=opts["outliers"],
                outlier_radius=3.0, seed=data_seed))
            scenes.append(Scene(index=i, n_clusters=2, data=mix.data, truth=mix.labels,
                                gdm_seed=gdm_seed, true_outliers=mix.outliers))
        return scenes

    def pipeline(self, scene, tracer):
        cfg = scene.config()
        with tracer.span("robust.model_reassign"):
            res = model_reassign(scene.data, cfg, kappa=KAPPA, threads=self.threads)
        with tracer.span("evalkit.roc_sweep"):
            curve = roc_sweep(scene.data, cfg, scene.true_outliers, KAPPA_GRID,
                              threads=self.threads)
        return Outcome(labels=res.labels, gd_value=res.gd_value,
                       outliers=res.outliers, curve=curve)

    def replay(self, scene, outcome, tracer):
        """Re-run model_reassign's stages one public call at a time."""
        a, cfg = scene.data, scene.config()
        with tracer.span("robust.outlier_core"):
            gdm_outlier_core(a, cfg)
        with tracer.span("robust.known_fraction"):
            kf = known_fraction(a, cfg)
        tracer.add("optimizer.restarts_completed_share", kf.restart_gd_values.size / cfg.restarts)
        survivors = a[:, kf.labels >= 0]
        with tracer.span("optimizer.gdm"):
            lib = gdm(survivors, cfg, threads=1)
        labels, gd = replay_gdm(tracer, survivors, cfg)
        problems = same_labels("survivor gdm", kf.labels[kf.labels >= 0], lib.labels)
        problems += same_labels("replayed survivor", lib.labels, labels)
        if gd != kf.gd_value:
            problems.append("replayed survivor gd_value %r != %r" % (gd, kf.gd_value))
        dists = np.full((cfg.n_clusters, scene.n), np.inf)
        with tracer.span("robust.fit_subspace"):
            for k in range(cfg.n_clusters):
                cols = a[:, kf.labels == k]
                if cols.shape[1] and np.any(cols):
                    dists[k] = subspace_distances(a, fit_cluster_subspace(cols, cfg.eps))
        nearest = np.argmin(dists, axis=0)
        reassigned = np.where(dists[nearest, np.arange(scene.n)] > KAPPA, -1, nearest)
        problems += same_labels("reassigned", outcome.labels, reassigned)
        tracer.add("robust.reassigned_points", np.count_nonzero(outcome.labels != kf.labels))
        tracer.add("robust.rejected_share", outcome.outliers.size / scene.n)
        return problems


WORKLOADS = {w.name: w for w in (TwoViewSmall(), TwoViewLarge(), MixtureOutliers())}
