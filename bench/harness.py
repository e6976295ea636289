"""Timed passes over a workload's scenes, output checks, quality and the
metrics the benchmark prints."""

import hashlib
import json
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from gdm.dimension import empirical_dimension, singular_values
from gdm.evalkit import misclassification_rate
from gdm.objective import global_dimension_hard
from gdm.robust import tpr_fpr

from tracer import NullTracer, Tracer
from workloads import Outcome

# Relative slack on "returned GD exceeds the true partition's GD".
GAP_RTOL = 1e-9
MISCLASS_BAD_PCT = 10.0

END_TO_END = {
    "setup_s": "s",
    "scene_cpu_s_mean": "s",
    "points_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
}
# A span named X gives the per-layer metric X_s: its seconds per scene.
SPAN_LAYERS = [
    "optimizer.merge_init", "optimizer.descend", "optimizer.threshold",
    "optimizer.refine", "optimizer.restart", "objective.value_grad",
    "objective.hard_gd", "robust.outlier_core", "robust.known_fraction",
    "robust.fit_subspace", "robust.model_reassign", "evalkit.roc_sweep",
    "cli.process", "cli.read_correspondences", "embedding.embed_dataset",
    "dimension.cluster_spectrum",
]
COUNTER_LAYERS = {
    "optimizer.merge_eigvalsh": "count",
    "optimizer.refine_moves": "count",
    "optimizer.descent_label_changes": "count",
    "optimizer.winner_share": "ratio",
    "optimizer.restarts_completed_share": "ratio",
    "robust.reassigned_points": "count",
    "robust.rejected_share": "ratio",
    "cli.startup_s": "s",
    "dimension.cluster_bytes": "bytes",
}
PER_LAYER = {
    **{name + "_s": "s" for name in SPAN_LAYERS},
    **COUNTER_LAYERS,
    "optimizer.thread_speedup": "ratio",
    "evalkit.roc_rerun_share": "ratio",
    "trace.overhead_s": "s",
    "speed.scale": "ratio",
    "wall.scene_s_p50": "s",
    "wall.points_per_s": "1/s",
    "quality.misclass_pct_median": "%",
    "quality.misclass_over10_share": "ratio",
    "quality.search_gap_share": "ratio",
    "quality.tpr_pct_median": "%",
    "quality.fpr_pct_median": "%",
    "quality.roc_auc_median": "ratio",
    "quality.failed_share": "ratio",
}


@dataclass
class Call:
    """One pipeline call: its wall time, result and failed checks."""

    scene: int
    seconds: float
    cpu_seconds: float
    window: tuple  # time.monotonic() at start and end, for the speed probes
    outcome: Outcome | None
    problems: list = field(default_factory=list)


@dataclass
class Run:
    scenes: list
    passes: list
    tracer: object
    traced: list = field(default_factory=list)
    truth_gd: dict = field(default_factory=dict)

    def calls(self):
        return [c for p in self.passes for c in p] + self.traced

    def quality_calls(self):
        """The calls quality is read from: the traced pass if there is
        one (it must match the first pass), else the first pass."""
        return self.traced or self.passes[0]


def check_outcome(workload, scene, outcome):
    labels = outcome.labels
    k = scene.n_clusters
    low = -1 if workload.allows_rejects else 0
    if labels.shape != (scene.n,):
        return ["labels have shape %s, expected (%d,)" % (labels.shape, scene.n)]
    if labels.min() < low or labels.max() >= k:
        return ["labels outside [%d, %d)" % (low, k)]
    hard = global_dimension_hard(scene.data, labels, scene.config().objective_params(),
                                 n_clusters=k, on_degenerate="zero")
    if outcome.gd_value != hard:
        return ["gd_value %r != hard GD of the labels %r" % (outcome.gd_value, hard)]
    return []


def cpu_seconds():
    """CPU time of this process's threads and of the children it has
    waited for. Unlike wall time it leaves out time the host gave to
    other work, such as other virtual machines sharing its cores."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_scene(workload, scene, tracer, replay=False):
    tracer.scene = scene.index
    mono, start, cpu_start = time.monotonic(), time.perf_counter(), cpu_seconds()
    try:
        with tracer.span("pipeline"):
            outcome = workload.pipeline(scene, tracer)
        seconds, cpu = time.perf_counter() - start, cpu_seconds() - cpu_start
        window = (mono, time.monotonic())
        problems = check_outcome(workload, scene, outcome)
        if replay:
            problems += workload.replay(scene, outcome, tracer)
    except Exception:
        return Call(scene.index, time.perf_counter() - start, cpu_seconds() - cpu_start,
                    (mono, time.monotonic()), None,
                    ["scene %d raised:\n%s" % (scene.index, traceback.format_exc())])
    return Call(scene.index, seconds, cpu, window, outcome,
                ["scene %d: %s" % (scene.index, p) for p in problems])


def same_as(call, reference, what):
    if call.outcome is None or reference.outcome is None:
        return
    if not np.array_equal(call.outcome.labels, reference.outcome.labels):
        call.problems.append("scene %d: %s labels differ from the first pass"
                             % (call.scene, what))


def analyse(scene, tracer):
    """Ground-truth side of a scene: per-cluster spectra (timed) and the
    GD of the true partition, against which the search gap is judged."""
    tracer.scene = scene.index
    cfg = scene.config()
    with tracer.span("dimension.cluster_spectrum"):
        for k in range(scene.n_clusters):
            empirical_dimension(singular_values(scene.data[:, scene.truth == k]), cfg.eps)
    tracer.add("dimension.cluster_bytes", scene.data[:, scene.truth >= 0].nbytes)
    with tracer.span("objective.hard_gd"):
        return global_dimension_hard(scene.data, scene.truth, cfg.objective_params(),
                                     n_clusters=scene.n_clusters, on_degenerate="zero")


def run_workload(workload, args, workdir):
    """Untimed scene set-up, then whole passes over the scenes while the
    next one is expected to end within args.seconds (at least one). A
    traced run adds one traced pass that replays every scene's stages."""
    scenes = workload.scenes(args.seed, args.size, workdir)
    untraced = NullTracer()
    passes = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append([run_scene(workload, s, untraced) for s in scenes])
        took = time.perf_counter() - start
        if time.perf_counter() - begin + took > args.seconds:
            break
    for later in passes[1:]:
        for call, ref in zip(later, passes[0]):
            same_as(call, ref, "repeated")
    run = Run(scenes, passes, Tracer() if args.trace else untraced)
    if args.trace:
        run.traced = [run_scene(workload, s, run.tracer, replay=True) for s in scenes]
        for call, ref in zip(run.traced, passes[0]):
            same_as(call, ref, "traced")
    elif hasattr(workload, "spot_check"):
        outcomes = [c.outcome for c in passes[0]]
        if all(o is not None for o in outcomes):
            for index, problems in workload.spot_check(scenes, outcomes).items():
                passes[0][index].problems += ["scene %d: %s" % (index, p) for p in problems]
    run.truth_gd = {s.index: analyse(s, run.tracer) for s in scenes}
    return run


def roc_auc(curve):
    """Area under the (FPR, TPR) points of a kappa sweep, closed at
    (0, 0) and (100, 100) and scaled to [0, 1]."""
    pts = sorted([(0.0, 0.0), (100.0, 100.0)] + [(f, t) for _, t, f in curve])
    fpr, tpr = np.array(pts).T
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0) / 1e4)


def scene_quality(scene, call, truth_gd):
    row = {"scene": scene.index, "n": scene.n, "k": scene.n_clusters,
           "truth_gd": truth_gd}
    if call.outcome is None:
        return row
    out = call.outcome
    row.update(gd_value=out.gd_value,
               misclass_pct=misclassification_rate(out.labels, scene.truth),
               search_gap=bool(out.gd_value > truth_gd * (1.0 + GAP_RTOL)))
    if scene.true_outliers.size:
        row["tpr_pct"], row["fpr_pct"] = tpr_fpr(out.outliers, scene.true_outliers, scene.n)
        row["roc_auc"] = roc_auc(out.curve)
    return row


def median_or_zero(values):
    return float(statistics.median(values)) if values else 0.0


def quality_summary(rows, attempted, failed):
    """Quality over the scenes; outlier metrics are 0 where no scene has
    planted outliers (tpr_fpr's convention), and no ROC is swept."""
    done = [r for r in rows if "misclass_pct" in r]
    mis = [r["misclass_pct"] for r in done]
    return {
        "quality.misclass_pct_median": median_or_zero(mis),
        "quality.misclass_over10_share":
            sum(m > MISCLASS_BAD_PCT for m in mis) / len(mis) if mis else 0.0,
        "quality.search_gap_share":
            sum(r["search_gap"] for r in done) / len(done) if done else 0.0,
        "quality.tpr_pct_median": median_or_zero([r["tpr_pct"] for r in done if "tpr_pct" in r]),
        "quality.fpr_pct_median": median_or_zero([r["fpr_pct"] for r in done if "fpr_pct" in r]),
        "quality.roc_auc_median": median_or_zero([r["roc_auc"] for r in done if "roc_auc" in r]),
        "quality.failed_share": failed / attempted,
    }


def labels_digest(calls):
    h = hashlib.sha256()
    for call in calls:
        if call.outcome is None:
            h.update(b"failed")
        else:
            h.update(np.asarray(call.outcome.labels, dtype=np.int64).tobytes())
    return h.hexdigest()


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for
    (set-up probes, CLI processes); Linux reports kilobytes."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def timed_calls(run):
    return [c for p in run.passes for c in p if c.outcome is not None]


def wall_metrics(run):
    ok = timed_calls(run)
    if not ok:
        return {}
    return {
        "wall.scene_s_p50": statistics.median(c.seconds for c in ok),
        "wall.points_per_s": sum(run.scenes[c.scene].n for c in ok) / sum(c.seconds for c in ok),
    }


def time_metrics(run, setup, scale):
    """setup_s and the pipeline CPU-time metrics, each time multiplied by
    scale(start, end) of the interval it was measured in."""
    ok = timed_calls(run)
    if not ok:
        return {}
    cpu = sum(c.cpu_seconds * scale(*c.window) for c in ok)
    return {
        "setup_s": statistics.median(s * scale(start, end) for s, start, end in setup)
                   if setup else None,
        "scene_cpu_s_mean": cpu / len(ok),
        "points_per_cpu_s": sum(run.scenes[c.scene].n for c in ok) / cpu,
    }


def end_to_end_metrics(run, setup, speed):
    """Times scaled by the speed probes' samples taken while they ran
    (speed.py), and peak RSS."""
    values = time_metrics(run, setup, speed.scale)
    return {**values, "peak_rss_mb": peak_rss_mb()} if values else {}


def unscaled(start, end):
    return 1.0


def ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(run, quality, speed):
    """Per-layer numbers from the traced pass: medians over scenes of
    per-scene span totals and counters."""
    tr = run.tracer
    ids = [s.index for s in run.scenes]

    def per_scene(fn):
        return median_or_zero([fn(i) for i in ids])

    values = {}
    for name in SPAN_LAYERS:
        values[name + "_s"] = per_scene(lambda i, n=name: tr.span_seconds(n, i))
    for name in COUNTER_LAYERS:
        values[name] = per_scene(lambda i, n=name: tr.counter(n, i))
    values["optimizer.thread_speedup"] = per_scene(lambda i: ratio(
        tr.span_seconds("optimizer.restart", i), tr.span_seconds("optimizer.gdm", i)))
    values["evalkit.roc_rerun_share"] = per_scene(lambda i: ratio(
        tr.span_seconds("robust.known_fraction", i), tr.span_seconds("evalkit.roc_sweep", i)))
    untraced = [c.seconds * speed.scale(*c.window) for c in timed_calls(run)]
    traced = [c.seconds * speed.scale(*c.window) for c in run.traced if c.outcome is not None]
    values["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced)
        if traced and untraced else 0.0
    )
    values["speed.scale"] = statistics.mean(speed.scale(*c.window) for c in timed_calls(run))
    values.update(wall_metrics(run))
    values.update(quality)
    return values


def summarise(run, args, setup, speed):
    """The report and the result line. setup holds (wall seconds, start,
    end) of each set-up probe; speed is the run's stopped SpeedProbes."""
    calls = run.calls()
    failed = sum(1 for c in calls if c.problems)
    rows = [scene_quality(s, c, run.truth_gd[s.index])
            for s, c in zip(run.scenes, run.quality_calls())]
    quality = quality_summary(rows, len(calls), failed)
    if args.trace:
        values, units = layer_metrics(run, quality, speed), PER_LAYER
    else:
        values, units = end_to_end_metrics(run, setup, speed), END_TO_END
    complete = set(values) == set(units)
    report = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "env": environment(args.seed),
        "passes": len(run.passes),
        "labels_sha256": labels_digest(run.passes[0]),
        "quality": quality,
        "wall": wall_metrics(run),
        "scenes": rows,
        "cpus": speed.cpus,
        "raw": time_metrics(run, setup, unscaled),
        "setup_s_samples": [s for s, _, _ in setup],
        "setup_speed_scale": [speed.scale(start, end) for _, start, end in setup],
        "call_speed_scale": [[speed.scale(*c.window) for c in p] for p in run.passes],
        "call_seconds": {"passes": [[c.seconds for c in p] for p in run.passes],
                         "traced": [c.seconds for c in run.traced]},
        "call_cpu_seconds": [[c.cpu_seconds for c in p] for p in run.passes],
        "problems": [p for c in calls for p in c.problems],
    }
    result = {
        "correct": failed == 0 and complete,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                    for k in units if k in values},
    }
    return report, result


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def print_json(obj):
    print(json.dumps(obj), flush=True)
