"""Command line front end.

Subcommands: ``segment`` (ingest a correspondence file, embed, run the
segmentation pipeline, emit a JSON report), ``generate`` (write a
synthetic two-view scene as a correspondence file), ``eval`` (compare
two label files), and ``roc`` (kappa sweep of the outlier detector).

Correspondence files are CSV/TSV with one row per feature,
``x,y,x2,y2[,label]``; lines starting with ``#`` are ignored, and the
first remaining line is taken as a header when it does not parse as
numbers (any later such line is an error). Every flag can also be
supplied through an environment variable named ``GDM_<COMMAND>_<FLAG>``.
"""

import json
import math
import sys
import time

import click
import numpy as np

from .embedding import embed_dataset
from .evalkit import misclassification_rate, roc_sweep, sample_two_view_scene
from .exceptions import GdmError
from .optimizer import GdmConfig
from .robust import OutlierConfig, segment_with_outliers, tpr_fpr

REPORT_SCHEMA_VERSION = 1


class ParseError(click.ClickException):
    exit_code = 2


def _split_fields(line):
    if "," in line:
        return [t.strip() for t in line.split(",")]
    if "\t" in line:
        return [t.strip() for t in line.split("\t")]
    return line.split()


def _as_label(value, path, lineno):
    """A parsed label value as an int; nan, inf and fractions are errors."""
    if not value.is_integer():
        raise ParseError(
            "%s:%d: label %r is not an integer" % (path, lineno, value)
        )
    return int(value)


def read_correspondences(path):
    """Parse a correspondence file into (coords (n, 4), labels or None)."""
    coords = []
    labels = []
    n_cols = None
    first_line = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if first_line is None:
                first_line = lineno
            fields = _split_fields(line)
            try:
                values = [float(t) for t in fields]
            except ValueError:
                if lineno == first_line:
                    continue  # header row
                raise ParseError(
                    "%s:%d: cannot parse %r as numbers" % (path, lineno, line)
                )
            if len(values) not in (4, 5):
                raise ParseError(
                    "%s:%d: expected 4 or 5 columns, got %d"
                    % (path, lineno, len(values))
                )
            if n_cols is None:
                n_cols = len(values)
            elif len(values) != n_cols:
                raise ParseError(
                    "%s:%d: inconsistent column count" % (path, lineno)
                )
            coords.append(values[:4])
            if n_cols == 5:
                labels.append(_as_label(values[4], path, lineno))
    if not coords:
        raise ParseError("%s: no data rows found" % (path,))
    coords = np.asarray(coords, dtype=float)
    return coords, (np.asarray(labels, dtype=int) if labels else None)


def read_label_file(path):
    out = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise ParseError(
                    "%s:%d: cannot parse %r as a label" % (path, lineno, line)
                )
            out.append(_as_label(value, path, lineno))
    if not out:
        raise ParseError("%s: no labels found" % (path,))
    return np.asarray(out, dtype=int)


def _emit(text, output):
    if output is None:
        click.echo(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _comma_list(convert):
    """Option callback parsing a comma list of numbers with convert."""
    def callback(ctx, param, value):
        if value is None:
            return None
        try:
            return [convert(tok) for tok in str(value).split(",")]
        except ValueError:
            raise click.BadParameter(
                "expected a comma list of numbers, got %r" % (value,)
            )
    return callback


def _resolve_seed(seed):
    if seed is not None:
        return int(seed)
    return int(np.random.SeedSequence().entropy % (2**32))


_PIPELINE_OPTIONS = [
    click.option("--epsilon", default=0.35, show_default=True,
                 help="Empirical dimension strictness, in (0, 1)."),
    click.option("--p", default=15.0, show_default=True,
                 help="Exponent of the dimension-combining norm; finite, "
                      "with 2 * D**p below the largest float."),
    click.option("--restarts", default=10, show_default=True,
                 help="Independent restarts."),
    click.option("--grad-iters", default=30, show_default=True,
                 help="Projected gradient iterations per restart."),
    click.option("--genetic-passes", default=10, show_default=True,
                 help="Point reassignment sweeps per restart."),
    click.option("--step", default=0.3, show_default=True,
                 help="Target step length on the membership simplex."),
    click.option("--merge-candidates", default=100, show_default=True,
                 help="Candidate pairs sampled per merge round."),
    click.option("--seed", type=click.IntRange(min=0), default=None,
                 help="RNG seed; drawn at random (and echoed) if omitted."),
    click.option("--threads", default=1, show_default=True,
                 help="Accepted for compatibility; restarts run in one thread."),
]


def _pipeline_options(fn):
    for opt in reversed(_PIPELINE_OPTIONS):
        fn = opt(fn)
    return fn


def _build_config(k, epsilon, p, restarts, grad_iters, genetic_passes, step,
                  merge_candidates, seed):
    return GdmConfig(
        n_clusters=k,
        eps=epsilon,
        p=p,
        restarts=restarts,
        grad_iters=grad_iters,
        genetic_passes=genetic_passes,
        step_target=step,
        merge_candidates=merge_candidates,
        seed=seed,
    )


@click.group()
def cli():
    """Two-view motion segmentation by global dimension minimization."""


@cli.command()
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", required=True, type=int, help="Number of clusters.")
@click.option("--embedding", type=click.Choice(["nonlinear", "linear"]),
              default="nonlinear", show_default=True)
@click.option("--normalize/--no-normalize", default=False, show_default=True,
              help="Map each view's coordinates into [-1, 1] before embedding.")
@click.option("--outlier-mode",
              type=click.Choice(["none", "naive", "known-fraction", "model-reassign"]),
              default="none", show_default=True)
@click.option("--alpha", default=0.01, show_default=True,
              help="Weight of the outlier row's charge alpha/2 * sum(M[0]^2).")
@click.option("--fraction", default=0.20, show_default=True,
              help="Fraction of points rejected by known-fraction.")
@click.option("--kappa", default=0.05, show_default=True,
              help="Distance threshold of model-reassign.")
@_pipeline_options
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Write the JSON report here instead of stdout.")
@click.option("--labels-out", type=click.Path(dir_okay=False), default=None,
              help="Also write one label per line to this file.")
def segment(input_file, k, embedding, normalize, outlier_mode, alpha, fraction,
            kappa, epsilon, p, restarts, grad_iters, genetic_passes, step,
            merge_candidates, seed, threads, output, labels_out):
    """Segment the correspondences in INPUT_FILE into K motions."""
    t0 = time.perf_counter()
    coords, truth = read_correspondences(input_file)
    seed = _resolve_seed(seed)
    try:
        cfg = _build_config(k, epsilon, p, restarts, grad_iters, genetic_passes,
                            step, merge_candidates, seed)
        data = embed_dataset(coords, mode=embedding, normalize=normalize)
        mode = outlier_mode.replace("-", "_")
        ocfg = OutlierConfig(mode=mode, alpha=alpha, fraction=fraction, kappa=kappa)
        result = segment_with_outliers(data, cfg, ocfg)
    except GdmError as exc:
        raise click.ClickException(str(exc))
    metrics = None
    if truth is not None:
        metrics = {
            "misclassification_pct": misclassification_rate(result.labels, truth),
        }
        if np.any(truth < 0):
            tpr, fpr = tpr_fpr(result.outliers, np.flatnonzero(truth < 0),
                               truth.size)
            metrics["tpr_pct"] = tpr
            metrics["fpr_pct"] = fpr
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": "segment",
        "input": str(input_file),
        "n_points": int(coords.shape[0]),
        "config": {
            "k": k,
            "embedding": embedding,
            "normalize": normalize,
            "epsilon": epsilon,
            "p": p,
            "restarts": restarts,
            "grad_iters": grad_iters,
            "genetic_passes": genetic_passes,
            "step": step,
            "merge_candidates": merge_candidates,
            "outlier_mode": outlier_mode,
            "alpha": alpha,
            "fraction": fraction,
            "kappa": kappa,
            "seed": seed,
            "threads": threads,
        },
        "seed": seed,
        "labels": [int(v) for v in result.labels],
        "outliers": [int(v) for v in result.outliers],
        "gd_value": result.gd_value,
        "per_cluster_dims": [float(v) for v in result.per_cluster_dims],
        "metrics": metrics,
        "wall_time_s": time.perf_counter() - t0,
    }
    _emit(json.dumps(report, indent=2), output)
    if labels_out is not None:
        with open(labels_out, "w") as fh:
            fh.write("\n".join(str(int(v)) for v in result.labels) + "\n")


@cli.command()
@click.argument("output_file", type=click.Path(dir_okay=False))
@click.option("--bodies", default=2, show_default=True,
              help="Number of rigid bodies.")
@click.option("--points", default="40", show_default=True,
              callback=_comma_list(int),
              help="Points per body: one int or a comma list.")
@click.option("--noise", default=0.0, show_default=True,
              help="Gaussian noise scale on image coordinates.")
@click.option("--outliers", default=0, show_default=True,
              help="Bad matches to inject (label -1).")
@click.option("--coplanar", is_flag=True, default=False,
              help="Place each body's points on a plane.")
@click.option("--seed", type=click.IntRange(min=0), default=None)
def generate(output_file, bodies, points, noise, outliers, coplanar, seed):
    """Write a synthetic two-view scene as a correspondence file."""
    seed = _resolve_seed(seed)
    per_body = points[0] if len(points) == 1 else points
    try:
        scene = sample_two_view_scene(
            n_bodies=bodies, points_per_body=per_body, noise_sigma=noise,
            n_outliers=outliers, coplanar=coplanar, seed=seed,
        )
    except GdmError as exc:
        raise click.ClickException(str(exc))
    lines = ["# two-view scene, seed=%d" % seed, "x,y,x2,y2,label"]
    for row, label in zip(scene.correspondences, scene.labels):
        lines.append(
            "%.17g,%.17g,%.17g,%.17g,%d" % (row[0], row[1], row[2], row[3], label)
        )
    _emit("\n".join(lines), output_file)
    click.echo("wrote %d correspondences to %s" % (scene.labels.size, output_file),
               err=True)


@cli.command("eval")
@click.argument("pred_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("truth_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def eval_cmd(pred_file, truth_file, output):
    """Compare predicted labels against ground truth labels.

    Both files hold one integer label per line; -1 marks outliers."""
    pred = read_label_file(pred_file)
    truth = read_label_file(truth_file)
    if pred.size != truth.size:
        raise click.ClickException(
            "label files disagree on point count (%d vs %d)"
            % (pred.size, truth.size)
        )
    try:
        report = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "command": "eval",
            "n_points": int(pred.size),
            "misclassification_pct": misclassification_rate(pred, truth),
        }
        if np.any(truth < 0) or np.any(pred < 0):
            tpr, fpr = tpr_fpr(np.flatnonzero(pred < 0),
                               np.flatnonzero(truth < 0), truth.size)
            report["tpr_pct"] = tpr
            report["fpr_pct"] = fpr
    except GdmError as exc:
        raise click.ClickException(str(exc))
    _emit(json.dumps(report, indent=2), output)


@cli.command()
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", required=True, type=int, help="Number of clusters.")
@click.option("--embedding", type=click.Choice(["nonlinear", "linear"]),
              default="nonlinear", show_default=True)
@click.option("--normalize/--no-normalize", default=False, show_default=True)
@click.option("--kappas", default=None, callback=_comma_list(float),
              help="Comma list of kappa thresholds to sweep.")
@click.option("--kappa-min", default=0.001, show_default=True)
@click.option("--kappa-max", default=0.5, show_default=True)
@click.option("--kappa-count", type=click.IntRange(min=1), default=20,
              show_default=True,
              help="Size of the geometric kappa grid when --kappas is unset.")
@click.option("--alpha", default=0.01, show_default=True)
@click.option("--fraction", default=0.20, show_default=True)
@click.option("--truth", "truth_file", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Label file with -1 outliers; defaults to the "
                                 "input's label column.")
@_pipeline_options
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Write the curve as CSV here instead of stdout.")
def roc(input_file, k, embedding, normalize, kappas, kappa_min, kappa_max,
        kappa_count, alpha, fraction, truth_file, epsilon, p, restarts,
        grad_iters, genetic_passes, step, merge_candidates, seed, threads,
        output):
    """Sweep kappa over a grid and report the outlier-detection ROC."""
    if kappas is None:
        if not all(math.isfinite(b) and b > 0.0 for b in (kappa_min, kappa_max)):
            raise click.BadParameter("the grid bounds must be positive and finite",
                                     param_hint="--kappa-min/--kappa-max")
        kappas = np.geomspace(kappa_min, kappa_max, kappa_count).tolist()
    elif not all(math.isfinite(v) and v >= 0.0 for v in kappas):
        raise click.BadParameter("kappas must be finite and nonnegative",
                                 param_hint="--kappas")
    coords, truth = read_correspondences(input_file)
    if truth_file is not None:
        truth = read_label_file(truth_file)
        if truth.size != coords.shape[0]:
            raise click.ClickException("truth labels disagree on point count")
    if truth is None:
        raise click.ClickException(
            "ground truth required: give a label column or --truth"
        )
    seed = _resolve_seed(seed)
    try:
        cfg = _build_config(k, epsilon, p, restarts, grad_iters, genetic_passes,
                            step, merge_candidates, seed)
        data = embed_dataset(coords, mode=embedding, normalize=normalize)
        curve = roc_sweep(data, cfg, np.flatnonzero(truth < 0), kappas,
                          fraction=fraction, alpha=alpha)
    except GdmError as exc:
        raise click.ClickException(str(exc))
    lines = ["kappa,tpr_pct,fpr_pct"]
    for kappa, tpr, fpr in curve:
        lines.append("%.17g,%.17g,%.17g" % (kappa, tpr, fpr))
    _emit("\n".join(lines), output)


def main():
    cli(auto_envvar_prefix="GDM")


if __name__ == "__main__":
    sys.exit(main())
