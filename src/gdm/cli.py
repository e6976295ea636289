"""Command line front end.

Subcommands: ``segment`` (ingest a correspondence file, embed, run the
segmentation pipeline, emit a JSON report), ``generate`` (write a
synthetic two-view scene as a correspondence file), ``eval`` (compare
two label files), and ``roc`` (kappa sweep of the outlier detector).

Input files are UTF-8 text. Correspondence files are CSV/TSV with one
row per feature, ``x,y,x2,y2[,label]``; lines starting with ``#`` are
ignored, and the first remaining line is taken as a header when it does
not parse as numbers (any later such line is an error). Every flag can
also be supplied through an environment variable named
``GDM_<COMMAND>_<FLAG>``.
"""

import json
import sys
import time

import click
import numpy as np

from ._checks import _real, _whole_numbers
from .embedding import embed_dataset
from .evalkit import misclassification_rate, roc_sweep, sample_two_view_scene
from .exceptions import GdmError, InvalidInputError
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
    """A parsed label value as an int, by the library's label rule: nan,
    inf, fractions and values outside the int64 range are errors."""
    try:
        return int(_whole_numbers(value, "label"))
    except InvalidInputError:
        raise ParseError(
            "%s:%d: label %r is not an integer" % (path, lineno, value)
        )


def _data_lines(path):
    """(line number, stripped line) of each line of path that is neither
    blank nor a ``#`` comment, after any UTF-8 byte-order mark; a file
    that cannot be read as text is a ParseError."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError("%s: cannot read: %s" % (path, exc))


def read_correspondences(path):
    """Parse a correspondence file into (coords (n, 4), labels or None)."""
    coords = []
    labels = []
    n_cols = None
    for row, (lineno, line) in enumerate(_data_lines(path)):
        try:
            values = [float(t) for t in _split_fields(line)]
        except ValueError:
            if row == 0:
                continue  # header row
            raise ParseError(
                "%s:%d: cannot parse %r as numbers" % (path, lineno, line)
            )
        if len(values) not in (4, 5):
            raise ParseError(
                "%s:%d: expected 4 or 5 columns, got %d"
                % (path, lineno, len(values))
            )
        n_cols = n_cols or len(values)
        if len(values) != n_cols:
            raise ParseError("%s:%d: inconsistent column count" % (path, lineno))
        coords.append(values[:4])
        if n_cols == 5:
            labels.append(_as_label(values[4], path, lineno))
    if not coords:
        raise ParseError("%s: no data rows found" % (path,))
    coords = np.asarray(coords, dtype=float)
    return coords, (np.asarray(labels, dtype=int) if labels else None)


def read_label_file(path):
    out = []
    for lineno, line in _data_lines(path):
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


def _metrics(pred, truth):
    """Misclassification of pred against truth, plus the outlier TPR and
    FPR whenever either labeling marks a point -1."""
    metrics = {"misclassification_pct": misclassification_rate(pred, truth)}
    if np.any(truth < 0) or np.any(pred < 0):
        metrics["tpr_pct"], metrics["fpr_pct"] = tpr_fpr(
            np.flatnonzero(pred < 0), np.flatnonzero(truth < 0), truth.size
        )
    return metrics


def _emit(text, output):
    """Write text and a final newline to stdout or, when given, to the
    file output; a file that cannot be written exits 1."""
    if output is None:
        click.echo(text)
        return
    try:
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise click.ClickException("cannot write %s: %s" % (output, exc.strerror or exc))


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


def _resolve_seed(ctx, param, seed):
    """Option callback: the given seed, or one drawn at random."""
    if seed is not None:
        return int(seed)
    return int(np.random.SeedSequence().entropy % (2**32))


_INPUT_OPTIONS = [
    click.argument("input_file", type=click.Path(exists=True, dir_okay=False)),
    click.option("--k", required=True, type=int, help="Number of clusters."),
    click.option("--embedding", type=click.Choice(["nonlinear", "linear"]),
                 default="nonlinear", show_default=True),
    click.option("--normalize/--no-normalize", default=False, show_default=True,
                 help="Map each view's coordinates into [-1, 1] before embedding."),
    click.option("--alpha", default=OutlierConfig.alpha, show_default=True,
                 help="Weight of the outlier row's charge alpha/2 * sum(M[0]^2)."),
    click.option("--fraction", default=OutlierConfig.fraction, show_default=True,
                 help="Fraction of points rejected by known-fraction."),
]

_PIPELINE_OPTIONS = [
    click.option("--epsilon", default=GdmConfig.eps, show_default=True,
                 help="Empirical dimension strictness, in (0, 1), with "
                      "D**(1/eps) below the largest float (eps >= 0.0031 "
                      "for 9-d data)."),
    click.option("--p", default=GdmConfig.p, show_default=True,
                 help="Exponent of the dimension-combining norm; finite, "
                      "with 2 * D**p below the largest float."),
    click.option("--restarts", default=GdmConfig.restarts, show_default=True,
                 help="Independent restarts."),
    click.option("--grad-iters", default=GdmConfig.grad_iters, show_default=True,
                 help="Projected gradient iterations per restart."),
    click.option("--genetic-passes", default=GdmConfig.genetic_passes, show_default=True,
                 help="Point reassignment sweeps per restart."),
    click.option("--step", default=GdmConfig.step_target, show_default=True,
                 help="Target step length on the membership simplex."),
    click.option("--merge-candidates", default=GdmConfig.merge_candidates, show_default=True,
                 help="Candidate pairs sampled per merge round."),
    click.option("--seed", type=click.IntRange(min=0), default=None,
                 callback=_resolve_seed,
                 help="RNG seed; drawn at random (and echoed) if omitted."),
    click.option("--threads", default=1, show_default=True,
                 help="Accepted for compatibility; restarts run in one thread."),
]


def _options(options):
    """Decorator applying a list of click parameters, first listed first."""
    def apply(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return apply


# GdmConfig field of each pipeline flag named otherwise; threads has none.
_CONFIG_FIELDS = {"epsilon": "eps", "step": "step_target", "threads": None}


def _load_input(input_file, k, embedding, normalize, pipeline):
    """(embedded data, truth labels or None, GdmConfig of k clusters) from
    INPUT_FILE and the parsed input and pipeline flags."""
    coords, truth = read_correspondences(input_file)
    fields = {_CONFIG_FIELDS.get(name, name): value for name, value in pipeline.items()}
    fields.pop(None)
    cfg = GdmConfig(n_clusters=k, **fields)
    data = embed_dataset(coords, mode=embedding, normalize=normalize)
    return data, truth, cfg


class _Group(click.Group):
    """Command group that ends any command raising a library error
    (GdmError) with its message on one ``Error:`` line and exit status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except GdmError as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Group)
def cli():
    """Two-view motion segmentation by global dimension minimization."""


@cli.command()
@_options(_INPUT_OPTIONS)
@click.option("--outlier-mode",
              type=click.Choice(["none", "naive", "known-fraction", "model-reassign"]),
              default="none", show_default=True)
@click.option("--kappa", default=OutlierConfig.kappa, show_default=True,
              help="Distance threshold of model-reassign.")
@_options(_PIPELINE_OPTIONS)
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Write the JSON report here instead of stdout.")
@click.option("--labels-out", type=click.Path(dir_okay=False), default=None,
              help="Also write one label per line to this file.")
def segment(input_file, k, embedding, normalize, alpha, fraction, outlier_mode,
            kappa, output, labels_out, **pipeline):
    """Segment the correspondences in INPUT_FILE into K motions."""
    t0 = time.perf_counter()
    ctx = click.get_current_context()
    data, truth, cfg = _load_input(input_file, k, embedding, normalize, pipeline)
    ocfg = OutlierConfig(mode=outlier_mode.replace("-", "_"), alpha=alpha,
                         fraction=fraction, kappa=kappa)
    result = segment_with_outliers(data, cfg, ocfg)
    metrics = None if truth is None else _metrics(result.labels, truth)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": "segment",
        "input": str(input_file),
        "n_points": int(data.shape[1]),
        "config": {param.name: ctx.params[param.name] for param in ctx.command.params
                   if param.name not in ("input_file", "output", "labels_out")},
        "seed": cfg.seed,
        "labels": [int(v) for v in result.labels],
        "outliers": [int(v) for v in result.outliers],
        "gd_value": result.gd_value,
        "per_cluster_dims": [float(v) for v in result.per_cluster_dims],
        "metrics": metrics,
        "wall_time_s": time.perf_counter() - t0,
    }
    # The labels go first, so that a run whose labels cannot be written
    # leaves no report behind.
    if labels_out is not None:
        _emit("\n".join(str(int(v)) for v in result.labels), labels_out)
    _emit(json.dumps(report, indent=2), output)


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
@click.option("--seed", type=click.IntRange(min=0), default=None, callback=_resolve_seed)
def generate(output_file, bodies, points, noise, outliers, coplanar, seed):
    """Write a synthetic two-view scene as a correspondence file."""
    per_body = points[0] if len(points) == 1 else points
    scene = sample_two_view_scene(
        n_bodies=bodies, points_per_body=per_body, noise_sigma=noise,
        n_outliers=outliers, coplanar=coplanar, seed=seed,
    )
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
    report = {"schema_version": REPORT_SCHEMA_VERSION, "command": "eval",
              "n_points": int(pred.size), **_metrics(pred, truth)}
    _emit(json.dumps(report, indent=2), output)


def _kappa_flag(values, hint, ends):
    """Usage error unless every value is a finite kappa, >= 0 or, when
    ends opens at 0, > 0."""
    try:
        for value in values:
            _real(value, "kappa", 0.0, np.inf, ends)
    except GdmError as exc:
        raise click.BadParameter(str(exc), param_hint=hint)


@cli.command()
@_options(_INPUT_OPTIONS)
@click.option("--kappas", default=None, callback=_comma_list(float),
              help="Comma list of kappa thresholds to sweep.")
@click.option("--kappa-min", default=0.001, show_default=True)
@click.option("--kappa-max", default=0.5, show_default=True)
@click.option("--kappa-count", type=click.IntRange(min=1), default=20,
              show_default=True,
              help="Size of the geometric kappa grid when --kappas is unset.")
@click.option("--truth", "truth_file", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Label file with -1 outliers; defaults to the "
                                 "input's label column.")
@_options(_PIPELINE_OPTIONS)
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Write the curve as CSV here instead of stdout.")
def roc(input_file, k, embedding, normalize, alpha, fraction, kappas, kappa_min,
        kappa_max, kappa_count, truth_file, output, **pipeline):
    """Sweep kappa over a grid and report the outlier-detection ROC."""
    if kappas is None:
        _kappa_flag((kappa_min, kappa_max), "--kappa-min/--kappa-max", "()")
        kappas = np.geomspace(kappa_min, kappa_max, kappa_count).tolist()
    else:
        _kappa_flag(kappas, "--kappas", "[)")
    data, truth, cfg = _load_input(input_file, k, embedding, normalize, pipeline)
    if truth_file is not None:
        truth = read_label_file(truth_file)
        if truth.size != data.shape[1]:
            raise click.ClickException("truth labels disagree on point count")
    if truth is None:
        raise click.ClickException(
            "ground truth required: give a label column or --truth"
        )
    curve = roc_sweep(data, cfg, np.flatnonzero(truth < 0), kappas,
                      fraction=fraction, alpha=alpha)
    lines = ["kappa,tpr_pct,fpr_pct"]
    for kappa, tpr, fpr in curve:
        lines.append("%.17g,%.17g,%.17g" % (kappa, tpr, fpr))
    _emit("\n".join(lines), output)


def main():
    cli(auto_envvar_prefix="GDM")


if __name__ == "__main__":
    sys.exit(main())
