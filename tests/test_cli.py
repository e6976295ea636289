import json

import pytest
from click.testing import CliRunner

from gdm.cli import ParseError, cli, read_correspondences, read_label_file


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def scene_file(tmp_path, runner):
    path = tmp_path / "scene.csv"
    res = runner.invoke(cli, [
        "generate", str(path), "--bodies", "2", "--points", "25", "--seed", "11",
    ])
    assert res.exit_code == 0, res.output
    return path


def read_report(text):
    return json.loads(text)


def test_generate_writes_header_and_labels(scene_file):
    lines = scene_file.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "x,y,x2,y2,label"
    assert len(lines) == 52
    assert all(line.count(",") == 4 for line in lines[2:])


def test_generate_per_body_counts(tmp_path, runner):
    path = tmp_path / "uneven.csv"
    res = runner.invoke(cli, [
        "generate", str(path), "--bodies", "2", "--points", "10,20", "--seed", "3",
    ])
    assert res.exit_code == 0
    labels = [int(line.rsplit(",", 1)[1]) for line in
              path.read_text().strip().splitlines()[2:]]
    assert labels.count(0) == 10 and labels.count(1) == 20


def test_segment_round_trip(scene_file, tmp_path, runner):
    report_path = tmp_path / "report.json"
    labels_path = tmp_path / "labels.txt"
    res = runner.invoke(cli, [
        "segment", str(scene_file), "--k", "2", "--seed", "7",
        "--output", str(report_path), "--labels-out", str(labels_path),
    ])
    assert res.exit_code == 0, res.output
    report = read_report(report_path.read_text())
    assert report["schema_version"] == 1
    assert report["n_points"] == 50
    assert len(report["labels"]) == 50
    assert report["metrics"]["misclassification_pct"] == 0.0
    assert report["config"]["epsilon"] == 0.35
    assert report["config"]["p"] == 15.0
    labels = [int(x) for x in labels_path.read_text().split()]
    assert labels == report["labels"]

    # eval the emitted labels against the generator's ground truth
    truth_path = tmp_path / "truth.txt"
    rows = scene_file.read_text().strip().splitlines()[2:]
    truth_path.write_text("\n".join(r.rsplit(",", 1)[1] for r in rows))
    res = runner.invoke(cli, ["eval", str(labels_path), str(truth_path)])
    assert res.exit_code == 0
    assert read_report(res.output)["misclassification_pct"] == 0.0


def test_segment_and_eval_report_the_same_metrics(scene_file, tmp_path, runner):
    # known-fraction rejects a fifth of a scene with no planted outliers;
    # eval of the labels segment wrote reports what segment did.
    labels_path = tmp_path / "labels.txt"
    res = runner.invoke(cli, [
        "segment", str(scene_file), "--k", "2", "--seed", "7",
        "--outlier-mode", "known-fraction", "--labels-out", str(labels_path),
    ])
    assert res.exit_code == 0, res.output
    metrics = read_report(res.output)["metrics"]
    truth_path = tmp_path / "truth.txt"
    rows = scene_file.read_text().strip().splitlines()[2:]
    truth_path.write_text("\n".join(r.rsplit(",", 1)[1] for r in rows))
    res = runner.invoke(cli, ["eval", str(labels_path), str(truth_path)])
    assert res.exit_code == 0, res.output
    report = read_report(res.output)
    assert {key: report[key] for key in metrics} == metrics
    assert set(report) == set(metrics) | {"schema_version", "command", "n_points"}
    assert metrics["tpr_pct"] == 0.0 and metrics["fpr_pct"] == 20.0


def test_segment_deterministic_with_seed(scene_file, runner):
    args = ["segment", str(scene_file), "--k", "2", "--seed", "5"]
    out1 = runner.invoke(cli, args)
    out2 = runner.invoke(cli, args)
    assert out1.exit_code == 0 and out2.exit_code == 0
    r1, r2 = read_report(out1.output), read_report(out2.output)
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    assert r1 == r2


def test_segment_random_seed_is_echoed(scene_file, runner):
    res = runner.invoke(cli, ["segment", str(scene_file), "--k", "2"])
    assert res.exit_code == 0
    report = read_report(res.output)
    assert isinstance(report["seed"], int)
    assert report["config"]["seed"] == report["seed"]


def test_segment_config_echo_keys(scene_file, runner):
    # Every flag of the command but the file names.
    res = runner.invoke(cli, ["segment", str(scene_file), "--k", "2", "--restarts", "2",
                              "--seed", "7"])
    assert res.exit_code == 0, res.output
    report = read_report(res.output)
    assert set(report["config"]) == {
        "k", "embedding", "normalize", "epsilon", "p", "restarts", "grad_iters",
        "genetic_passes", "step", "merge_candidates", "outlier_mode", "alpha",
        "fraction", "kappa", "seed", "threads",
    }
    assert report["config"]["seed"] == report["seed"] == 7


def test_config_echo_round_trips(scene_file, runner):
    res = runner.invoke(cli, [
        "segment", str(scene_file), "--k", "2", "--seed", "13",
        "--epsilon", "0.4", "--p", "12", "--restarts", "6",
    ])
    assert res.exit_code == 0
    report = read_report(res.output)
    cfgmap = report["config"]
    args = [
        "segment", str(scene_file),
        "--k", str(cfgmap["k"]),
        "--embedding", cfgmap["embedding"],
        "--epsilon", str(cfgmap["epsilon"]),
        "--p", str(cfgmap["p"]),
        "--restarts", str(cfgmap["restarts"]),
        "--grad-iters", str(cfgmap["grad_iters"]),
        "--genetic-passes", str(cfgmap["genetic_passes"]),
        "--step", str(cfgmap["step"]),
        "--merge-candidates", str(cfgmap["merge_candidates"]),
        "--outlier-mode", cfgmap["outlier_mode"],
        "--seed", str(cfgmap["seed"]),
    ]
    if cfgmap["normalize"]:
        args.append("--normalize")
    rerun = runner.invoke(cli, args)
    assert rerun.exit_code == 0
    assert read_report(rerun.output)["labels"] == report["labels"]


def test_segment_threads_flag_same_labels(scene_file, runner):
    base = runner.invoke(cli, ["segment", str(scene_file), "--k", "2", "--seed", "9"])
    threaded = runner.invoke(cli, [
        "segment", str(scene_file), "--k", "2", "--seed", "9", "--threads", "3",
    ])
    assert read_report(base.output)["labels"] == read_report(threaded.output)["labels"]


def test_segment_env_var_override(scene_file, runner):
    res = runner.invoke(
        cli,
        ["segment", str(scene_file), "--k", "2", "--seed", "4"],
        env={"GDM_SEGMENT_EPSILON": "0.45"},
        auto_envvar_prefix="GDM",
    )
    assert res.exit_code == 0, res.output
    assert read_report(res.output)["config"]["epsilon"] == 0.45


def test_outlier_mode_model_reassign(tmp_path, runner):
    path = tmp_path / "planted.csv"
    gen = runner.invoke(cli, [
        "generate", str(path), "--bodies", "2", "--points", "30",
        "--outliers", "12", "--noise", "0.001", "--seed", "21",
    ])
    assert gen.exit_code == 0
    res = runner.invoke(cli, [
        "segment", str(path), "--k", "2", "--seed", "21",
        "--outlier-mode", "model-reassign", "--kappa", "0.05",
    ])
    assert res.exit_code == 0, res.output
    report = read_report(res.output)
    assert report["outliers"], "expected outlier flags"
    assert "tpr_pct" in report["metrics"]
    flagged = set(report["outliers"])
    assert all(report["labels"][i] == -1 for i in flagged)


def test_parse_failure_reports_line_number(tmp_path, runner):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y,x2,y2\n1,2,3,4\n5,6,oops,8\n")
    res = runner.invoke(cli, ["segment", str(bad), "--k", "2"])
    assert res.exit_code == 2
    assert ":3:" in res.output


@pytest.mark.parametrize("label", ["nan", "inf", "-inf", "1.7", "1e20", "-1e20"])
def test_non_integer_label_is_a_parse_error(label, tmp_path, runner):
    scene = tmp_path / "labels.csv"
    scene.write_text("x,y,x2,y2,label\n1,2,3,4,0\n5,6,7,8,%s\n" % label)
    res = runner.invoke(cli, ["segment", str(scene), "--k", "2"])
    assert res.exit_code == 2, res.output
    assert ":3:" in res.output and "not an integer" in res.output
    pred = tmp_path / "pred.txt"
    pred.write_text("0\n%s\n" % label)
    res = runner.invoke(cli, ["eval", str(pred), str(pred)])
    assert res.exit_code == 2, res.output
    assert ":2:" in res.output and "not an integer" in res.output


def test_only_the_first_line_may_be_a_header(tmp_path, runner):
    bad = tmp_path / "late_header.csv"
    bad.write_text("x,y,x2,y2\n1,2,oops,4\nfoo,bar\n1,2,3,4\n5,6,7,8\n")
    with pytest.raises(ParseError, match=":2:"):
        read_correspondences(bad)
    res = runner.invoke(cli, ["segment", str(bad), "--k", "2"])
    assert res.exit_code == 2
    assert ":2:" in res.output
    commented = tmp_path / "commented.csv"
    commented.write_text("# scene\n\nx,y,x2,y2\n1,2,3,4\n5,6,7,8\n")
    coords, labels = read_correspondences(commented)
    assert coords.shape == (2, 4) and labels is None


def test_wrong_column_count_rejected(tmp_path, runner):
    bad = tmp_path / "bad2.csv"
    bad.write_text("1,2,3\n")
    res = runner.invoke(cli, ["segment", str(bad), "--k", "2"])
    assert res.exit_code == 2
    assert ":1:" in res.output


@pytest.mark.parametrize("args", [
    ["generate", "{dir}/bad.csv", "--points", "4x"],
    ["generate", "{dir}/bad.csv", "--points", "10,"],
    ["roc", "{scene}", "--k", "2", "--kappas", "0.1,abc"],
    ["roc", "{scene}", "--k", "2", "--kappas", ""],
])
def test_malformed_list_flag_is_a_usage_error(args, scene_file, tmp_path, runner):
    args = [a.format(dir=tmp_path, scene=scene_file) for a in args]
    res = runner.invoke(cli, args)
    assert res.exit_code == 2, res.output
    assert "Invalid value" in res.output
    assert not isinstance(res.exception, ValueError)


@pytest.mark.parametrize("flags", [
    ["--kappa-min", "0"],
    ["--kappa-min", "-0.1"],
    ["--kappa-min", "nan"],
    ["--kappa-max", "inf"],
    ["--kappas", "0.1,nan"],
    ["--kappas", "inf"],
    ["--kappas", "0.1,-0.2"],
    ["--kappa-count", "0"],
    ["--kappa-count", "-1"],
])
def test_bad_kappa_is_a_usage_error(flags, scene_file, runner):
    res = runner.invoke(cli, ["roc", str(scene_file), "--k", "2"] + flags)
    assert res.exit_code == 2, res.output
    assert "Invalid value" in res.output


@pytest.mark.parametrize("args", [
    ["segment", "{scene}", "--k", "2", "--seed", "-1"],
    ["roc", "{scene}", "--k", "2", "--seed", "-1"],
    ["generate", "{dir}/neg.csv", "--seed", "-3"],
])
def test_negative_seed_is_a_usage_error(args, scene_file, tmp_path, runner):
    args = [a.format(dir=tmp_path, scene=scene_file) for a in args]
    res = runner.invoke(cli, args)
    assert res.exit_code == 2, res.output
    assert "Invalid value" in res.output
    assert not (tmp_path / "neg.csv").exists()


@pytest.mark.parametrize("flags", [
    ["--points", "0"],
    ["--points", "10,0"],
    ["--outliers", "-3"],
    ["--noise", "-1"],
    ["--noise", "inf"],
])
def test_generate_rejects_bad_counts(flags, tmp_path, runner):
    path = tmp_path / "bad.csv"
    res = runner.invoke(cli, ["generate", str(path), "--seed", "1"] + flags)
    assert res.exit_code == 1, res.output
    assert "Error" in res.output
    assert not path.exists()


@pytest.mark.parametrize("flags", [
    ["--p", "nan"],
    ["--step", "nan"],
    ["--alpha", "nan", "--outlier-mode", "known-fraction"],
    ["--kappa", "nan", "--outlier-mode", "model-reassign"],
    ["--p", "inf"],
    ["--p", "400"],
])
def test_nan_parameter_is_an_error(flags, scene_file, runner):
    res = runner.invoke(cli, ["segment", str(scene_file), "--k", "2", "--seed", "1"] + flags)
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit), res.exception
    assert "Error" in res.output


@pytest.mark.parametrize("command", ["segment", "roc"])
@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_non_finite_alpha_is_an_error(command, alpha, scene_file, runner):
    flags = ["--outlier-mode", "known-fraction"] if command == "segment" else []
    res = runner.invoke(cli, [command, str(scene_file), "--k", "2", "--seed", "1",
                              "--alpha", alpha] + flags)
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit), res.exception
    assert "Error: alpha must be in [0, inf), got %s" % alpha in res.output


def test_infeasible_config_fails_cleanly(scene_file, runner):
    res = runner.invoke(cli, ["segment", str(scene_file), "--k", "60", "--seed", "1"])
    assert res.exit_code == 1
    assert "Error" in res.output


def test_eval_reports_tpr_fpr_when_outliers_present(tmp_path, runner):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("\n".join(["0", "0", "1", "-1", "1", "-1"]))
    truth.write_text("\n".join(["0", "0", "1", "1", "-1", "-1"]))
    res = runner.invoke(cli, ["eval", str(pred), str(truth)])
    assert res.exit_code == 0
    report = read_report(res.output)
    assert report["tpr_pct"] == pytest.approx(50.0)
    assert report["fpr_pct"] == pytest.approx(25.0)


def test_eval_length_mismatch(tmp_path, runner):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("0\n1\n")
    truth.write_text("0\n")
    res = runner.invoke(cli, ["eval", str(pred), str(truth)])
    assert res.exit_code == 1


def test_roc_curve_output(tmp_path, runner):
    path = tmp_path / "planted.csv"
    runner.invoke(cli, [
        "generate", str(path), "--bodies", "2", "--points", "25",
        "--outliers", "10", "--noise", "0.001", "--seed", "31",
    ])
    res = runner.invoke(cli, [
        "roc", str(path), "--k", "2", "--seed", "31",
        "--kappas", "0.001,0.01,0.1,1.0",
    ])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0] == "kappa,tpr_pct,fpr_pct"
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    assert len(rows) == 4
    tprs = [r[1] for r in rows]
    assert all(a >= b for a, b in zip(tprs, tprs[1:]))


def test_roc_requires_ground_truth(tmp_path, runner):
    path = tmp_path / "nolabels.csv"
    path.write_text("0.1,0.2,0.3,0.4\n0.5,0.6,0.7,0.8\n")
    res = runner.invoke(cli, ["roc", str(path), "--k", "1", "--kappas", "0.1"])
    assert res.exit_code == 1
    assert "ground truth" in res.output


@pytest.mark.parametrize("sep", ["\t", " ", "  \t "])
def test_tab_and_space_separated_rows(sep, tmp_path):
    path = tmp_path / "rows.txt"
    rows = [["x", "y", "x2", "y2", "label"], ["1", "2", "3", "4", "0"],
            ["5", "6", "7", "8.5", "-1"]]
    path.write_text("\n".join(sep.join(row) for row in rows) + "\n")
    coords, labels = read_correspondences(path)
    assert coords.tolist() == [[1, 2, 3, 4], [5, 6, 7, 8.5]]
    assert labels.tolist() == [0, -1]


@pytest.mark.parametrize("text, message", [
    ("1,2,3,4\n5,6,7,8,0\n", ":2: inconsistent column count"),
    ("# scene\n\nx,y,x2,y2\n# no rows\n", "no data rows found"),
])
def test_malformed_correspondence_files(text, message, tmp_path, runner):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    res = runner.invoke(cli, ["segment", str(path), "--k", "2"])
    assert res.exit_code == 2, res.output
    assert message in res.output


@pytest.mark.parametrize("text, message", [
    ("0\nzero\n1\n", ":2: cannot parse 'zero' as a label"),
    ("", "no labels found"),
    ("# only a comment\n\n", "no labels found"),
])
def test_malformed_label_files(text, message, tmp_path, runner):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("0\n0\n1\n")
    bad.write_text(text)
    for args in ([bad, good], [good, bad]):
        res = runner.invoke(cli, ["eval"] + [str(p) for p in args])
        assert res.exit_code == 2, res.output
        assert message in res.output


def test_eval_of_more_than_six_clusters_is_an_error(tmp_path, runner):
    labels = tmp_path / "labels.txt"
    labels.write_text("\n".join(str(i) for i in range(7)))
    res = runner.invoke(cli, ["eval", str(labels), str(labels)])
    assert res.exit_code == 1, res.output
    assert "at most 6 clusters" in res.output


def test_eval_of_all_rejected_labels(tmp_path, runner):
    pred, truth = tmp_path / "pred.txt", tmp_path / "truth.txt"
    pred.write_text("-1\n-1\n-1\n")
    truth.write_text("0\n1\n-1\n")
    res = runner.invoke(cli, ["eval", str(pred), str(truth)])
    assert res.exit_code == 0, res.output
    report = read_report(res.output)
    assert report["misclassification_pct"] == 0.0
    assert report["tpr_pct"] == 100.0 and report["fpr_pct"] == 100.0


def test_roc_truth_file(tmp_path, runner):
    # A --truth file stands in for the input's label column.
    labelled = tmp_path / "planted.csv"
    res = runner.invoke(cli, [
        "generate", str(labelled), "--points", "12", "--outliers", "4",
        "--noise", "0.001", "--seed", "5",
    ])
    assert res.exit_code == 0, res.output
    rows = labelled.read_text().strip().splitlines()[2:]
    bare, truth = tmp_path / "bare.csv", tmp_path / "truth.txt"
    bare.write_text("\n".join(row.rsplit(",", 1)[0] for row in rows))
    truth.write_text("\n".join(row.rsplit(",", 1)[1] for row in rows))
    flags = ["--k", "2", "--seed", "5", "--restarts", "2", "--kappas", "0.01,0.1"]
    want = runner.invoke(cli, ["roc", str(labelled)] + flags)
    got = runner.invoke(cli, ["roc", str(bare), "--truth", str(truth)] + flags)
    assert want.exit_code == 0 and got.exit_code == 0, (want.output, got.output)
    assert got.output == want.output
    truth.write_text("\n".join(row.rsplit(",", 1)[1] for row in rows[1:]))
    res = runner.invoke(cli, ["roc", str(bare), "--truth", str(truth)] + flags)
    assert res.exit_code == 1
    assert "truth labels disagree on point count" in res.output


def assert_one_error_line(res, exit_code):
    assert res.exit_code == exit_code, res.output
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.output.count("Error:") == 1 and "Traceback" not in res.output
    assert "schema_version" not in res.output


def not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x,y,x2,y2\n0.5,1,2,3\n\xe9,1,2,3\n")
    return path


def test_segment_of_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, runner):
    path = not_utf8(tmp_path)
    res = runner.invoke(cli, ["segment", str(path), "--k", "2"])
    assert_one_error_line(res, 2)
    assert "Error: %s: cannot read: 'utf-8' codec can't decode" % path in res.output


def test_eval_of_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, runner):
    bad, good = not_utf8(tmp_path), tmp_path / "good.txt"
    good.write_text("0\n1\n")
    for args in ([bad, good], [good, bad]):
        res = runner.invoke(cli, ["eval"] + [str(p) for p in args])
        assert_one_error_line(res, 2)
        assert "Error: %s: cannot read" % bad in res.output



def test_a_byte_order_mark_is_skipped_in_correspondence_files(tmp_path):
    # Read as text, the mark would turn the first row into a header.
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeff1,2,3,4\n5,6,7,8\n9,10,11,12\n".encode("utf-8"))
    coords, labels = read_correspondences(path)
    assert coords.tolist() == [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]
    assert labels is None


def test_a_byte_order_mark_is_skipped_in_label_files(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes("\ufeff0\n1\n1\n".encode("utf-8"))
    assert read_label_file(path).tolist() == [0, 1, 1]

@pytest.mark.parametrize("args", [
    ["segment", "{scene}", "--k", "2", "--restarts", "1", "--output", "{target}"],
    ["segment", "{scene}", "--k", "2", "--restarts", "1", "--labels-out", "{target}"],
    ["roc", "{scene}", "--k", "2", "--restarts", "1", "--kappas", "0.1",
     "--output", "{target}"],
    ["generate", "{target}"],
], ids=["segment-output", "segment-labels-out", "roc-output", "generate"])
def test_unwritable_output_is_a_one_line_error(args, scene_file, tmp_path, runner):
    # A --labels-out failure leaves no report on stdout.
    target = tmp_path / "missing" / "out.txt"
    args = [arg.format(scene=scene_file, target=target) for arg in args]
    res = runner.invoke(cli, args + ["--seed", "1"])
    assert_one_error_line(res, 1)
    assert "Error: cannot write %s: No such file or directory" % target in res.output
    assert not target.parent.exists()
