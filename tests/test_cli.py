import json

import pytest
from click.testing import CliRunner

from gdm.cli import ParseError, cli, read_correspondences


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


@pytest.mark.parametrize("label", ["nan", "inf", "-inf", "1.7"])
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
