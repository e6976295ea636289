"""Acceptance suite.

One test per criterion, in order, each ending with a printed
``ACCEPTANCE <n> (<name>): PASS`` line (run pytest with ``-s`` to see
them). Criteria with stated runtime budgets assert them.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from gdm import (
    GdmConfig,
    ObjectiveParams,
    SyntheticSpec,
    embed_dataset,
    empirical_dimension,
    gd_gradient,
    gd_gradient_outlier,
    gdm,
    global_dimension_hard,
    global_dimension_outlier,
    global_dimension_soft,
    greedy_merge_init,
    known_fraction,
    misclassification_rate,
    p_lower_bound,
    roc_sweep,
    sample_subspace_mixture,
    sample_two_view_scene,
    singular_values,
    tpr_fpr,
)
from gdm.cli import cli

from oracles import (
    finite_difference_gradient,
    interior_membership,
    partitions_into_at_most,
    random_orthogonal,
    rank_based_gd,
)

PARAMS = ObjectiveParams(eps=0.35, p=15.0)


def _report(num, name, ok, detail=""):
    print("\nACCEPTANCE %d (%s): %s %s" % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s) failed: %s" % (num, name, detail)


def _subspace_sample(rng, ambient, d, n):
    basis, _ = np.linalg.qr(rng.normal(size=(ambient, d)))
    return basis @ rng.normal(size=(d, n))


def test_criterion_1_empirical_dimension_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    ok = True
    detail = []

    for _ in range(20):
        a = rng.normal(size=(9, 40))
        alpha = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        d0 = empirical_dimension(singular_values(a), 0.35)
        ok &= abs(empirical_dimension(singular_values(alpha * a), 0.35) - d0) < 1e-10
        q = random_orthogonal(9, rng)
        ok &= abs(empirical_dimension(singular_values(q @ a), 0.35) - d0) < 1e-8
    detail.append("invariances ok=%s" % ok)

    for d in (1, 2, 3, 5, 8):
        a = _subspace_sample(rng, 9, d, 150)
        for eps in (0.1, 0.35, 0.9, 1.0):
            ok &= empirical_dimension(singular_values(a), eps) <= d + 1e-8

    hits = 0
    for seed in range(100):
        a = _subspace_sample(np.random.default_rng(seed), 9, 3, 2000)
        d_hat = empirical_dimension(singular_values(a), 0.35)
        hits += 2.8 <= d_hat <= 3.0
    elapsed = time.perf_counter() - t0
    ok &= hits >= 95
    ok &= elapsed < 30.0
    detail.append("convergence hits=%d/100, %.1fs" % (hits, elapsed))
    _report(1, "empirical dimension suite", ok, "; ".join(detail))


def test_criterion_2_p_lower_bound_table():
    table = {
        (2, 8): 5.89, (2, 7): 5.19, (2, 6): 4.50, (2, 5): 3.80, (2, 4): 3.11,
        (3, 8): 9.33, (3, 7): 8.23, (3, 6): 7.13, (3, 5): 6.03, (3, 4): 4.92,
        (4, 8): 11.77, (4, 7): 10.38, (4, 6): 8.99, (4, 5): 7.60, (4, 4): 6.21,
    }
    worst = max(abs(p_lower_bound(k, d) - v) for (k, d), v in table.items())
    _report(2, "published p lower bounds", worst <= 0.01,
            "15 entries, worst dev %.4f" % worst)


def test_criterion_3_gradient_oracle():
    t0 = time.perf_counter()
    h = 1e-6
    worst_classic = worst_outlier = 0.0
    row0_exact = True
    for seed in range(50):
        rng = np.random.default_rng(200 + seed)
        k = 2 if seed % 2 == 0 else 3
        a = rng.normal(size=(9, 40))

        m = interior_membership(k, 40, rng)
        grad = gd_gradient(a, m, PARAMS)
        fd = finite_difference_gradient(
            lambda mm: global_dimension_soft(a, mm, PARAMS), m, h=h
        )
        worst_classic = max(worst_classic,
                            np.abs(grad - fd).max() / np.abs(fd).max())

        mo = interior_membership(k + 1, 40, rng)
        go = gd_gradient_outlier(a, mo, PARAMS)
        fdo = finite_difference_gradient(
            lambda mm: global_dimension_outlier(a, mm, PARAMS), mo, h=h
        )
        worst_outlier = max(worst_outlier,
                            np.abs(go[1:] - fdo[1:]).max() / np.abs(fdo[1:]).max())
        row0_exact &= np.array_equal(go[0], PARAMS.alpha * mo[0])
    elapsed = time.perf_counter() - t0
    ok = worst_classic < 1e-5 and worst_outlier < 1e-5 and row0_exact
    ok &= elapsed < 60.0
    _report(3, "gradient vs finite differences", ok,
            "worst classic %.2e, outlier %.2e, row0 exact %s, %.1fs"
            % (worst_classic, worst_outlier, row0_exact, elapsed))


def test_criterion_4_natural_partition_brute_force():
    natural = (0, 0, 0, 1, 1, 1)
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        lines = []
        for _ in range(2):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            coeffs = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
            lines.append(np.outer(direction, coeffs))
        a = np.concatenate(lines, axis=1)
        values = {
            part: rank_based_gd(a, part, p=15.0)
            for part in partitions_into_at_most(6, 2)
        }
        nat_value = values[natural]
        unique_min = all(
            v > nat_value for part, v in values.items() if part != natural
        )
        wins += unique_min
    _report(4, "natural partition uniquely minimizes rank GD", wins == 20,
            "%d/20 seeds" % wins)


def _above_truth(a, res, truth, k):
    """1 when gdm's result has a higher global dimension than the true
    partition, the search gap of one scene; 0 otherwise."""
    true_gd = global_dimension_hard(a, truth, PARAMS, n_clusters=k, on_degenerate="zero")
    return int(res.gd_value > true_gd)


def _merge_sets(a, cfg, res):
    """Set sizes, largest first, of the winning restart's merge: the
    lowest (restart_gd_values, index), merged again from its child seed."""
    winner = int(np.argmin(res.restart_gd_values))
    child = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)[winner]
    labels = greedy_merge_init(a, cfg, np.random.default_rng(child))
    return "/".join(str(c) for c in sorted(np.bincount(labels), reverse=True))


def test_criterion_5_end_to_end_segmentation():
    t0 = time.perf_counter()
    noisy, clean_zero, gap, gap0 = [], 0, 0, 0
    sets, sets0 = [], []
    for seed in range(20):
        spec = SyntheticSpec(dims=(2, 3), ambient=9, points_per_cluster=60,
                             noise_sigma=0.01, seed=400 + seed)
        mix = sample_subspace_mixture(spec)
        cfg = GdmConfig(n_clusters=2, seed=seed)
        res = gdm(mix.data, cfg)
        noisy.append(misclassification_rate(res.labels, mix.labels))
        gap += _above_truth(mix.data, res, mix.labels, 2)
        sets.append(_merge_sets(mix.data, cfg, res))

        spec0 = SyntheticSpec(dims=(2, 3), ambient=9, points_per_cluster=60,
                              noise_sigma=0.0, seed=500 + seed)
        mix0 = sample_subspace_mixture(spec0)
        res0 = gdm(mix0.data, cfg)
        clean_zero += misclassification_rate(res0.labels, mix0.labels) == 0.0
        gap0 += _above_truth(mix0.data, res0, mix0.labels, 2)
        sets0.append(_merge_sets(mix0.data, cfg, res0))
    elapsed = time.perf_counter() - t0
    med = float(np.median(noisy))
    ok = med <= 5.0 and clean_zero >= 18 and elapsed < 300.0
    _report(5, "end-to-end segmentation", ok,
            "median noisy %.2f%%, clean zero %d/20, search gap noisy %d/20 clean %d/20, "
            "%.0fs; winning merge's sets noisy %s, clean %s"
            % (med, clean_zero, gap, gap0, elapsed, " ".join(sets), " ".join(sets0)))


def test_criterion_6_two_view_pipeline():
    mis, gap, sets = [], 0, []
    for seed in range(20):
        rng = np.random.default_rng(600 + seed)
        counts = rng.integers(30, 81, size=2)
        scene = sample_two_view_scene(2, counts, noise_sigma=0.001, seed=seed)
        data = embed_dataset(scene.correspondences, mode="nonlinear")
        cfg = GdmConfig(n_clusters=2, seed=seed)
        res = gdm(data, cfg)
        mis.append(misclassification_rate(res.labels, scene.labels))
        gap += _above_truth(data, res, scene.labels, 2)
        sets.append(_merge_sets(data, cfg, res))
    med = float(np.median(mis))

    ranks_ok = True
    for seed in range(5):
        single = sample_two_view_scene(1, 40, seed=700 + seed)
        s = singular_values(embed_dataset(single.correspondences))
        ranks_ok &= s[8] < 1e-8 * s[0]
        flat = sample_two_view_scene(1, 40, coplanar=True, seed=800 + seed)
        s = singular_values(embed_dataset(flat.correspondences))
        ranks_ok &= s[6] < 1e-8 * s[0]
    ok = med <= 5.0 and ranks_ok
    _report(6, "two-view motion segmentation", ok,
            "median misclassification %.2f%%, search gap %d/20, rank checks %s; "
            "winning merge's sets %s" % (med, gap, ranks_ok, " ".join(sets)))


def test_criterion_7_outlier_framework():
    tprs = []
    curves = []
    grid = np.geomspace(0.01, 2.0, 12)
    for seed in range(20):
        spec = SyntheticSpec(dims=(2, 3), ambient=9, points_per_cluster=60,
                             noise_sigma=0.01, outlier_count=30,
                             outlier_radius=3.0, seed=900 + seed)
        mix = sample_subspace_mixture(spec)
        n = mix.data.shape[1]
        cfg = GdmConfig(n_clusters=2, seed=seed)
        kf = known_fraction(mix.data, cfg, fraction=0.2)
        tpr, _ = tpr_fpr(kf.outliers, mix.outliers, n)
        tprs.append(tpr)
        curve = roc_sweep(mix.data, cfg, mix.outliers, grid)
        curves.append([(t, f) for _, t, f in curve])
    med_tpr = float(np.median(tprs))

    arr = np.array(curves)
    med_curve_tpr = np.median(arr[:, :, 0], axis=0)
    med_curve_fpr = np.median(arr[:, :, 1], axis=0)
    dominates = bool(np.all(med_curve_tpr >= med_curve_fpr))

    rng = np.random.default_rng(1)
    a = rng.normal(size=(9, 30))
    m = interior_membership(3, 30, rng)
    linear_exact = np.array_equal(
        gd_gradient_outlier(a, m, PARAMS)[0], PARAMS.alpha * m[0]
    )
    ok = med_tpr >= 80.0 and dominates and linear_exact
    _report(7, "outlier framework", ok,
            "median TPR %.1f%%, ROC dominates %s, outlier-row gradient exact %s"
            % (med_tpr, dominates, linear_exact))


def test_criterion_8_determinism():
    runner = CliRunner()
    with runner.isolated_filesystem():
        gen = runner.invoke(cli, [
            "generate", "scene.csv", "--bodies", "2", "--points", "30",
            "--seed", "77",
        ])
        assert gen.exit_code == 0, gen.output
        args = ["segment", "scene.csv", "--k", "2", "--seed", "77"]
        r1 = runner.invoke(cli, args)
        r2 = runner.invoke(cli, args)
        r3 = runner.invoke(cli, args + ["--threads", "4"])
        ok = r1.exit_code == r2.exit_code == r3.exit_code == 0
        lab1 = json.loads(r1.output)["labels"]
        lab2 = json.loads(r2.output)["labels"]
        lab3 = json.loads(r3.output)["labels"]
        ok &= lab1 == lab2 == lab3

    spec = SyntheticSpec(dims=(2, 3), points_per_cluster=30, noise_sigma=0.01,
                         seed=5)
    mix = sample_subspace_mixture(spec)
    cfg = GdmConfig(n_clusters=2, seed=5)
    seq = gdm(mix.data, cfg, threads=1)
    par = gdm(mix.data, cfg, threads=4)
    ok &= bool(np.array_equal(seq.labels, par.labels) and seq.gd_value == par.gd_value)
    _report(8, "determinism and restart parallelism", ok)
