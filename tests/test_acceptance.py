"""End-to-end acceptance checks.

One test per shipping criterion, each printing a single pass/fail line
under pytest -v. Oracles are implemented independently in this file (or
inline closed forms) rather than reusing library internals, and runtime
budgets are asserted with wall-clock measurements.
"""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from elicitrec.data_model import (
    SyntheticSpec,
    generate_synthetic,
    write_csv,
)
from elicitrec.evaluation import (
    analyze_scores,
    auc,
    dominates,
    paired_t_test,
    roc_curve,
)
from elicitrec.feature_scoring import anova_f_score, chi2_score, mutual_info_score
from elicitrec.forest import ForestParams, best_split, entropy, gini
from elicitrec.recommender import MODE_BALANCE_FIRST, PipelineConfig, Prediction, form_recommendations, run_pipeline
from elicitrec.sampler import SmoteConfig, smote_details

from conftest import interviews_score_table


def test_criterion_01_paired_t_test_reference_p_values():
    precision_rows = ([0.89, 0.88, 0.81, 0.78], [0.936, 0.899, 0.831, 0.818])
    recall_rows = ([1, 0.96, 0.9, 0.88], [1, 1, 0.922, 0.9])
    paired_t_test(*precision_rows)  # warm-up outside the timed window

    start = time.perf_counter()
    r1 = paired_t_test(*precision_rows)
    r2 = paired_t_test(*recall_rows)
    elapsed = time.perf_counter() - start

    assert r1.p_two_tailed == pytest.approx(0.018, abs=0.001)
    assert r2.p_two_tailed == pytest.approx(0.087, abs=0.002)
    assert elapsed < 1e-3


def test_criterion_02_auc_equals_rank_statistic():
    rng = np.random.default_rng(20)
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 51))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            continue
        scores = np.round(rng.random(n), 1)  # coarse grid forces ties
        trapezoid = auc(roc_curve(scores, y))
        pos = scores[y == 1][:, None]
        neg = scores[y == 0][None, :]
        rank_stat = ((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.size)
        assert abs(trapezoid - rank_stat) <= 1e-9
        checked += 1
    assert time.perf_counter() - start < 1.0


def _oracle_impurity(labels, criterion):
    m = len(labels)
    p1 = sum(labels) / m
    p0 = 1.0 - p1
    if criterion == "gini":
        return 1.0 - p0 * p0 - p1 * p1
    total = 0.0
    for p in (p0, p1):
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def _oracle_splits(X, y, criterion):
    """All (quality, feature, threshold) candidates by direct enumeration."""
    n, p = X.shape
    out = []
    for j in range(p):
        codes = sorted(set(int(v) for v in X[:, j]))
        for a, b in zip(codes, codes[1:]):
            thr = (a + b) / 2
            mask = X[:, j] <= thr
            left, right = y[mask], y[~mask]
            q = (len(left) / n) * _oracle_impurity(left, criterion) + (
                len(right) / n
            ) * _oracle_impurity(right, criterion)
            out.append((q, j, thr))
    return out


def test_criterion_03_best_split_matches_brute_force():
    rng = np.random.default_rng(30)
    start = time.perf_counter()
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 13))
        p = int(rng.integers(1, 5))
        X = rng.integers(0, int(rng.integers(2, 5)), (n, p)).astype(np.int64)
        y = rng.integers(0, 2, n).astype(np.int64)
        criterion = ("gini", "entropy")[int(rng.integers(0, 2))]
        cand = best_split(X, y, range(p), criterion)
        oracle = _oracle_splits(X, y, criterion)
        if not oracle:
            assert cand is None
            checked += 1
            continue
        q_min = min(q for q, _, _ in oracle)
        assert cand is not None
        assert abs(cand.quality - q_min) <= 1e-12
        optimal = {(j, thr) for q, j, thr in oracle if q <= q_min + 1e-12}
        assert (cand.feature_index, cand.threshold) in optimal
        checked += 1
    assert time.perf_counter() - start < 5.0


def test_criterion_04_smote_invariants(skewed_dataset):
    start = time.perf_counter()
    d = skewed_dataset
    limits = np.array([len(f.levels) - 1 for f in d.schema])
    for seed in range(100):
        balanced, parent, neighbor, draw = smote_details(d, SmoteConfig(seed=seed))
        counts = np.bincount(balanced.y, minlength=2)
        assert counts[0] == counts[1] == 282
        assert len(parent) == len(neighbor) == len(draw) == 282 - 41
        x = d.X[parent].astype(np.float64)
        x_r = d.X[neighbor].astype(np.float64)
        on_segment = x + draw[:, None] * (x_r - x)
        assert ((draw >= 0.0) & (draw <= 1.0)).all()
        synth = balanced.X[d.n_rows:]
        assert np.array_equal(synth, np.clip(np.ceil(on_segment - 0.5), 0, limits))
        assert np.all(synth >= 0) and np.all(synth <= limits)
    assert time.perf_counter() - start < 5.0


@pytest.fixture(scope="module")
def five_seed_experiment(skewed_dataset):
    """Balance-first pipeline over 5 master seeds on the ratio-6.9 set."""
    start = time.perf_counter()
    rows = []
    for seed in range(5):
        cfg = PipelineConfig(
            target_name="target",
            mode=MODE_BALANCE_FIRST,
            forest=ForestParams(n_trees=100),
            seed=seed,
        )
        report = run_pipeline(skewed_dataset, cfg)
        rows.append(report.rows[0])
    return rows, time.perf_counter() - start


def test_criterion_05_balancing_improves_auc_direction(five_seed_experiment):
    rows, elapsed = five_seed_experiment
    auc_wins = sum(1 for r in rows if r.balanced.roc.auc > r.imbalanced.roc.auc)
    hull_ok = sum(
        1
        for r in rows
        if dominates(r.balanced.roc.hull, r.imbalanced.roc.hull) != "B"
    )
    assert auc_wins >= 4
    assert hull_ok >= 4
    assert elapsed < 60.0


def test_criterion_06_balancing_raises_split_entropy(five_seed_experiment):
    rows, elapsed = five_seed_experiment
    entropy_wins = sum(
        1
        for r in rows
        if r.balanced.mean_split_entropy > r.imbalanced.mean_split_entropy
    )
    assert entropy_wins >= 4
    assert elapsed < 60.0


def test_criterion_07_analytic_scorer_values():
    x_copy = np.array([0, 1] * 20, dtype=np.int64)
    y_copy = x_copy.astype(np.int64)
    x_f = np.array([1, 2, 3, 4], dtype=np.int64)
    y_f = np.array([0, 0, 1, 1], dtype=np.int64)
    x_chi = np.array([0] * 40 + [1] * 40, dtype=np.int64)
    y_chi = np.array([0] * 30 + [1] * 10 + [0] * 10 + [1] * 30, dtype=np.int64)

    def scores():
        return (
            gini((5, 5)),
            entropy((3, 1)),
            chi2_score(x_chi, y_chi),
            anova_f_score(x_f, y_f),
            mutual_info_score(x_copy, y_copy),
        )

    scores()  # warm-up: a first call of each scorer pays one-off costs
    start = time.perf_counter()
    g, h, chi, f, mi = scores()
    elapsed = time.perf_counter() - start

    assert abs(g - 0.5) <= 1e-9
    assert abs(h - (2.0 - 0.75 * math.log2(3))) <= 1e-9  # = 0.8112781...
    assert abs(chi - 20.0) <= 1e-9
    assert abs(f - 8.0) <= 1e-9
    assert abs(mi - math.log(2)) <= 1e-9
    assert elapsed < 1e-3


def test_criterion_08_recommendation_table_example():
    rs = form_recommendations(
        interviews_score_table(), Prediction("Interviews", 0.9), threshold=0.2
    )
    assert [(e.feature_name, e.score) for e in rs.content_based] == [
        ("Project Size", 0.3),
        ("Experience", 0.28),
        ("WoW", 0.27),
        ("Project Category", 0.23),
        ("Company Type", 0.21),
    ]
    assert [(e.feature_name, e.score) for e in rs.collaborative] == [
        ("Prototyping", 0.25)
    ]


def test_criterion_09_hull_properties():
    rng = np.random.default_rng(90)
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 40))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            continue
        analysis = analyze_scores(np.round(rng.random(n), 1), y)
        assert analysis.auch >= analysis.auc - 1e-12
        dx, dy = np.diff(analysis.hull[:, 0]), np.diff(analysis.hull[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            slopes = np.where(dx == 0, math.inf, dy / dx)
        assert np.all(slopes[:-1] >= slopes[1:] - 1e-9)
        assert dominates(analysis.hull, analysis.hull) == "neither"
        checked += 1
    assert time.perf_counter() - start < 1.0


def test_criterion_10_end_to_end_determinism_and_budget(skewed_dataset, tmp_path):
    data = tmp_path / "data.csv"
    write_csv(skewed_dataset, data)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"target": "target", "seed": 4, "forest": {"n_trees": 100}}),
        encoding="utf-8",
    )
    reports = []
    # never more threads than the machine has
    for run, hash_seed, threads in (("a", "1", "1"), ("b", "977", str(min(4, os.cpu_count() or 1)))):
        out = tmp_path / run
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, OMP_NUM_THREADS=threads)
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable, "-m", "elicitrec", "run",
                "--config", str(config), "--input", str(data), "--out-dir", str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 10.0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
