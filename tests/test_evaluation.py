import math

import numpy as np
import pytest

from elicitrec.evaluation import (
    CUTOFF,
    ArmMetrics,
    RocAnalysis,
    accuracy,
    analyze_scores,
    auc,
    confusion,
    dominates,
    judge,
    paired_t_test,
    precision,
    recall,
    relative_improvement_pct,
    roc_analysis_to_csv,
    roc_convex_hull,
    roc_curve,
    student_t_p_two_tailed,
)
from elicitrec.feature_scoring import chi2_score, mutual_info_score


def mann_whitney_auc(scores, y):
    """Oracle: pairwise rank statistic with ties counted as one half."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y)
    pos = s[y == 1][:, None]
    neg = s[y == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return wins / (pos.size * neg.size)


def t_pdf(x, df):
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


def simpson_two_tailed(t, df, steps=20000):
    """Oracle: complement of the t density integrated over [-|t|, |t|]."""
    a = abs(t)
    xs = np.linspace(0.0, a, 2 * steps + 1)
    ys = np.array([t_pdf(x, df) for x in xs])
    h = a / (len(xs) - 1)
    center = h / 3 * (ys[0] + ys[-1] + 4 * ys[1::2].sum() + 2 * ys[2:-1:2].sum())
    return 1 - 2 * center


class TestConfusion:
    def test_counts(self):
        assert confusion([1, 0], [1, 0]) == (1, 0, 1, 0)
        assert confusion([1, 0], [0, 1]) == (0, 1, 0, 1)
        assert confusion([1, 1, 0, 0], [1, 0, 0, 1]) == (1, 1, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion([1, 0], [1])

    def test_non_binary(self):
        with pytest.raises(ValueError):
            confusion([1, 2], [1, 0])

    def test_judge_counts_a_score_at_the_cutoff_as_positive(self):
        y = [1, 0, 1, 0, 1]
        scores = [CUTOFF, CUTOFF, np.nextafter(CUTOFF, 0.0), 0.1, 0.9]
        conf, roc = judge(scores, y)
        assert conf == (2, 1, 1, 1)
        assert roc.auc == analyze_scores(scores, y).auc
        arm = ArmMetrics(confusion=conf, roc=roc, mean_split_entropy=None, n_train=0)
        assert arm.n_test == sum(conf) == len(y)
        assert (arm.accuracy, arm.precision, arm.recall) == (0.6, 2 / 3, 2 / 3)


class TestRates:
    def test_perfect(self):
        conf = (1, 0, 1, 0)
        assert accuracy(conf) == 1.0
        assert precision(conf) == 1.0
        assert recall(conf) == 1.0

    def test_mixed_counts(self):
        conf = (3, 1, 4, 2)
        assert accuracy(conf) == 0.7
        assert precision(conf) == 0.75
        assert recall(conf) == 0.6

    def test_undefined_is_none(self):
        assert precision((0, 0, 5, 2)) is None
        assert recall((0, 3, 5, 0)) is None

    def test_improvement_pct(self):
        assert relative_improvement_pct(0.5, 0.6) == pytest.approx(20.0)
        assert relative_improvement_pct(0.0, 0.6) is None


class TestRocCurve:
    def test_perfect_ranker(self):
        curve = roc_curve([0.9, 0.1], [1, 0])
        assert curve.tolist() == [[0.0, 0.0, math.inf], [0.0, 1.0, 0.9], [1.0, 1.0, 0.1]]
        assert auc(curve) == 1.0

    def test_all_tied(self):
        curve = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert curve[:, :2].tolist() == [[0, 0], [1, 1]]
        assert auc(curve) == 0.5

    def test_five_points(self):
        curve = roc_curve([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0])
        assert curve.shape == (5, 3)
        assert auc(curve) == 0.75

    def test_pair_ordering_auc(self):
        curve = roc_curve([0.8, 0.4, 0.6, 0.2], [1, 1, 0, 0])
        assert auc(curve) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single-class"):
            roc_curve([0.1, 0.9], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(4, 40))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                continue
            s = np.round(rng.random(n), 1)  # coarse grid forces ties
            base = roc_curve(s, y)[:, :2]
            warped = roc_curve(np.exp(3 * s), y)[:, :2]
            assert np.array_equal(base, warped)

    def test_matches_rank_statistic(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(4, 50))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                continue
            s = np.round(rng.random(n), 2)
            assert auc(roc_curve(s, y)) == pytest.approx(
                mann_whitney_auc(s, y), abs=1e-9
            )

    def test_auc_sums_left_to_right(self):
        # the loop order of the trapezoid sum fixes the bits of report.json
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(4, 300))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                continue
            curve = roc_curve(rng.random(n), y)
            area = 0.0
            for (x0, y0), (x1, y1) in zip(curve[:-1, :2].tolist(), curve[1:, :2].tolist()):
                area += (x1 - x0) * (y0 + y1) / 2.0
            assert auc(curve) == area


class TestHull:
    def test_strictly_concave_is_fixed_point(self):
        curve = np.array([[0.0, 0.0, math.inf], [0.2, 0.6, 0.8], [0.5, 0.9, 0.5], [1.0, 1.0, 0.1]])
        on_hull = roc_convex_hull(curve)
        assert on_hull.tolist() == [True] * 4
        assert auc(curve[on_hull]) == auc(curve)

    def test_dented_point_removed(self):
        curve = np.array([[0.0, 0.0, math.inf], [0.2, 0.4, 0.9], [0.4, 0.3, 0.5], [1.0, 1.0, 0.1]])
        on_hull = roc_convex_hull(curve)
        assert curve[on_hull, :2].tolist() == [[0.0, 0.0], [0.2, 0.4], [1.0, 1.0]]
        assert auc(curve[on_hull]) > auc(curve)

    def test_collinear_point_left_off(self):
        curve = np.array([[0.0, 0.0, math.inf], [0.5, 0.5, 0.5], [1.0, 1.0, 0.1]])
        assert roc_convex_hull(curve).tolist() == [True, False, True]

    def test_perfect_curve(self):
        a = analyze_scores([0.9, 0.1], [1, 0])
        assert a.auch == 1.0
        assert a.hull.tolist() == a.curve.tolist()

    def test_properties_random(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(4, 60))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                continue
            s = np.round(rng.random(n), 1)
            a = analyze_scores(s, y)
            assert a.auch >= a.auc - 1e-12
            dx, dy = np.diff(a.hull[:, :2], axis=0).T
            with np.errstate(divide="ignore", invalid="ignore"):
                slopes = np.where(dx == 0, math.inf, dy / dx)
            assert np.all(slopes[:-1] >= slopes[1:] - 1e-9)

    def test_analysis_checks_its_invariants(self):
        a = analyze_scores([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0])
        with pytest.raises(ValueError, match="sorted"):
            RocAnalysis(a.curve[::-1], a.on_hull[::-1], a.auc, a.auch)
        with pytest.raises(ValueError, match="lie in"):
            RocAnalysis(a.curve * 2, a.on_hull, a.auc, a.auch)
        first_off = a.on_hull.copy()
        first_off[0] = False
        with pytest.raises(ValueError, match="hull must run"):
            RocAnalysis(a.curve, first_off, a.auc, a.auch)
        with pytest.raises(ValueError, match="below the curve"):
            RocAnalysis(a.curve, a.on_hull, a.auc, a.auc - 0.1)


class TestDominance:
    def diag(self):
        return np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])

    def perfect(self):
        return np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.5], [1.0, 1.0, 0.0]])

    def test_identical_is_neither(self):
        assert dominates(self.diag(), self.diag()) == "neither"
        assert dominates(self.perfect(), self.perfect()) == "neither"

    def test_perfect_dominates_diagonal(self):
        assert dominates(self.perfect(), self.diag()) == "A"
        assert dominates(self.diag(), self.perfect()) == "B"

    def test_crossing_hulls(self):
        a = np.array([[0.0, 0.0, 1.0], [0.1, 0.7, 0.6], [1.0, 1.0, 0.0]])
        b = np.array([[0.0, 0.0, 1.0], [0.6, 0.95, 0.4], [1.0, 1.0, 0.0]])
        assert dominates(a, b) == "neither"
        assert dominates(b, a) == "neither"


class TestPairedTTest:
    def test_reference_precision_rows(self):
        r = paired_t_test([0.89, 0.88, 0.81, 0.78], [0.936, 0.899, 0.831, 0.818])
        assert r.df == 3
        assert r.t == pytest.approx(-4.718320, abs=1e-5)
        assert r.p_two_tailed == pytest.approx(0.018, abs=1e-3)

    def test_reference_recall_rows(self):
        r = paired_t_test([1, 0.96, 0.9, 0.88], [1, 1, 0.922, 0.9])
        assert r.t == pytest.approx(-2.506033, abs=1e-5)
        assert r.p_two_tailed == pytest.approx(0.087, abs=2e-3)

    def test_equal_samples(self):
        r = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.t == 0.0 and r.p_two_tailed == 1.0

    def test_zero_sd_nonzero_mean(self):
        r = paired_t_test([2.0, 3.0], [1.0, 2.0])
        assert math.isinf(r.t) and r.t > 0
        assert r.p_two_tailed == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            a, b = rng.random(n), rng.random(n)
            r1, r2 = paired_t_test(a, b), paired_t_test(b, a)
            assert r1.t == pytest.approx(-r2.t, abs=1e-12)
            assert r1.p_two_tailed == pytest.approx(r2.p_two_tailed, abs=1e-12)
            assert 0.0 <= r1.p_two_tailed <= 1.0

    def test_errors(self):
        with pytest.raises(ValueError, match="at least 2"):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValueError, match="mismatch"):
            paired_t_test([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            paired_t_test([bad, 1.0, 2.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            paired_t_test([0.0, 0.0, 0.0], [1.0, bad, 2.0])

    def test_nan_t_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            student_t_p_two_tailed(math.nan, 3)

    def test_df_must_be_a_whole_number_of_at_least_1(self):
        for df in (0, 2.5, -1):
            with pytest.raises(ValueError, match="whole number"):
                student_t_p_two_tailed(1.0, df)
        assert student_t_p_two_tailed(1.0, 3.0) == student_t_p_two_tailed(1.0, 3)

    def test_closed_forms_at_df_1_and_2(self):
        for t in (0.0, 0.1, 0.5, 1.0, -1.7, 3.0, 12.0, 100.0, 1e6, math.inf):
            a = abs(t)
            assert student_t_p_two_tailed(t, 1) == pytest.approx(1 - 2 * math.atan(a) / math.pi, abs=1e-15)
            two = 0.0 if math.isinf(a) else 1 - a / math.sqrt(2 + a * a)
            assert student_t_p_two_tailed(t, 2) == pytest.approx(two, abs=1e-15)

    def test_cdf_against_integration_oracle(self):
        for t, df in [(-4.71832, 3), (-2.506033, 3), (1.0, 1), (2.5, 7), (0.3, 30)]:
            assert student_t_p_two_tailed(t, df) == pytest.approx(
                simpson_two_tailed(t, df), abs=1e-6
            )


class TestCsv:
    def test_roc_csv_layout(self):
        a = analyze_scores([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0])
        text = roc_analysis_to_csv(a)
        lines = text.strip().split("\n")
        assert lines[0] == "fpr,tpr,threshold,on_hull"
        assert len(lines) == len(a.curve) + 1
        assert lines[1].endswith("true")  # (0,0) anchor is always on the hull
        flags = [ln.split(",")[3] for ln in lines[1:]]
        assert flags.count("true") == len(a.hull)


class TestScipyOracles:
    def test_paired_t_test_matches_ttest_rel(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            a = rng.random(n)
            b = a + rng.normal(rng.normal(0.0, 0.1), 0.2, size=n)
            ours, ref = paired_t_test(a, b), stats.ttest_rel(a, b)
            assert ours.df == n - 1
            assert ours.t == pytest.approx(ref.statistic, rel=1e-9)
            assert ours.p_two_tailed == pytest.approx(ref.pvalue, rel=1e-7, abs=1e-12)

    def test_t_tail_matches_t_sf(self):
        stats = pytest.importorskip("scipy.stats")
        ts = [0.0, 0.01, 0.2, 0.5, 1.0, 1.5, 2.0, 2.5, 3.3, 4.7, 6.0, 8.0, 12.0, 20.0, 40.0]
        for df in [*range(1, 61), 200, 1000]:
            for t in ts:
                ref = 2 * stats.t.sf(t, df)
                assert student_t_p_two_tailed(t, df) == pytest.approx(ref, rel=1e-7, abs=1e-12), (t, df)
                assert student_t_p_two_tailed(-t, df) == student_t_p_two_tailed(t, df)

    def test_auc_matches_mannwhitneyu(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 60))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                continue
            scores = np.round(rng.random(n), 1)  # coarse grid forces ties
            pos, neg = scores[y == 1], scores[y == 0]
            u = stats.mannwhitneyu(pos, neg).statistic  # U of the positives, ties count 1/2
            assert auc(roc_curve(scores, y)) == pytest.approx(u / (pos.size * neg.size), abs=1e-12)
            checked += 1

    @staticmethod
    def _code_class_samples(rng, count):
        """Random (codes, labels) pairs with both classes present; small
        level counts and skewed classes leave some cells empty."""
        while count:
            n = int(rng.integers(2, 80))
            x = rng.integers(0, int(rng.integers(1, 6)), n)
            y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)
            if y.min() == y.max():
                continue
            yield x, y
            count -= 1

    def test_chi2_matches_chi2_contingency(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(43)
        for x, y in self._code_class_samples(rng, 200):
            codes = np.unique(x)
            table = np.array([[np.sum((x == c) & (y == k)) for k in (0, 1)] for c in codes])
            if len(codes) == 1:  # one code: no dependence, and scipy needs two rows
                assert chi2_score(x, y) == 0.0
                continue
            ref = stats.chi2_contingency(table, correction=False).statistic
            assert chi2_score(x, y) == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_mutual_info_matches_entropies(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(44)
        for x, y in self._code_class_samples(rng, 200):
            joint = np.array([[np.sum((x == c) & (y == k)) for k in (0, 1)] for c in np.unique(x)])
            # I(X; Y) = H(X) + H(Y) - H(X, Y), in nats
            ref = stats.entropy(joint.sum(axis=1)) + stats.entropy(joint.sum(axis=0)) - stats.entropy(joint.ravel())
            assert mutual_info_score(x, y) == pytest.approx(max(ref, 0.0), rel=1e-9, abs=1e-12)
