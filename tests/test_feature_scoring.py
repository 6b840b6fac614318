import math

import numpy as np
import pytest

from elicitrec import feature_scoring, recommender
from elicitrec.config import ROLE_CONTEXT
from elicitrec.forest import ForestParams
from elicitrec.feature_scoring import (
    METHOD_ANOVA_F,
    METHOD_CHI2,
    METHOD_MUTUAL_INFO,
    METHODS,
    anova_f_score,
    chi2_score,
    mutual_info_score,
    score_all,
)
from elicitrec.recommender import select_best_filter
from elicitrec.scores import FeatureScoreTable, ScoreEntry, table_from_csv, table_to_csv

from conftest import make_dataset, xor_dataset
from test_recommender import balance_first_chain_auch

SMALL_FOREST = ForestParams(n_trees=25)


def counts_to_columns(table):
    """Expand a 2x2 contingency table into aligned (x, y) code vectors."""
    x, y = [], []
    for xv, row in enumerate(table):
        for yv, c in enumerate(row):
            x.extend([xv] * c)
            y.extend([yv] * c)
    return np.array(x, dtype=np.int16), np.array(y, dtype=np.int8)


@pytest.mark.parametrize("score", [chi2_score, anova_f_score, mutual_info_score])
@pytest.mark.parametrize("label", [0, 1])
def test_single_class_target_refused(score, label):
    with pytest.raises(ValueError, match="^single-class target$"):
        score(np.array([0, 1, 2, 1], dtype=np.int16), np.full(4, label, dtype=np.int8))


class TestChi2:
    def test_known_table(self):
        x, y = counts_to_columns([[30, 10], [10, 30]])
        assert chi2_score(x, y) == pytest.approx(20.0, abs=1e-12)

    def test_independent_proportions(self):
        x, y = counts_to_columns([[10, 30], [5, 15]])
        assert chi2_score(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_constant_feature(self):
        y = np.array([0, 1, 0, 1], dtype=np.int8)
        assert chi2_score(np.zeros(4, dtype=np.int16), y) == 0.0


class TestAnovaF:
    def test_equal_means(self):
        x = np.array([1, 2, 1, 2], dtype=np.int16)
        y = np.array([0, 0, 1, 1], dtype=np.int8)
        assert anova_f_score(x, y) == 0.0

    def test_known_value(self):
        x = np.array([1, 2, 3, 4], dtype=np.int16)
        y = np.array([0, 0, 1, 1], dtype=np.int8)
        assert anova_f_score(x, y) == pytest.approx(8.0, abs=1e-12)

    def test_zero_within_variance(self):
        x = np.array([1, 1, 3, 3], dtype=np.int16)
        y = np.array([0, 0, 1, 1], dtype=np.int8)
        assert anova_f_score(x, y) == math.inf

    def test_constant_feature(self):
        x = np.array([2, 2, 2, 2], dtype=np.int16)
        y = np.array([0, 0, 1, 1], dtype=np.int8)
        assert anova_f_score(x, y) == 0.0

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="at least 3"):
            anova_f_score(np.array([1, 2], dtype=np.int16), np.array([0, 1], dtype=np.int8))


class TestMutualInfo:
    def test_known_table(self):
        x, y = counts_to_columns([[30, 10], [10, 30]])
        assert mutual_info_score(x, y) == pytest.approx(0.13081203594113697, abs=1e-15)

    def test_perfect_dependence(self):
        x, y = counts_to_columns([[20, 0], [0, 20]])
        assert mutual_info_score(x, y) == pytest.approx(math.log(2), abs=1e-12)

    def test_independence(self):
        x, y = counts_to_columns([[10, 10], [10, 10]])
        assert mutual_info_score(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_chi2_relation(self):
        # for weak dependence chi2 approaches 2N times the mutual information
        rng = np.random.default_rng(3)
        n = 4000
        y = rng.integers(0, 2, n).astype(np.int8)
        x = np.where(rng.random(n) < 0.52, y, 1 - y).astype(np.int16)
        chi2 = chi2_score(x, y)
        mi = mutual_info_score(x, y)
        assert chi2 == pytest.approx(2 * n * mi, rel=0.05)


class TestInvariants:
    def build(self, seed, n=60, p=4):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, (n, p)).astype(np.int16)
        y = rng.integers(0, 2, n).astype(np.int8)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        return X, y

    def test_non_negative(self):
        for seed in range(20):
            X, y = self.build(seed)
            for j in range(X.shape[1]):
                assert chi2_score(X[:, j], y) >= 0.0
                assert anova_f_score(X[:, j], y) >= 0.0
                assert mutual_info_score(X[:, j], y) >= 0.0

    def test_mi_entropy_bound(self):
        for seed in range(20):
            X, y = self.build(seed)
            n = len(y)
            py = np.bincount(y, minlength=2) / n

            def ent(p):
                p = p[p > 0]
                return float(-(p * np.log(p)).sum())

            hy = ent(py)
            for j in range(X.shape[1]):
                px = np.bincount(X[:, j]) / n
                assert mutual_info_score(X[:, j], y) <= min(ent(px), hy) + 1e-12

    def test_relabel_invariance(self):
        # chi2 and mutual information ignore code order; the F statistic does not
        X, y = self.build(11, n=80, p=1)
        x = X[:, 0]
        perm = np.array([2, 0, 3, 1])
        xp = perm[x].astype(np.int16)
        assert chi2_score(xp, y) == pytest.approx(chi2_score(x, y), abs=1e-9)
        assert mutual_info_score(xp, y) == pytest.approx(mutual_info_score(x, y), abs=1e-12)
        assert anova_f_score(xp, y) != pytest.approx(anova_f_score(x, y), abs=1e-6)


class TestScoreAll:
    def copy_dataset(self):
        rng = np.random.default_rng(8)
        n = 120
        y = rng.integers(0, 2, n).astype(np.int8)
        X = np.column_stack([
            y.astype(np.int16),                        # exact copy of the target
            rng.integers(0, 3, n).astype(np.int16),
            rng.integers(0, 4, n).astype(np.int16),
        ])
        return make_dataset(X, y, levels=[2, 3, 4])

    def test_copy_ranks_first(self):
        d = self.copy_dataset()
        for method in METHODS:
            table = score_all(d, method)
            assert table.entries[0].feature_name == "f0"
            assert len(table.entries) == 3

    def test_sorted_and_deterministic(self):
        d = self.copy_dataset()
        t1 = score_all(d, METHOD_CHI2)
        t2 = score_all(d, METHOD_CHI2)
        assert t1 == t2
        scores = [e.score for e in t1.entries]
        assert scores == sorted(scores, reverse=True)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            score_all(self.copy_dataset(), "Pearson")

    def test_name_tiebreak(self):
        X = np.array([[0, 0], [1, 1], [0, 0], [1, 1]], dtype=np.int16)
        y = np.array([0, 1, 0, 1], dtype=np.int8)
        table = score_all(make_dataset(X, y, levels=[2, 2]), METHOD_MUTUAL_INFO)
        assert [e.feature_name for e in table.entries] == ["f0", "f1"]


class TestCsvRoundTrip:
    def test_preserves_entries(self):
        d = TestScoreAll().copy_dataset()
        table = score_all(d, METHOD_ANOVA_F)
        again = table_from_csv(table_to_csv(table))
        assert again == table

    def test_infinite_score(self):
        x = np.array([1, 1, 3, 3], dtype=np.int16).reshape(-1, 1)
        y = np.array([0, 0, 1, 1], dtype=np.int8)
        table = score_all(make_dataset(x, y, levels=[4]), METHOD_ANOVA_F)
        assert table.entries[0].score == math.inf
        assert table_from_csv(table_to_csv(table)) == table

    def test_comma_in_name(self):
        x = np.array([0, 1, 0, 1], dtype=np.int16).reshape(-1, 1)
        y = np.array([0, 1, 0, 1], dtype=np.int8)
        d = make_dataset(x, y, levels=[2])
        renamed = d.schema[0].__class__(
            name="size, shape or count",
            role=d.schema[0].role,
            levels=d.schema[0].levels,
        )
        d = d.__class__(
            schema=(renamed,),
            X=d.X,
            y=d.y,
            target_name=d.target_name,
            target_levels=d.target_levels,
            synthetic=d.synthetic,
        )
        table = score_all(d, METHOD_CHI2)
        again = table_from_csv(table_to_csv(table))
        assert again.entries[0].feature_name == "size, shape or count"
        assert again == table


class TestScoreTable:
    def test_a_feature_listed_twice_is_refused(self):
        twice = ScoreEntry("ctx01", ROLE_CONTEXT, 0.4)
        with pytest.raises(ValueError, match="feature 'ctx01' is listed twice"):
            FeatureScoreTable(entries=(ScoreEntry("ctx00", ROLE_CONTEXT, 0.5), twice, twice))


class TestSelectBestFilter:
    def test_single_method(self):
        d = xor_dataset()
        sel = select_best_filter(d, [METHOD_CHI2], top_k=2, forest_params=SMALL_FOREST, eval_seed=0)
        assert sel.method == METHOD_CHI2
        assert list(sel.auch_by_method) == [METHOD_CHI2]

    def test_variance_blind_method_loses(self):
        d = xor_dataset()
        table_f = score_all(d, METHOD_ANOVA_F)
        by_name = {e.feature_name: e.score for e in table_f.entries}
        assert by_name["carrier"] == 0.0  # class means coincide by construction
        assert score_all(d, METHOD_CHI2).entries[0].feature_name == "carrier"
        assert score_all(d, METHOD_MUTUAL_INFO).entries[0].feature_name == "carrier"

        sel = select_best_filter(d, list(METHODS), top_k=2, forest_params=SMALL_FOREST, eval_seed=0)
        auch = sel.auch_by_method
        # chi2 and mutual information pick the same pair, so their ranking
        # runs are identical and the tie falls to mutual information
        assert auch[METHOD_CHI2] == auch[METHOD_MUTUAL_INFO]
        assert auch[METHOD_ANOVA_F] < auch[METHOD_MUTUAL_INFO]
        assert sel.method == METHOD_MUTUAL_INFO

    def test_deterministic(self):
        d = xor_dataset()
        a = select_best_filter(d, list(METHODS), top_k=3, forest_params=SMALL_FOREST, eval_seed=4)
        b = select_best_filter(d, list(METHODS), top_k=3, forest_params=SMALL_FOREST, eval_seed=4)
        assert a == b

    def test_given_tables_are_not_scored_again(self, monkeypatch):
        d = xor_dataset()
        tables = {m: score_all(d, m) for m in METHODS}
        expected = select_best_filter(d, list(METHODS), top_k=2, forest_params=SMALL_FOREST, eval_seed=3)

        def refuse(d, method):
            raise AssertionError(f"{method} scored again")

        monkeypatch.setattr(feature_scoring, "score_all", refuse)
        got = select_best_filter(
            d, list(METHODS), top_k=2, forest_params=SMALL_FOREST, eval_seed=3, tables=tables
        )
        assert got == expected

    def test_one_arm_per_distinct_subset(self, monkeypatch):
        d = xor_dataset()
        evaluate, calls = recommender._evaluate_arm, []

        def counted(train, *rest):
            calls.append(train.feature_names)
            return evaluate(train, *rest)

        monkeypatch.setattr(recommender, "_evaluate_arm", counted)
        # every method keeps every feature: one arm serves all three
        sel = select_best_filter(d, list(METHODS), top_k=d.n_features, forest_params=SMALL_FOREST, eval_seed=0)
        assert len(calls) == 1
        assert len(set(sel.auch_by_method.values())) == 1
        assert sel.method == METHOD_MUTUAL_INFO
        # chi2 and mutual information pick the same pair, AnovaF another
        calls.clear()
        sel = select_best_filter(d, list(METHODS), top_k=2, forest_params=SMALL_FOREST, eval_seed=0)
        assert len(calls) == 2
        for method in METHODS:
            assert sel.auch_by_method[method] == balance_first_chain_auch(d, method, 2, 0, SMALL_FOREST)

    def test_top_k_too_large(self):
        d = xor_dataset()
        with pytest.raises(ValueError, match="top_k"):
            select_best_filter(d, [METHOD_CHI2], top_k=99, forest_params=SMALL_FOREST, eval_seed=0)

    def test_no_methods(self):
        with pytest.raises(ValueError, match="method"):
            select_best_filter(xor_dataset(), [], top_k=2, forest_params=SMALL_FOREST, eval_seed=0)
