import dataclasses
import json

import numpy as np
import pytest

from elicitrec.data_model import (
    ROLE_CONTEXT,
    ROLE_TECHNIQUE,
    STREAM_FOREST_IMBALANCED,
    STREAM_SMOTE,
    STREAM_SPLIT,
    derive_seed,
    select_features,
    split_train_test,
)
from elicitrec.evaluation import analyze_scores, report_to_dict, roc_analysis_to_csv, t_tests_for_rows
from elicitrec.feature_scoring import METHODS, score_all
from elicitrec.forest import ForestParams, predict_proba_many, train_forest
from elicitrec.recommender import (
    MODE_BALANCE_FIRST,
    MODE_SOUND,
    FilterConfig,
    PipelineConfig,
    Prediction,
    RecommendationSet,
    combine_reports,
    form_recommendations,
    recommendation_set_to_dict,
    run_pipeline,
    select_best_filter,
)
from elicitrec.sampler import SmoteConfig, smote_oversample

from conftest import interviews_score_table

FAST = ForestParams(n_trees=20)


def config(**kw):
    base = dict(target_name="target", forest=FAST, seed=3)
    base.update(kw)
    return PipelineConfig(**base)


def report_text(rep):
    """Everything a report holds, as text: its JSON form plus each arm's ROC CSV."""
    csvs = [roc_analysis_to_csv(arm.roc) for row in rep.rows for arm in (row.imbalanced, row.balanced)]
    return json.dumps(report_to_dict(rep), sort_keys=True) + "".join(csvs)


class TestConfigValidation:
    def test_defaults(self):
        cfg = config()
        assert cfg.mode == MODE_SOUND
        assert cfg.test_fraction == 0.2
        assert cfg.smote is not None

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            config(mode="shuffled")

    def test_bad_fraction(self):
        with pytest.raises(ValueError, match="test_fraction"):
            config(test_fraction=1.0)
        with pytest.raises(ValueError, match="test_fraction"):
            config(test_fraction=0.0)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            config(seed=-1)

    def test_filter_config(self):
        with pytest.raises(ValueError, match="top_k"):
            FilterConfig(top_k=0)
        with pytest.raises(ValueError, match="method"):
            FilterConfig(methods=("Pearson",))


class TestRunPipeline:
    def test_sound_mode_report_shape(self, skewed_dataset):
        rep = run_pipeline(skewed_dataset, config())
        assert len(rep.rows) == 1
        row = rep.rows[0]
        assert row.label == "target"
        for arm in (row.imbalanced, row.balanced):
            assert 0.0 <= arm.accuracy <= 1.0
            assert 0.0 <= arm.roc.auc <= 1.0
            assert arm.roc.auch >= arm.roc.auc - 1e-12
            assert arm.n_test == round(0.2 * len(skewed_dataset.y))
        assert set(rep.t_tests) == {"precision", "recall"}
        assert rep.t_tests["precision"] is None  # single row, no pairs

    def test_paper_mode_runs(self, skewed_dataset):
        rep = run_pipeline(skewed_dataset, config(mode=MODE_BALANCE_FIRST))
        row = rep.rows[0]
        # balanced arm drew its split from the oversampled pool
        assert row.balanced.n_train + row.balanced.n_test == 2 * int(
            (skewed_dataset.y == 1).sum()
        )

    def test_deterministic(self, skewed_dataset):
        a = run_pipeline(skewed_dataset, config(seed=11))
        b = run_pipeline(skewed_dataset, config(seed=11))
        assert report_text(a) == report_text(b)

    def test_seed_sensitivity(self, skewed_dataset):
        a = run_pipeline(skewed_dataset, config(seed=11))
        b = run_pipeline(skewed_dataset, config(seed=12))
        assert report_text(a) != report_text(b)

    def test_smote_disabled_arms_identical(self, skewed_dataset):
        rep = run_pipeline(skewed_dataset, config(smote=None))
        row = rep.rows[0]
        assert row.imbalanced.accuracy == row.balanced.accuracy
        assert roc_analysis_to_csv(row.imbalanced.roc) == roc_analysis_to_csv(row.balanced.roc)
        assert row.accuracy_improvement_pct == pytest.approx(0.0)

    def test_sound_mode_test_set_is_shared_and_real(self, skewed_dataset):
        for mode, seed in ((MODE_SOUND, 0), (MODE_SOUND, 9)):
            rep = run_pipeline(skewed_dataset, config(mode=mode, seed=seed))
            row = rep.rows[0]
            assert row.imbalanced.n_test == row.balanced.n_test
        # the guard itself: oversampling the train subset only cannot
        # produce synthetic provenance in the shared test subset
        rep = run_pipeline(skewed_dataset, config(mode=MODE_SOUND))
        assert rep.rows[0].balanced.n_train > rep.rows[0].imbalanced.n_train


def balance_first_chain_auch(d, method, top_k, s, forest=FAST):
    """One method's area in filter selection, step by step: its top_k
    features in schema order, SMOTE, the split, and a forest on the
    imbalanced arm's stream, all from master seed `s`."""
    names = {e.feature_name for e in score_all(d, method).entries[:top_k]}
    sub = select_features(d, [f.name for f in d.schema if f.name in names])
    balanced = smote_oversample(sub, SmoteConfig(seed=derive_seed(s, STREAM_SMOTE)))
    train, test = split_train_test(balanced, 0.2, seed=derive_seed(s, STREAM_SPLIT))
    params = dataclasses.replace(forest, seed=derive_seed(s, STREAM_FOREST_IMBALANCED))
    scores = predict_proba_many(train_forest(train, params), test.X)
    return analyze_scores(scores, test.y).auch


class TestFilterProtocol:
    def test_each_area_is_the_balance_first_chain(self, skewed_dataset):
        d, top_k, s = skewed_dataset, 5, 11
        sel = select_best_filter(d, METHODS, top_k, FAST, eval_seed=s)
        for method in METHODS:
            assert sel.auch_by_method[method] == balance_first_chain_auch(d, method, top_k, s)

    def test_smote_none_is_the_unbalanced_chain(self, skewed_dataset):
        d, top_k, s = skewed_dataset, 5, 11
        sel = select_best_filter(d, METHODS, top_k, FAST, eval_seed=s, smote_template=None)
        for method in METHODS:
            names = {e.feature_name for e in score_all(d, method).entries[:top_k]}
            sub = select_features(d, [f.name for f in d.schema if f.name in names])
            train, test = split_train_test(sub, 0.2, seed=derive_seed(s, STREAM_SPLIT))
            params = dataclasses.replace(FAST, seed=derive_seed(s, STREAM_FOREST_IMBALANCED))
            scores = predict_proba_many(train_forest(train, params), test.X)
            assert sel.auch_by_method[method] == analyze_scores(scores, test.y).auch


class TestTTestAssembly:
    def test_needs_two_rows(self, skewed_dataset):
        rep1 = run_pipeline(skewed_dataset, config(seed=1))
        assert rep1.t_tests["precision"] is None
        combined = combine_reports([rep1, run_pipeline(skewed_dataset, config(seed=2))])
        assert len(combined.rows) == 2
        t = combined.t_tests["precision"]
        if t is not None:
            assert t.df == 1

    def test_skips_undefined_rows(self, skewed_dataset):
        rep = run_pipeline(skewed_dataset, config(seed=1))
        row = rep.rows[0]
        tp, fp, tn, fn = row.imbalanced.confusion
        # no positive predictions: precision is undefined
        no_positives = dataclasses.replace(row.imbalanced, confusion=(0, 0, tn + fp, fn + tp))
        assert no_positives.precision is None
        broken = dataclasses.replace(row, imbalanced=no_positives)
        out = t_tests_for_rows([broken, row, row])
        assert out["precision"] is not None
        assert out["precision"].df == 1  # only the two intact rows pair up

    def test_combine_empty(self):
        with pytest.raises(ValueError, match="no report rows"):
            combine_reports([])


class TestFormRecommendations:
    def test_reference_scores_threshold_02(self):
        table = interviews_score_table()
        rs = form_recommendations(table, Prediction("Interviews", 0.9), threshold=0.2)
        assert [e.feature_name for e in rs.content_based] == [
            "Project Size",
            "Experience",
            "WoW",
            "Project Category",
            "Company Type",
        ]
        assert [e.score for e in rs.content_based] == [0.3, 0.28, 0.27, 0.23, 0.21]
        assert [e.feature_name for e in rs.collaborative] == ["Prototyping"]
        assert rs.collaborative[0].score == 0.25
        assert rs.predicted.label == "Interviews"

    def test_strict_threshold_boundary(self):
        table = interviews_score_table()
        rs = form_recommendations(table, Prediction("Interviews", 0.9), threshold=0.25)
        assert rs.collaborative == ()  # the 0.25 entry is excluded, not kept
        assert [e.feature_name for e in rs.content_based] == [
            "Project Size",
            "Experience",
            "WoW",
        ]

    def test_above_max_threshold_empty(self):
        rs = form_recommendations(
            interviews_score_table(), Prediction("Interviews", 0.9), threshold=0.31
        )
        assert rs.collaborative == () and rs.content_based == ()

    def test_role_partition_disjoint_and_complete(self):
        table = interviews_score_table()
        rs = form_recommendations(table, Prediction("Interviews", 0.5), threshold=0.0)
        names = {e.feature_name for e in rs.collaborative} | {
            e.feature_name for e in rs.content_based
        }
        assert len(names) == len(rs.collaborative) + len(rs.content_based)
        assert names == {e.feature_name for e in table.entries if e.score > 0}
        assert all(e.role == ROLE_TECHNIQUE for e in rs.collaborative)
        assert all(e.role == ROLE_CONTEXT for e in rs.content_based)

    def test_lowering_threshold_is_monotone(self):
        table = interviews_score_table()
        pred = Prediction("Interviews", 0.5)
        prev_c, prev_b = set(), set()
        for thr in (0.3, 0.25, 0.2, 0.15, 0.1, 0.0):
            rs = form_recommendations(table, pred, threshold=thr)
            cur_c = {e.feature_name for e in rs.collaborative}
            cur_b = {e.feature_name for e in rs.content_based}
            assert prev_c <= cur_c and prev_b <= cur_b
            prev_c, prev_b = cur_c, cur_b

    def test_descending_order_kept(self):
        rs = form_recommendations(
            interviews_score_table(), Prediction("Interviews", 0.5), threshold=0.1
        )
        for lst in (rs.collaborative, rs.content_based):
            scores = [e.score for e in lst]
            assert scores == sorted(scores, reverse=True)

    def test_negative_threshold_rejected(self):
        for value in (-1.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="threshold"):
                form_recommendations(
                    interviews_score_table(), Prediction("Interviews", 0.5), threshold=value
                )

    def test_set_invariant_rechecked(self):
        entry = interviews_score_table().entries[0]
        with pytest.raises(ValueError, match="strictly above"):
            RecommendationSet(
                predicted=Prediction("Interviews", 0.5),
                collaborative=(),
                content_based=(entry,),
                threshold=0.5,
            )

    def test_serialization(self):
        rs = form_recommendations(
            interviews_score_table(), Prediction("Interviews", 0.75), threshold=0.2
        )
        doc = recommendation_set_to_dict(rs)
        assert doc["predicted"] == {"label": "Interviews", "probability": 0.75}
        assert doc["threshold"] == 0.2
        assert doc["collaborative"] == [{"feature": "Prototyping", "score": 0.25}]
        assert [d["feature"] for d in doc["content_based"]][0] == "Project Size"


class TestCompareBalancing:
    def test_smote_off_is_neither(self, skewed_dataset):
        row = run_pipeline(skewed_dataset, config(smote=None)).rows[0]
        assert row.hull_verdict == "neither"
        assert row.auc_delta == 0.0
        assert row.accuracy_delta == 0.0
        assert row.entropy_delta == 0.0

    def test_verdict_vocabulary(self, skewed_dataset):
        row = run_pipeline(skewed_dataset, config(mode=MODE_BALANCE_FIRST)).rows[0]
        assert row.hull_verdict in ("balanced", "imbalanced", "neither")
        assert row.auc_delta == pytest.approx(row.balanced.roc.auc - row.imbalanced.roc.auc)

    def test_derived_from_the_arms(self, skewed_dataset):
        row = run_pipeline(skewed_dataset, config()).rows[0]
        imb, bal = row.imbalanced, row.balanced
        flipped = dataclasses.replace(row, imbalanced=bal, balanced=imb)
        assert flipped.auc_delta == -row.auc_delta
        assert flipped.accuracy_delta == -row.accuracy_delta
        assert flipped.entropy_delta == -row.entropy_delta
        assert {row.hull_verdict, flipped.hull_verdict} in ({"neither"}, {"balanced", "imbalanced"})
        assert row.auc_improvement_pct == pytest.approx((bal.roc.auc / imb.roc.auc - 1) * 100)
