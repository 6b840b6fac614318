import json
import weakref

import numpy as np
import pytest

from elicitrec.data_model import (
    ROLE_CONTEXT,
    ROLE_TECHNIQUE,
    STREAM_FOREST_BALANCED,
    STREAM_FOREST_IMBALANCED,
    STREAM_SMOTE,
    STREAM_SPLIT,
    SyntheticSpec,
    derive_seed,
    drop_constant_features,
    generate_synthetic,
    select_features,
    split_train_test,
)
from elicitrec.evaluation import EvaluationReport, analyze_scores, precision, report_to_dict, roc_analysis_to_csv
from elicitrec.feature_scoring import METHODS, score_all
from elicitrec.forest import NODE_FIELDS, ForestParams, predict_proba_many, train_forest
from elicitrec import recommender
from elicitrec.recommender import (
    MODE_BALANCE_FIRST,
    MODE_SOUND,
    FilterConfig,
    PipelineConfig,
    run_pipeline,
    select_best_filter,
)
from elicitrec.scores import Prediction, form_recommendations
from elicitrec.sampler import SmoteConfig, smote_details, smote_oversample

from conftest import interviews_score_table, make_dataset

FAST = ForestParams(n_trees=20)


def config(**kw):
    base = dict(target_name="target", forest=FAST, seed=3)
    base.update(kw)
    return PipelineConfig(**base)


def document(rep):
    """The report.json document of `rep`, under one fixed config."""
    return report_to_dict(rep, config())


def report_text(rep):
    """Everything a report holds, as text: its JSON form plus each arm's ROC CSV.
    The header takes one fixed config, so two texts differ only where the
    reports do."""
    csvs = [roc_analysis_to_csv(arm.roc) for row in rep.rows for arm in (row.imbalanced, row.balanced)]
    return json.dumps(document(rep), sort_keys=True) + "".join(csvs)


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
        doc = document(rep)
        row = doc["report"]["rows"][0]
        assert row["label"] == "target"
        for arm in (row["imbalanced"], row["balanced"]):
            assert 0.0 <= arm["accuracy"] <= 1.0
            assert 0.0 <= arm["auc"] <= 1.0
            assert arm["auch"] >= arm["auc"] - 1e-12
            assert arm["n_test"] == round(0.2 * len(skewed_dataset.y))
        assert set(doc["report"]["t_tests"]) == {"precision", "recall"}
        assert doc["report"]["t_tests"]["precision"] is None  # single row, no pairs

    def test_paper_mode_runs(self, skewed_dataset):
        rep = run_pipeline(skewed_dataset, config(mode=MODE_BALANCE_FIRST))
        row = rep.rows[0]
        # balanced arm drew its split from the oversampled pool
        assert row.balanced.n_train + sum(row.balanced.confusion) == 2 * int(
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
        assert row.imbalanced.confusion == row.balanced.confusion
        assert roc_analysis_to_csv(row.imbalanced.roc) == roc_analysis_to_csv(row.balanced.roc)
        assert document(rep)["report"]["rows"][0]["accuracy_improvement_pct"]["value"] == pytest.approx(0.0)

    def test_input_freed_before_the_first_forest(self, skewed_dataset, monkeypatch):
        # the dataset the pipeline works on is its own here, so nothing
        # should hold it once both arms' rows are drawn
        own, alive = [], []
        evaluate = recommender._evaluate_arm

        def fresh(d):
            reduced = select_features(d, d.feature_names)
            own.append(weakref.ref(reduced))
            return reduced

        def checked(*args):
            alive.append(own[0]() is not None)
            return evaluate(*args)

        monkeypatch.setattr(recommender, "drop_constant_features", fresh)
        monkeypatch.setattr(recommender, "_evaluate_arm", checked)
        for cfg, arms in ((config(), 2), (config(mode=MODE_BALANCE_FIRST), 2), (config(smote=None), 1)):
            own.clear()
            alive.clear()
            run_pipeline(skewed_dataset, cfg)
            assert alive == [False] * arms, cfg

    def test_sound_mode_test_set_is_shared_and_real(self, skewed_dataset):
        for mode, seed in ((MODE_SOUND, 0), (MODE_SOUND, 9)):
            rep = run_pipeline(skewed_dataset, config(mode=mode, seed=seed))
            row = rep.rows[0]
            assert sum(row.imbalanced.confusion) == sum(row.balanced.confusion)
        # the guard itself: oversampling the train subset only cannot
        # produce synthetic provenance in the shared test subset
        rep = run_pipeline(skewed_dataset, config(mode=MODE_SOUND))
        assert rep.rows[0].balanced.n_train > rep.rows[0].imbalanced.n_train


FOREST_STREAMS = {"imbalanced": STREAM_FOREST_IMBALANCED, "balanced": STREAM_FOREST_BALANCED}


class TestRunProtocol:
    """`run_pipeline` splits once per distinct set of rows it splits and
    each arm's area is the chain built step by step."""

    @pytest.mark.parametrize("mode, smote, splits", [
        (MODE_SOUND, SmoteConfig(), 1),
        (MODE_SOUND, None, 1),
        (MODE_BALANCE_FIRST, SmoteConfig(), 2),
        (MODE_BALANCE_FIRST, None, 1),
    ])
    def test_split_count(self, skewed_dataset, monkeypatch, mode, smote, splits):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return split_train_test(*args, **kwargs)

        monkeypatch.setattr(recommender, "split_train_test", counted)
        run_pipeline(skewed_dataset, config(mode=mode, smote=smote))
        assert len(calls) == splits

    @pytest.mark.parametrize("mode", [MODE_SOUND, MODE_BALANCE_FIRST])
    def test_each_arm_is_the_chain(self, skewed_dataset, mode):
        s = 5
        row = run_pipeline(skewed_dataset, config(mode=mode, seed=s)).rows[0]
        d = drop_constant_features(skewed_dataset)
        smote = SmoteConfig(seed=derive_seed(s, STREAM_SMOTE))
        split = dict(test_fraction=0.2, seed=derive_seed(s, STREAM_SPLIT))
        train, test = split_train_test(d, **split)
        arms = {"imbalanced": (train, test)}
        if mode == MODE_SOUND:
            arms["balanced"] = smote_oversample(train, smote), test
        else:
            arms["balanced"] = split_train_test(smote_oversample(d, smote), **split)
        for arm, (train, test) in arms.items():
            params = FAST.replace(seed=derive_seed(s, FOREST_STREAMS[arm]))
            scores = predict_proba_many(train_forest(train, params), test.X)
            assert getattr(row, arm).auch == analyze_scores(scores, test.y).auch
            assert getattr(row, arm).n_train == train.n_rows


def balance_first_chain_auch(d, method, top_k, s, forest=FAST):
    """One method's area in filter selection, step by step: its top_k
    features in schema order, SMOTE, the split, and a forest on the
    imbalanced arm's stream, all from master seed `s`."""
    names = {e.feature_name for e in score_all(d, method).entries[:top_k]}
    sub = select_features(d, [f.name for f in d.schema if f.name in names])
    balanced = smote_oversample(sub, SmoteConfig(seed=derive_seed(s, STREAM_SMOTE)))
    train, test = split_train_test(balanced, 0.2, seed=derive_seed(s, STREAM_SPLIT))
    params = forest.replace(seed=derive_seed(s, STREAM_FOREST_IMBALANCED))
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
            params = FAST.replace(seed=derive_seed(s, STREAM_FOREST_IMBALANCED))
            scores = predict_proba_many(train_forest(train, params), test.X)
            assert sel.auch_by_method[method] == analyze_scores(scores, test.y).auch


class TestSharedBootstrap:
    def test_each_subset_forest_is_train_forest_on_its_rows(self, skewed_dataset, monkeypatch):
        # the filters pick three different top-10 sets; their forests draw
        # the same bootstrap, and each equals a forest grown on its own
        d, top_k, s = skewed_dataset, 10, 11
        subsets = {frozenset(e.feature_name for e in score_all(d, m).entries[:top_k]) for m in METHODS}
        assert len(subsets) == 3
        grown = []

        def recorded(train, params):
            model = train_forest(train, params)
            grown.append((train, params, model))
            return model

        monkeypatch.setattr("elicitrec.forest.train_forest", recorded)
        select_best_filter(d, METHODS, top_k, ForestParams(n_trees=30), eval_seed=s)
        assert len(grown) == 3
        assert len({tuple(train.feature_names) for train, _, _ in grown}) == 3
        for train, params, model in grown:
            assert params.seed == derive_seed(s, STREAM_FOREST_IMBALANCED)
            alone = train_forest(train, params)
            for f in (*NODE_FIELDS, "offsets"):
                assert np.array_equal(getattr(model, f), getattr(alone, f))


class TestTTestAssembly:
    def test_needs_two_rows(self, skewed_dataset):
        rep1 = run_pipeline(skewed_dataset, config(seed=1))
        assert document(rep1)["report"]["t_tests"]["precision"] is None
        combined = EvaluationReport(rows=rep1.rows + run_pipeline(skewed_dataset, config(seed=2)).rows)
        assert len(combined.rows) == 2
        t = document(combined)["report"]["t_tests"]["precision"]
        if t is not None:
            assert t["df"] == 1

    def test_skips_undefined_rows(self, skewed_dataset):
        rep = run_pipeline(skewed_dataset, config(seed=1))
        row = rep.rows[0]
        tp, fp, tn, fn = row.imbalanced.confusion
        # no positive predictions: precision is undefined
        no_positives = row.imbalanced.replace(confusion=(0, 0, tn + fp, fn + tp))
        assert precision(no_positives.confusion) is None
        broken = row.replace(imbalanced=no_positives)
        out = document(EvaluationReport(rows=(broken, row, row)))["report"]["t_tests"]
        assert out["precision"] is not None
        assert out["precision"]["df"] == 1  # only the two intact rows pair up

    def test_infinite_t_is_printed_as_null(self, skewed_dataset):
        row = run_pipeline(skewed_dataset, config(seed=1)).rows[0]
        # balanced precision beats imbalanced by the same margin in every
        # row, so the differences have no spread and t is -inf
        worse = row.imbalanced.replace(confusion=(1, 1, 5, 5))
        better = row.balanced.replace(confusion=(1, 0, 6, 5))
        rows = (row.replace(imbalanced=worse, balanced=better),) * 2
        out = document(EvaluationReport(rows=rows))["report"]["t_tests"]
        assert out["precision"] == {"t": None, "df": 1, "p_two_tailed": 0.0, "mean_diff": -0.5}
        assert out["recall"] == {"t": 0.0, "df": 1, "p_two_tailed": 1.0, "mean_diff": 0.0}


class TestSplitCheck:
    NEAR_PURE = generate_synthetic(SyntheticSpec(n_majority=307, n_minority=16, p=27, n_informative=6, seed=1))
    TWO_MINORITY = generate_synthetic(SyntheticSpec(n_majority=40, n_minority=2, p=5, n_informative=2, seed=3))

    @pytest.fixture()
    def no_forest(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a forest grew")

        monkeypatch.setattr("elicitrec.forest.train_forest", refused)

    @pytest.mark.parametrize("mode", [MODE_SOUND, MODE_BALANCE_FIRST])
    @pytest.mark.parametrize("smote", [SmoteConfig(), None])
    def test_refused_before_any_forest_grows(self, no_forest, mode, smote):
        cases = [(self.NEAR_PURE, 47), (self.NEAR_PURE, 86), *((self.TWO_MINORITY, s) for s in (1, 3, 5, 6))]
        if mode == MODE_SOUND and smote is not None:
            cases += [(self.TWO_MINORITY, 4), (self.TWO_MINORITY, 0)]  # one minority row left to SMOTE
        for d, seed in cases:
            with pytest.raises(ValueError, match=f"^the split at test_fraction 0.2 and seed {seed} leaves the "):
                run_pipeline(d, config(mode=mode, smote=smote, seed=seed))

    @pytest.mark.parametrize("mode, part", [(MODE_SOUND, "training"), (MODE_BALANCE_FIRST, "test")])
    def test_balanced_split_checked_before_any_forest_grows(self, no_forest, mode, part):
        # the input's split keeps one minority row in each part: sound-mode
        # SMOTE refuses the training part, and in balance-first mode the
        # split of the balanced rows leaves the test part one class
        d = generate_synthetic(SyntheticSpec(n_majority=8, n_minority=2, p=4, n_informative=2, seed=0))
        for seed in (1, 29):
            with pytest.raises(ValueError, match=f"^the split at test_fraction 0.2 and seed {seed} leaves the {part} "):
                run_pipeline(d, config(mode=mode, seed=seed))

    @pytest.mark.parametrize("mode", [MODE_SOUND, MODE_BALANCE_FIRST])
    def test_no_split_of_one_minority_row_can_help(self, no_forest, mode):
        d = generate_synthetic(SyntheticSpec(n_majority=40, n_minority=1, p=5, n_informative=2, seed=3))
        for seed in range(4):
            with pytest.raises(ValueError, match="; each part needs rows of both classes: add rows of class '0'$"):
                run_pipeline(d, config(mode=mode, seed=seed))

    def test_filter_selection_refused_before_any_forest_grows(self, no_forest):
        with pytest.raises(ValueError, match="^the split at test_fraction 0.2 and seed 47 leaves the test part"):
            select_best_filter(self.NEAR_PURE, METHODS, 5, FAST, eval_seed=47, smote_template=None)

    @pytest.mark.parametrize("test_fraction, eval_seed, message", [
        (0.0, 3, "^test_fraction must lie strictly between 0 and 1$"),
        (1.0, 3, "^test_fraction must lie strictly between 0 and 1$"),
        (0.2, -1, "^eval_seed must be non-negative$"),
    ])
    def test_filter_selection_refuses_its_fraction_and_seed_before_any_work(
        self, no_forest, monkeypatch, test_fraction, eval_seed, message
    ):
        def refused(*args):
            raise AssertionError("SMOTE ran")

        monkeypatch.setattr(recommender, "balance", refused)
        with pytest.raises(ValueError, match=message):
            select_best_filter(self.TWO_MINORITY, METHODS, 3, FAST, eval_seed=eval_seed, test_fraction=test_fraction)

    @pytest.mark.parametrize("target_ratio", [0.02, 0.05, 0.1, 0.25, 0.5, 1.0])
    def test_refused_exactly_when_smote_would_raise(self, monkeypatch, no_forest, target_ratio):
        # a sound-mode training part with n_short rows of one class and
        # n_long of the other, next to a test part that holds both
        test = make_dataset([[0], [1]], [0, 1])
        cfg = config(smote=SmoteConfig(target_ratio=target_ratio))
        for n_short in range(4):
            for n_long in range(1, 41):
                for short in (0, 1):
                    y = [short] * n_short + [1 - short] * n_long
                    train = make_dataset([[i % 2] for i in range(len(y))], y)
                    monkeypatch.setattr(recommender, "split_train_test", lambda *a, **k: (train, test))
                    try:
                        smote_details(train, cfg.smote)
                        raises = False
                    except ValueError:
                        raises = True
                    try:
                        run_pipeline(test, cfg)
                    except AssertionError:  # the first forest, so nothing was refused
                        refused = False
                    except ValueError as e:
                        assert str(e).startswith("the split at test_fraction 0.2 and seed 3 leaves the training part")
                        refused = True
                    assert refused == raises, (n_short, n_long, short)

    def test_one_minority_row_serves_a_smote_that_adds_none(self):
        # 33 training rows of class 1: SMOTE adds a row once
        # round(target_ratio * 33) exceeds the one of class 0
        run_pipeline(self.TWO_MINORITY, config(seed=4, smote=SmoteConfig(target_ratio=0.03)))
        with pytest.raises(ValueError, match="class counts '0': 1, '1': 33; sound-mode SMOTE needs at least 2 rows "
                           "of the minority class '0' to add 1, and the data holds 1: choose another seed"):
            run_pipeline(self.TWO_MINORITY, config(seed=4, smote=SmoteConfig(target_ratio=0.05)))


def listed(doc, key):
    """The (feature, score) pairs of one list of a recommendations document."""
    return [(e["feature"], e["score"]) for e in doc[key]]


class TestFormRecommendations:
    def test_reference_scores_threshold_02(self):
        table = interviews_score_table()
        doc = form_recommendations(table, Prediction("Interviews", 0.9), threshold=0.2)
        assert listed(doc, "content_based") == [
            ("Project Size", 0.3),
            ("Experience", 0.28),
            ("WoW", 0.27),
            ("Project Category", 0.23),
            ("Company Type", 0.21),
        ]
        assert listed(doc, "collaborative") == [("Prototyping", 0.25)]
        assert doc["predicted"]["label"] == "Interviews"

    def test_strict_threshold_boundary(self):
        table = interviews_score_table()
        doc = form_recommendations(table, Prediction("Interviews", 0.9), threshold=0.25)
        assert doc["collaborative"] == []  # the 0.25 entry is excluded, not kept
        assert [e["feature"] for e in doc["content_based"]] == [
            "Project Size",
            "Experience",
            "WoW",
        ]

    def test_above_max_threshold_empty(self):
        doc = form_recommendations(
            interviews_score_table(), Prediction("Interviews", 0.9), threshold=0.31
        )
        assert doc["collaborative"] == [] and doc["content_based"] == []

    def test_role_partition_disjoint_and_complete(self):
        table = interviews_score_table()
        doc = form_recommendations(table, Prediction("Interviews", 0.5), threshold=0.0)
        collaborative = {e["feature"] for e in doc["collaborative"]}
        content_based = {e["feature"] for e in doc["content_based"]}
        names = collaborative | content_based
        assert len(names) == len(doc["collaborative"]) + len(doc["content_based"])
        assert names == {e.feature_name for e in table.entries if e.score > 0}
        role = {e.feature_name: e.role for e in table.entries}
        assert all(role[name] == ROLE_TECHNIQUE for name in collaborative)
        assert all(role[name] == ROLE_CONTEXT for name in content_based)

    def test_lowering_threshold_is_monotone(self):
        table = interviews_score_table()
        pred = Prediction("Interviews", 0.5)
        prev_c, prev_b = set(), set()
        for thr in (0.3, 0.25, 0.2, 0.15, 0.1, 0.0):
            doc = form_recommendations(table, pred, threshold=thr)
            cur_c = {e["feature"] for e in doc["collaborative"]}
            cur_b = {e["feature"] for e in doc["content_based"]}
            assert prev_c <= cur_c and prev_b <= cur_b
            prev_c, prev_b = cur_c, cur_b

    def test_descending_order_kept(self):
        doc = form_recommendations(
            interviews_score_table(), Prediction("Interviews", 0.5), threshold=0.1
        )
        for key in ("collaborative", "content_based"):
            scores = [e["score"] for e in doc[key]]
            assert scores == sorted(scores, reverse=True)

    def test_negative_threshold_rejected(self):
        for value in (-1.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="threshold"):
                form_recommendations(
                    interviews_score_table(), Prediction("Interviews", 0.5), threshold=value
                )

    def test_serialization(self):
        doc = form_recommendations(
            interviews_score_table(), Prediction("Interviews", 0.75), threshold=0.2
        )
        assert doc["predicted"] == {"label": "Interviews", "probability": 0.75}
        assert doc["threshold"] == 0.2
        assert doc["collaborative"] == [{"feature": "Prototyping", "score": 0.25}]
        assert [d["feature"] for d in doc["content_based"]][0] == "Project Size"


class TestCompareBalancing:
    def test_smote_off_is_neither(self, skewed_dataset):
        comparison = document(run_pipeline(skewed_dataset, config(smote=None)))["comparison"]
        assert comparison["hull_verdict"] == "neither"
        assert comparison["auc_delta"] == 0.0
        assert comparison["accuracy_delta"] == 0.0
        assert comparison["entropy_delta"] == 0.0

    def test_verdict_vocabulary(self, skewed_dataset):
        rep = run_pipeline(skewed_dataset, config(mode=MODE_BALANCE_FIRST))
        row, comparison = rep.rows[0], document(rep)["comparison"]
        assert row.hull_verdict in ("balanced", "imbalanced", "neither")
        assert comparison["auc_delta"] == pytest.approx(row.balanced.roc.auc - row.imbalanced.roc.auc)

    def test_derived_from_the_arms(self, skewed_dataset):
        row = run_pipeline(skewed_dataset, config()).rows[0]
        imb, bal = row.imbalanced, row.balanced
        flipped = row.replace(imbalanced=bal, balanced=imb)
        doc, flipped_doc = document(EvaluationReport(rows=(row,))), document(EvaluationReport(rows=(flipped,)))
        for name in ("auc_delta", "accuracy_delta", "entropy_delta"):
            assert flipped_doc["comparison"][name] == -doc["comparison"][name]
        assert {row.hull_verdict, flipped.hull_verdict} in ({"neither"}, {"balanced", "imbalanced"})
        improvement = doc["report"]["rows"][0]["auc_improvement_pct"]["value"]
        assert improvement == pytest.approx((bal.roc.auc / imb.roc.auc - 1) * 100)
