"""The record contract: every `config.Record` of the package is frozen,
compares and hashes by its fields (or, where its class says so, by
identity), names every field in its repr, and re-checks its values when
copied with `replace`."""

import dataclasses
import inspect

import numpy as np
import pytest

from elicitrec import config, data_model, evaluation, forest, model_file, recommender, scores
from elicitrec.config import FeatureSchema, FilterConfig, PipelineConfig, Record, Settings
from elicitrec.data_model import PROVENANCE_COLUMN, SyntheticSpec, generate_synthetic
from elicitrec.evaluation import ArmMetrics, EvaluationReport, ReportRow, analyze_scores
from elicitrec.forest import ForestParams, train_forest
from elicitrec.recommender import FilterSelection
from elicitrec.scores import FeatureScoreTable, Prediction, ScoreEntry

SPEC = SyntheticSpec(n_majority=20, n_minority=10, p=4, n_informative=2, seed=1)
ROC = analyze_scores([0.9, 0.8, 0.3, 0.6, 0.1], [1, 1, 0, 1, 0])
ARM = ArmMetrics(confusion=(3, 0, 2, 0), roc=ROC, mean_split_entropy=0.5, n_train=20)
ROW = ReportRow(label="target", imbalanced=ARM, balanced=ARM)
ENTRY = ScoreEntry(feature_name="a", role="context", score=2.0)


def _model():
    return train_forest(generate_synthetic(SPEC), ForestParams(n_trees=2, seed=1))


def _bundle():
    d = generate_synthetic(SPEC)
    return model_file.check_bundle(model_file.model_to_dict(train_forest(d, ForestParams(n_trees=2, seed=1)), d))


#: a maker of each record, whether its fields hash (a record compared by
#: identity always does), and a change that `replace` must refuse (None:
#: the record checks nothing)
CASES = {
    "FeatureSchema": (lambda: FeatureSchema("a", "context", ("x", "y")), True, {"role": "x"}),
    "FilterConfig": (FilterConfig, True, {"top_k": 0}),
    "PipelineConfig": (lambda: PipelineConfig("target"), True, {"mode": "x"}),
    "Settings": (lambda: Settings(PipelineConfig("target"), FilterConfig()), False, None),
    "Dataset": (lambda: generate_synthetic(SPEC), False, {"target_name": PROVENANCE_COLUMN}),
    "SyntheticSpec": (lambda: SPEC, True, {"n_informative": 5}),
    "RocAnalysis": (lambda: ROC, True, {"auch": 0.0}),
    "ArmMetrics": (lambda: ARM, True, None),
    "ReportRow": (lambda: ROW, True, None),
    "EvaluationReport": (lambda: EvaluationReport(rows=(ROW,)), True, None),
    "RandomForestModel": (_model, True, None),
    "Bundle": (_bundle, True, None),
    "FilterSelection": (lambda: FilterSelection("Chi2", {"Chi2": 0.5}), False, None),
    "ScoreEntry": (lambda: ENTRY, True, None),
    "FeatureScoreTable": (
        lambda: FeatureScoreTable((ENTRY, ScoreEntry("b", "technique", 1.0))), True, {"entries": (ENTRY, ENTRY)}
    ),
    "Prediction": (lambda: Prediction(label="target", probability=0.5), True, None),
}
#: the records that compare by identity, as their arrays or documents would not compare
BY_IDENTITY = {"RocAnalysis", "RandomForestModel", "Bundle"}


def test_every_record_is_covered():
    modules = (config, data_model, evaluation, forest, model_file, recommender, scores)
    defined = {v.__name__ for m in modules for v in vars(m).values()
               if isinstance(v, type) and issubclass(v, Record) and v is not Record and v.__module__ == m.__name__}
    assert defined == set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_record_contract(name):
    make, hashable, bad = CASES[name]
    record = make()
    cls = type(record)
    assert cls.__name__ == name
    fields = cls._fields
    assert tuple(inspect.signature(cls).parameters) == fields  # an explicit signature, field by field

    for attempt in (lambda: setattr(record, fields[0], None), lambda: setattr(record, "extra", 1),
                    lambda: delattr(record, fields[0])):
        with pytest.raises(AttributeError, match="is frozen"):
            attempt()

    twin = record.replace()
    assert twin is not record
    assert all(getattr(twin, f) is getattr(record, f) for f in fields)
    if name in BY_IDENTITY:
        assert twin != record and record == record
        assert hash(record) == object.__hash__(record)
    else:
        assert twin == record and not twin != record
        if hashable:
            assert hash(twin) == hash(record)
        else:
            with pytest.raises(TypeError):
                hash(record)

    shown = repr(record)
    assert shown.startswith(f"{name}(")
    assert all(f"{f}=" in shown for f in fields)

    if bad is not None:
        with pytest.raises(ValueError):
            record.replace(**bad)
    with pytest.raises(TypeError):
        record.replace(no_such_field=1)


def test_records_with_other_fields_differ():
    assert FeatureSchema("a", "context", ("x",)) != FeatureSchema("a", "technique", ("x",))
    assert FilterConfig(top_k=3) != FilterConfig(top_k=4)
    assert ENTRY != ("a", "context", 2.0)  # a record equals only a record of its own class


def test_bundle_builds_its_model_once():
    bundle = _bundle()
    assert "_model" not in type(bundle)._fields and "_model" not in repr(bundle)
    model = bundle.model
    assert bundle.model is model
    assert np.array_equal(model.feature, _model().feature)


def test_the_two_dataclasses_copy_with_replace():
    # code outside the package copies them with dataclasses.replace; the
    # package's own code uses the method
    for settings in (config.SmoteConfig(), ForestParams()):
        assert dataclasses.is_dataclass(settings)
        assert settings.replace(seed=3) == dataclasses.replace(settings, seed=3)
        with pytest.raises(ValueError):
            settings.replace(seed=-1)
