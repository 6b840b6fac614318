"""The numpy-free one-row walker against the array walker.

`model_file.vote_share` must give every row exactly the probability that
`forest.predict_proba_many` gives it (`==`, not approximately), on the
node lists as `json` parses them from a model file.
"""

import json

import numpy as np
import pytest

from elicitrec.data_model import Dataset, FeatureSchema, SyntheticSpec, generate_synthetic
from elicitrec.forest import ForestParams, model_from_dict, predict_proba_many, train_forest
from elicitrec.model_file import model_to_dict, vote_share


def _survey():
    """100 trees on the survey shape (282/41 rows, p=27), scored on 323
    other rows of the same shape."""
    spec = SyntheticSpec(n_majority=282, n_minority=41, p=27, n_informative=6, seed=7)
    m = train_forest(generate_synthetic(spec), ForestParams(n_trees=100, seed=1))
    holdout = generate_synthetic(SyntheticSpec(282, 41, p=27, n_informative=6, seed=8))
    return model_to_dict(m), holdout.X


def _bulk():
    """8 deep trees on a bulk-shaped table (6000 rows, 2000 minority, p=30)."""
    d = generate_synthetic(SyntheticSpec(n_majority=4000, n_minority=2000, p=30, n_informative=8, seed=3))
    m = train_forest(d, ForestParams(n_trees=8, seed=2))
    assert m.feature.size > 5000
    holdout = generate_synthetic(SyntheticSpec(800, 400, p=30, n_informative=8, seed=4))
    return model_to_dict(m), holdout.X


def _deep_chain():
    """The deep chain of test_cli.py: 1500 levels with alternating labels,
    each row 8 times, in one tree hundreds of levels deep."""
    codes = np.tile(np.arange(1500), 8)
    schema = (FeatureSchema("x", "context", tuple(f"v{k:04d}" for k in range(1500))),)
    d = Dataset(schema=schema, target_name="target", X=codes[:, None], y=codes % 2)
    m = train_forest(d, ForestParams(n_trees=1))
    return model_to_dict(m), np.arange(1500)[:, None]


def _with_a_leaf():
    """A 5-tree forest whose second tree is a single leaf."""
    d = generate_synthetic(SyntheticSpec(n_majority=60, n_minority=20, p=5, n_informative=2, seed=5))
    doc = model_to_dict(train_forest(d, ForestParams(n_trees=5, seed=3)))
    doc["trees"][1] = {
        "feature": [-1], "threshold": [0], "left": [-1], "right": [-1], "n0": [7], "n1": [3],
    }
    return doc, d.X


FORESTS = {"survey": _survey, "bulk": _bulk, "deep_chain": _deep_chain, "single_leaf_tree": _with_a_leaf}


@pytest.mark.parametrize("shape", list(FORESTS))
def test_vote_share_equals_predict_proba_many(shape):
    doc, X = FORESTS[shape]()
    doc = json.loads(json.dumps(doc))  # the node lists as a model file holds them
    expected = predict_proba_many(model_from_dict(doc), X).tolist()
    got = [vote_share(doc, row) for row in X.tolist()]
    assert got == expected
    assert len(set(got)) > 1  # the rows reach different leaves
