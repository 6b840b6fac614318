"""Property tests over generated data: SMOTE's neighbour search against a
brute-force oracle and the shape of its output; the ROC hull and hull
dominance over tied scores; grown trees against the per-node split oracle
on data full of repeated rows."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as hnp

from elicitrec import sampler
from elicitrec.data_model import minority_label
from elicitrec.evaluation import analyze_scores, dominates
from elicitrec.forest import ForestParams, train_forest
from elicitrec.sampler import SmoteConfig, smote_details

from conftest import make_dataset
from test_forest import check_against_oracle
from test_sampler import brute_neighbors


@st.composite
def neighbor_cases(draw):
    """(codes, n_parents, k, block rows). Spans above 2**26 push the keys
    past 2**53, where the search runs in Python integers; the offset
    checks that only differences between codes matter."""
    m = draw(st.integers(2, 40))
    p = draw(st.integers(1, 6))
    span = draw(st.one_of(st.integers(0, 4), st.integers(5, 2**12), st.integers(2**26, 2**30)))
    offset = draw(st.integers(0, 2**31))
    X = draw(hnp.arrays(np.int64, (m, p), elements=st.integers(0, span))) + offset
    return X, draw(st.integers(1, m)), draw(st.integers(1, m - 1)), draw(st.integers(1, 8))


@given(neighbor_cases())
def test_neighbors_match_brute_force(case):
    X, n_parents, k, block = case
    with mock.patch.object(sampler, "_BLOCK_ROWS", block):
        got = sampler._neighbors(X, n_parents, k)
    rows = list(range(len(X)))
    assert got.tolist() == [brute_neighbors(X, rows, i, k) for i in range(n_parents)]


@st.composite
def smote_cases(draw):
    n = draw(st.integers(4, 30))
    levels = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    X = np.column_stack([draw(hnp.arrays(np.int64, n, elements=st.integers(0, L - 1))) for L in levels])
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    assume(min(y.sum(), n - y.sum()) >= 2)
    cfg = SmoteConfig(
        k_neighbors=draw(st.integers(1, 8)),
        target_ratio=draw(st.floats(0.05, 1.0)),
        seed=draw(st.integers(0, 2**64)),
    )
    return make_dataset(X, y, levels=levels), cfg


@given(smote_cases())
def test_smote_keeps_prefix_and_schema(case):
    d, cfg = case
    out, parent, neighbor, draw = smote_details(d, cfg)
    n = d.n_rows
    label = minority_label(d)
    assert np.array_equal(out.X[:n], d.X)
    assert np.array_equal(out.y[:n], d.y)
    assert np.array_equal(out.synthetic[:n], d.synthetic)
    assert out.schema == d.schema
    assert out.synthetic[n:].all() and (out.y[n:] == label).all()
    n_min = int((d.y == label).sum())
    assert out.n_rows - n == max(0, round(cfg.target_ratio * (n - n_min)) - n_min)
    new = out.X[n:]
    limits = np.array([len(f.levels) for f in d.schema])
    assert ((new >= 0) & (new < limits)).all()
    # each synthetic row lies between its parent and its neighbour
    lo = np.minimum(d.X[parent], d.X[neighbor])
    hi = np.maximum(d.X[parent], d.X[neighbor])
    assert ((new >= lo) & (new <= hi)).all()
    assert (d.y[parent] == label).all() and (d.y[neighbor] == label).all()
    assert (parent != neighbor).all()
    assert ((draw >= 0) & (draw < 1)).all()


@st.composite
def tied_scores(draw):
    """(scores, labels): scores on a grid of at most 11 values, so ties
    are common; both classes present."""
    n = draw(st.integers(2, 60))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    assume(0 < y.sum() < n)
    grid = draw(st.integers(1, 10))
    return draw(hnp.arrays(np.int64, n, elements=st.integers(0, grid))) / grid, y


@given(tied_scores())
def test_hull_is_concave_and_covers_the_curve(case):
    a = analyze_scores(*case)
    curve, hull = a.curve, a.hull
    assert a.on_hull.dtype == bool and a.on_hull.shape == (len(curve),)
    assert {tuple(r) for r in hull.tolist()} <= {tuple(r) for r in curve.tolist()}
    assert hull[0, :2].tolist() == [0.0, 0.0] and hull[-1, :2].tolist() == [1.0, 1.0]
    dx, dy = np.diff(hull[:, 0]), np.diff(hull[:, 1])
    assert (dx >= 0).all() and (dx[1:] > 0).all()  # only the first segment may be vertical
    slopes = dy[dx > 0] / dx[dx > 0]
    assert (slopes[1:] <= slopes[:-1] + 1e-9).all()
    # every curve point lies on or below each hull segment spanning its fpr
    for (x0, y0), (x1, y1) in zip(hull[:-1, :2].tolist(), hull[1:, :2].tolist()):
        if x1 > x0:
            inside = (curve[:, 0] >= x0) & (curve[:, 0] <= x1)
            line = y0 + (y1 - y0) * (curve[inside, 0] - x0) / (x1 - x0)
            assert (curve[inside, 1] <= line + 1e-12).all()
    assert a.auch >= a.auc - 1e-12


@given(tied_scores(), tied_scores())
def test_dominance_is_antisymmetric(case_a, case_b):
    hull_a, hull_b = analyze_scores(*case_a).hull, analyze_scores(*case_b).hull
    assert (dominates(hull_a, hull_b) == "A") == (dominates(hull_b, hull_a) == "B")
    assert dominates(hull_a, hull_a) == "neither"


@st.composite
def repeated_rows(draw):
    """(dataset, params): rows drawn from a small pool of distinct feature
    rows, labels drawn apart, so equal rows with equal and with different
    classes are common. Wide draws hold eight 256-level columns: the
    mixed-radix content key then needs 1 + 64 bits and is re-ranked, and a
    key left to wrap would shift the class out of it."""
    if draw(st.booleans()):
        levels = [256] * 8
    else:
        levels = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n_pool = draw(st.integers(1, 6))
    pool = np.column_stack([
        draw(hnp.arrays(np.int64, n_pool, elements=st.integers(0, L - 1))) for L in levels
    ])
    pool[0] = np.array(levels) - 1
    rows = draw(hnp.arrays(np.int64, draw(st.integers(2, 40)), elements=st.integers(0, n_pool - 1)))
    rows[0] = 0  # every column reaches its top level
    X = pool[rows]
    n = len(rows)
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    assume(0 < y.sum() < n)
    params = ForestParams(
        n_trees=draw(st.integers(1, 4)),
        criterion=draw(st.sampled_from(["gini", "entropy"])),
        min_samples_leaf=draw(st.integers(1, 3)),
        max_depth=draw(st.one_of(st.none(), st.integers(0, 4))),
        seed=draw(st.integers(0, 2**32)),
    )
    return make_dataset(X, y, levels=levels), params


@given(repeated_rows())
def test_grown_trees_match_oracle_on_repeated_rows(case):
    d, params = case
    check_against_oracle(d, train_forest(d, params), params)
