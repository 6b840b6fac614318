"""Property tests: SMOTE's neighbour search against a brute-force oracle,
and the shape of its output, over generated datasets."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as hnp

from elicitrec import sampler
from elicitrec.data_model import minority_label
from elicitrec.sampler import SmoteConfig, smote_details

from conftest import make_dataset
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
