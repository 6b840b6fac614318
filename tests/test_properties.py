"""Property tests over generated data: SMOTE's neighbour search against a
brute-force oracle and the shape of its output; the ROC hull and hull
dominance over tied scores; grown trees against the per-node split oracle
on data full of repeated rows; `load_csv` against a row-by-row reader."""

import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as hnp

from elicitrec import sampler
from elicitrec.data_model import (
    PROVENANCE_COLUMN,
    ROLE_CONTEXT,
    ROLE_TECHNIQUE,
    Dataset,
    FeatureSchema,
    load_csv,
    minority_label,
)
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


def rowwise_load_csv(path, target_name, role_map=None, positive_label=None, schema=None):
    """Reference for `load_csv`: the same checks and coding, cell by cell
    in Python, with the cell checks made row by row in file order."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, *rows = list(csv.reader(fh))
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")
        if any(cell == "" for cell in row):
            raise ValueError(f"{path}: missing value in row {r + 2}")
    target_idx = header.index(target_name)
    prov_idx = header.index(PROVENANCE_COLUMN) if PROVENANCE_COLUMN in header else None
    col_of = {name: j for j, name in enumerate(header) if j not in (target_idx, prov_idx)}
    target_values = [row[target_idx] for row in rows]
    distinct_targets = sorted(set(target_values))
    if len(distinct_targets) != 2:
        raise ValueError(f"{path}: non-binary target ({len(distinct_targets)} distinct values)")
    positive_label = positive_label or "1"
    negative_label = next(v for v in distinct_targets if v != positive_label)
    y = [1 if v == positive_label else 0 for v in target_values]
    if schema is None:
        schema = []
        for name, j in col_of.items():
            levels = tuple(dict.fromkeys(row[j] for row in rows))
            schema.append(FeatureSchema(name, (role_map or {}).get(name, ROLE_CONTEXT), levels))
    X = np.empty((len(rows), len(schema)), dtype=np.int64)
    for k, feat in enumerate(schema):
        j = col_of[feat.name]
        code_of = {v: c for c, v in enumerate(feat.levels)}
        try:
            X[:, k] = [code_of[row[j]] for row in rows]
        except KeyError as e:
            raise ValueError(f"unknown level {e.args[0]!r} for feature {feat.name!r}") from None
    synthetic = None
    if prov_idx is not None:
        flags = [row[prov_idx] for row in rows]
        bad = sorted(set(flags) - {"0", "1"})
        if bad:
            raise ValueError(f"{path}: bad {PROVENANCE_COLUMN} values {bad}")
        synthetic = np.array([f == "1" for f in flags], dtype=bool)
    return Dataset(tuple(schema), target_name, X, y, synthetic, (negative_label, positive_label))


#: levels that need quoting or could be trimmed by a careless reader
QUOTED_LEVELS = ["a", "b", "x,y", 'say "hi"', "two\nlines", " lead", "tail ", "é"]
#: levels of a quote-free file: some told apart only by a NUL or by a
#: byte past the eighth
PLAIN_LEVELS = ["a", "a\0", "\0", "b", "é", "level over 8", "level over 9", " lead", "tail "]
FAULTS = ("none", "empty cell", "short row", "both", "unknown level")


@st.composite
def csv_tables(draw):
    """(file text, load_csv keyword arguments) for a table of repeated
    levels, with a target column anywhere, maybe a provenance column and a
    byte order mark, and maybe one fault the loader must report. The
    levels either need quoting or are quote-free; lines end in LF or CRLF,
    blank lines may follow the header, and the final line ending may be
    missing."""
    levels = draw(st.sampled_from([QUOTED_LEVELS, PLAIN_LEVELS]))
    n_features = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    names = [f"f{j}" for j in range(n_features)]
    columns = {name: draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)) for name in names}
    labels = draw(st.sampled_from([("0", "1"), ("no", "yes")]))
    columns["target"] = draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
    columns["target"][:2] = labels[:n]  # both classes, unless there is one row
    if draw(st.booleans()):
        columns[PROVENANCE_COLUMN] = draw(st.lists(st.sampled_from(["0", "1"]), min_size=n, max_size=n))
    header = draw(st.permutations(list(columns)))
    rows = [[columns[h][i] for h in header] for i in range(n)]
    kwargs = {"positive_label": None if labels == ("0", "1") else "yes"}
    if draw(st.booleans()):
        kwargs["role_map"] = {name: ROLE_TECHNIQUE for name in names if draw(st.booleans())}
    else:
        # a given schema, in any feature order, may hold levels the file lacks
        order = draw(st.permutations(names))
        kwargs["schema"] = tuple(
            FeatureSchema(name, ROLE_CONTEXT, tuple(dict.fromkeys(columns[name] + ["spare"]))) for name in order
        )
    fault = draw(st.sampled_from(FAULTS))
    row = st.integers(0, n - 1)
    if fault in ("empty cell", "both"):
        rows[draw(row)][draw(st.integers(0, len(header) - 1))] = ""
    if fault in ("short row", "both"):
        r = draw(row)
        rows[r] = rows[r][: draw(st.integers(1, len(header) - 1))]
    if fault == "unknown level":
        rows[draw(row)][header.index(draw(st.sampled_from(names)))] = "never seen"
    lines = []
    for cells in [header, *rows]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(cells)
        lines.append(buf.getvalue())
    for at in draw(st.lists(st.integers(1, len(lines)), max_size=2)):
        lines.insert(at, "")
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    final = ending if draw(st.booleans()) else ""
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + ending.join(lines) + final, kwargs


def load_outcome(load, path, kwargs):
    """What `load` makes of the file: the dataset's contents, or the
    message it raises."""
    try:
        d = load(path, "target", **kwargs)
    except ValueError as e:
        return str(e)
    return d.schema, d.X.tolist(), d.y.tolist(), d.synthetic.tolist(), d.target_levels


@given(csv_tables())
def test_load_csv_matches_the_rowwise_reader(case):
    text, kwargs = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert load_outcome(load_csv, path, kwargs) == load_outcome(rowwise_load_csv, path, kwargs)
