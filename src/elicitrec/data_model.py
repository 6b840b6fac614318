"""Categorical dataset representation: CSV ingestion, ordinal encoding,
preprocessing, splitting, and a seeded synthetic generator.

Feature values are category strings encoded as ordinal codes (the index of
the string in the feature's level list). Codes are assigned by first
appearance when a schema is inferred from a file, or looked up when an
existing schema is supplied (the train/evaluate round trip).
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import os
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

ROLE_CONTEXT = "context"
ROLE_TECHNIQUE = "technique"
ROLES = (ROLE_CONTEXT, ROLE_TECHNIQUE)

#: Reserved CSV column carrying row provenance ("1" = synthetic).
PROVENANCE_COLUMN = "_synthetic"


# seed stream indices under the master seed
STREAM_SPLIT = 0
STREAM_SMOTE = 1
STREAM_FOREST_IMBALANCED = 2
STREAM_FOREST_BALANCED = 3


def derive_seed(master: int, stream: int) -> int:
    """Independent child seed for one named stream of a master seed."""
    if master < 0 or stream < 0:
        raise ValueError("seeds and stream indices must be non-negative")
    return int(np.random.SeedSequence([master, stream]).generate_state(1)[0])


@dataclass(frozen=True)
class FeatureSchema:
    """One categorical feature: its name, role, and ordered level list."""

    name: str
    role: str
    levels: tuple[str, ...]

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r} for feature {self.name!r}")
        if not self.levels:
            raise ValueError(f"feature {self.name!r} has no levels")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError(f"feature {self.name!r} has duplicate levels")

    def decode(self, code: int) -> str:
        return self.levels[code]

    def encode(self, value: str) -> int:
        try:
            return self.levels.index(value)
        except ValueError:
            raise ValueError(
                f"unknown level {value!r} for feature {self.name!r}"
            ) from None


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Immutable ordinal-encoded table with a binary target.

    X holds one code column per schema entry; y is 0/1 with 1 the positive
    (technique used) class. `synthetic` flags rows appended by oversampling
    so they can be traced through the pipeline.
    """

    schema: tuple[FeatureSchema, ...]
    target_name: str
    X: np.ndarray
    y: np.ndarray
    synthetic: np.ndarray = field(default=None)  # type: ignore[assignment]
    target_levels: tuple[str, str] = ("0", "1")  # (negative, positive) labels

    def __post_init__(self):
        X = _frozen_array(self.X, np.int64)
        y = _frozen_array(self.y, np.int64)
        syn = self.synthetic
        syn = _frozen_array(
            np.zeros(len(y), dtype=bool) if syn is None else syn, bool
        )
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "synthetic", syn)
        if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
            raise ValueError("dataset must have at least one row and one feature")
        if X.shape[1] != len(self.schema):
            raise ValueError("schema length does not match feature count")
        if y.shape != (X.shape[0],) or syn.shape != (X.shape[0],):
            raise ValueError("row count mismatch between X, y and provenance")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("target must be 0/1")
        if any(f.name == self.target_name for f in self.schema):
            raise ValueError(f"target {self.target_name!r} also appears as a feature")
        if X.min() < 0:
            raise ValueError("ordinal codes must be non-negative")
        limits = np.array([len(f.levels) for f in self.schema])
        if (X >= limits).any():
            bad = int(np.argmax((X >= limits).any(axis=0)))
            raise ValueError(f"code out of range for feature {self.schema[bad].name!r}")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.schema)

    def decode_row(self, i: int) -> list[str]:
        return [f.decode(int(c)) for f, c in zip(self.schema, self.X[i])]


def load_csv(
    path: str | Path,
    target_name: str,
    role_map: Mapping[str, str] | None = None,
    positive_label: str | None = None,
    schema: Sequence[FeatureSchema] | None = None,
) -> Dataset:
    """Read a header-first CSV into a Dataset.

    Levels are coded by first appearance unless `schema` is given, in which
    case values are looked up in the stored levels (unknown values are an
    error). `role_map` may name feature columns only. A `_synthetic`
    column, if present, is read as row provenance rather than a feature.
    Missing (empty) cells are rejected.

    A file with no `"` and no CR byte is split into cells with numpy
    (`_byte_table`); any other file goes through `csv.reader`
    (`_csv_table`). Both give the same table, so everything after the
    split is shared. Bytes that are not UTF-8, and a cell longer than
    `csv.field_size_limit()` characters, are errors on both.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        before = data[: e.start]
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise ValueError(f"{path}: line {line} is not valid UTF-8") from None
    if not data:
        raise ValueError(f"{path}: empty file")
    if b'"' in data or b"\r" in data:
        header, widths, empty, read_columns = _csv_table(path, text)
    else:
        header, widths, empty, read_columns = _byte_table(path, data)
    n_rows = len(widths)
    if not n_rows:
        raise ValueError(f"{path}: no data rows")
    if target_name not in header:
        raise ValueError(f"{path}: target column {target_name!r} not found")
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names")
    bad = np.flatnonzero((widths != len(header)) | empty)
    if len(bad):
        r = int(bad[0])
        if widths[r] != len(header):
            raise ValueError(f"{path}: row {r + 2} has {widths[r]} cells, expected {len(header)}")
        raise ValueError(f"{path}: missing value in row {r + 2}")
    columns = read_columns()

    target_idx = header.index(target_name)
    prov_idx = header.index(PROVENANCE_COLUMN) if PROVENANCE_COLUMN in header else None
    col_of = {name: j for j, name in enumerate(header) if j != target_idx and j != prov_idx}
    if not col_of:
        raise ValueError(f"{path}: no feature columns")

    target_values, target_codes = columns[target_idx]
    distinct_targets = sorted(target_values)
    if len(distinct_targets) != 2:
        raise ValueError(
            f"{path}: non-binary target ({len(distinct_targets)} distinct values)"
        )
    if positive_label is None:
        if distinct_targets == ["0", "1"]:
            positive_label = "1"
        else:
            raise ValueError(
                f"{path}: target values {distinct_targets} need an explicit positive label"
            )
    if positive_label not in distinct_targets:
        raise ValueError(
            f"{path}: positive label {positive_label!r} not among target values {distinct_targets}"
        )
    negative_label = next(v for v in distinct_targets if v != positive_label)
    y = np.array([v == positive_label for v in target_values], dtype=np.int64)[target_codes]

    if schema is None:
        role_map = role_map or {}
        stray = sorted(set(role_map) - set(col_of))
        if stray:
            raise ValueError(f"{path}: roles given for columns that are not features: {stray}")
        schema = [
            FeatureSchema(name, role_map.get(name, ROLE_CONTEXT), tuple(columns[j][0]))
            for name, j in col_of.items()
        ]
    missing = [f.name for f in schema if f.name not in col_of]
    if missing:
        raise ValueError(f"{path}: missing feature columns {missing}")
    X = np.empty((n_rows, len(schema)), dtype=np.int64)
    for k, feat in enumerate(schema):
        levels, codes = columns[col_of[feat.name]]
        code_of = {v: c for c, v in enumerate(feat.levels)}
        try:
            # the file's levels come in first-appearance order, so the
            # first unknown one is the first in the file
            X[:, k] = np.array([code_of[v] for v in levels], dtype=np.int64)[codes]
        except KeyError as e:
            raise ValueError(f"unknown level {e.args[0]!r} for feature {feat.name!r}") from None

    if prov_idx is not None:
        flags, codes = columns[prov_idx]
        bad_flags = sorted(set(flags) - {"0", "1"})
        if bad_flags:
            raise ValueError(f"{path}: bad {PROVENANCE_COLUMN} values {bad_flags}")
        synthetic = np.array([f == "1" for f in flags], dtype=bool)[codes]
    else:
        synthetic = np.zeros(n_rows, dtype=bool)

    return Dataset(
        schema=tuple(schema),
        target_name=target_name,
        X=X,
        y=y,
        synthetic=synthetic,
        target_levels=(negative_label, positive_label),
    )


def _csv_table(path: Path, text: str):
    """The table as `csv.reader` splits non-empty `text`, for any file: the
    header, each data row's cell count, whether each data row has an
    empty cell, and a function that gives every column's levels, in
    first-appearance order, and codes. `load_csv` calls that function
    only once every data row has the header's width and no empty cell.
    A cell over `csv.field_size_limit()` is an error."""
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            rows.append(row)
    except csv.Error as e:
        raise ValueError(f"{path}: row {len(rows) + 1}: {e}") from None
    header, rows = rows[0], rows[1:]

    def columns():
        out = []
        for values in zip(*rows):
            levels = list(dict.fromkeys(values))
            code_of = dict(zip(levels, range(len(levels))))
            out.append((levels, np.fromiter(map(code_of.__getitem__, values), np.int64, len(rows))))
        return out

    widths = np.fromiter(map(len, rows), np.int64, len(rows))
    empty = np.fromiter(map(list.__contains__, rows, itertools.repeat("")), bool, len(rows))
    return header, widths, empty, columns


def _byte_table(path: Path, data: bytes):
    """`_csv_table` for non-empty UTF-8 `data` with no `"` and no CR byte,
    split at the `,` and `\n` bytes with numpy.

    The cells of each byte length are told apart by one `np.unique` over
    their (column, bytes) keys: an int64 where it fits, else the key's
    bytes. So no Python object is made per cell, only the distinct levels
    are decoded, and no array is wider than the cells it holds."""
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    # the index of each line's last cell; a blank line has one cell of
    # length 0 here, where csv.reader sees a row of none
    last = np.flatnonzero(buf[ends] == ord("\n"))
    widths = np.diff(last, prepend=-1)
    widths[(widths == 1) & (lengths[last] == 0)] = 0
    limit = csv.field_size_limit()
    for i in np.flatnonzero(lengths > limit).tolist():  # no more characters than bytes
        if len(data[starts[i]:ends[i]].decode()) > limit:
            row = int(np.searchsorted(last, i)) + 1
            raise ValueError(f"{path}: row {row}: field larger than field limit ({limit})")
    empty = np.zeros(len(last), dtype=bool)
    empty[np.searchsorted(last, np.flatnonzero(lengths == 0))] = True
    empty[widths == 0] = False
    header = [data[s:e].decode() for s, e in zip(starts[: widths[0]].tolist(), ends[: widths[0]].tolist())]

    def columns():
        n_cols = len(header)
        body = int(last[0]) + 1  # the first cell after the header
        cell_starts, cell_lengths = starts[body:], lengths[body:]
        level = np.empty(len(cell_starts), dtype=np.int64)  # a level id per cell
        firsts = []  # per cell length, the first cell of each of its level ids
        by_length = np.argsort(cell_lengths)
        counts = np.bincount(cell_lengths)
        lo = n_ids = 0
        for length in np.flatnonzero(counts).tolist():
            cells = by_length[lo : lo + counts[length]]
            lo += counts[length]
            col = cells % n_cols
            raw = buf[cell_starts[cells, None] + np.arange(length)]
            if n_cols << 8 * length <= 1 << 63:  # (column, bytes) fits one int64
                key = np.zeros((len(cells), 8), dtype=np.uint8)
                key[:, :length] = raw
                key = key.view("<i8")[:, 0] | col << 8 * length
            else:  # compared as bytes, which sorts several times slower
                key = np.concatenate((col[:, None].view(np.uint8), raw), axis=1)
                key = key.view(np.dtype((np.void, 8 + length)))[:, 0]
            distinct, inverse = np.unique(key, return_inverse=True)
            first = np.full(len(distinct), len(cell_starts))
            np.minimum.at(first, inverse, cells)
            firsts.append(first)
            level[cells] = n_ids + inverse
            n_ids += len(distinct)
        firsts = np.concatenate(firsts)
        col = firsts % n_cols
        order = np.lexsort((firsts, col))  # by column, then first appearance
        n_levels = np.bincount(col, minlength=n_cols)
        col_start = np.cumsum(n_levels) - n_levels
        code = np.empty(len(firsts), dtype=np.int64)
        code[order] = np.arange(len(firsts)) - np.repeat(col_start, n_levels)
        codes = code[level].reshape(-1, n_cols)
        out = []
        for j in range(n_cols):
            cells = firsts[order[col_start[j] : col_start[j] + n_levels[j]]]
            levels = [data[s : s + n].decode() for s, n in zip(cell_starts[cells].tolist(), cell_lengths[cells].tolist())]
            out.append((levels, codes[:, j]))
        return out

    return header, widths[1:], empty[1:], columns


def _csv_fields(values: Sequence[str]) -> list[str]:
    """Each value as `csv.writer` renders it inside a row of several fields
    (a row's lone empty field is quoted, an inner one is not)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    out = []
    for v in values:
        buf.seek(0)
        buf.truncate()
        writer.writerow([v, ""])
        out.append(buf.getvalue()[:-2])  # drop the "," and "\n" of the empty field
    return out


def csv_text(d: Dataset, include_provenance: bool = False) -> str:
    """The dataset as CSV text: features in schema order, target last,
    then the provenance column when requested. Each level is rendered
    once and indexed by the codes, column by column."""
    header = list(d.feature_names) + [d.target_name]
    columns = [(f.levels, d.X[:, j]) for j, f in enumerate(d.schema)]
    columns.append((d.target_levels, d.y))
    if include_provenance:
        header.append(PROVENANCE_COLUMN)
        columns.append((("0", "1"), d.synthetic.astype(np.int64)))
    cells = [np.array(_csv_fields(levels), dtype=object)[codes].tolist() for levels, codes in columns]
    lines = [",".join(_csv_fields(header))]
    lines.extend(",".join(row) for row in zip(*cells))
    return "\n".join(lines) + "\n"


def write_atomic(path: Path, text: str) -> None:
    """Write `text` to `path` through a temporary file and a rename, so a
    reader never sees a partial file; the mode is what a plain open gives."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            # mkstemp creates the file 0600; give it the mode a plain open
            # would (reading the umask means setting it)
            umask = os.umask(0o022)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(d: Dataset, path: str | Path, include_provenance: bool = False) -> None:
    """Write `csv_text(d, include_provenance)` to `path` atomically."""
    write_atomic(Path(path), csv_text(d, include_provenance))


def drop_constant_features(d: Dataset) -> Dataset:
    """Remove every feature with a single distinct observed value."""
    keep = np.flatnonzero(d.X.min(axis=0) < d.X.max(axis=0)).tolist()
    if not keep:
        raise ValueError("no informative features: every column is constant")
    if len(keep) == d.n_features:
        return d
    return replace(
        d,
        schema=tuple(d.schema[j] for j in keep),
        X=d.X[:, keep],
    )


def select_features(d: Dataset, names: Iterable[str]) -> Dataset:
    """Restrict the dataset to the named features (given order kept)."""
    index = {f.name: j for j, f in enumerate(d.schema)}
    cols = []
    for n in names:
        if n not in index:
            raise ValueError(f"unknown feature {n!r}")
        cols.append(index[n])
    if not cols:
        raise ValueError("empty feature selection")
    return replace(
        d,
        schema=tuple(d.schema[j] for j in cols),
        X=d.X[:, cols],
    )


def _subset(d: Dataset, rows: np.ndarray) -> Dataset:
    return replace(d, X=d.X[rows], y=d.y[rows], synthetic=d.synthetic[rows])


def split_train_test(d: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Uniform random partition without replacement; |test| = round(n * fraction)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = d.n_rows
    n_test = round(n * test_fraction)
    if n_test < 1 or n_test >= n:
        raise ValueError(
            f"degenerate split: {n} rows at fraction {test_fraction} leaves "
            f"{n_test} test rows"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    test_rows = np.sort(perm[:n_test])
    train_rows = np.sort(perm[n_test:])
    return _subset(d, train_rows), _subset(d, test_rows)


def minority_label(d: Dataset) -> int:
    """Label of the less frequent class (0 wins a tie: the positive class
    is the majority in the motivating use case)."""
    n_pos = int(d.y.sum())
    n_neg = d.n_rows - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("single-class dataset")
    return 0 if n_neg <= n_pos else 1


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a generated dataset: class counts, feature count, how many
    features carry class signal, and the RNG seed."""

    n_majority: int
    n_minority: int
    p: int
    n_informative: int
    seed: int = 0

    def __post_init__(self):
        if self.n_majority < 1 or self.n_minority < 1:
            raise ValueError("class counts must be positive")
        if self.n_minority > self.n_majority:
            raise ValueError("n_minority must not exceed n_majority")
        if not 0 <= self.n_informative <= self.p:
            raise ValueError("n_informative must be between 0 and p")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset: majority class is positive (label 1).

    Every feature has four levels. The first `n_informative` features
    draw their level from a class-conditional distribution that puts half
    its mass on an anchor level, which differs per class, and spreads the
    rest uniformly; remaining features are uniform noise. First half of
    the features get the context role, the rest the technique role.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_majority + spec.n_minority
    L, skew = 4, 0.5
    y = np.concatenate([np.ones(spec.n_majority, np.int64), np.zeros(spec.n_minority, np.int64)])

    X = np.empty((n, spec.p), dtype=np.int64)
    base = (1.0 - skew) / (L - 1)
    for j in range(spec.p):
        if j < spec.n_informative:
            anchor1 = j % L
            anchor0 = (j + 1) % L
            probs1 = np.full(L, base)
            probs1[anchor1] = skew
            probs0 = np.full(L, base)
            probs0[anchor0] = skew
            col = np.where(
                y == 1,
                rng.choice(L, size=n, p=probs1),
                rng.choice(L, size=n, p=probs0),
            )
        else:
            col = rng.integers(0, L, size=n)
        X[:, j] = col

    n_context = (spec.p + 1) // 2
    schema = tuple(
        FeatureSchema(
            name=f"ctx{j:02d}" if j < n_context else f"tech{j - n_context:02d}",
            role=ROLE_CONTEXT if j < n_context else ROLE_TECHNIQUE,
            levels=tuple(f"v{k}" for k in range(L)),
        )
        for j in range(spec.p)
    )
    return Dataset(schema=schema, target_name="target", X=X, y=y)
