"""Categorical dataset representation: CSV ingestion, ordinal encoding,
preprocessing, splitting, and a seeded synthetic generator.

Feature values are category strings encoded as ordinal codes (the index of
the string in the feature's level list). Codes are assigned by first
appearance when a schema is inferred from a file, or looked up when an
existing schema is supplied (the train/evaluate round trip).
"""

from __future__ import annotations

import csv
import io
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
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if target_name not in header:
        raise ValueError(f"{path}: target column {target_name!r} not found")
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names")
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")
        if "" in row:
            raise ValueError(f"{path}: missing value in row {r + 2}")
    columns = list(zip(*rows))

    target_idx = header.index(target_name)
    prov_idx = header.index(PROVENANCE_COLUMN) if PROVENANCE_COLUMN in header else None
    col_of = {name: j for j, name in enumerate(header) if j != target_idx and j != prov_idx}
    if not col_of:
        raise ValueError(f"{path}: no feature columns")

    target_values = columns[target_idx]
    distinct_targets = sorted(set(target_values))
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
    y = np.fromiter(map(positive_label.__eq__, target_values), np.int64, len(rows))

    if schema is None:
        role_map = role_map or {}
        stray = sorted(set(role_map) - set(col_of))
        if stray:
            raise ValueError(f"{path}: roles given for columns that are not features: {stray}")
        schema = []
        for name, j in col_of.items():
            levels = tuple(dict.fromkeys(columns[j]))  # first-appearance order
            schema.append(FeatureSchema(name, role_map.get(name, ROLE_CONTEXT), levels))
    missing = [f.name for f in schema if f.name not in col_of]
    if missing:
        raise ValueError(f"{path}: missing feature columns {missing}")
    X = np.empty((len(rows), len(schema)), dtype=np.int64)
    for k, feat in enumerate(schema):
        code_of = {v: c for c, v in enumerate(feat.levels)}
        try:
            X[:, k] = np.fromiter(map(code_of.__getitem__, columns[col_of[feat.name]]), np.int64, len(rows))
        except KeyError as e:
            raise ValueError(f"unknown level {e.args[0]!r} for feature {feat.name!r}") from None

    if prov_idx is not None:
        flags = columns[prov_idx]
        bad = sorted(set(flags) - {"0", "1"})
        if bad:
            raise ValueError(f"{path}: bad {PROVENANCE_COLUMN} values {bad}")
        synthetic = np.fromiter(map("1".__eq__, flags), bool, len(rows))
    else:
        synthetic = np.zeros(len(rows), dtype=bool)

    return Dataset(
        schema=tuple(schema),
        target_name=target_name,
        X=X,
        y=y,
        synthetic=synthetic,
        target_levels=(negative_label, positive_label),
    )


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
    keep = [j for j in range(d.n_features) if len(np.unique(d.X[:, j])) > 1]
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
