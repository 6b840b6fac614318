"""Categorical dataset representation: CSV ingestion, ordinal encoding,
preprocessing, splitting, a seeded synthetic generator, and the package's
random streams.

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
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .config import ROLE_CONTEXT, ROLE_TECHNIQUE, FeatureSchema, Record, distinct_schema
from .files import write_atomic

#: Reserved CSV column carrying row provenance ("1" = synthetic).
PROVENANCE_COLUMN = "_synthetic"


# seed stream indices under the master seed
STREAM_SPLIT = 0
STREAM_SMOTE = 1
STREAM_FOREST_IMBALANCED = 2
STREAM_FOREST_BALANCED = 3

_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # splitmix64's stream increment
_LOW32 = np.uint64(0xFFFFFFFF)


def _stream(keys: np.ndarray, first: int, count: int) -> np.ndarray:
    """Outputs first .. first + count - 1 of the splitmix64 stream that each
    uint64 key seeds, one row per key: output i of key k is the finalizer
    of k + i * gamma (Steele, Lea & Flood, OOPSLA 2014), in wrapping uint64
    arithmetic. Every draw of the package but `generate_synthetic`'s is a
    function of such (key, counter) pairs (Salmon et al., SC 2011)."""
    z = keys[:, None] + np.arange(first, first + count, dtype=np.uint64) * _GAMMA
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _key(*values: int) -> np.ndarray:
    """The stream key of a sequence of non-negative integers, as the
    one-key array `_stream` takes: starting from 0, each value's 64-bit
    words, low word first and at least one, are absorbed in turn, word w
    making the key output 1 of the stream keyed key ^ w."""
    key = np.zeros(1, np.uint64)
    for value in values:
        if value < 0:
            raise ValueError("seeds and stream indices must be non-negative")
        while True:
            key = _stream(key ^ np.uint64(value & 0xFFFFFFFFFFFFFFFF), 1, 1)[0]
            value >>= 64
            if not value:
                break
    return key


def _below(z: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's (ACM TOMACS 2019) map of uint64 outputs `z` into
    [0, bound), 1 <= bound < 2**32: the high word of the 128-bit product
    z * bound, and whether its low word is at least 2**64 mod bound, so
    that every value keeps exactly floor(2**64 / bound) accepted outputs.
    With bound below 2**32, each 32-bit half of z times bound fits a word."""
    b = np.uint64(bound)
    high = z >> np.uint64(32)
    high *= b
    low = z & _LOW32
    low *= b
    low >>= np.uint64(32)
    high += low
    high >>= np.uint64(32)
    return high.view(np.int64), z * b >= np.uint64((1 << 64) % bound)


def _bounded(keys: np.ndarray, first: int, count: int, bound: int) -> np.ndarray:
    """Per key, `count` draws in [0, bound): Lemire's map of the outputs of
    its stream from counter `first` on, with each rejected output skipped,
    so a rejection moves the draws after it one counter later. A
    rejection is rare (under bound / 2**64 per output), so the outputs
    past `first + count` are made only when one happens."""
    draws, ok = _below(_stream(keys, first, count), bound)
    while (short := count - int(ok.sum(axis=1).min(initial=count))) > 0:  # the most any key lacks
        more, more_ok = _below(_stream(keys, first + draws.shape[1], short), bound)
        draws, ok = np.hstack([draws, more]), np.hstack([ok, more_ok])
    if draws.shape[1] > count:  # each key's first `count` accepted draws
        ok &= ok.cumsum(axis=1) <= count
        return draws[ok].reshape(len(keys), count)
    return draws


def _unit(z: np.ndarray) -> np.ndarray:
    """Uniform floats in [0, 1): the top 53 bits of uint64 outputs, over 2**53."""
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def derive_seed(master: int, stream: int) -> int:
    """Independent child seed for one named stream of a master seed: the
    stream key of (master, stream), shifted right one bit, so that int64
    holds it. A master of 2**64 or more is absorbed word by word."""
    return int(_key(master, stream)[0]) >> 1


def _frozen_array(values, dtype) -> np.ndarray:
    """`values` as a read-only C-contiguous array of `dtype`. An array that
    already is one and owns its memory is kept as is: the producers in this
    package hand over fresh arrays that way (`_handed`), so a Dataset costs
    them no copy. Anything else is copied, so that writes to a caller's
    array never reach the Dataset."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == dtype
        and values.flags.owndata
        and values.flags.c_contiguous
        and not values.flags.writeable
    ):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _handed(arr: np.ndarray) -> np.ndarray:
    """`arr`, made read-only, for a Dataset to keep without a copy; only for
    a fresh array that nothing else writes."""
    arr.setflags(write=False)
    return arr


class Dataset(Record):
    """Immutable ordinal-encoded table with a binary target.

    X holds one code column per schema entry; y is 0/1 with 1 the positive
    (technique used) class. `synthetic` flags rows appended by oversampling
    so they can be traced through the pipeline (None: no row is).
    `target_levels` are the (negative, positive) labels.
    """

    __slots__ = ("schema", "target_name", "X", "y", "synthetic", "target_levels")

    def __init__(
        self,
        schema: Iterable[FeatureSchema],
        target_name: str,
        X: np.ndarray,
        y: np.ndarray,
        synthetic: Optional[np.ndarray] = None,
        target_levels: tuple[str, str] = ("0", "1"),
    ):
        X = _frozen_array(X, np.int64)
        y = _frozen_array(y, np.int64)
        syn = _frozen_array(np.zeros(len(y), dtype=bool) if synthetic is None else synthetic, bool)
        schema = distinct_schema(schema)
        if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
            raise ValueError("dataset must have at least one row and one feature")
        if X.shape[1] != len(schema):
            raise ValueError("schema length does not match feature count")
        if y.shape != (X.shape[0],) or syn.shape != (X.shape[0],):
            raise ValueError("row count mismatch between X, y and provenance")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("target must be 0/1")
        names = tuple(f.name for f in schema)
        if target_name in names:
            raise ValueError(f"target {target_name!r} also appears as a feature")
        if PROVENANCE_COLUMN in (target_name, *names):
            raise ValueError(f"{PROVENANCE_COLUMN!r} is the provenance column, neither a target nor a feature")
        if X.min() < 0:
            raise ValueError("ordinal codes must be non-negative")
        limits = np.array([len(f.levels) for f in schema])
        if (X >= limits).any():
            bad = int(np.argmax((X >= limits).any(axis=0)))
            raise ValueError(f"code out of range for feature {schema[bad].name!r}")
        self._set(schema=schema, target_name=target_name, X=X, y=y, synthetic=syn, target_levels=target_levels)

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


#: the byte reader codes the levels of consecutive columns together while
#: their cells number at most this many (one column at the least): its
#: temporaries stay under 1 MB whatever the file's size, and a survey of
#: a few hundred rows is one group
_GROUP_CELLS = 10_000
#: bytes the byte reader scans for cell ends in one step
_SCAN_BYTES = 1 << 16
#: a file of at least this many bytes keeps its cell ends as int64, a
#: smaller one as int32
_INT64_ENDS_BYTES = 1 << 31
#: rows that `write_csv` renders and writes in one piece
_WRITE_ROWS = 1024


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
    column, if present, is read as row provenance rather than a feature,
    and is never the target.
    Missing (empty) cells are rejected.

    A file with no `"` and no CR byte is split into cells with numpy
    (`_byte_table`); any other file goes through `csv.reader`
    (`_csv_table`). Both give the same table, so everything after the
    split is shared. Bytes that are not UTF-8, and a cell longer than
    `csv.field_size_limit()` characters, are errors on both.
    """
    path = Path(path)
    if target_name == PROVENANCE_COLUMN:
        raise ValueError(f"{path}: {PROVENANCE_COLUMN!r} is the provenance column, not a target")
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    if not data.isascii():  # an ASCII file is UTF-8; the byte path decodes only its levels
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            before = data[: e.start]
            line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
            raise ValueError(f"{path}: line {line} is not valid UTF-8") from None
    if not data:
        raise ValueError(f"{path}: empty file")
    if b'"' in data or b"\r" in data:
        header, widths, empty, read_columns = _csv_table(path, data.decode("utf-8"))
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

    target_idx = header.index(target_name)
    prov_idx = header.index(PROVENANCE_COLUMN) if PROVENANCE_COLUMN in header else None
    col_of = {name: j for j, name in enumerate(header) if j != target_idx and j != prov_idx}
    if not col_of:
        raise ValueError(f"{path}: no feature columns")

    # one pass over the columns in file order fills X; its errors are
    # raised after the target's and the header's
    names = list(col_of) if schema is None else [f.name for f in schema]
    # the X column of each file column; names are distinct (a schema with
    # a name twice leaves a column unfilled, which `Dataset` refuses)
    k_of = {col_of[name]: k for k, name in enumerate(names) if name in col_of}
    X = np.empty((n_rows, len(names)), dtype=np.int64)
    levels_of, unknown = {}, {}  # by X column: the file's levels, its first unknown level and its row
    other = {}  # the target and provenance columns
    js = sorted([*k_of, target_idx] + ([] if prov_idx is None else [prov_idx]))
    for j, (levels, codes) in zip(js, read_columns(js)):
        k = k_of.get(j)
        if k is None:
            other[j] = levels, codes
        elif schema is None:
            levels_of[k] = levels
            X[:, k] = codes
        else:
            code_of = {v: c for c, v in enumerate(schema[k].levels)}
            known = [code_of.get(v, -1) for v in levels]
            if -1 in known:
                # the file's levels come in first-appearance order, so the
                # first unknown one is the first in the file
                c = known.index(-1)
                unknown[k] = levels[c], int(np.argmax(codes == c)) + 2
            else:
                X[:, k] = np.array(known, dtype=np.int64)[codes]

    target_values, target_codes = other[target_idx]
    distinct_targets = sorted(target_values)
    if len(distinct_targets) != 2:
        k = len(distinct_targets)
        shown = ", ".join(map(repr, distinct_targets[:5])) + (", ..." if k > 5 else "")
        count = "one value" if k == 1 else f"{k} values"
        raise ValueError(f"{path}: target {target_name!r} holds {count} ({shown}); a binary target needs two")
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
            FeatureSchema(name, role_map.get(name, ROLE_CONTEXT), tuple(levels_of[k]))
            for k, name in enumerate(names)
        ]
    missing = [name for name in names if name not in col_of]
    if missing:
        raise ValueError(f"{path}: missing feature columns {missing}")
    if unknown:
        k = min(unknown)
        level, row = unknown[k]
        raise ValueError(f"{path}: row {row}: unknown level {level!r} for feature {names[k]!r}")

    synthetic = None
    if prov_idx is not None:
        flags, codes = other[prov_idx]
        bad_flags = sorted(set(flags) - {"0", "1"})
        if bad_flags:
            raise ValueError(f"{path}: bad {PROVENANCE_COLUMN} values {bad_flags}")
        synthetic = _handed(np.array([f == "1" for f in flags], dtype=bool)[codes])

    return Dataset(
        schema=tuple(schema),
        target_name=target_name,
        X=_handed(X),
        y=_handed(y),
        synthetic=synthetic,
        target_levels=(negative_label, positive_label),
    )


def _csv_table(path: Path, text: str):
    """The table as `csv.reader` splits non-empty `text`, for any file: the
    header, each data row's cell count, whether each data row has an
    empty cell, and a function that gives, for each of the column indices
    it is given in turn, the column's levels in first-appearance order and
    its codes. `load_csv` calls that function only once every data row has
    the header's width and no empty cell. A cell over
    `csv.field_size_limit()` is an error."""
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            rows.append(row)
    except csv.Error as e:
        raise ValueError(f"{path}: row {len(rows) + 1}: {e}") from None
    header, rows = rows[0], rows[1:]

    def columns(js):
        for j in js:
            values = [row[j] for row in rows]
            levels = list(dict.fromkeys(values))
            code_of = dict(zip(levels, range(len(levels))))
            yield levels, np.fromiter(map(code_of.__getitem__, values), np.int64, len(rows))

    widths = np.fromiter(map(len, rows), np.int64, len(rows))
    empty = np.fromiter(map(list.__contains__, rows, itertools.repeat("")), bool, len(rows))
    return header, widths, empty, columns


def _byte_table(path: Path, data: bytes):
    """`_csv_table` for non-empty UTF-8 `data` with no `"` and no CR byte,
    split at the `,` and `\n` bytes with numpy.

    The whole file keeps one array, the offset of each cell's end (int32
    below `_INT64_ENDS_BYTES`); a cell starts one byte after the cell
    before it ends. Columns are coded by `_group_levels` in groups of at
    most `_GROUP_CELLS` cells, so no other array spans the file."""
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, np.uint8)
    limit = csv.field_size_limit()
    ends = np.empty(data.count(b",") + data.count(b"\n"), np.int32 if len(data) < _INT64_ENDS_BYTES else np.int64)
    last, zero, long = [], [], []  # per step, its cells that end a line, are empty, or pass the field limit
    n = 0  # cells before this step
    for lo in range(0, len(buf), _SCAN_BYTES):
        part = buf[lo : lo + _SCAN_BYTES]
        at = np.flatnonzero((part == ord(",")) | (part == ord("\n")))
        at += lo
        lengths = np.diff(at, prepend=ends[n - 1] if n else -1) - 1
        ends[n : n + len(at)] = at
        for out, cells in ((last, buf[at] == ord("\n")), (zero, lengths == 0), (long, lengths > limit)):
            out.append(np.flatnonzero(cells) + n)
        n += len(at)
    last, zero = np.concatenate(last), np.concatenate(zero)

    # a blank line has one cell of length 0 here, where csv.reader sees a
    # row of none
    widths = np.diff(last, prepend=-1)
    widths[np.diff(ends[last], prepend=-1) == 1] = 0
    for i in np.concatenate(long).tolist():  # no more characters than bytes
        if len(data[ends[i - 1] + 1 if i else 0 : ends[i]].decode()) > limit:
            row = int(np.searchsorted(last, i)) + 1
            raise ValueError(f"{path}: row {row}: field larger than field limit ({limit})")
    empty = np.zeros(len(last), dtype=bool)
    empty[np.searchsorted(last, zero)] = True
    empty[widths == 0] = False
    bounds = [-1, *ends[: widths[0]].tolist()]
    header = [data[a + 1 : b].decode() for a, b in zip(bounds, bounds[1:])]

    body = int(last[0]) + 1  # the first cell after the header

    def columns(js):
        cell_ends = ends[body:].reshape(-1, len(header))
        cell_starts = ends[body - 1 : -1].reshape(-1, len(header))  # one byte before each cell
        step = max(1, _GROUP_CELLS // len(cell_ends))
        for a in range(0, len(js), step):
            group = js[a : a + step]
            starts = cell_starts[:, group] + 1
            yield from _group_levels(data, buf, starts, cell_ends[:, group] - starts)

    return header, widths[1:], empty[1:], columns


def _group_levels(data: bytes, buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """The levels, in first-appearance order, and codes of each column of
    a block of cells, given as the (rows x columns) offsets in `data` (and
    its bytes `buf`) where each cell starts, and their byte lengths.

    The cells of each byte length are told apart by one sort of their
    (column, bytes) keys: an int64 where it fits, else the key's bytes. So
    no Python object is made per cell, only the distinct levels are
    decoded, and no array is wider than the cells it holds."""
    n_rows, n_cols = starts.shape
    starts, lengths = starts.ravel(), lengths.ravel()
    level = np.empty(len(starts), dtype=np.int32)  # a level id per cell
    firsts = []  # per cell length, the first cell of each of its level ids
    by_length = np.argsort(lengths, kind="stable")  # a run of equal lengths sorts in one pass
    counts = np.bincount(lengths)
    lo = n_ids = 0
    for length in np.flatnonzero(counts).tolist():
        cells = by_length[lo : lo + counts[length]]
        lo += counts[length]
        raw = buf[starts[cells, None] + np.arange(length, dtype=starts.dtype)]
        if n_cols << 8 * length <= 1 << 63:  # (column, bytes) fits one int64
            key = np.zeros((len(cells), 8), dtype=np.uint8)
            key[:, :length] = raw
            key = key.view("<i8")[:, 0]
            key |= cells % n_cols << 8 * length
        else:  # compared as bytes, which sorts several times slower
            key = np.concatenate(((cells % n_cols)[:, None].view(np.uint8), raw), axis=1)
            key = key.view(np.dtype((np.void, 8 + length)))[:, 0]
        by_key = np.argsort(key)
        key, cells = key[by_key], cells[by_key]
        new = np.empty(len(key), dtype=bool)  # where each level's run of cells starts
        new[0] = True
        new[1:] = key[1:] != key[:-1]
        ids = np.cumsum(new, dtype=np.int32)
        ids += n_ids - 1
        level[cells] = ids
        firsts.append(np.minimum.reduceat(cells, np.flatnonzero(new)))
        n_ids = int(ids[-1]) + 1
    firsts = np.concatenate(firsts)
    col = firsts % n_cols
    order = np.lexsort((firsts, col))  # by column, then first appearance
    n_levels = np.bincount(col, minlength=n_cols)
    col_start = np.cumsum(n_levels) - n_levels
    code = np.empty(len(firsts), dtype=np.int32)
    code[order] = np.arange(len(firsts)) - np.repeat(col_start, n_levels)
    codes = code[level].reshape(n_rows, n_cols)
    cells = firsts[order]  # each column's levels in turn, as their first cells
    levels = [data[s : s + n].decode() for s, n in zip(starts[cells].tolist(), lengths[cells].tolist())]
    for j, (a, b) in enumerate(zip(col_start.tolist(), (col_start + n_levels).tolist())):
        yield levels[a:b], codes[:, j]


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


def _csv_pieces(d: Dataset, include_provenance: bool):
    """The dataset as CSV text, `_WRITE_ROWS` rows a piece: features in
    schema order, target last, then the provenance column when requested.
    Each level is rendered once and indexed by the codes, column by
    column."""
    header = list(d.feature_names) + [d.target_name]
    columns = [(f.levels, d.X[:, j]) for j, f in enumerate(d.schema)]
    columns.append((d.target_levels, d.y))
    if include_provenance:
        header.append(PROVENANCE_COLUMN)
        columns.append((("0", "1"), d.synthetic.view(np.uint8)))
    fields = [(np.array(_csv_fields(levels), dtype=object), codes) for levels, codes in columns]
    yield ",".join(_csv_fields(header)) + "\n"
    for lo in range(0, d.n_rows, _WRITE_ROWS):
        cells = [rendered[codes[lo : lo + _WRITE_ROWS]].tolist() for rendered, codes in fields]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def write_csv(d: Dataset, path: str | Path, include_provenance: bool = False) -> None:
    """Write the dataset as CSV to `path` atomically: features in schema
    order, target last, then the provenance column when requested."""
    write_atomic(Path(path), _csv_pieces(d, include_provenance))


def drop_constant_features(d: Dataset) -> Dataset:
    """Remove every feature with a single distinct observed value."""
    keep = np.flatnonzero(d.X.min(axis=0) < d.X.max(axis=0)).tolist()
    if not keep:
        raise ValueError("no informative features: every column is constant")
    if len(keep) == d.n_features:
        return d
    return select_features(d, [d.schema[j].name for j in keep])


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
    return d.replace(schema=tuple(d.schema[j] for j in cols), X=_handed(d.X.take(cols, axis=1)))


def _subset(d: Dataset, rows: np.ndarray) -> Dataset:
    return d.replace(X=_handed(d.X[rows]), y=_handed(d.y[rows]), synthetic=_handed(d.synthetic[rows]))


class TooFewRowsError(ValueError):
    """A split of fewer rows than its test_fraction needs; a caller that
    knows the rows' file names it."""


def _rows_needed(test_fraction: float) -> int:
    """The fewest rows n whose split at `test_fraction` leaves each part a
    row, 1 <= round(n * test_fraction) <= n - 1; every larger n does too,
    as round(n * test_fraction) grows by at most 1 per row."""
    n = max(2, int(0.5 / min(test_fraction, 1.0 - test_fraction)))
    while not 1 <= round(n * test_fraction) <= n - 1:
        n += 1
    return n


def split_train_test(d: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Uniform random partition without replacement; |test| = round(n * fraction).

    Rows are ordered by outputs 0 .. n - 1 of the stream keyed by `seed`
    (one key's outputs are distinct), and the first round(n * fraction)
    form the test part. A split that would leave a part empty raises
    `TooFewRowsError`."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = d.n_rows
    n_test = round(n * test_fraction)
    if n_test < 1 or n_test >= n:
        raise TooFewRowsError(
            f"the split at test_fraction {test_fraction} leaves a part empty: "
            f"it needs at least {_rows_needed(test_fraction)} rows and gets {n}"
        )
    perm = _stream(_key(seed), 0, n)[0].argsort()
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


class SyntheticSpec(Record):
    """Shape of a generated dataset: class counts, feature count, how many
    features carry class signal, and the RNG seed."""

    __slots__ = ("n_majority", "n_minority", "p", "n_informative", "seed")

    def __init__(self, n_majority: int, n_minority: int, p: int, n_informative: int, seed: int = 0):
        if n_majority < 1 or n_minority < 1:
            raise ValueError("class counts must be positive")
        if n_minority > n_majority:
            raise ValueError("n_minority must not exceed n_majority")
        if not 0 <= n_informative <= p:
            raise ValueError("n_informative must be between 0 and p")
        self._set(n_majority=n_majority, n_minority=n_minority, p=p, n_informative=n_informative, seed=seed)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset: majority class is positive (label 1).

    Every feature has four levels. The first `n_informative` features
    draw their level from a class-conditional distribution that puts half
    its mass on an anchor level, which differs per class, and spreads the
    rest uniformly; remaining features are uniform noise. First half of
    the features get the context role, the rest the technique role.

    Its draws come from numpy's `default_rng`, not from the package's
    streams, so generated files keep their bytes; no command calls it, and
    `numpy.random` is imported here only.
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
    return Dataset(schema=schema, target_name="target", X=_handed(X), y=_handed(y))
