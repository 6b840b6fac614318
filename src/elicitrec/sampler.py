"""Minority oversampling by synthetic interpolation (SMOTE).

A synthetic sample is a point on the segment between a minority row x and
one of its k nearest minority neighbours x_r:

    values = x + k_draw * (x_r - x),   k_draw uniform in [0, 1)

Because the feature domain is ordinal codes, the interpolated vector is
rounded back to the nearest valid code (half-way rounds down) so the
output dataset stays closed under the schema.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data_model import Dataset, minority_label

#: parent rows per block of the neighbour search; one block holds a
#: (rows x minority count) key matrix and its partitioned copy. On 2000
#: minority rows, blocks of 32 and 64 rows ran alike and 128 about 20 %
#: slower
_BLOCK_ROWS = 32

#: float64 holds every integer of smaller magnitude exactly
_F64_EXACT = 2**53


@dataclass(frozen=True)
class SmoteConfig:
    k_neighbors: int = 5
    target_ratio: float = 1.0  # 1.0 = minority matches the majority count
    seed: int = 0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ValueError("target_ratio must be in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _neighbors(Xm: np.ndarray, n_parents: int, k: int) -> np.ndarray:
    """Positions in Xm of the k nearest rows to each of its first n_parents
    rows, nearest first (requires k < len(Xm)).

    Distance is Euclidean over ordinal codes, and ties break toward the
    lower position. A row is never its own neighbour. One product per
    block of parent rows gives every candidate j of row i the key

        m * (|x_j|**2 - 2 x_i.x_j) + j,   m = len(Xm)

    which is m * (squared distance - |x_i|**2) + j: keys order a row's
    candidates by squared distance, then by position, and no two are
    equal. The product runs in float64 (BLAS) when every term and partial
    sum is an integer below 2**53, and so exact in any order of
    summation; otherwise in Python integers.
    """
    m, p = Xm.shape
    X = Xm - Xm.min(axis=0)  # a shift keeps every distance
    span = int(X.max())
    # |partial sum| <= p * 2m span**2 (products) + m p span**2 + m - 1 (last column)
    dtype = np.float64 if m * (3 * p * span**2 + 1) < _F64_EXACT else object
    X = X.astype(dtype)
    rows = np.hstack([X[:n_parents], np.ones((n_parents, 1), dtype)])
    cols = np.vstack([-2 * m * X.T, m * (X * X).sum(axis=1) + np.arange(m).astype(dtype)])
    out = np.empty((n_parents, k), dtype=np.int64)
    for lo in range(0, n_parents, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n_parents)
        key = rows[lo:hi] @ cols
        key[np.arange(hi - lo), np.arange(lo, hi)] = np.inf  # never its own neighbour
        near = np.sort(np.partition(key, k - 1, axis=1)[:, :k], axis=1)
        out[lo:hi] = near % m
    return out


def _interpolate(x: np.ndarray, x_r: np.ndarray, draw: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Rows x + draw * (x_r - x), each value rounded to the nearest code
    (half-way rounds down: ceil(v - 0.5)) and clipped to [0, limits]."""
    values = x + draw[:, None] * (x_r - x)
    return np.clip(np.ceil(values - 0.5).astype(np.int64), 0, limits)


def smote_details(
    d: Dataset, cfg: SmoteConfig
) -> tuple[Dataset, np.ndarray, np.ndarray, np.ndarray]:
    """Oversample and also return, per synthetic row, the row indices into
    `d` of its parent and neighbour and its interpolation draw."""
    label = minority_label(d)
    minority_rows = np.flatnonzero(d.y == label)
    m = len(minority_rows)
    needed = round(cfg.target_ratio * (d.n_rows - m)) - m
    if needed <= 0:
        return d, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    if m < 2:
        raise ValueError("insufficient minority samples: need at least 2 rows")

    k = min(cfg.k_neighbors, m - 1)
    slot = np.arange(needed) % m  # parents cycle over the minority rows
    near = _neighbors(d.X[minority_rows], min(needed, m), k)
    rng = np.random.default_rng(cfg.seed)
    pick = np.empty(needed, dtype=np.int64)
    draw = np.empty(needed)
    for s in range(needed):  # one (neighbour, draw) pair per row, in row order
        pick[s] = rng.integers(k)
        draw[s] = rng.random()
    parent = minority_rows[slot]
    neighbor = minority_rows[near[slot, pick]]

    limits = np.array([len(f.levels) - 1 for f in d.schema], dtype=np.int64)
    new_X = _interpolate(d.X[parent], d.X[neighbor], draw, limits)
    X = np.vstack([d.X, new_X])
    y = np.concatenate([d.y, np.full(needed, label, dtype=np.int64)])
    synthetic = np.concatenate([d.synthetic, np.ones(needed, dtype=bool)])
    return replace(d, X=X, y=y, synthetic=synthetic), parent, neighbor, draw


def smote_oversample(d: Dataset, cfg: SmoteConfig) -> Dataset:
    """Append synthetic minority rows until the class ratio hits the target.

    Parents cycle round-robin over the minority rows in ascending row
    order; the neighbour pick and interpolation draw come from a seeded
    RNG, so the output is a pure function of (dataset, config). Original
    rows are kept unchanged as a prefix of the result.
    """
    return smote_details(d, cfg)[0]
