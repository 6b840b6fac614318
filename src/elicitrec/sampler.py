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

#: parent rows per block of the neighbour search; each block holds a few
#: (rows x minority count) temporaries, and at 256 rows they raised the
#: peak memory of balancing 6k rows (2k minority) by 12 MB
_BLOCK_ROWS = 32


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

    Distance is Euclidean over ordinal codes; squared distances stay
    integral, so ties are exact and break toward the lower position. A row
    is never its own neighbour. The row products run in float64, where
    numpy has BLAS, while every partial sum of a product stays an integer
    below 2**53 and so exact; larger codes stay in int64.
    """
    sq = np.einsum("ij,ij->i", Xm, Xm)
    exact = Xm.shape[1] * int(Xm.max()) ** 2 < 2**53
    Xp = Xm.astype(np.float64) if exact else Xm
    out = np.empty((n_parents, k), dtype=np.int64)
    for lo in range(0, n_parents, _BLOCK_ROWS):
        rows = np.arange(lo, min(lo + _BLOCK_ROWS, n_parents))
        dot = (Xp[rows] @ Xp.T).astype(np.int64, copy=False)
        d2 = sq[rows, None] - 2 * dot + sq
        d2[np.arange(len(rows)), rows] = np.iinfo(np.int64).max
        # the k-th smallest distance; rows tied at it are taken lowest first
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        closer = d2 < kth
        tied = d2 == kth
        room = k - closer.sum(axis=1, keepdims=True)
        take = closer | (tied & (np.cumsum(tied, axis=1) <= room))
        idx = np.nonzero(take)[1].reshape(len(rows), k)  # ascending position
        order = np.argsort(np.take_along_axis(d2, idx, axis=1), axis=1, kind="stable")
        out[rows] = np.take_along_axis(idx, order, axis=1)
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
