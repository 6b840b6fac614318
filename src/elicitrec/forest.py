"""Binary decision trees by impurity minimization and a bagged forest.

Splits are threshold tests on ordinal codes: rows with code <= threshold go
left. A candidate's quality is the child-size-weighted sum of child
impurities (gini or entropy); the grower picks the candidate minimizing it,
breaking ties toward the lower feature index, then the lower threshold.

Every internal node also records the entropy-measured quality of its chosen
split (regardless of the training criterion) so the forest's mean split
entropy can be compared between imbalanced and balanced training sets.

A tree is a set of parallel node arrays (`NODE_FIELDS`) in preorder. An
internal node's `left` and `right` children are tree-local indices after its
own; a leaf has `feature`, `left` and `right` -1. `n0`/`n1` count the
training rows of each class that reached the node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data_model import Dataset

CRITERIA = ("gini", "entropy")


def gini(counts: tuple[int, int]) -> float:
    """Gini impurity 1 - p0^2 - p1^2 of a two-class count pair."""
    n0, n1 = counts
    total = n0 + n1
    if total < 1:
        raise ValueError("empty counts")
    p0 = n0 / total
    p1 = n1 / total
    return 1.0 - p0 * p0 - p1 * p1


def entropy(counts: tuple[int, int]) -> float:
    """Shannon entropy in bits, with 0*log(0) taken as 0."""
    n0, n1 = counts
    total = n0 + n1
    if total < 1:
        raise ValueError("empty counts")
    h = 0.0
    for c in (n0, n1):
        if c > 0:
            p = c / total
            h -= p * float(np.log2(p))
    return h


@dataclass(frozen=True)
class SplitCandidate:
    feature_index: int
    threshold: float
    n_left: int
    n_right: int
    quality: float

    def __post_init__(self):
        if self.n_left < 1 or self.n_right < 1:
            raise ValueError("split produces an empty child")


#: the node arrays of a tree, with their dtypes
NODE_FIELDS = {
    "feature": np.int64, "threshold": np.float64, "left": np.int64, "right": np.int64,
    "n0": np.int64, "n1": np.int64, "split_entropy": np.float64,
}


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    mtry: Optional[int] = None  # None = floor(sqrt(p))
    max_depth: Optional[int] = None
    min_samples_leaf: int = 1
    criterion: str = "gini"
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if self.mtry is not None and self.mtry < 1:
            raise ValueError("mtry must be at least 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def resolve_mtry(self, p: int) -> int:
        mtry = self.mtry if self.mtry is not None else max(1, int(math.sqrt(p)))
        if mtry > p:
            raise ValueError(f"mtry {mtry} exceeds feature count {p}")
        return mtry


@dataclass(frozen=True, eq=False)
class RandomForestModel:
    """Every tree's node arrays, concatenated; tree t holds the nodes
    offsets[t]:offsets[t + 1], with child indices local to the tree."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n0: np.ndarray
    n1: np.ndarray
    split_entropy: np.ndarray
    offsets: np.ndarray
    mtry: int
    criterion: str
    seed: int

    @property
    def n_trees(self) -> int:
        return len(self.offsets) - 1


def _concat_trees(trees: list[dict], mtry: int, criterion: str, seed: int) -> RandomForestModel:
    nodes = {f: np.concatenate([t[f] for t in trees]) for f in NODE_FIELDS}
    offsets = np.cumsum([0] + [len(t["feature"]) for t in trees])
    return RandomForestModel(**nodes, offsets=offsets, mtry=mtry, criterion=criterion, seed=seed)


def _scan_features(
    Xsub: np.ndarray,
    y: np.ndarray,
    features: Sequence[int],
    criterion: str,
    min_child: int,
) -> Optional[SplitCandidate]:
    """Evaluate all thresholds of all given feature columns at once.

    Xsub holds only the candidate columns, ordered like `features` (which
    must be ascending so first-minimum selection honours the tie rule).
    """
    m = len(y)
    k = Xsub.shape[1]
    n1_total = int(y.sum())
    n0_total = m - n1_total
    l_max = int(Xsub.max()) + 1

    flat = (np.arange(k) * l_max)[None, :] * 2 + Xsub * 2 + y[:, None]
    counts = np.bincount(flat.ravel(), minlength=k * l_max * 2).reshape(k, l_max, 2)
    cum = counts.cumsum(axis=1)
    cum_tot = cum[:, :, 0] + cum[:, :, 1]
    present = (counts[:, :, 0] + counts[:, :, 1]) > 0

    # midpoint partner: smallest present code strictly above each code
    big = l_max + 1
    masked = np.where(present, np.arange(l_max)[None, :], big)
    suffix_min = np.minimum.accumulate(masked[:, ::-1], axis=1)[:, ::-1]
    next_present = np.concatenate([suffix_min[:, 1:], np.full((k, 1), big)], axis=1)

    valid = (
        present
        & (next_present < big)
        & (cum_tot >= min_child)
        & (m - cum_tot >= min_child)
    )
    if not valid.any():
        return None

    n0_left = cum[:, :, 0].astype(np.float64)
    n1_left = cum[:, :, 1].astype(np.float64)
    n_left = cum_tot.astype(np.float64)
    n_right = m - n_left
    n0_right = n0_total - n0_left
    n1_right = n1_total - n1_left

    safe_left = np.where(n_left > 0, n_left, 1.0)
    safe_right = np.where(n_right > 0, n_right, 1.0)
    if criterion == "gini":
        p0l, p1l = n0_left / safe_left, n1_left / safe_left
        p0r, p1r = n0_right / safe_right, n1_right / safe_right
        h_left = 1.0 - p0l * p0l - p1l * p1l
        h_right = 1.0 - p0r * p0r - p1r * p1r
    else:
        h_left = _entropy_grid(n0_left, n1_left, safe_left)
        h_right = _entropy_grid(n0_right, n1_right, safe_right)

    quality = (n_left / m) * h_left + (n_right / m) * h_right
    quality = np.where(valid, quality, np.inf)
    best = int(np.argmin(quality))  # first minimum: lowest feature, then code
    fi, code = divmod(best, l_max)
    q = float(quality.ravel()[best])
    if not np.isfinite(q):
        return None
    return SplitCandidate(
        feature_index=int(features[fi]),
        threshold=(code + int(next_present[fi, code])) / 2.0,
        n_left=int(cum_tot[fi, code]),
        n_right=int(m - cum_tot[fi, code]),
        quality=q,
    )


def _entropy_grid(n0: np.ndarray, n1: np.ndarray, safe_total: np.ndarray) -> np.ndarray:
    h = np.zeros_like(n0)
    for part in (n0, n1):
        p = part / safe_total
        h -= np.where(part > 0, p * np.log2(np.where(part > 0, p, 1.0)), 0.0)
    return h


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    feature_subset: Sequence[int],
    criterion: str,
    min_child: int = 1,
) -> Optional[SplitCandidate]:
    """Best candidate over the subset's features, or None if nothing splits.

    Thresholds sit at midpoints between consecutive distinct codes present
    in the rows; quality is minimized with ties broken by (feature index,
    threshold), both ascending.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    if len(y) < 2:
        return None
    feats = sorted(set(int(f) for f in feature_subset))
    if not feats:
        return None
    X = np.asarray(X)
    y = np.asarray(y)
    return _scan_features(X[:, feats], y, feats, criterion, min_child)


def grow_tree(
    X: np.ndarray, y: np.ndarray, params: ForestParams, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Grow one tree on the given rows; returns its node arrays.

    Each node draws a fresh uniform feature subset of size mtry; growth
    stops at purity, the depth limit, the leaf-size limit, or when no
    candidate separates the rows. Nodes are grown in preorder (a stack
    takes the left child before the right), which fixes the order of the
    draws from `rng`.
    """
    X = np.asarray(X, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    p = X.shape[1]
    mtry = params.resolve_mtry(p)
    size = 2 * len(y) - 1  # the most nodes a tree with non-empty leaves can have
    t = {f: np.full(size, -1 if dt is np.int64 else 0.0, dtype=dt) for f, dt in NODE_FIELDS.items()}
    n_nodes = 0
    stack = [(np.arange(len(y)), 0, -1)]  # rows, depth, node whose right child it is
    while stack:
        idx, depth, right_of = stack.pop()
        i, n_nodes = n_nodes, n_nodes + 1
        if right_of >= 0:
            t["right"][right_of] = i
        ys = y[idx]
        n1 = int(ys.sum())
        t["n0"][i], t["n1"][i] = len(idx) - n1, n1
        if (
            n1 == 0
            or n1 == len(idx)
            or len(idx) < 2 * params.min_samples_leaf
            or len(idx) < 2
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            continue
        feats = np.sort(rng.choice(p, size=mtry, replace=False))
        cand = _scan_features(
            X[np.ix_(idx, feats)], ys, feats, params.criterion, params.min_samples_leaf
        )
        if cand is None:
            continue
        left_mask = X[idx, cand.feature_index] <= cand.threshold
        idx_left, idx_right = idx[left_mask], idx[~left_mask]
        n1_left = int(y[idx_left].sum())
        n1_right = n1 - n1_left
        c_left = (len(idx_left) - n1_left, n1_left)
        c_right = (len(idx_right) - n1_right, n1_right)
        t["split_entropy"][i] = (len(idx_left) / len(idx)) * entropy(c_left) + (
            len(idx_right) / len(idx)
        ) * entropy(c_right)
        t["feature"][i], t["threshold"][i], t["left"][i] = cand.feature_index, cand.threshold, i + 1
        stack += [(idx_right, depth + 1, i), (idx_left, depth + 1, -1)]
    return {f: a[:n_nodes] for f, a in t.items()}


def train_forest(d: Dataset, params: ForestParams) -> RandomForestModel:
    """Bag `n_trees` trees, each on a bootstrap sample drawn from a per-tree
    RNG seeded by (params.seed, tree index), so the model is a pure function
    of (dataset, params) no matter how training is scheduled."""
    if len(np.unique(d.y)) < 2:
        raise ValueError("single-class dataset")
    n = d.n_rows
    mtry = params.resolve_mtry(d.n_features)
    trees = []
    for t in range(params.n_trees):
        tree_rng = np.random.default_rng([params.seed, t])
        boot = tree_rng.integers(0, n, size=n)
        trees.append(grow_tree(d.X[boot], d.y[boot], params, tree_rng))
    return _concat_trees(trees, mtry, params.criterion, params.seed)


def predict_proba_many(m: RandomForestModel, X: np.ndarray) -> np.ndarray:
    """Positive-class probability per row: mean leaf positive fraction.

    All (tree, row) pairs descend together, one level per step.
    """
    X = np.asarray(X, dtype=np.int64)
    n = X.shape[0]
    root = np.repeat(m.offsets[:-1], n)  # pair (t, r) sits at t * n + r
    row = np.tile(np.arange(n), m.n_trees)
    node = root.copy()
    live = np.flatnonzero(m.feature[node] >= 0)
    while live.size:
        cur = node[live]
        go_left = X[row[live], m.feature[cur]] <= m.threshold[cur]
        node[live] = root[live] + np.where(go_left, m.left[cur], m.right[cur])
        live = live[m.feature[node[live]] >= 0]
    leaf_fraction = (m.n1[node] / (m.n0[node] + m.n1[node])).reshape(m.n_trees, n)
    acc = np.zeros(n)
    for fraction in leaf_fraction:  # tree by tree: the sum's rounding is fixed
        acc += fraction
    return acc / m.n_trees


def predict_proba(m: RandomForestModel, row: np.ndarray) -> float:
    return float(predict_proba_many(m, np.asarray(row)[None, :])[0])


def mean_split_entropy(m: RandomForestModel) -> float:
    """Mean recorded split entropy over every internal node of every tree."""
    values = m.split_entropy[m.feature >= 0]
    if not values.size:
        raise ValueError("all-leaf forest has no splits")
    return float(np.mean(values))


MODEL_FORMAT_VERSION = 2


def model_to_dict(m: RandomForestModel) -> dict:
    bounds = m.offsets.tolist()
    trees = [
        {f: getattr(m, f)[a:b].tolist() for f in NODE_FIELDS} for a, b in zip(bounds, bounds[1:])
    ]
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "n_trees": m.n_trees,
        "mtry": m.mtry,
        "criterion": m.criterion,
        "seed": m.seed,
        "trees": trees,
    }


def _tree_from_dict(doc, where: str) -> dict[str, np.ndarray]:
    """One tree's node arrays, checked so that a descent from the root only
    moves forward, stays inside the tree and ends at a leaf with rows."""
    missing = [f for f in NODE_FIELDS if not isinstance(doc, dict) or f not in doc]
    if missing:
        raise ValueError(f"{where} lacks the node array {missing[0]!r}")
    try:
        t = {f: np.asarray(doc[f], dtype=dt) for f, dt in NODE_FIELDS.items()}
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where} holds a node array that is not a list of numbers") from None
    n = t["feature"].size
    if n == 0 or any(a.shape != (n,) for a in t.values()):
        raise ValueError(f"{where} node arrays must be non-empty lists of equal length")
    internal = t["feature"] >= 0
    children = np.stack([t["left"], t["right"]])[:, internal]
    if ((children <= np.flatnonzero(internal)) | (children >= n)).any():
        raise ValueError(f"{where} has a child index not after its parent or outside the tree")
    n0, n1 = t["n0"][~internal], t["n1"][~internal]
    if ((n0 < 0) | (n1 < 0) | (n0 + n1 == 0)).any():
        raise ValueError(f"{where} has a leaf with negative class counts or none at all")
    return t


def model_from_dict(doc: dict) -> RandomForestModel:
    """Rebuild a model from `model_to_dict` output; raises ValueError when the
    document is not a well-formed forest of the current format."""
    version = doc.get("format_version")
    if version == 1:
        raise ValueError("model format_version 1 is no longer read; retrain with `elicitrec train`")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version!r}")
    missing = [k for k in ("n_trees", "mtry", "criterion", "seed", "trees") if k not in doc]
    if missing:
        raise ValueError(f"model lacks {missing[0]!r}")
    if not all(isinstance(doc[k], int) for k in ("n_trees", "mtry", "seed")):
        raise ValueError("model n_trees, mtry and seed must be integers")
    trees = doc["trees"]
    if not isinstance(trees, list) or not trees or len(trees) != doc["n_trees"]:
        raise ValueError("model trees must be a list of n_trees (at least 1) trees")
    trees = [_tree_from_dict(t, f"model tree {k}") for k, t in enumerate(trees)]
    return _concat_trees(trees, doc["mtry"], str(doc["criterion"]), doc["seed"])
