"""Binary decision trees by impurity minimization and a bagged forest.

Splits are threshold tests on ordinal codes: rows with code <= threshold go
left. A candidate's quality is the child-size-weighted sum of child
impurities (gini or entropy); the grower picks the candidate minimizing it,
breaking ties toward the lower feature index, then the lower threshold.
Every internal node also records the entropy-measured quality of its chosen
split (regardless of the training criterion) so the forest's mean split
entropy can be compared between imbalanced and balanced training sets.

All trees grow together, breadth-first: per level, one `bincount` builds
the (node, drawn feature, code, class) histogram of the whole frontier, in
chunks of at most `_CELLS` cells, and one cumulative pass picks every
node's split. A node draws its features from a splitmix64 hash of its key.
Each tree works on its distinct rows: rows equal in X and y share one
content id, a tree's repeated bootstrap draws of one id become one entry
weighted by its count, and the histogram sums those weights. Splits and
the stored class counts depend only on the weighted counts, so the trees
are the ones that growing on every bootstrap entry would give.

A tree is a set of parallel node arrays (`NODE_FIELDS`) in breadth-first
order. An internal node's `left` and `right` children are tree-local indices
after its own; a leaf has `feature`, `left` and `right` -1. `n0`/`n1` count
the training rows of each class that reached the node.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data_model import Dataset

CRITERIA = ("gini", "entropy")


def _fractions(counts):
    n0, n1 = counts
    total = n0 + n1
    if np.any(total < 1):
        raise ValueError("empty counts")
    return n0 / total, n1 / total


def gini(counts):
    """Gini impurity 1 - p0^2 - p1^2 of a two-class count pair (or arrays)."""
    p0, p1 = _fractions(counts)
    return 1.0 - p0 * p0 - p1 * p1


def entropy(counts):
    """Entropy in bits, 0*log(0) taken as 0, of a two-class count pair (or arrays)."""
    h = 0.0
    for p in _fractions(counts):
        h = h - p * np.log2(p + (p == 0))  # log2(1) = 0 where p = 0
    return h


def _quality(left, right, criterion: str):
    """Child-size-weighted impurity of splits, from the (class 0, class 1)
    row counts of each side."""
    impurity = gini if criterion == "gini" else entropy
    n_left, n_right = left[0] + left[1], right[0] + right[1]
    m = n_left + n_right
    return (n_left / m) * impurity(left) + (n_right / m) * impurity(right)


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


#: the most key (rows x drawn features) plus histogram cells of one split-search step
_CELLS = 1 << 16
_TIE = 1e-12  # qualities this close tie: equal splits can round differently
_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # splitmix64's stream increment


def _stream(keys: np.ndarray, first: int, count: int) -> np.ndarray:
    """Outputs first .. first + count - 1 of the splitmix64 stream that each
    uint64 key seeds, one row per key (wrapping uint64 arithmetic)."""
    z = keys[:, None] + np.arange(first, first + count, dtype=np.uint64) * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _draw_features(keys: np.ndarray, p: int, mtry: int) -> np.ndarray:
    """Each node's mtry features, ascending: those whose outputs 1..p of its
    key's stream rank lowest. Outputs p + 1 and p + 2 key its children."""
    feats = np.empty((len(keys), mtry), dtype=np.int64)
    step = max(1, _CELLS // p)
    for a in range(0, len(keys), step):
        rank = np.argsort(_stream(keys[a:a + step], 1, p), axis=1, kind="stable")
        feats[a:a + step] = np.sort(rank[:, :mtry], axis=1)
    return feats


def _best_splits(codes, node, weight, width, counts, criterion, min_child):
    """Every node's best split over its drawn features, from one histogram.

    Row r of `codes` holds a distinct row's codes at the k drawn features
    (slots, ascending) of its node `node[r]`, each folded with the row's
    class as 2 * code + class, and `weight[r]` is how many sample rows it
    stands for. Slot s of node c has `width[c, s]` code cells, and
    `counts[c]` are its sample rows per class. Returns per node the slot
    (-1: no threshold leaves `min_child` rows on each side), threshold and
    rows per class going left; of the cells within `_TIE` of a node's
    minimum quality the first wins."""
    n_nodes, k = width.shape
    size = width.ravel()
    end = np.cumsum(size)  # one past the last cell of each (node, slot) block
    start = end - size  # its first cell
    n_cells = int(size.sum())
    flat = start.reshape(n_nodes, k)[node]
    flat *= 2
    flat += codes
    # the weights are whole numbers, so the float sums (and all counts
    # made from them) are exact
    hist = np.bincount(flat.ravel(), np.repeat(weight, k), 2 * n_cells).reshape(n_cells, 2)
    del flat
    present = hist.any(axis=1)
    left = hist.cumsum(axis=0)
    left -= np.repeat(left[start] - hist[start], size, axis=0)  # class counts at codes <= the cell's
    del hist
    n_left = left.sum(axis=1)
    # the threshold's upper code: the next present cell, if in the same block
    nxt = np.minimum.accumulate(np.where(present, np.arange(n_cells), n_cells)[::-1])[::-1]
    nxt = np.append(nxt[1:], n_cells)
    ok = present & (nxt < np.repeat(end, size)) & (n_left >= min_child)
    ok &= np.repeat(counts.sum(axis=1), width.sum(axis=1)) - n_left >= min_child
    slot, threshold = np.full(n_nodes, -1), np.zeros(n_nodes)
    left_rows = np.zeros((n_nodes, 2), dtype=np.int64)
    v = np.flatnonzero(ok)
    if v.size:
        b = np.searchsorted(end, v, "right")  # each valid cell's block
        c = b // k
        q = _quality(left[v].T, (counts[c] - left[v]).T, criterion)
        first = np.flatnonzero(np.diff(c, prepend=-1))  # each node's first valid cell
        q_min = np.repeat(np.minimum.reduceat(q, first), np.diff(first, append=v.size))
        best = np.minimum.reduceat(np.where(q <= q_min + _TIE, np.arange(v.size), v.size), first)
        won, cell, b = c[best], v[best], b[best]
        slot[won] = b % k
        threshold[won] = (cell + nxt[cell] - 2 * start[b]) / 2.0
        left_rows[won] = left[cell]
    return slot, threshold, left_rows


def _distinct_samples(X, y, boots, width):
    """The distinct rows of (X, y), with the class folded in as 2 * code +
    class, and each tree's sample as distinct rows: the rows, tree by tree,
    how often the sample draws each, and how many each tree has.

    Rows are told apart by a key, mixed-radix over the class and the
    columns, that is re-ranked to its distinct values before it could pass
    2**62."""
    key, span = y, 2
    for col, w in zip(X.T, width.tolist()):
        if span * w > 1 << 62:
            distinct, key = np.unique(key, return_inverse=True)
            span = len(distinct)
        key, span = key * w + col, span * w
    _, rep, ids = np.unique(key, return_index=True, return_inverse=True)
    n = len(rep)
    drawn = ids[boots]
    drawn += n * np.arange(len(boots))[:, None]  # tree t's ids from t * n
    drawn = np.bincount(drawn.ravel(), minlength=len(boots) * n)
    pair = np.flatnonzero(drawn)
    # int16 holds 2 * code + class for codes below 2**14
    codes = X.astype(np.int16 if width.max() <= 1 << 14 else np.int64)[rep]
    codes *= 2
    codes += y[rep, None]
    return codes, pair % n, drawn[pair].astype(np.float64), np.bincount(pair // n, minlength=len(boots))


def _frontier_splits(codes, rows, weight, feats, width, counts, size, params: ForestParams):
    """`_best_splits` of a frontier whose distinct rows `rows` (of the folded
    `codes`, with their weights) lists node by node, `size[c]` of them for
    node c, in chunks of at most `_CELLS` key and histogram cells (or of
    one node)."""
    p = codes.shape[1]
    cost = size * feats.shape[1] + width.sum(axis=1)
    cum, end = np.cumsum(cost), np.cumsum(size)
    parts, a = [], 0
    while a < len(size):
        b = max(a + 1, int(np.searchsorted(cum, cum[a] - cost[a] + _CELLS, "right")))
        lo, hi = end[a] - size[a], end[b - 1]
        node = np.repeat(np.arange(b - a), size[a:b])
        drawn = feats[a:b][node]  # where each row's drawn codes sit in `codes`, then the codes
        drawn += rows[lo:hi, None] * p
        drawn = codes.take(drawn)
        parts.append(_best_splits(
            drawn, node, weight[lo:hi], width[a:b], counts[a:b], params.criterion, params.min_samples_leaf,
        ))
        a = b
    return [np.concatenate(column) for column in zip(*parts)]


def grow_forest(X, y, boots, params: ForestParams) -> RandomForestModel:
    """Grow one tree per row of `boots`, tree t on the rows `boots[t]` lists
    (`params.n_trees` is not read): all together, breadth-first.

    Each tree works on its distinct rows, weighted by how often the sample
    holds them: rows equal in X and y are one, and so are repeated draws.
    Tree t's root key is the first word of SeedSequence([params.seed, t]).
    A node is a leaf when it is pure, at `max_depth`, smaller than
    2 * `min_samples_leaf`, or when no candidate separates its rows.
    """
    X, y, boots = (np.asarray(a, dtype=np.int64) for a in (X, y, boots))
    n_trees, p = len(boots), X.shape[1]
    mtry = params.resolve_mtry(p)
    width = X.max(axis=0) + 1  # histogram cells of each feature
    counts = np.column_stack([(y[boots] == 0).sum(axis=1), y[boots].sum(axis=1)])  # rows per class
    codes, rows, weight, size = _distinct_samples(X, y, boots, width)
    tree, local = np.arange(n_trees), np.zeros(n_trees, dtype=np.int64)
    seeds = (np.random.SeedSequence([params.seed, t]) for t in range(n_trees))
    key = np.array([s.generate_state(1, np.uint64)[0] for s in seeds])
    n_nodes = np.ones(n_trees, dtype=np.int64)  # nodes numbered so far, per tree
    made = []  # (tree, tree-local index, node fields) of every node, then of its split
    for depth in itertools.count():
        made.append((tree, local, dict(n0=counts[:, 0], n1=counts[:, 1])))
        go = counts.all(axis=1) & (counts.sum(axis=1) >= 2 * params.min_samples_leaf)
        go &= params.max_depth is None or depth < params.max_depth
        keep = np.repeat(go, size)
        rows, weight = rows[keep], weight[keep]
        tree, local, key, counts, size = tree[go], local[go], key[go], counts[go], size[go]
        if not tree.size:
            break
        feats = _draw_features(key, p, mtry)
        slot, threshold, left = _frontier_splits(codes, rows, weight, feats, width[feats], counts, size, params)
        split = slot >= 0
        sp, t = np.flatnonzero(split), tree[split]
        first = n_nodes[t] + 2 * (np.arange(sp.size) - np.searchsorted(t, t))  # left child's index
        n_nodes += 2 * np.bincount(t, minlength=n_trees)
        right = counts[sp] - left[sp]
        made.append((t, local[sp], dict(
            feature=feats[sp, slot[sp]], threshold=threshold[sp], left=first, right=first + 1,
            split_entropy=_quality(left[sp].T, right.T, "entropy"),
        )))
        # the rows of split nodes move to their children, node by node;
        # 2 * code + class > 2 * floor(threshold) + 1 exactly when code > threshold
        node = np.repeat(np.arange(tree.size), size)
        moving = split[node]
        rows, weight, node = rows[moving], weight[moving], node[moving]
        cut = 2 * np.floor(threshold) + 1
        child = 2 * (np.cumsum(split) - 1)[node] + (codes.take(rows * p + feats[node, slot[node]]) > cut[node])
        # a stable sort on 16-bit keys is a radix sort
        order = np.argsort(child.astype(np.int16) if sp.size <= 1 << 14 else child, kind="stable")
        rows, weight = rows[order], weight[order]
        size = np.bincount(child, minlength=2 * sp.size)
        tree, local = np.repeat(t, 2), (first[:, None] + np.arange(2)).ravel()
        key = _stream(key[sp], p + 1, 2).ravel()
        counts = np.stack([left[sp], right], axis=1).reshape(-1, 2)
    offsets = np.concatenate([[0], np.cumsum(n_nodes)])
    nodes = {f: np.full(offsets[-1], -1 if dt is np.int64 else 0.0, dtype=dt)
             for f, dt in NODE_FIELDS.items()}
    for t, local, fields in made:
        for f, values in fields.items():
            nodes[f][offsets[t] + local] = values
    return RandomForestModel(**nodes, offsets=offsets, mtry=mtry, criterion=params.criterion,
                             seed=params.seed)


def train_forest(d: Dataset, params: ForestParams) -> RandomForestModel:
    """Bag `n_trees` trees, tree t grown on the bootstrap sample that
    `default_rng([params.seed, t])` draws. The model is a pure function of
    (dataset, params) no matter how training is scheduled: tree t is the
    same in every forest of more than t trees, whatever the chunking."""
    if d.y.min() == d.y.max():
        raise ValueError("single-class dataset")
    n = d.n_rows
    boots = np.empty((params.n_trees, n), dtype=np.int64)
    for t, row in enumerate(boots):
        row[:] = np.random.default_rng([params.seed, t]).integers(0, n, size=n)
    return grow_forest(d.X, d.y, boots, params)


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


def _model_head(m: RandomForestModel) -> dict:
    """`model_to_dict` without its trees."""
    head = {"n_trees": m.n_trees, "mtry": m.mtry, "criterion": m.criterion, "seed": m.seed}
    return {"format_version": MODEL_FORMAT_VERSION, **head}


def model_to_dict(m: RandomForestModel) -> dict:
    cut = m.offsets.tolist()
    trees = [{f: getattr(m, f)[a:b].tolist() for f in NODE_FIELDS} for a, b in zip(cut, cut[1:])]
    return {**_model_head(m), "trees": trees}


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
    return RandomForestModel(
        **{f: np.concatenate([t[f] for t in trees]) for f in NODE_FIELDS},
        offsets=np.cumsum([0] + [len(t["feature"]) for t in trees]),
        mtry=doc["mtry"], criterion=str(doc["criterion"]), seed=doc["seed"],
    )
