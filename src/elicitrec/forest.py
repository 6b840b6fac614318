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
chunks of at most `_CELLS` cells, and one cumulative pass over the cells
some row reaches picks every node's split. The rows of split nodes then
move to their children, kept in order, by counting the rows that go right.
A node draws its features from a splitmix64 hash of its key.
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


def _quality(sides, criterion: str):
    """Child-size-weighted impurity of splits, from the (left, right) x
    (class 0, class 1) row counts `sides`."""
    impurity = (gini if criterion == "gini" else entropy)((sides[:, 0], sides[:, 1]))
    n = sides[:, 0] + sides[:, 1]
    w = n / (n[0] + n[1])
    return w[0] * impurity[0] + w[1] * impurity[1]


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


def _draw_features(keys: np.ndarray, p: int, mtry: int):
    """Each node's mtry features, ascending, and its children's keys.

    The features are those whose outputs 1..p of the node key's stream
    rank lowest; outputs p + 1 and p + 2 key its children. The outputs
    1..p of one key are distinct (splitmix64 maps distinct counters to
    distinct outputs), so a partition finds the lowest set."""
    feats = np.empty((len(keys), mtry), dtype=np.int64)
    kids = np.empty((len(keys), 2), dtype=np.uint64)
    step = max(1, _CELLS // (p + 2))
    for a in range(0, len(keys), step):
        z = _stream(keys[a:a + step], 1, p + 2)
        lowest = z[:, :p].argpartition(mtry - 1, axis=1)[:, :mtry]
        lowest.sort(axis=1)
        feats[a:a + step] = lowest
        kids[a:a + step] = z[:, p:]
    return feats, kids


def _best_splits(codes, rows, weight, size, feats, width, counts, criterion, min_child):
    """Every node's best split over its drawn features, from one histogram.

    `codes[f, i]` is distinct row i's code at feature f folded with its
    class as 2 * code + class. The nodes list their distinct rows `rows`
    node by node, `size[c]` of them for node c, each standing for
    `weight` sample rows. Node c drew the features `feats[c]` (slots,
    ascending); slot s has `width[c, s]` code cells, and `counts[:, c]`
    are its sample rows per class. Returns the nodes that split and, for
    each, the slot, threshold and rows per class going left. A threshold
    lies between two codes present in the node that leave `min_child`
    rows on each side; of those within `_TIE` of a node's minimum quality
    the first wins."""
    k = feats.shape[1]
    end = width.ravel().cumsum()  # one past the last cell of each (node, slot) block
    start = end - width.ravel()
    # per slot and row: where its code sits in `codes`, then its histogram
    # cell; each per-row array is freed once used, as they set the peak
    at = (feats.T * codes.shape[1]).repeat(size, axis=1)
    at += rows
    drawn = codes.take(at)
    cell = (2 * start.reshape(-1, k).T).repeat(size, axis=1)
    del at
    cell += drawn
    del drawn
    # the weights are whole numbers, so the float sums (and all counts
    # made from them) are exact
    hist = np.bincount(cell.ravel(), np.concatenate([weight] * k), 2 * int(end[-1]))
    del cell
    seen = (hist[0::2] + hist[1::2]) > 0
    present = seen.nonzero()[0]
    # every block has a present cell; each but its last is a candidate,
    # whose left rows are the block's counts up to it
    n_in = np.add.reduceat(seen, start, dtype=np.int64)
    block = np.arange(width.size).repeat(n_in - 1)
    j = np.arange(block.size) + block  # candidates, by place among the present cells
    below = np.zeros((2, present.size + 1))  # per class, the counts of the present cells before each
    hist.reshape(-1, 2).take(present, axis=0).T.cumsum(axis=1, out=below[:, 1:])
    c = block // k
    sides = np.empty((2, 2, j.size))
    np.subtract(below.take(j + 1, axis=1), below.take((n_in.cumsum() - n_in).take(block), axis=1), out=sides[0])
    np.subtract(counts.take(c, axis=1), sides[0], out=sides[1])
    if min_child > 1:  # else every candidate leaves a present cell on each side
        ok = np.flatnonzero((sides.sum(axis=1) >= min_child).all(axis=0))
        j, block, c, sides = j[ok], block[ok], c[ok], sides[:, :, ok]
    if not j.size:
        return c, c, np.zeros(0), np.zeros((2, 0), dtype=np.int64)
    q = _quality(sides, criterion)
    new = np.empty(j.size, dtype=bool)  # each node's first candidate
    new[0] = True
    np.not_equal(c[1:], c[:-1], out=new[1:])
    first = new.nonzero()[0]
    q_min = np.minimum.reduceat(q, first)[new.cumsum() - 1]
    best = np.minimum.reduceat(np.where(q <= q_min + _TIE, np.arange(j.size), j.size), first)
    j, b = j[best], block[best]
    threshold = (present[j] + present[j + 1] - 2 * start[b]) / 2.0
    return c[best], b % k, threshold, sides[0].take(best, axis=1).astype(np.int64)


def _distinct_samples(X, y, boots, width):
    """The distinct rows of (X, y), column by column, with the class folded
    in as 2 * code + class, and each tree's sample as distinct rows: the
    rows, tree by tree, how often the sample draws each, how many each
    tree has, and each tree's class-1 sample rows.

    Rows are told apart by a key, mixed-radix over the class and the
    columns, that is re-ranked to its distinct values before it could pass
    2**62. Each n_trees x rows temporary is freed once used."""
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
    size = np.count_nonzero(drawn.reshape(-1, n), axis=1)
    n1 = drawn.reshape(-1, n) @ y[rep]
    pair = drawn.nonzero()[0]
    weight = drawn.take(pair)
    del drawn
    weight = weight.astype(np.float64)
    pair %= n
    # int16 holds 2 * code + class for codes below 2**14
    codes = np.ascontiguousarray(X.astype(np.int16 if width.max() <= 1 << 14 else np.int64).take(rep, axis=0).T)
    codes *= 2
    codes += y[rep]
    return codes, pair, weight, size, n1


def _frontier_splits(codes, rows, weight, size, feats, width, counts, params: ForestParams):
    """`_best_splits` of a frontier whose distinct rows `rows` (with their
    weights) lists node by node, `size[c]` of them for node c, in chunks
    of at most `_CELLS` key and histogram cells (or of one node)."""
    cost = size * feats.shape[1] + width.sum(axis=1)
    cum, end = cost.cumsum(), size.cumsum()
    parts, a = [], 0
    while a < len(size):
        b = max(a + 1, int(cum.searchsorted(cum[a] - cost[a] + _CELLS, "right")))
        lo, hi = end[a] - size[a], end[b - 1]
        won, *split = _best_splits(
            codes, rows[lo:hi], weight[lo:hi], size[a:b], feats[a:b], width[a:b], counts[:, a:b],
            params.criterion, params.min_samples_leaf,
        )
        parts.append((won + a, *split))
        a = b
    return parts[0] if len(parts) == 1 else [np.concatenate(column, axis=-1) for column in zip(*parts)]


def _partition(codes, rows, weight, size, feature, cut, keep):
    """The rows that move to kept children, child by child, each child's in
    their order, with their weights and each kept child's row count.

    Node c lists `size[c]` rows; a row goes to the right child when its
    folded code at `feature[c]` exceeds `cut[c]`, and `keep[c]` says which
    of the (left, right) children keep their rows. Each row's place comes
    from counting: the rows before it that go right, and the kept rows of
    earlier children. Dropped rows are placed after the kept ones."""
    probe = np.array([feature * codes.shape[1], cut]).repeat(size, axis=1)  # per row: its code's place, the cut
    probe[0] += rows
    right = codes.take(probe[0]) > probe[1]
    before = right.cumsum()  # rows going right, up to and including each
    end = size.cumsum()
    skipped = np.zeros(len(size), dtype=np.int64)  # rows of earlier nodes going right
    skipped[1:] = before[end[:-1] - 1]
    n_right = before[end - 1] - skipped
    sizes = np.array([size - n_right, n_right]).T.ravel()
    keep = keep.ravel()
    kept = np.where(keep, sizes, 0)
    n_kept = int(kept.sum())
    # each child's first place: kept children in order, then dropped ones
    dropped = sizes - kept
    to = np.where(keep, kept.cumsum() - kept, n_kept + dropped.cumsum() - dropped).reshape(-1, 2)
    # a left row's place is its child's first plus the left rows before it
    # in its node, a right row's plus the right rows before it
    place = np.array([to[:, 0] - (end - size) + skipped, to[:, 1] - skipped - 1]).repeat(size, axis=1)
    place[0] += np.arange(len(rows))
    place[0] -= before
    place[1] += before
    place = np.where(right, place[1], place[0])
    moved_rows, moved_weight = np.empty_like(rows), np.empty_like(weight)
    moved_rows[place], moved_weight[place] = rows, weight
    return moved_rows[:n_kept], moved_weight[:n_kept], sizes[keep]


def _root_keys(seed: int, n_trees: int) -> np.ndarray:
    """Each tree's root key: the first word of SeedSequence([seed, t])."""
    return np.array([np.random.SeedSequence([seed, t]).generate_state(1, np.uint64)[0] for t in range(n_trees)])


def grow_forest(X, y, boots, params: ForestParams, keys=None) -> RandomForestModel:
    """Grow one tree per row of `boots`, tree t on the rows `boots[t]` lists
    (`params.n_trees` is not read): all together, breadth-first.

    Each tree works on its distinct rows, weighted by how often the sample
    holds them: rows equal in X and y are one, and so are repeated draws.
    Tree t's root key is `keys[t]`, by default the first word of
    SeedSequence([params.seed, t]). A node is a leaf when it is pure, at
    `max_depth`, smaller than 2 * `min_samples_leaf`, or when no candidate
    separates its rows.
    """
    X, y, boots = (np.asarray(a, dtype=np.int64) for a in (X, y, boots))
    n_trees, p = len(boots), X.shape[1]
    mtry = params.resolve_mtry(p)
    width = X.max(axis=0) + 1  # histogram cells of each feature
    codes, rows, weight, size, n1 = _distinct_samples(X, y, boots, width)
    counts = np.stack([boots.shape[1] - n1, n1])  # sample rows per class, node by node
    tree, local = np.arange(n_trees), np.zeros(n_trees, dtype=np.int64)
    key = _root_keys(params.seed, n_trees) if keys is None else np.asarray(keys, dtype=np.uint64)
    n_nodes = np.ones(n_trees, dtype=np.int64)  # nodes numbered so far, per tree

    def grows(counts, depth):
        """Which nodes at `depth` search a split: impure and large enough."""
        go = counts.all(axis=0) & (counts.sum(axis=0) >= 2 * params.min_samples_leaf)
        return go & (params.max_depth is None or depth < params.max_depth)

    go = grows(counts, 0)
    keep = np.repeat(go, size)
    rows, weight, size = rows[keep], weight[keep], size[go]
    made = []  # (tree, tree-local index, node fields) of every node, then of its split
    for depth in itertools.count(1):  # the depth of the children
        made.append((tree, local, dict(n0=counts[0], n1=counts[1])))
        # from here on the frontier is the nodes that search a split, and
        # `rows` lists theirs, node by node
        tree, local, key, counts = tree[go], local[go], key[go], counts[:, go]
        if not tree.size:
            break
        feats, kids = _draw_features(key, p, mtry)
        sp, slot, threshold, left = _frontier_splits(codes, rows, weight, size, feats, width[feats], counts, params)
        t = tree[sp]
        first = n_nodes[t] + 2 * (np.arange(sp.size) - t.searchsorted(t))  # left child's index
        n_nodes += 2 * np.bincount(t, minlength=n_trees)
        sides = np.array([left, counts.take(sp, axis=1) - left])
        feature = feats[sp, slot]
        made.append((t, local[sp], dict(
            feature=feature, threshold=threshold, left=first, right=first + 1,
            split_entropy=_quality(sides, "entropy"),
        )))
        tree, local, key = t.repeat(2), (first[:, None] + np.arange(2)).ravel(), kids.take(sp, axis=0).ravel()
        counts = sides.transpose(1, 2, 0).reshape(2, -1)
        go = grows(counts, depth)
        # the rows of split nodes move to their children that search on;
        # 2 * code + class > 2 * floor(threshold) + 1 exactly when code > threshold
        on = np.zeros((len(size), 2), dtype=bool)
        on[sp] = go.reshape(-1, 2)
        at = np.zeros((2, len(size)), dtype=np.int64)
        at[:, sp] = feature, 2 * np.floor(threshold).astype(np.int64) + 1
        rows, weight, size = _partition(codes, rows, weight, size, *at, on)
    offsets = np.concatenate([[0], np.cumsum(n_nodes)])
    nodes = {f: np.full(offsets[-1], -1 if dt is np.int64 else 0.0, dtype=dt)
             for f, dt in NODE_FIELDS.items()}
    for t, local, fields in made:
        for f, values in fields.items():
            nodes[f][offsets[t] + local] = values
    return RandomForestModel(**nodes, offsets=offsets, mtry=mtry, criterion=params.criterion,
                             seed=params.seed)


@dataclass(frozen=True, eq=False)
class BootstrapPlan:
    """The bootstrap samples and root keys of every tree of forests with
    `seed` and `rows.shape[0]` trees on `rows.shape[1]` rows."""

    seed: int
    rows: np.ndarray
    keys: np.ndarray


def draw_bootstrap(n_rows: int, params: ForestParams) -> BootstrapPlan:
    """Tree t's sample: `n_rows` draws of `default_rng([params.seed, t])`;
    its root key: the first word of SeedSequence([params.seed, t]). One
    SeedSequence per tree serves both."""
    rows = np.empty((params.n_trees, n_rows), dtype=np.int64)
    keys = np.empty(params.n_trees, dtype=np.uint64)
    for t, row in enumerate(rows):
        seq = np.random.SeedSequence([params.seed, t])
        keys[t] = seq.generate_state(1, np.uint64)[0]
        row[:] = np.random.Generator(np.random.PCG64(seq)).integers(0, n_rows, size=n_rows)
    return BootstrapPlan(params.seed, rows, keys)


def train_forest(d: Dataset, params: ForestParams, plan: Optional[BootstrapPlan] = None) -> RandomForestModel:
    """Bag `n_trees` trees, tree t grown on the bootstrap sample that
    `default_rng([params.seed, t])` draws. The model is a pure function of
    (dataset, params) no matter how training is scheduled: tree t is the
    same in every forest of more than t trees, whatever the chunking.

    `plan` may hold `draw_bootstrap(d.n_rows, params)` made already, so
    forests of one seed and size on different columns draw once."""
    if d.y.min() == d.y.max():
        raise ValueError("single-class dataset")
    if plan is None:
        plan = draw_bootstrap(d.n_rows, params)
    elif plan.seed != params.seed or plan.rows.shape != (params.n_trees, d.n_rows):
        raise ValueError("the bootstrap plan is not for this seed, tree count and row count")
    return grow_forest(d.X, d.y, plan.rows, params, plan.keys)


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
