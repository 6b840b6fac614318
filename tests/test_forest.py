import math
import time
import tracemalloc

import numpy as np
import pytest

from elicitrec import forest
from elicitrec.data_model import SyntheticSpec, generate_synthetic
from elicitrec.forest import (
    NODE_FIELDS,
    ForestParams,
    SplitCandidate,
    best_split,
    entropy,
    gini,
    grow_forest,
    mean_split_entropy,
    model_from_dict,
    model_to_dict,
    predict_proba,
    predict_proba_many,
    train_forest,
)

from conftest import make_dataset


def brute_best_quality(X, y, feats, criterion):
    """Oracle: every (feature, threshold) candidate, pure python arithmetic."""
    n = len(y)

    def impurity(idx):
        n1 = sum(int(y[i]) for i in idx)
        n0 = len(idx) - n1
        p0, p1 = n0 / len(idx), n1 / len(idx)
        if criterion == "gini":
            return 1.0 - p0 * p0 - p1 * p1
        h = 0.0
        for p in (p0, p1):
            if p > 0:
                h -= p * math.log2(p)
        return h

    out = []
    for f in sorted(set(feats)):
        codes = sorted(set(int(v) for v in X[:, f]))
        for a, b in zip(codes, codes[1:]):
            thr = (a + b) / 2
            left = [i for i in range(n) if X[i, f] <= thr]
            right = [i for i in range(n) if X[i, f] > thr]
            q = (len(left) / n) * impurity(left) + (len(right) / n) * impurity(right)
            out.append((q, f, thr))
    return out


class TestImpurity:
    def test_gini_values(self):
        assert gini((5, 5)) == 0.5
        assert gini((7, 0)) == 0.0
        assert gini((3, 1)) == 0.375

    def test_entropy_values(self):
        assert entropy((5, 5)) == 1.0
        assert entropy((9, 0)) == 0.0
        assert entropy((3, 1)) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_empty_counts(self):
        for fn in (gini, entropy):
            with pytest.raises(ValueError, match="empty"):
                fn((0, 0))

    def test_maximal_at_even_split(self):
        for k in (1, 3, 10):
            assert gini((k, k)) == 0.5
            assert entropy((k, k)) == 1.0
            assert gini((k, 0)) == 0.0
            assert entropy((0, k)) == 0.0


class TestSplitQuality:
    def test_pure_children(self):
        X = np.array([[0], [0], [0], [0], [1], [1], [1], [1]])
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert best_split(X, y, [0], "gini").quality == 0.0
        assert best_split(X, y, [0], "entropy").quality == 0.0

    def test_uninformative_split(self):
        X = np.array([[0], [0], [0], [0], [1], [1], [1], [1]])
        y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        assert best_split(X, y, [0], "entropy").quality == 1.0

    def test_pure_children_from_impure_parent(self):
        X = np.array([[0], [0], [0], [1]])
        y = np.array([0, 0, 0, 1])
        cand = best_split(X, y, [0], "gini")
        assert (cand.threshold, cand.quality) == (0.5, 0.0)

    def test_empty_child(self):
        with pytest.raises(ValueError, match="empty child"):
            SplitCandidate(feature_index=0, threshold=5.0, n_left=2, n_right=0, quality=0.0)


class TestBestSplit:
    def test_separable_single_feature(self):
        X = np.array([[0], [0], [1], [1]])
        y = np.array([0, 0, 1, 1])
        cand = best_split(X, y, [0], "gini")
        assert cand.threshold == 0.5
        assert cand.quality == 0.0
        assert (cand.n_left, cand.n_right) == (2, 2)

    def test_no_valid_threshold(self):
        X = np.array([[2], [2], [2]])
        y = np.array([0, 1, 0])
        assert best_split(X, y, [0], "gini") is None

    def test_tie_prefers_lower_feature(self):
        X = np.array([[0, 1], [0, 1], [1, 0], [1, 0]])
        y = np.array([0, 0, 1, 1])
        cand = best_split(X, y, [1, 0], "gini")
        assert cand.feature_index == 0
        assert cand.quality == 0.0

    def test_tie_prefers_lower_threshold(self):
        # palindromic labels: thresholds 0.5 and 1.5 give mirror-image
        # children with identical class ratios, an exact quality tie
        X = np.array([[0], [1], [1], [2]])
        y = np.array([1, 0, 0, 1])
        cand = best_split(X, y, [0], "gini")
        (q_low, _, thr_low), (q_high, _, thr_high) = brute_best_quality(X, y, [0], "gini")
        assert (thr_low, thr_high) == (0.5, 1.5)
        assert q_low == q_high
        assert cand.threshold == 0.5
        assert cand.quality == q_low

    def test_midpoints_skip_absent_codes(self):
        X = np.array([[0], [0], [4], [4]])
        y = np.array([0, 0, 1, 1])
        cand = best_split(X, y, [0], "entropy")
        assert cand.threshold == 2.0  # midpoint of the two present codes

    def test_quality_never_exceeds_parent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            X = rng.integers(0, 4, size=(n, 3))
            y = rng.integers(0, 2, size=n)
            for criterion, parent_fn in (("gini", gini), ("entropy", entropy)):
                cand = best_split(X, y, [0, 1, 2], criterion)
                if cand is None:
                    continue
                n1 = int(y.sum())
                parent = parent_fn((n - n1, n1))
                assert cand.quality <= parent + 1e-12

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            p = int(rng.integers(1, 5))
            X = rng.integers(0, rng.integers(2, 5), size=(n, p))
            y = rng.integers(0, 2, size=n)
            criterion = "gini" if rng.random() < 0.5 else "entropy"
            cand = best_split(X, y, range(p), criterion)
            oracle = brute_best_quality(X, y, range(p), criterion)
            if not oracle:
                assert cand is None
                continue
            q_min = min(q for q, _, _ in oracle)
            assert cand is not None
            assert abs(cand.quality - q_min) <= 1e-12
            optimal = {(f, t) for q, f, t in oracle if q <= q_min + 1e-12}
            assert (cand.feature_index, cand.threshold) in optimal


def grow_one(X, y, params):
    """The grower on one tree whose sample is every row once."""
    m = grow_forest(np.asarray(X), np.asarray(y), np.arange(len(y))[None, :], params)
    return {f: getattr(m, f) for f in NODE_FIELDS}


class TestGrowTree:
    def test_pure_input_is_leaf(self):
        X = np.array([[0], [1], [2]])
        y = np.array([1, 1, 1])
        t = grow_one(X, y, ForestParams(mtry=1))
        assert t["feature"].tolist() == [-1]
        assert (t["n0"][0], t["n1"][0]) == (0, 3)

    def test_separable_is_depth_one(self):
        X = np.array([[0], [0], [1], [1]])
        y = np.array([0, 0, 1, 1])
        t = grow_one(X, y, ForestParams(mtry=1))
        assert t["feature"].tolist() == [0, -1, -1]
        assert t["left"].tolist() == [1, -1, -1]
        assert t["right"].tolist() == [2, -1, -1]
        assert (t["n0"][1], t["n1"][1]) == (2, 0)
        assert (t["n0"][2], t["n1"][2]) == (0, 2)
        assert t["split_entropy"][0] == 0.0

    def test_max_depth_zero(self):
        X = np.array([[0], [1]])
        y = np.array([0, 1])
        t = grow_one(X, y, ForestParams(mtry=1, max_depth=0))
        assert t["feature"].tolist() == [-1]
        assert (t["n0"][0], t["n1"][0]) == (1, 1)

    def test_min_samples_leaf(self):
        X = np.array([[0], [0], [0], [1]])
        y = np.array([0, 0, 0, 1])
        t = grow_one(X, y, ForestParams(mtry=1, min_samples_leaf=2))
        assert t["feature"].tolist() == [-1]  # the only useful split leaves a 1-row child

    def test_counts_sum_to_children(self):
        rng = np.random.default_rng(8)
        X = rng.integers(0, 3, size=(60, 4))
        y = rng.integers(0, 2, size=60)
        t = grow_one(X, y, ForestParams(mtry=2, seed=1))
        internal = np.flatnonzero(t["feature"] >= 0)
        assert internal.size > 1
        for i in internal:
            kids = [t["left"][i], t["right"][i]]
            assert t["n0"][i] == t["n0"][kids].sum() and t["n1"][i] == t["n1"][kids].sum()
            assert 0.0 <= t["split_entropy"][i] <= 1.0
        leaf = t["feature"] < 0
        assert t["n0"][0] + t["n1"][0] == t["n0"][leaf].sum() + t["n1"][leaf].sum() == 60


MASK64 = (1 << 64) - 1


def splitmix64(key, i):
    """Output i of the splitmix64 stream seeded with `key`, in python ints."""
    z = (key + i * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def replay(d, m, params):
    """Every node of every tree of `m`, with the bootstrap rows that reach
    it, its depth and its drawn features, found by walking each tree's
    bootstrap down from the root (documented draw: a root's key is
    SeedSequence([seed, t])'s first uint64, a node's features the mtry
    lowest-ranked of its stream's outputs 1..p, its children's keys
    outputs p + 1 and p + 2)."""
    n, p = d.X.shape
    mtry = params.resolve_mtry(p)
    for t, start in enumerate(m.offsets[:-1]):
        boot = np.random.default_rng([params.seed, t]).integers(0, n, size=n)
        root_key = int(np.random.SeedSequence([params.seed, t]).generate_state(1, np.uint64)[0])
        todo = [(0, boot, 0, root_key)]
        while todo:
            i, rows, depth, key = todo.pop()
            ranked = sorted(range(p), key=lambda f: splitmix64(key, f + 1))
            yield start, i, rows, depth, sorted(ranked[:mtry])
            f = m.feature[start + i]
            if f >= 0:
                go_left = d.X[rows, f] <= m.threshold[start + i]
                todo.append((m.left[start + i], rows[go_left], depth + 1, splitmix64(key, p + 1)))
                todo.append((m.right[start + i], rows[~go_left], depth + 1, splitmix64(key, p + 2)))


class TestGrownSplitsAreOptimal:
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("min_samples_leaf", [1, 3])
    @pytest.mark.parametrize("max_depth", [None, 4])
    def test_every_node_against_oracle(self, criterion, min_samples_leaf, max_depth):
        d = generate_synthetic(SyntheticSpec(n_majority=45, n_minority=15, p=6, n_informative=3, seed=2))
        params = ForestParams(
            n_trees=4, criterion=criterion, min_samples_leaf=min_samples_leaf, max_depth=max_depth, seed=9
        )
        m = train_forest(d, params)
        depths = {}
        for start, i, rows, depth, feats in replay(d, m, params):
            g = start + i
            depths[g] = depth
            Xs, ys = d.X[rows], d.y[rows]
            assert (m.n0[g], m.n1[g]) == (len(ys) - ys.sum(), ys.sum())
            oracle = [
                (q, f, thr)
                for q, f, thr in brute_best_quality(Xs, ys, feats, criterion)
                if min_samples_leaf <= (Xs[:, f] <= thr).sum() <= len(ys) - min_samples_leaf
            ]
            stops = (
                ys.min() == ys.max()
                or (max_depth is not None and depth >= max_depth)
                or len(ys) < 2 * min_samples_leaf
            )
            if m.feature[g] < 0:
                assert stops or not oracle
                continue
            assert not stops
            assert i < m.left[g] < m.right[g]
            q_min = min(q for q, _, _ in oracle)
            first_best = min((f, thr) for q, f, thr in oracle if q <= q_min + 1e-12)
            assert (m.feature[g], m.threshold[g]) == first_best
            left = Xs[:, first_best[0]] <= first_best[1]
            split_entropy = brute_best_quality(left[:, None].astype(int), ys, [0], "entropy")[0][0]
            assert m.split_entropy[g] == pytest.approx(split_entropy, abs=1e-12)
        assert sorted(depths) == list(range(len(m.feature))) and (m.feature >= 0).sum() > 20
        for a, b in zip(m.offsets, m.offsets[1:]):  # breadth-first: depth never falls
            assert all(depths[g] <= depths[g + 1] for g in range(a, b - 1))


class TestScheduling:
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_chunking_changes_nothing(self, skewed_dataset, monkeypatch, criterion):
        params = ForestParams(n_trees=6, criterion=criterion, seed=3)
        whole = model_to_dict(train_forest(skewed_dataset, params))
        chunk_sizes = []
        kernel = forest._best_splits

        def counted(codes, y, node, width, *rest):
            chunk_sizes.append(len(width))  # nodes in the chunk
            return kernel(codes, y, node, width, *rest)

        monkeypatch.setattr(forest, "_best_splits", counted)
        monkeypatch.setattr(forest, "_CELLS", 50)
        assert model_to_dict(train_forest(skewed_dataset, params)) == whole
        assert max(chunk_sizes) == 1 and len(chunk_sizes) > 100

    def test_forest_prefix(self, skewed_dataset):
        small = model_to_dict(train_forest(skewed_dataset, ForestParams(n_trees=3, seed=8)))
        large = model_to_dict(train_forest(skewed_dataset, ForestParams(n_trees=6, seed=8)))
        assert large["trees"][:3] == small["trees"]

    def test_wide_column_memory_bounded(self, skewed_dataset):
        # survey-shaped data with one 1500-level column: histogram cells
        # follow each drawn feature's own level count, chunked under _CELLS
        X = skewed_dataset.X.copy()
        X[:, 4] = np.random.default_rng(1).integers(0, 1500, size=len(X))
        X[0, 4] = 1499
        d = make_dataset(X, skewed_dataset.y)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            m = train_forest(d, ForestParams(n_trees=100, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 20.0
        assert peak < 64 * 2**20
        assert (m.feature == 4).any()


def walk_proba(m, row):
    """Reference for predict_proba_many: one row, one tree at a time."""
    total = 0.0
    for start in m.offsets[:-1]:
        i = start
        while m.feature[i] >= 0:
            child = m.left[i] if row[m.feature[i]] <= m.threshold[i] else m.right[i]
            i = start + child
        total += m.n1[i] / (m.n0[i] + m.n1[i])
    return total / m.n_trees


class TestForest:
    def test_single_tree_memorizes_separable(self):
        X = np.array([[0, 1], [0, 0], [1, 1], [1, 0]] * 4)
        y = np.array([0, 0, 1, 1] * 4)
        d = make_dataset(X, y)
        m = train_forest(d, ForestParams(n_trees=1, mtry=2, seed=5))
        preds = [int(predict_proba(m, row) >= 0.5) for row in X]
        assert preds == y.tolist()

    def test_deterministic(self, skewed_dataset):
        params = ForestParams(n_trees=5, seed=42)
        a = train_forest(skewed_dataset, params)
        b = train_forest(skewed_dataset, params)
        assert model_to_dict(a) == model_to_dict(b)
        c = train_forest(skewed_dataset, ForestParams(n_trees=5, seed=43))
        assert model_to_dict(a) != model_to_dict(c)

    def test_single_class_rejected(self):
        d = make_dataset([[0], [1]], [1, 1])
        with pytest.raises(ValueError, match="single-class"):
            train_forest(d, ForestParams(n_trees=1))

    def test_mtry_default_and_bounds(self, skewed_dataset):
        m = train_forest(skewed_dataset, ForestParams(n_trees=1, seed=0))
        assert m.mtry == int(math.sqrt(27))
        with pytest.raises(ValueError, match="mtry"):
            train_forest(skewed_dataset, ForestParams(n_trees=1, mtry=28))

    def test_predict_proba_mean_of_leaf_fractions(self):
        X = np.array([[0], [0], [1], [1], [0], [1]])
        y = np.array([0, 1, 1, 1, 0, 1])
        d = make_dataset(X, y)
        m = train_forest(d, ForestParams(n_trees=30, mtry=1, seed=2))
        probas = predict_proba_many(m, X)
        assert ((probas >= 0.0) & (probas <= 1.0)).all()
        for i, row in enumerate(X):
            assert predict_proba(m, row) == probas[i]

    def test_descent_matches_row_walk(self, skewed_dataset):
        m = train_forest(skewed_dataset, ForestParams(n_trees=7, seed=9))
        X = skewed_dataset.X[:40]
        assert predict_proba_many(m, X).tolist() == [walk_proba(m, row) for row in X]

    def test_predict_threshold_boundary(self):
        X = np.array([[0], [1]])
        y = np.array([0, 1])
        d = make_dataset(X, y)
        m = train_forest(d, ForestParams(n_trees=2, mtry=1, max_depth=0, seed=0))
        # every tree is a single leaf; bootstrap draws decide the fraction
        roots = m.offsets[:-1]
        p = predict_proba(m, np.array([0]))
        assert p == np.mean(m.n1[roots] / (m.n0[roots] + m.n1[roots]))
        assert p == predict_proba(m, np.array([1]))

    def test_mean_split_entropy(self):
        X = np.array([[0], [0], [1], [1]])
        y = np.array([0, 1, 0, 1])
        d = make_dataset(X, y)
        m = train_forest(d, ForestParams(n_trees=3, mtry=1, max_depth=0, seed=1))
        with pytest.raises(ValueError, match="no splits"):
            mean_split_entropy(m)

    def test_mean_split_entropy_pure_splits(self):
        X = np.array([[0], [0], [1], [1]] * 3)
        y = np.array([0, 0, 1, 1] * 3)
        d = make_dataset(X, y)
        m = train_forest(d, ForestParams(n_trees=5, mtry=1, seed=3))
        assert mean_split_entropy(m) == 0.0


class TestSerialization:
    def test_round_trip(self, skewed_dataset):
        m = train_forest(skewed_dataset, ForestParams(n_trees=3, seed=11))
        doc = model_to_dict(m)
        assert doc["format_version"] == 2
        m2 = model_from_dict(doc)
        assert model_to_dict(m2) == doc
        for f, dtype in NODE_FIELDS.items():
            assert getattr(m2, f).dtype == dtype
            assert np.array_equal(getattr(m2, f), getattr(m, f))

    def test_round_trip_through_json(self, skewed_dataset):
        import json

        m = train_forest(skewed_dataset, ForestParams(n_trees=2, seed=4))
        m2 = model_from_dict(json.loads(json.dumps(model_to_dict(m))))
        assert model_to_dict(m2) == model_to_dict(m)
        x = skewed_dataset.X[:10]
        assert np.array_equal(predict_proba_many(m, x), predict_proba_many(m2, x))

    def test_preorder_trees_still_load(self):
        # format-2 files written before trees grew breadth-first hold their
        # nodes in preorder; the reader only needs children after parents
        preorder = dict(
            feature=[0, 1, -1, -1, -1], threshold=[0.5, 0.5, 0.0, 0.0, 0.0], left=[1, 2, -1, -1, -1],
            right=[4, 3, -1, -1, -1], n0=[4, 4, 3, 1, 0], n1=[3, 1, 0, 1, 2], split_entropy=[0.5] * 5,
        )
        breadth_first = dict(
            feature=[0, 1, -1, -1, -1], threshold=[0.5, 0.5, 0.0, 0.0, 0.0], left=[1, 3, -1, -1, -1],
            right=[2, 4, -1, -1, -1], n0=[4, 4, 0, 3, 1], n1=[3, 1, 2, 0, 1], split_entropy=[0.5] * 5,
        )
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        probas = []
        for tree in (preorder, breadth_first):
            doc = {"format_version": 2, "n_trees": 1, "mtry": 1, "criterion": "gini", "seed": 0}
            probas.append(predict_proba_many(model_from_dict({**doc, "trees": [tree]}), X).tolist())
        assert probas[0] == probas[1] == [0.0, 0.5, 1.0, 1.0]

    def test_version_checked(self):
        with pytest.raises(ValueError, match="format_version"):
            model_from_dict({"format_version": 99, "trees": []})
        with pytest.raises(ValueError, match="retrain with `elicitrec train`"):
            model_from_dict({"format_version": 1, "trees": []})
