import numpy as np
import pytest

from elicitrec import sampler
from elicitrec.data_model import minority_label
from elicitrec.sampler import SmoteConfig, smote_details, smote_oversample

from conftest import make_dataset


def brute_neighbors(X, minority_rows, i, k):
    """Oracle: squared euclidean distance, ties by row index, self excluded."""
    ranked = sorted(
        (int(((X[i] - X[j]) ** 2).sum()), j) for j in minority_rows if j != i
    )
    return [j for _, j in ranked[:k]]


def minority_of(d):
    return [i for i in range(d.n_rows) if d.y[i] == minority_label(d)]


class TestNeighbors:
    def test_matches_brute_force(self, monkeypatch):
        # 4 levels over 5 columns gives many tied distances, and an all-zero
        # matrix ties every pair; a block of 7 rows splits the 40 parents
        # into six blocks, the last one partial
        monkeypatch.setattr(sampler, "_BLOCK_ROWS", 7)
        rng = np.random.default_rng(11)
        rows = list(range(40))
        for X in (rng.integers(0, 4, size=(40, 5)), np.zeros((40, 2), dtype=np.int64)):
            for k in (1, 3, 5, 20, 38, 39):
                for n_parents in (1, 7, 40):
                    got = sampler._neighbors(X, n_parents, k)
                    assert got.shape == (n_parents, k)
                    for i in range(n_parents):
                        assert got[i].tolist() == brute_neighbors(X, rows, i, k)

    def test_large_codes_stay_exact(self):
        # products of codes near 2**27 over 3 columns pass 2**53, where a
        # float64 product would round away the small differences
        rng = np.random.default_rng(5)
        X = 2**27 + rng.integers(0, 4, size=(30, 3))
        got = sampler._neighbors(X, 30, 4)
        for i in range(30):
            assert got[i].tolist() == brute_neighbors(X, list(range(30)), i, 4)

    def test_span_beyond_float64_stays_exact(self, monkeypatch):
        # one column holds both 0 and 2**27, so no shift brings the keys
        # under 2**53 and the products run in Python integers; float64
        # would round away both the small distances and the row positions
        rng = np.random.default_rng(6)
        X = np.column_stack([2**27 * rng.integers(0, 2, 30), rng.integers(0, 4, size=(30, 2))])
        rows = list(range(30))
        expected = [brute_neighbors(X, rows, i, 4) for i in rows]
        assert sampler._neighbors(X, 30, 4).tolist() == expected
        monkeypatch.setattr(sampler, "_F64_EXACT", 2**200)  # force float64
        assert sampler._neighbors(X, 30, 4).tolist() != expected

    def test_needs_two_minority_rows(self):
        d = make_dataset([[0], [1], [1]], [0, 1, 1])
        with pytest.raises(ValueError, match="^SMOTE needs at least 2 rows of the minority class '0' to add 1, and "
                           "the data holds 1$"):
            smote_details(d, SmoteConfig(k_neighbors=5))


class TestSynthesize:
    def test_interpolation_and_rounding(self):
        x = np.array([[0, 0]])
        x_r = np.array([[3, 1]])
        # values [1.5, 0.5]; round half down: ceil(v - 0.5)
        got = sampler._interpolate(x, x_r, np.array([0.5]))
        assert got.tolist() == [[1, 0]]

    def test_rounding_half_down_and_clamp(self):
        cases = [(0.5, 0), (1.5, 1), (2.5, 2), (1.51, 2), (0.49, 0), (3.0, 3)]
        draws = np.array([v / 3 for v, _ in cases])
        n = len(cases)
        got = sampler._interpolate(np.zeros((n, 1), np.int64), np.full((n, 1), 3), draws)
        assert got[:, 0].tolist() == [expected for _, expected in cases]
        # the largest draw below 1 reaches the neighbour's code and never
        # passes it, upward or downward
        top = np.nextafter(1.0, 0.0)
        ends = np.array([[0, 10**6]])
        assert sampler._interpolate(ends, ends[:, ::-1], np.array([top])).tolist() == [[10**6, 0]]


class TestSmote:
    def test_exact_balance(self, skewed_dataset):
        balanced = smote_oversample(skewed_dataset, SmoteConfig(seed=0))
        assert np.bincount(balanced.y).tolist() == [282, 282]
        assert balanced.n_rows == 564

    def test_original_rows_untouched(self, skewed_dataset):
        d = skewed_dataset
        balanced = smote_oversample(d, SmoteConfig(seed=0))
        assert np.array_equal(balanced.X[: d.n_rows], d.X)
        assert np.array_equal(balanced.y[: d.n_rows], d.y)
        assert not balanced.synthetic[: d.n_rows].any()
        assert balanced.synthetic[d.n_rows:].all()

    def test_target_ratio(self, skewed_dataset):
        balanced = smote_oversample(skewed_dataset, SmoteConfig(target_ratio=0.5, seed=0))
        assert np.bincount(balanced.y, minlength=2).min() == round(0.5 * 282)

    def test_noop_when_already_balanced(self):
        d = make_dataset([[0, 1], [1, 0], [0, 0], [1, 1]], [0, 0, 1, 1])
        out, parent, neighbor, draw = smote_details(d, SmoteConfig(seed=3))
        assert out is d
        assert parent.size == neighbor.size == draw.size == 0
        assert smote_oversample(d, SmoteConfig(seed=3)) is d

    def test_round_robin_parents(self, skewed_dataset):
        d = skewed_dataset
        _, parent, _, _ = smote_details(d, SmoteConfig(seed=1))
        minority_rows = minority_of(d)
        expected = [minority_rows[s % len(minority_rows)] for s in range(len(parent))]
        assert parent.tolist() == expected

    def test_records_consistent(self, skewed_dataset):
        d = skewed_dataset
        balanced, parent, neighbor, draw = smote_details(d, SmoteConfig(seed=2))
        n = d.n_rows
        minority_rows = minority_of(d)
        limits = np.array([len(f.levels) - 1 for f in d.schema])
        assert len(parent) == len(neighbor) == len(draw) == balanced.n_rows - n
        for s, (i, j, k_draw) in enumerate(zip(parent, neighbor, draw)):
            x = d.X[i]
            x_r = d.X[j]
            row = balanced.X[n + s]
            assert 0.0 <= k_draw < 1.0
            values = x + k_draw * (x_r - x)
            assert np.array_equal(row, np.clip(np.ceil(values - 0.5), 0, limits))
            # rounding between two codes cannot leave the segment
            assert ((row >= np.minimum(x, x_r)) & (row <= np.maximum(x, x_r))).all()
            assert j in brute_neighbors(d.X, minority_rows, i, 5)

    def test_neighbor_pool_respects_k(self, skewed_dataset):
        d = skewed_dataset
        _, parent, neighbor, _ = smote_details(d, SmoteConfig(k_neighbors=1, seed=5))
        minority_rows = minority_of(d)
        for i, j in zip(parent, neighbor):
            assert [j] == brute_neighbors(d.X, minority_rows, i, 1)

    def test_pool_larger_than_minority(self):
        # k >= m - 1: every other minority row is a candidate
        d = make_dataset([[0], [1], [2], [3], [0], [2], [3]], [0, 0, 0, 0, 1, 1, 1], levels=[4])
        _, parent, neighbor, _ = smote_details(d, SmoteConfig(k_neighbors=50, seed=4))
        assert parent.tolist() == [4]
        assert neighbor[0] in (5, 6)

    def test_deterministic(self, skewed_dataset):
        a = smote_oversample(skewed_dataset, SmoteConfig(seed=9))
        b = smote_oversample(skewed_dataset, SmoteConfig(seed=9))
        assert np.array_equal(a.X, b.X)
        c = smote_oversample(skewed_dataset, SmoteConfig(seed=10))
        assert not np.array_equal(a.X, c.X)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SmoteConfig(k_neighbors=0)
        with pytest.raises(ValueError):
            SmoteConfig(target_ratio=-1.0)
        with pytest.raises(ValueError):
            SmoteConfig(seed=-1)
