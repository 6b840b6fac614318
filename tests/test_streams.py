"""The package's random streams against the pure-Python oracle in
`conftest`: the generator itself, Lemire's bounded draw, and every draw a
command makes (derived seeds, bootstraps and root keys, the split, SMOTE's
picks and draws), bit for bit; the rule that keeps `numpy.random` out
of the commands; and the rule that keeps process-wide memos out of the
package, so every call computes its result afresh."""

import ast
from pathlib import Path

import numpy as np
import pytest

from elicitrec import data_model, forest
from elicitrec.config import ForestParams, SmoteConfig
from elicitrec.data_model import _below, _bounded, _stream, _unit, derive_seed, minority_label, split_train_test
from elicitrec.sampler import smote_details

from conftest import (
    MASK64,
    bootstrap_rows,
    bounded_draws,
    derived_seed,
    lemire,
    make_dataset,
    root_keys,
    smote_draws,
    split_rows,
    splitmix64,
)
from test_sampler import brute_neighbors

SRC = Path(__file__).resolve().parents[1] / "src" / "elicitrec"


@pytest.mark.parametrize("key, first", [(0, 0), (1, 0), (0x9E3779B97F4A7C15, 7), (MASK64, 2**40)])
def test_stream_equals_the_oracle_on_1e5_outputs(key, first):
    got = _stream(np.array([key], np.uint64), first, 10**5)[0].tolist()
    assert got == [splitmix64(key, first + i) for i in range(10**5)]


def test_unit_takes_the_top_53_bits():
    z = np.array([0, 1, 2**11 - 1, 2**11, MASK64], np.uint64)
    assert _unit(z).tolist() == [0.0, 0.0, 0.0, 2.0**-53, 1 - 2.0**-53]


@pytest.mark.parametrize("bits", [5, 8])
def test_lemire_is_exactly_uniform_at_a_small_word_size(bits):
    # every bound, every output: each value keeps floor(2**bits / bound)
    # accepted outputs
    for bound in range(1, 2**bits + 1):
        counts = [0] * bound
        for z in range(2**bits):
            value, accepted = lemire(z, bound, bits)
            counts[value] += accepted
        assert counts == [2**bits // bound] * bound, bound


@pytest.mark.parametrize("bound", [1, 2, 3, 7, 258, 5999, 6000, 2**31 + 1, 2**32 - 5, 2**32 - 1])
def test_below_equals_the_oracle_at_64_bits(bound):
    z = [0, 1, MASK64, *np.random.default_rng(bound % 1000).integers(0, 2**64, 2000, dtype=np.uint64).tolist()]
    if bound % 2:  # an odd bound is invertible mod 2**64: outputs whose low word sits at the threshold
        inverse, threshold = pow(bound, -1, 1 << 64), (1 << 64) % bound
        z += [(low * inverse) & MASK64 for low in (threshold - 1, threshold, threshold + 1) if low >= 0]
    value, accepted = _below(np.array(z, np.uint64), bound)
    assert list(zip(value.tolist(), accepted.tolist())) == [lemire(x, bound) for x in z]


def unmix(z):
    """The inverse of splitmix64's finalizer: each xorshift undone by
    iterating it, each product by the inverse of its odd constant."""
    for shift, factor in ((31, 0x94D049BB133111EB), (27, 0xBF58476D1CE4E5B9), (30, None)):
        x = z
        for _ in range(64 // shift + 1):
            x = z ^ (x >> shift)
        z = x if factor is None else (x * pow(factor, -1, 1 << 64)) & MASK64
    return z


def rejecting_key(bound, counter):
    """A key whose stream output at `counter` Lemire's map rejects for an odd `bound`."""
    low = (1 << 64) % bound - 1  # the largest rejected low word
    z = (low * pow(bound, -1, 1 << 64)) & MASK64
    return (unmix(z) - counter * 0x9E3779B97F4A7C15) & MASK64


@pytest.mark.parametrize("bound", [3, 5999, 2**32 - 5])
def test_a_rejected_output_is_skipped(bound):
    # keys that reject their first, a middle, the last and the first
    # extra output, and one that rejects none of them
    counters = [1, 17, 40, 41]
    keys = [rejecting_key(bound, c) for c in counters] + [12345]
    for key, c in zip(keys, counters):
        assert not lemire(splitmix64(key, c), bound)[1]
    got = _bounded(np.array(keys, np.uint64), 1, 40, bound)
    assert got.tolist() == [bounded_draws(k, 1, 40, bound) for k in keys]


def test_redraws_over_several_rounds(monkeypatch):
    # with a quarter of the outputs also rejected, keys lack draws after
    # the first extra outputs too; the skip rule stays the oracle's
    real = data_model._below

    def often(z, bound):
        value, accepted = real(z, bound)
        return value, accepted & (z % np.uint64(4) != 0)

    monkeypatch.setattr(data_model, "_below", often)
    keys = [1, 2, 3, 2**63 + 5]
    got = _bounded(np.array(keys, np.uint64), 1, 40, 6000)
    assert got.tolist() == [bounded_draws(k, 1, 40, 6000, also_reject=lambda z: z % 4 == 0) for k in keys]
    assert got.dtype == np.int64


@pytest.mark.parametrize("master", [0, 1, 7, 2**63, MASK64, 2**64, 2**64 + 7, 2**128 + 3, 3**100])
def test_derive_seed_equals_the_oracle(master):
    for stream in (0, 1, 2, 3, 2**64 + 1):
        seed = derive_seed(master, stream)
        assert seed == derived_seed(master, stream)
        assert 0 <= seed < 2**63


def test_derive_seed_absorbs_every_word():
    assert derive_seed(7 + 2**64, 0) != derive_seed(7, 0)
    assert derive_seed(2**64, 0) != derive_seed(1, 0) != derive_seed(0, 0)
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(0, -1)


@pytest.mark.parametrize("seed", [0, 5, 2**63 + 11, 2**64 + 3])
def test_bootstrap_equals_the_oracle(seed):
    rows, keys = forest.draw_bootstrap(37, ForestParams(n_trees=6, seed=seed))
    assert rows.tolist() == [r.tolist() for r in bootstrap_rows(seed, 6, 37)]
    assert keys.tolist() == root_keys(seed, 6)


def test_tree_t_depends_on_the_seed_t_and_the_rows_only(monkeypatch):
    rows, keys = forest.draw_bootstrap(50, ForestParams(n_trees=9, seed=4))
    monkeypatch.setattr(forest, "_DRAW_ENTRIES", 120)  # trees drawn two at a time
    few_rows, few_keys = forest.draw_bootstrap(50, ForestParams(n_trees=5, seed=4))
    assert few_rows.tolist() == rows[:5].tolist()
    assert few_keys.tolist() == keys[:5].tolist()


def test_each_draw_is_fresh():
    """No draw is kept between calls: equal arguments give equal, writable
    arrays of their own."""
    params = ForestParams(n_trees=3, seed=4)
    first, second = forest.draw_bootstrap(7, params), forest.draw_bootstrap(7, params)
    for a, b in zip(first, second):
        assert a.tolist() == b.tolist()
        assert a is not b and not np.shares_memory(a, b)
        assert a.flags.writeable and b.flags.writeable


@pytest.mark.parametrize("n, fraction, seed", [(10, 0.2, 0), (323, 0.2, 1234567), (57, 0.35, 2**64 + 9)])
def test_split_equals_the_oracle(n, fraction, seed):
    d = make_dataset(np.arange(n)[:, None], np.arange(n) % 2)
    train, test = split_train_test(d, fraction, seed)
    assert (train.X[:, 0].tolist(), test.X[:, 0].tolist()) == split_rows(seed, n, round(n * fraction))


@pytest.mark.parametrize("seed, k", [(0, 5), (2**64 + 1, 3), (987654321, 1)])
def test_smote_draws_equal_the_oracle(skewed_dataset, seed, k):
    d = skewed_dataset
    _, parent, neighbor, draw = smote_details(d, SmoteConfig(k_neighbors=k, seed=seed))
    picks, draws = smote_draws(seed, len(parent), k)
    minority = np.flatnonzero(d.y == minority_label(d)).tolist()
    assert draw.tolist() == draws
    assert neighbor.tolist() == [brute_neighbors(d.X, minority, i, k)[pick] for i, pick in zip(parent, picks)]


def numpy_random_lines(tree: ast.AST):
    """The line of each use of numpy.random in `tree`: `np.random` or
    `numpy.random` read as an attribute, `import numpy.random`, `from numpy
    import random` and `from numpy.random import ...`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                yield node.lineno
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[:2] == ["numpy", "random"] for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            module = node.module.split(".")
            if module[:2] == ["numpy", "random"] or (module == ["numpy"] and any(a.name == "random" for a in node.names)):
                yield node.lineno


@pytest.mark.parametrize("source", [
    "np.random.default_rng(0)", "numpy.random.SeedSequence(1)", "import numpy.random", "import numpy.random as npr",
    "from numpy import random", "from numpy.random import default_rng", "from numpy.random._pcg64 import PCG64",
])
def test_the_check_finds_each_form(source):
    assert list(numpy_random_lines(ast.parse(source))) == [1]


def test_numpy_random_only_in_generate_synthetic():
    """Only `generate_synthetic`, which no command calls, draws with
    `numpy.random`; every other draw is the package's own stream."""
    found, exempt = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            lines = [(path.name, line) for line in numpy_random_lines(node)]
            if path.name == "data_model.py" and getattr(node, "name", None) == "generate_synthetic":
                exempt += lines
            else:
                found += lines
    assert found == []
    assert exempt  # the check reads the module it guards


#: the `functools` decorators that keep results for the life of the process
MEMOS = ("lru_cache", "cache", "cached_property")


def memo_lines(tree: ast.AST):
    """The line of each use of a `MEMOS` decorator in `tree`: read as an
    attribute of `functools` (under any name it is imported as), or
    imported from it."""
    modules = {"functools"} | {
        a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "functools"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in MEMOS and isinstance(node.value, ast.Name) and node.value.id in modules:
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(a.name in (*MEMOS, "*") for a in node.names):
                yield node.lineno


@pytest.mark.parametrize("source", [
    "functools.lru_cache(maxsize=1)(f)", "import functools as ft; ft.cache(f)", "functools.cached_property(f)",
    "from functools import cached_property", "from functools import partial, lru_cache as memo",
    "from functools import *",
])
def test_the_memo_check_finds_each_form(source):
    assert list(memo_lines(ast.parse(source))) == [1]


def test_no_memo_in_the_package():
    """No function or property of the package keeps its results between
    calls: a kept result is shared by every caller in the process."""
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in memo_lines(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
