"""The benchmark harness under benchmarks/ drives the library by name.

Its own test (benchmarks/test_smoke.py) lies outside the tier-1 suite, so
these tests guard what the harness uses: its modules import cleanly, every
`cli_module.X` and `recommender.X` that traced.py reads exists, every
library call in the harness binds to the callee's signature, and every
command line that run.py builds parses.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from elicitrec import cli

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
MODULES = ("workloads", "checks", "traced")
#: module aliases through which traced.py reads library attributes
ALIASES = ("cli_module", "recommender")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        yield {name: importlib.import_module(name) for name in MODULES}
    finally:
        sys.path.remove(str(BENCH))
        for name, mod in list(sys.modules.items()):
            if Path(getattr(mod, "__file__", None) or "/").parent == BENCH:
                del sys.modules[name]


def _tree(mod) -> ast.Module:
    return ast.parse(Path(mod.__file__).read_text(encoding="utf-8"))


def test_traced_reads_existing_names(bench):
    traced = bench["traced"]
    read = sorted(
        {
            (node.value.id, node.attr)
            for node in ast.walk(_tree(traced))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ALIASES
        }
    )
    assert ("cli_module", "_load_bundle") in read  # the scan sees the uses
    missing = [f"{alias}.{attr}" for alias, attr in read if not hasattr(getattr(traced, alias), attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_library_calls_bind(bench, name):
    mod = bench[name]
    checked = 0
    for node in ast.walk(_tree(mod)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            fn = getattr(mod, func.id, None)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in ALIASES:
            fn = getattr(getattr(mod, func.value.id), func.attr)
        else:
            continue
        if not getattr(fn, "__module__", "").startswith("elicitrec"):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
            continue
        # raises TypeError on a removed keyword or too many positional arguments
        inspect.signature(fn).bind_partial(*node.args, **{k.arg: k.value for k in node.keywords})
        checked += 1
    assert checked > 0


def test_benchmark_command_lines_parse(bench):
    run = importlib.import_module("run")
    parser = cli._build_parser()
    inputs = SimpleNamespace(
        data_csv=Path("data.csv"),
        holdout_csv=Path("holdout.csv"),
        config=Path("config.json"),
        train_config=Path("train_config.json"),
        rows=(Path("row_00.json"), Path("row_01.json")),
        thresholds=(0.01, 0.02),
        master_seeds=(11, 12),
    )
    for w in bench["workloads"].FULL.values():
        commands = run.plan_pass(w, inputs, pass_index=1, work=Path("work"), first_command=0)
        assert sorted({c.kind for c in commands}) == sorted(set(w.pass_plan))
        for c in commands:
            parser.parse_args(c.argv)  # exits 2 on a flag the command does not take
