"""Every top-level function, class and assignment of the package has a
reader: it is exported in `elicitrec.__all__`, package code outside its own
definition reads it, or the benchmark harness under benchmarks/ reads it.
A name that only tests read is code the package carries for its tests.
"""

import ast
from collections import defaultdict
from pathlib import Path

import elicitrec

ROOT = Path(__file__).resolve().parents[1]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _definitions(tree: ast.Module):
    """(name, node) of each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _reads(tree: ast.Module):
    """(name, line) of every name the module reads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def test_every_package_name_has_a_reader():
    modules = {path: _parse(path) for path in sorted((ROOT / "src" / "elicitrec").glob("*.py"))}
    read_at = defaultdict(list)  # name -> (module, line) of each read in the package
    for path, tree in modules.items():
        for name, line in _reads(tree):
            read_at[name].append((path, line))
    bench_reads = {name for path in (ROOT / "benchmarks").rglob("*.py") for name, _ in _reads(_parse(path))}
    unread = []
    for path, tree in modules.items():
        for name, node in _definitions(tree):
            if (name.startswith("__") and name.endswith("__")) or name in elicitrec.__all__ or name in bench_reads:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in own for p, line in read_at[name]):
                unread.append(f"{path.stem}.{name}")
    assert unread == []
