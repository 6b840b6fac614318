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


def test_every_sibling_import_is_read_where_it_is_imported():
    # a name imported from a sibling module and never read is a second
    # import path for it; importers should name the defining module
    unread = []
    for path in sorted((ROOT / "src" / "elicitrec").glob("*.py")):
        tree = _parse(path)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if (alias.asname or alias.name) not in read:
                        unread.append(f"{path.stem}: {alias.asname or alias.name} from .{node.module or ''}")
    assert unread == []


def test_cli_owns_no_file_format():
    # the modules whose data a file describes lay it out: cli builds no
    # JSON document, draws no SVG and declares no config key
    tree = _parse(ROOT / "src" / "elicitrec" / "cli.py")
    owned = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and (node.value in ("format_version", "comparison", "confusion") or "<svg" in node.value)
    ]
    tables = [
        name
        for name, node in _definitions(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, (ast.Dict, ast.DictComp))
    ]
    assert owned == [] and tables == []
