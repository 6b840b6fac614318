"""Every top-level function, class and assignment of the package has a
reader: it is exported in `elicitrec.__all__`, package code outside its own
definition reads it, or the benchmark harness under benchmarks/ reads it.
So has every property of a package class, read as an attribute. A name
that only tests read is code the package carries for its tests.
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


def _properties(tree: ast.Module):
    """(name, node) of each property and cached_property of a top-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                # @property, @cached_property or @functools.cached_property
                names = {getattr(d, "id", getattr(d, "attr", None)) for d in getattr(node, "decorator_list", ())}
                if names & {"property", "cached_property"}:
                    yield f"{cls.name}.{node.name}", node


def _reads(tree: ast.Module):
    """(name, line, as_attribute) of every name the module reads, bare or
    as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, True


def test_every_package_name_has_a_reader():
    modules = {path: _parse(path) for path in sorted((ROOT / "src" / "elicitrec").glob("*.py"))}
    read_at = defaultdict(list)  # name -> (module, line, as_attribute) of each read in the package
    for path, tree in modules.items():
        for name, line, attr in _reads(tree):
            read_at[name].append((path, line, attr))
    bench_reads = {
        (name, attr) for path in (ROOT / "benchmarks").rglob("*.py") for name, _, attr in _reads(_parse(path))
    }

    def unread(path, node, name, attr_only):
        # a property is read as an attribute: not by a getattr with a
        # string, nor by a call of a same-named function
        if (name, True) in bench_reads or ((name, False) in bench_reads and not attr_only):
            return False
        own = range(node.lineno, node.end_lineno + 1)
        return not any((p != path or line not in own) and (attr or not attr_only) for p, line, attr in read_at[name])

    found = []
    for path, tree in modules.items():
        for name, node in _definitions(tree):
            if (name.startswith("__") and name.endswith("__")) or name in elicitrec.__all__:
                continue
            if unread(path, node, name, attr_only=False):
                found.append(f"{path.stem}.{name}")
        for qualified, node in _properties(tree):
            if unread(path, node, node.name, attr_only=True):
                found.append(f"{path.stem}.{qualified}")
    assert found == []


def test_dir_lists_every_export():
    """`dir(elicitrec)` names every export, also one that no use has loaded yet."""
    names = dir(elicitrec)
    assert names == sorted(set(names))
    assert {*elicitrec.__all__, "__version__"} <= set(names)


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
