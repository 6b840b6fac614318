"""The model file: written, checked, read and scored in plain Python.

`model.json` holds a forest header (`format_version`, `n_trees`, `mtry`,
`criterion`, `seed`), the feature schema and target levels, and a
`trees` list. Each tree is an object of parallel integer node lists
(`NODE_FIELDS`, then `right`) in breadth-first order, root first. An
internal node sends a row whose code at `feature` is <= `threshold` to
`left`, a tree-local index after its own, else to `right`, which is
`left + 1`; a leaf has `feature`, `left` and `right` -1 and `threshold` 0.
`n0` and `n1` count the training rows of each class that reached the node.

`pieces` streams the file a tree at a time and `model_to_dict` builds it
as one object, both from `_tree_lists`. `load` reads a file into a checked
`Bundle` (`check_bundle`, `check_forest`), `Bundle.code_row` checks a
context row against the schema and codes it, and `vote_share` scores the
codes on the node lists. Nothing here imports numpy, so `recommend` reads
its model and scores its row without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .config import CRITERIA, FeatureSchema, distinct_schema
from .files import dump_json, read_json

MODEL_FORMAT_VERSION = 3

#: a model's node arrays; a tree of the file adds `right`, derived from them
NODE_FIELDS = ("feature", "threshold", "left", "n0", "n1")
_FILE_FIELDS = (*NODE_FIELDS, "right")
#: the node lists must fit in int64, as the arrays hold them
_INT_LIMIT = 1 << 63


def _head(m, d=None) -> dict:
    """The model document of forest `m` (anything with `n_trees`, `mtry`,
    `criterion` and `seed`) without its trees: the forest header and, with
    `d` (anything with `schema`, `target_name` and `target_levels`), the
    schema and target that code a row for it."""
    doc = {"format_version": MODEL_FORMAT_VERSION, "n_trees": m.n_trees, "mtry": m.mtry,
           "criterion": m.criterion, "seed": m.seed}
    if d is not None:
        doc.update(
            schema=[{"name": f.name, "role": f.role, "levels": list(f.levels)} for f in d.schema],
            target_name=d.target_name,
            target_levels=list(d.target_levels),
        )
    return doc


def _tree_lists(m) -> Iterator[dict]:
    """Each tree's node lists, from the node arrays and `offsets` of `m`,
    and `right`: `left + 1` at a split, -1 at a leaf."""
    right = m.left + 1
    right[m.feature < 0] = -1
    cut = m.offsets.tolist()
    for a, b in zip(cut, cut[1:]):
        yield {**{f: getattr(m, f)[a:b].tolist() for f in NODE_FIELDS}, "right": right[a:b].tolist()}


def model_to_dict(m, d=None) -> dict:
    """The forest document of model `m`; with `d`, the model file's."""
    return {**_head(m, d), "trees": list(_tree_lists(m))}


def pieces(m, d) -> Iterator[str]:
    """`dump_json(model_to_dict(m, d), compact=True)`, a tree at a time.
    "trees" sorts after every other key, so the text is the head's up to
    its closing brace, then the trees."""
    yield dump_json(_head(m, d), compact=True)[:-2] + ',"trees":['
    for t, tree in enumerate(_tree_lists(m)):
        yield ("," if t else "") + dump_json(tree, compact=True)[:-1]
    yield "]}\n"


def _check_tree(doc, where: str) -> None:
    """Check one tree's node lists: JSON integers (a bool is none) that fit
    in int64, so that a descent from the root only moves forward, stays
    inside the tree and ends at a leaf with rows; `right` as `_tree_lists`
    writes it."""
    missing = [f for f in _FILE_FIELDS if not isinstance(doc, dict) or f not in doc]
    if missing:
        raise ValueError(f"{where} lacks the node array {missing[0]!r}")
    for f in _FILE_FIELDS:
        values = doc[f]
        if not (isinstance(values, list) and set(map(type, values)) <= {int}
                and -_INT_LIMIT <= min(values, default=0) and max(values, default=0) < _INT_LIMIT):
            raise ValueError(f"{where} holds a node array ({f!r}) that is not a list of 64-bit integers")
    feature = doc["feature"]
    n = len(feature)
    if n == 0 or any(len(doc[f]) != n for f in _FILE_FIELDS):
        raise ValueError(f"{where} node arrays must be non-empty lists of equal length")
    for i, f, left, right in zip(range(n), feature, doc["left"], doc["right"]):
        if f >= 0 and not (i < left < n and i < right < n):
            raise ValueError(f"{where} has a child index not after its parent or outside the tree")
        if right != (left + 1 if f >= 0 else -1):
            raise ValueError(f"{where} has a 'right' that is not 'left' + 1 at a split or not -1 at a leaf")
    for f, n0, n1 in zip(feature, doc["n0"], doc["n1"]):
        if f < 0 and (n0 < 0 or n1 < 0 or n0 + n1 == 0):
            raise ValueError(f"{where} has a leaf with negative class counts or none at all")


def check_forest(doc: dict) -> list[dict]:
    """The trees of forest document `doc` (`model_to_dict`'s layout), once
    it is known to be a well-formed forest of the current format; raises
    ValueError otherwise. `n_trees`, `mtry`, `seed` and every node list
    must hold JSON integers; a bool is none. `mtry` must be at least 1 and
    `criterion` one of `CRITERIA`."""
    version = doc.get("format_version")
    if version in (1, 2):
        raise ValueError(f"model format_version {version} is no longer read; retrain with `elicitrec train`")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version!r}")
    missing = [k for k in ("n_trees", "mtry", "criterion", "seed", "trees") if k not in doc]
    if missing:
        raise ValueError(f"model lacks {missing[0]!r}")
    if not all(type(doc[k]) is int for k in ("n_trees", "mtry", "seed")):
        raise ValueError("model n_trees, mtry and seed must be integers")
    if doc["mtry"] < 1:
        raise ValueError(f"model mtry must be at least 1, got {doc['mtry']}")
    if doc["criterion"] not in CRITERIA:
        raise ValueError(f"model criterion must be one of {CRITERIA}, got {doc['criterion']!r}")
    trees = doc["trees"]
    if not isinstance(trees, list) or not trees or len(trees) != doc["n_trees"]:
        raise ValueError("model trees must be a list of n_trees (at least 1) trees")
    for k, t in enumerate(trees):
        _check_tree(t, f"model tree {k}")
    return trees


@dataclass(frozen=True, eq=False)
class Bundle:
    """A checked model file: its forest document, as parsed, and the
    schema and target levels that code a row for it."""

    forest: dict
    schema: tuple[FeatureSchema, ...]
    target_name: str
    target_levels: tuple[str, str]

    @cached_property
    def model(self):
        """The forest as arrays (`forest.RandomForestModel`), built on first use."""
        from .forest import _checked_model

        return _checked_model(self.forest)

    def code_row(self, row) -> list[int]:
        """The codes, in schema order, of context row `row`: a JSON object
        that maps every feature of the schema, and nothing else, to one of
        its levels."""
        if not isinstance(row, dict) or not all(isinstance(v, str) for v in row.values()):
            raise ValueError("must be a JSON object of feature -> level string")
        codes = []
        for f in self.schema:
            if f.name not in row:
                raise ValueError(f"lacks feature {f.name!r}")
            codes.append(f.encode(row[f.name]))
        extra = sorted(set(row) - {f.name for f in self.schema})
        if extra:
            raise ValueError(f"has unknown feature(s): {', '.join(extra)}")
        return codes


def check_bundle(doc) -> Bundle:
    """The model file document `doc`, once `check_forest` passes it, its
    schema entries are well formed with distinct names, its target name is
    a string and its target levels two distinct strings, and every tree
    splits only on features of its schema; raises ValueError otherwise."""
    if not isinstance(doc, dict):
        raise ValueError("model file must hold a JSON object")
    for key in ("schema", "target_name", "target_levels"):
        if key not in doc:
            raise ValueError(f"model file lacks {key!r}")
    try:
        entries = [(f["name"], f["role"], f["levels"]) for f in doc["schema"]]
    except (KeyError, TypeError):
        raise ValueError("model schema entries need 'name', 'role' and 'levels'") from None
    for name, _, levels in entries:
        if not isinstance(levels, list) or not all(isinstance(v, str) for v in [name, *levels]):
            raise ValueError(f"model schema entry {name!r}: name must be a string, levels a list of strings")
    schema = distinct_schema(FeatureSchema(name, role, tuple(levels)) for name, role, levels in entries)
    target, levels = doc["target_name"], doc["target_levels"]
    if not isinstance(levels, list) or len(levels) != 2:
        raise ValueError("model target_levels must list exactly two values")
    if not all(isinstance(v, str) for v in [target, *levels]) or levels[0] == levels[1]:
        raise ValueError("model target_name must be a string and target_levels two distinct strings")
    trees = check_forest(doc)
    if min(min(t["feature"]) for t in trees) < -1 or max(max(t["feature"]) for t in trees) >= len(schema):
        raise ValueError(f"model has a feature index outside its {len(schema)}-feature schema")
    return Bundle(forest=doc, schema=schema, target_name=target, target_levels=tuple(levels))


def load(path: str) -> Bundle:
    """The model file at `path`, read and checked (`check_bundle`)."""
    return check_bundle(read_json(path, "model"))


def vote_share(forest: dict, row: Sequence[int]) -> float:
    """The vote share of one row of codes (`Bundle.code_row`): the mean over
    the trees of the checked forest document `forest` of the leaf fraction
    n1 / (n0 + n1) that the row reaches. Like `forest.predict_proba_many`,
    it adds the fractions tree by tree and then divides by the tree count,
    so the two agree bit for bit (for counts below 2**53, which floats
    hold exactly)."""
    acc = 0.0
    for t in forest["trees"]:
        feature, threshold, left = t["feature"], t["threshold"], t["left"]
        i = 0
        while (f := feature[i]) >= 0:
            i = left[i] + (row[f] > threshold[i])
        acc += t["n1"][i] / (t["n0"][i] + t["n1"][i])
    return acc / len(forest["trees"])
