"""The model file: written, checked, read and scored in plain Python.

`model.json` holds a forest header (`format_version`, `n_trees`, `mtry`,
`criterion`, `seed`), the feature schema and target levels, and a
`trees` list. Each tree is an object of parallel integer node lists
(`config.NODE_FIELDS`, then `left` and `right`) in breadth-first order, root
first. A split sends a row whose code at `feature` is <= `threshold` to
`left`, else to `right`: 2k + 1 and 2k + 2 for the split after k earlier
splits of its tree. A leaf has `feature`, `left` and `right` -1 and
`threshold` 0. `n0` and `n1` count the training rows of each class there.

`pieces` streams the file a tree at a time and `model_to_dict` builds it
as one object, both from `_tree_lists`. `load` reads a file into a checked
`Bundle` (`check_bundle`, `check_forest`), `Bundle.code_row` checks a
context row against the schema and codes it, and `vote_share` scores the
codes on the node lists. Nothing here imports numpy, so `recommend` reads
its model and scores its row without it.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .config import CRITERIA, NODE_FIELDS, FeatureSchema, Record, distinct_schema
from .files import dump_json, read_json

MODEL_FORMAT_VERSION = 3

_FILE_FIELDS = (*NODE_FIELDS, "left", "right")
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
    """Each tree's node lists, from the node arrays and `offsets` of `m`."""
    split, cut = m.feature >= 0, m.offsets
    k = split.cumsum()  # splits up to each node, in the forest, then in its tree
    k -= (k - split)[cut[:-1]].repeat(cut[1:] - cut[:-1])
    left = 2 * k * split - 1  # the k-th split's children: 2k - 1, 2k; a leaf's -1
    columns = [(f, getattr(m, f)) for f in NODE_FIELDS] + [("left", left), ("right", left + split)]
    cut = cut.tolist()
    for a, b in zip(cut, cut[1:]):
        yield {f: values[a:b].tolist() for f, values in columns}


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
    in int64, laid out as `_tree_lists` writes them (checked in one pass),
    so that a descent from the root moves forward and ends at a leaf with rows."""
    missing = [f for f in _FILE_FIELDS if not isinstance(doc, dict) or f not in doc]
    if missing:
        raise ValueError(f"{where} lacks the node array {missing[0]!r}")
    for f in _FILE_FIELDS:
        values = doc[f]
        if not (isinstance(values, list) and set(map(type, values)) <= {int}
                and -_INT_LIMIT <= min(values, default=0) and max(values, default=0) < _INT_LIMIT):
            raise ValueError(f"{where} holds a node array ({f!r}) that is not a list of 64-bit integers")
    n = len(doc["feature"])
    if n == 0 or any(len(doc[f]) != n for f in _FILE_FIELDS):
        raise ValueError(f"{where} node arrays must be non-empty lists of equal length")
    last = 0  # the last node that the root and the splits so far reach
    for i, f, thr, n0, n1, left, right in zip(range(n), *map(doc.get, _FILE_FIELDS)):
        if i > last:
            raise ValueError(f"{where} has a node ({i}) that no split reaches")
        if f >= 0:
            if left != last + 1 or right != last + 2:
                raise ValueError(f"{where} has a split (node {i}) whose children are not {last + 1} and {last + 2}")
            last += 2
        elif f != -1 or thr != 0 or left != -1 or right != -1 or n0 < 0 or n1 < 0 or n0 + n1 == 0:
            raise ValueError(f"{where} has a leaf (node {i}) other than feature -1, threshold 0, left -1, right -1"
                             " with class counts >= 0, not both 0")
    if last >= n:
        raise ValueError(f"{where} has a child index outside the tree")


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


class Bundle(Record, eq=False):
    """A checked model file: its forest document, as parsed, and the
    schema and target levels that code a row for it."""

    __slots__ = ("forest", "schema", "target_name", "target_levels", "_model")

    def __init__(self, forest: dict, schema: tuple[FeatureSchema, ...], target_name: str,
                 target_levels: tuple[str, str]):
        self._set(forest=forest, schema=schema, target_name=target_name, target_levels=target_levels, _model=None)

    @property
    def model(self):
        """The forest as arrays (`forest.RandomForestModel`), built on first use."""
        if self._model is None:
            from .forest import _checked_model

            self._set(_model=_checked_model(self.forest))
        return self._model

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
    if max(max(t["feature"]) for t in trees) >= len(schema):
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
