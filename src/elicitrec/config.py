"""Names and settings shared by every layer, and the config file, in plain Python.

The feature roles, the filter methods, the pipeline modes, the
positive-class cut-off, the split criteria, a forest's node fields
(`NODE_FIELDS`, shared by `forest` and `model_file`), `Record` (the
frozen base of the package's records), a feature's schema and the four
settings records that a config file fills. `load_settings` reads the config file (keys
`_KEYS`), refusing an unknown key, a wrong type or a non-finite number,
and merges a command's flags into it. Nothing here imports numpy, so a
command that needs no arrays (`recommend`, `--help`) starts without it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Iterable, Mapping, Optional

from .files import read_json

ROLE_CONTEXT = "context"
ROLE_TECHNIQUE = "technique"
ROLES = (ROLE_CONTEXT, ROLE_TECHNIQUE)

METHOD_CHI2 = "Chi2"
METHOD_ANOVA_F = "AnovaF"
METHOD_MUTUAL_INFO = "MutualInfo"
METHODS = (METHOD_CHI2, METHOD_ANOVA_F, METHOD_MUTUAL_INFO)

MODE_BALANCE_FIRST = "balance-first"  # balance, then split (optimistic)
MODE_SOUND = "sound"  # split, then balance the training subset only
MODES = (MODE_BALANCE_FIRST, MODE_SOUND)

#: a row whose positive-class score reaches the cut-off is predicted positive
CUTOFF = 0.5

CRITERIA = ("gini", "entropy")

#: a forest's int64 node arrays, one entry per node; a tree of the model
#: file adds `left` and `right`, derived from `feature`
NODE_FIELDS = ("feature", "threshold", "n0", "n1")


class Record:
    """The frozen base of the package's records.

    A subclass lists its fields in `__slots__`, in order; a slot whose name
    starts with an underscore is private state, not a field. Its `__init__`
    checks the values and sets each field once, through `_set`. A record
    compares and hashes by its fields, like a frozen dataclass, unless its
    class passes `eq=False`, which keeps identity. `replace(**changes)`
    builds a new record through `__init__`, so every check runs again.
    Unlike a dataclass, defining a record generates and compiles no code,
    which every command would pay for at start-up.
    """

    __slots__ = ("__weakref__",)  # a caller may watch a record's lifetime
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes):
        """A copy of this record with `changes` applied, checked again."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class FeatureSchema(Record):
    """One categorical feature: its name, role, and ordered level list."""

    __slots__ = ("name", "role", "levels")

    def __init__(self, name: str, role: str, levels: tuple[str, ...]):
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r} for feature {name!r}")
        if not levels:
            raise ValueError(f"feature {name!r} has no levels")
        if len(set(levels)) != len(levels):
            raise ValueError(f"feature {name!r} has duplicate levels")
        self._set(name=name, role=role, levels=levels)

    def decode(self, code: int) -> str:
        return self.levels[code]

    def encode(self, value: str) -> int:
        try:
            return self.levels.index(value)
        except ValueError:
            raise ValueError(
                f"unknown level {value!r} for feature {self.name!r}"
            ) from None


def distinct_schema(features: Iterable[FeatureSchema]) -> tuple[FeatureSchema, ...]:
    """`features` as a tuple, once no two of them share a name: a schema
    that named one column twice would read it as two features."""
    schema = tuple(features)
    names = [f.name for f in schema]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ValueError(f"feature {dup!r} appears more than once in the schema")
    return schema


@dataclasses.dataclass(frozen=True)
class SmoteConfig:
    """SMOTE's settings. It stays a dataclass, not a `Record`: the
    benchmark harness copies it with `dataclasses.replace`."""

    k_neighbors: int = 5
    target_ratio: float = 1.0  # 1.0 = minority matches the majority count
    seed: int = 0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ValueError("target_ratio must be in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    replace = dataclasses.replace


@dataclasses.dataclass(frozen=True)
class ForestParams:
    """The forest's settings; a dataclass for the reason `SmoteConfig` is."""

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

    replace = dataclasses.replace

    def resolve_mtry(self, p: int) -> int:
        mtry = self.mtry if self.mtry is not None else max(1, int(math.sqrt(p)))
        if mtry > p:
            raise ValueError(f"forest.mtry {mtry} exceeds the {p} feature(s) its forest grows on")
        return mtry


class FilterConfig(Record):
    __slots__ = ("methods", "top_k")

    def __init__(self, methods: Iterable[str] = METHODS, top_k: int = 10):
        methods = tuple(methods)
        if not methods:
            raise ValueError("at least one scoring method is required")
        unknown = [m for m in methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown scoring methods: {unknown}")
        if len(set(methods)) != len(methods):
            raise ValueError("duplicate scoring methods")
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        self._set(methods=methods, top_k=top_k)


class PipelineConfig(Record):
    __slots__ = ("target_name", "mode", "test_fraction", "smote", "forest", "seed")

    def __init__(
        self,
        target_name: str,
        mode: str = MODE_SOUND,
        test_fraction: float = 0.2,
        smote: Optional[SmoteConfig] = SmoteConfig(),  # None: no balancing
        forest: ForestParams = ForestParams(),
        seed: int = 0,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if not 0.0 < test_fraction < 1.0:
            raise ValueError("test_fraction must lie strictly between 0 and 1")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self._set(target_name=target_name, mode=mode, test_fraction=test_fraction, smote=smote, forest=forest,
                  seed=seed)


#: JSON types by the name a config error gives them
_JSON_TYPES = {
    "an integer": (int,),
    "a number": (int, float),
    "a string": (str,),
    "a list": (list,),
    "an object": (dict,),
    "null": (type(None),),
}

#: every key of each config level and the JSON types it accepts; null is
#: accepted only where it means something
_KEYS = {
    "config": {
        "target": ("a string", "null"),
        "positive_label": ("a string", "null"),
        "roles": ("an object",),
        "mode": ("a string",),
        "test_fraction": ("a number",),
        "seed": ("an integer",),
        "smote": ("an object", "null"),  # null turns balancing off
        "forest": ("an object",),
        "filter": ("an object",),
        "recommendation_threshold": ("a number", "null"),
    },
    "smote": {"k_neighbors": ("an integer",), "target_ratio": ("a number",)},
    "forest": {
        "n_trees": ("an integer",),
        "mtry": ("an integer", "null"),  # null: floor(sqrt(p))
        "max_depth": ("an integer", "null"),  # null: unlimited
        "min_samples_leaf": ("an integer",),
        "criterion": ("a string",),
    },
    "filter": {"methods": ("a list",), "top_k": ("an integer",)},
}

#: the record each config section is read into; a key the section leaves
#: out takes the record's default
_SECTIONS = {"smote": SmoteConfig, "forest": ForestParams, "filter": FilterConfig}


def _checked(doc, level: str) -> dict:
    """`doc` once it is known to be an object holding only keys of config
    `level`, each with one of its JSON types (a bool is no integer) and
    every number finite."""
    where = "config" if level == "config" else f"config {level}"
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    keys = _KEYS[level]
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    for key, value in doc.items():
        name = key if level == "config" else f"{level}.{key}"
        types = tuple(t for kind in keys[key] for t in _JSON_TYPES[kind])
        if isinstance(value, bool) or not isinstance(value, types):
            expected = " or ".join(keys[key])
            raise ValueError(f"config {name} must be {expected}, got {json.dumps(value)}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"config {name} must be finite, got {value!r}")
    return doc


class Settings(Record):
    """Everything a subcommand might need, merged from config and flags.
    `pipeline.target_name` is empty when no target is set."""

    __slots__ = ("pipeline", "filter", "positive_label", "roles", "recommendation_threshold")

    def __init__(
        self,
        pipeline: PipelineConfig,
        filter: FilterConfig,
        positive_label: Optional[str] = None,
        roles: Optional[dict[str, str]] = None,
        recommendation_threshold: Optional[float] = None,
    ):
        self._set(pipeline=pipeline, filter=filter, positive_label=positive_label,
                  roles={} if roles is None else roles, recommendation_threshold=recommendation_threshold)


def load_settings(path: Optional[str], flags: Mapping[str, object]) -> Settings:
    """The settings of the config file at `path` (none: every default),
    with each of `flags` that names a top-level config key and is not
    None overriding that key; other flags are ignored."""
    doc: dict = {}
    if path is not None:
        doc = _checked(read_json(path, "config"), "config")
    for name, cls in _SECTIONS.items():
        if doc.get(name, {}) is not None:  # "smote": null stays None
            section = _checked(doc.get(name, {}), name)
            try:
                doc[name] = cls(**section)
            except ValueError as e:
                raise ValueError(f"config {name}: {e}") from None
    for name, role in doc.get("roles", {}).items():
        if role not in ROLES:
            raise ValueError(f"config roles[{name!r}] must be 'context' or 'technique'")
    doc.update((k, v) for k, v in flags.items() if k in _KEYS["config"] and v is not None)
    pipeline = {name: doc.pop(name) for name in PipelineConfig.__slots__ if name in doc}
    return Settings(PipelineConfig(target_name=doc.pop("target", None) or "", **pipeline), **doc)
