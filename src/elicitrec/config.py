"""Names and settings shared by every layer, and the config file, in plain Python.

The feature roles, the filter methods, the pipeline modes, the
positive-class cut-off, a feature's schema and the four settings records
that a config file fills. `load_settings` reads the config file (keys
`_KEYS`), refusing an unknown key, a wrong type or a non-finite number,
and merges a command's flags into it. Nothing here imports numpy, so a
command that needs no arrays (`recommend`, `--help`) starts without it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
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


@dataclass(frozen=True)
class FeatureSchema:
    """One categorical feature: its name, role, and ordered level list."""

    name: str
    role: str
    levels: tuple[str, ...]

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r} for feature {self.name!r}")
        if not self.levels:
            raise ValueError(f"feature {self.name!r} has no levels")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError(f"feature {self.name!r} has duplicate levels")

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


@dataclass(frozen=True)
class SmoteConfig:
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


@dataclass(frozen=True)
class ForestParams:
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

    def resolve_mtry(self, p: int) -> int:
        mtry = self.mtry if self.mtry is not None else max(1, int(math.sqrt(p)))
        if mtry > p:
            raise ValueError(f"forest.mtry {mtry} exceeds the {p} feature(s) its forest grows on")
        return mtry


@dataclass(frozen=True)
class FilterConfig:
    methods: tuple[str, ...] = METHODS
    top_k: int = 10

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.methods:
            raise ValueError("at least one scoring method is required")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown scoring methods: {unknown}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate scoring methods")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")


@dataclass(frozen=True)
class PipelineConfig:
    target_name: str
    mode: str = MODE_SOUND
    test_fraction: float = 0.2
    smote: Optional[SmoteConfig] = field(default_factory=SmoteConfig)
    forest: ForestParams = field(default_factory=ForestParams)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie strictly between 0 and 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


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

#: the dataclass each config section is read into; a key the section
#: leaves out takes the dataclass default
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


@dataclass(frozen=True)
class Settings:
    """Everything a subcommand might need, merged from config and flags.
    `pipeline.target_name` is empty when no target is set."""

    pipeline: PipelineConfig
    filter: FilterConfig
    positive_label: Optional[str] = None
    roles: dict[str, str] = field(default_factory=dict)
    recommendation_threshold: Optional[float] = None


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
    pipeline = {f.name: doc.pop(f.name) for f in fields(PipelineConfig) if f.name in doc}
    return Settings(PipelineConfig(target_name=doc.pop("target", None) or "", **pipeline), **doc)
