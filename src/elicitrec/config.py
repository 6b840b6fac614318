"""Names and settings shared by every layer, in plain Python.

The feature roles, the filter methods, the pipeline modes, the
positive-class cut-off, a feature's schema and the four settings records
that a config file fills. Nothing here imports numpy, so a command that
needs no arrays (`recommend`, `--help`) starts without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

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
            raise ValueError(f"mtry {mtry} exceeds feature count {p}")
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
