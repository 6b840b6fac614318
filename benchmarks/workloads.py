"""Workloads: the generated inputs and the fixed command list of one pass.

Every workload runs every command kind once per pass, because every
end-to-end metric is reported on every workload and each per-kind median
needs several samples: a run holds four to six passes. What sets a
workload apart is the size of its data and its forest settings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from elicitrec import SyntheticSpec, generate_synthetic, write_csv

KINDS = ("run", "score", "balance", "train", "recommend", "evaluate")

#: context rows and thresholds generated per run; recommend call i uses row i mod N
N_CONTEXT_ROWS = 64
#: recommend thresholds are drawn uniformly from [0, THRESHOLD_MAX) nats
THRESHOLD_MAX = 0.05
#: run and score take these master seeds in turn, one per pass
N_MASTER_SEEDS = 2


@dataclass(frozen=True)
class DataSpec:
    n_majority: int
    n_minority: int
    p: int
    n_informative: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    data: DataSpec  # shape of the training CSV and of the holdout CSV evaluate reads
    config: dict  # config of run, score and balance
    pass_plan: tuple[str, ...]  # command kinds of one pass, in order
    train_config: dict = field(default_factory=dict)  # overrides for train

    def __post_init__(self):
        # evaluate and recommend read the pass's latest model.json, and
        # recommend its latest scores CSV
        plan = list(self.pass_plan)
        if set(plan) != set(KINDS):
            raise ValueError(f"{self.name}: the pass must hold every kind of {KINDS}")
        first = {kind: plan.index(kind) for kind in KINDS}
        if min(first["evaluate"], first["recommend"]) < first["train"] or first["recommend"] < first["score"]:
            raise ValueError(f"{self.name}: train must precede evaluate and recommend, score must precede recommend")


def _config(n_trees: int | None = None, top_k: int | None = None) -> dict:
    doc: dict = {"target": "target"}
    if n_trees is not None:
        doc["forest"] = {"n_trees": n_trees}
    if top_k is not None:
        doc["filter"] = {"top_k": top_k}
    return doc


_SURVEY = DataSpec(282, 41, 27, 6)
_BULK = DataSpec(4000, 2000, 30, 8)

FULL = {
    w.name: w
    for w in (
        Workload(
            name="survey",
            why="paper-scale data (282/41 rows, p=27), default config: forest growth in run and train, filter selection in score",
            data=_SURVEY,
            config=_config(),
            pass_plan=("run", "score", "train", "balance", "recommend", "evaluate"),
        ),
        Workload(
            name="bulk",
            why="6k rows with a 2k minority: SMOTE and CSV in balance, deep trees in run and train, a larger model to load in recommend",
            data=_BULK,
            config=_config(n_trees=4, top_k=5),
            train_config={"forest": {"n_trees": 8}},
            pass_plan=("balance", "run", "train", "score", "recommend", "evaluate"),
        ),
    )
}

_TINY = DataSpec(60, 20, 8, 3)

#: seconds-scale variants of the same workloads, for the benchmark's own tests
SMOKE = {
    name: Workload(
        name=name,
        why=w.why,
        data=_TINY,
        config=_config(n_trees=3, top_k=3),
        pass_plan=w.pass_plan,
        train_config={"forest": {"n_trees": 3}},
    )
    for name, w in FULL.items()
}

SCALES = {"full": FULL, "smoke": SMOKE}


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated inputs."""

    data_csv: Path
    holdout_csv: Path
    config: Path
    train_config: Path
    rows: tuple[Path, ...]
    thresholds: tuple[float, ...]
    master_seeds: tuple[int, ...]
    n_holdout_rows: int


def occurrence(w: Workload, kind: str, pass_index: int, i: int) -> int:
    """How many commands of `kind` precede the i-th one of pass `pass_index`."""
    return pass_index * w.pass_plan.count(kind) + i


def _seed_stream(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def generate_inputs(w: Workload, seed: int, out: Path) -> Inputs:
    """Write every input of one workload from `seed`; same seed, same bytes."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(_seed_stream(seed, 0))
    data = generate_synthetic(SyntheticSpec(**vars(w.data), seed=_seed_stream(seed, 1)))
    holdout = generate_synthetic(SyntheticSpec(**vars(w.data), seed=_seed_stream(seed, 2)))
    # evaluate reads the holdout with the model's schema, so every level
    # it uses must occur in the training data
    for j, f in enumerate(data.schema):
        if not set(np.unique(holdout.X[:, j])) <= set(np.unique(data.X[:, j])):
            raise ValueError(f"holdout level of {f.name} absent from the training data")
    data_csv = out / "data.csv"
    holdout_csv = out / "holdout.csv"
    write_csv(data, data_csv)
    write_csv(holdout, holdout_csv)

    config = out / "config.json"
    config.write_text(json.dumps(w.config, sort_keys=True), encoding="utf-8")
    train_config = out / "train_config.json"
    train_config.write_text(json.dumps({**w.config, **w.train_config}, sort_keys=True), encoding="utf-8")

    row_idx = rng.choice(holdout.n_rows, size=N_CONTEXT_ROWS, replace=False)
    rows = []
    for k, i in enumerate(row_idx):
        path = out / f"row_{k:02d}.json"
        path.write_text(json.dumps(dict(zip(holdout.feature_names, holdout.decode_row(int(i))))), encoding="utf-8")
        rows.append(path)
    thresholds = tuple(float(t) for t in rng.uniform(0.0, THRESHOLD_MAX, size=N_CONTEXT_ROWS))
    master_seeds = tuple(int(s) for s in rng.integers(0, 2**31, size=N_MASTER_SEEDS))
    return Inputs(
        data_csv=data_csv,
        holdout_csv=holdout_csv,
        config=config,
        train_config=train_config,
        rows=tuple(rows),
        thresholds=thresholds,
        master_seeds=master_seeds,
        n_holdout_rows=holdout.n_rows,
    )
