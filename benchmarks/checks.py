"""Output checks for the commands of an untraced run.

Each check reads the files one command wrote and returns a list of
problems; an empty list means the output is correct. The checks run after
the timed window, so they cost no measured time.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from elicitrec import model_from_dict, predict_proba
from elicitrec.feature_scoring import METHODS

PROVENANCE = "_synthetic"


def _read_json(path: Path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path.name} is not a JSON object")
    return doc


def _unit(value, name: str) -> list[str]:
    if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        return [f"{name} {value!r} outside [0, 1]"]
    return []


def check_run(out: Path) -> tuple[list[str], float | None]:
    """report.json parses, has both arms, and each arm's auch is in [0, 1].

    Returns the problems and the balanced arm's auch.
    """
    doc = _read_json(out / "report.json")
    rows = doc["report"]["rows"]
    if len(rows) != 1:
        return [f"report has {len(rows)} rows, expected 1"], None
    problems = []
    for arm in ("imbalanced", "balanced"):
        if arm not in rows[0]:
            problems.append(f"report lacks the {arm} arm")
        else:
            problems += _unit(rows[0][arm]["auch"], f"{arm} auch")
    for name in ("roc_imbalanced.csv", "roc_balanced.csv", "roc_hulls.svg"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    auch = None if problems else float(rows[0]["balanced"]["auch"])
    return problems, auch


def check_score(out: Path, config: dict, n_features: int) -> list[str]:
    """One scores CSV per method with a row per feature, and a chosen
    method among them when there are several."""
    methods = config.get("filter", {}).get("methods", list(METHODS))
    problems = []
    for method in methods:
        with (out / f"scores_{method}.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["feature", "role", "score"] or len(rows) - 1 != n_features:
            problems.append(f"scores_{method}.csv has the wrong header or row count")
    if len(methods) > 1:
        best = (out / "best_method.txt").read_text(encoding="utf-8").strip()
        if best not in methods:
            problems.append(f"best method {best!r} is not a candidate")
    return problems


def check_balance(out: Path, data_csv: Path, target_ratio: float = 1.0) -> list[str]:
    """balanced.csv keeps the original rows as a prefix, marks every
    appended row synthetic, and reaches the target class ratio."""
    with data_csv.open(newline="", encoding="utf-8") as fh:
        original = list(csv.reader(fh))
    with (out / "balanced.csv").open(newline="", encoding="utf-8") as fh:
        balanced = list(csv.reader(fh))
    problems = []
    if balanced[0] != original[0] + [PROVENANCE]:
        problems.append("balanced.csv header is not the input header plus provenance")
    n = len(original)
    if [r[:-1] for r in balanced[1:n]] != original[1:] or any(r[-1] != "0" for r in balanced[1:n]):
        problems.append("original rows are not an unchanged prefix of balanced.csv")
    if any(r[-1] != "1" for r in balanced[n:]):
        problems.append("an appended row is not marked synthetic")
    target = original[0].index("target")
    labels, counts = np.unique([r[target] for r in balanced[1:]], return_counts=True)
    if len(labels) != 2:
        return problems + ["balanced.csv does not hold two classes"]
    n_min, n_maj = sorted(int(c) for c in counts)
    if n_min != round(target_ratio * n_maj):
        problems.append(f"class counts {n_min}/{n_maj} miss the target ratio {target_ratio}")
    return problems


def check_train(out: Path, n_trees: int) -> list[str]:
    doc = _read_json(out / "model.json")
    if doc.get("n_trees") != n_trees or len(doc.get("trees", ())) != n_trees:
        return [f"model.json does not hold {n_trees} trees"]
    return []


def check_evaluate(out: Path, n_rows: int) -> list[str]:
    doc = _read_json(out / "evaluation.json")
    problems = _unit(doc["auc"], "auc") + _unit(doc["auch"], "auch")
    if doc["n_rows"] != n_rows or sum(doc["confusion"].values()) != n_rows:
        problems.append(f"evaluation does not cover the {n_rows} holdout rows")
    return problems


class ModelCache:
    """Models loaded in-process, once per model.json path."""

    def __init__(self):
        self._models: dict[Path, tuple] = {}

    def get(self, path: Path):
        if path not in self._models:
            doc = _read_json(path)
            levels = {f["name"]: f["levels"] for f in doc["schema"]}
            self._models[path] = (model_from_dict(doc), levels, [f["name"] for f in doc["schema"]])
        return self._models[path]


def check_recommend(out: Path, model: Path, row: Path, threshold: float, models: ModelCache) -> list[str]:
    """The reported probability equals in-process predict_proba on the same
    model and row, and every listed feature scores above the threshold."""
    doc = _read_json(out / "recommendations.json")
    forest, levels, order = models.get(model)
    context = _read_json(row)
    codes = np.array([levels[name].index(context[name]) for name in order], dtype=np.int64)
    expected = predict_proba(forest, codes)
    problems = []
    got = doc["predicted"]["probability"]
    if got != expected:
        problems.append(f"probability {got!r} differs from in-process {expected!r}")
    if doc["threshold"] != threshold:
        problems.append(f"threshold {doc['threshold']!r} is not the requested {threshold!r}")
    for entry in doc["collaborative"] + doc["content_based"]:
        if not (math.isfinite(entry["score"]) and entry["score"] > threshold):
            problems.append(f"{entry['feature']} does not score above the threshold")
    return problems
