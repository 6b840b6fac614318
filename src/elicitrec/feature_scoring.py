"""Learner-independent feature scoring.

Three filter methods score each feature against the binary target:

- Chi2: Pearson chi-squared statistic of the codes-by-class contingency
  table. Sensitive to any distributional dependence.
- AnovaF: one-way F statistic over codes grouped by class. Sensitive only
  to differences in class means, so it is blind to signals that leave the
  means equal (the classic XOR-style case).
- MutualInfo: plug-in discrete mutual information in nats.

Scores depend only on the data, never on a learner; `recommender` turns
them into feature subsets and picks the best filter.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .data_model import ROLES, Dataset

METHOD_CHI2 = "Chi2"
METHOD_ANOVA_F = "AnovaF"
METHOD_MUTUAL_INFO = "MutualInfo"
METHODS = (METHOD_CHI2, METHOD_ANOVA_F, METHOD_MUTUAL_INFO)


@dataclass(frozen=True)
class ScoreEntry:
    feature_name: str
    role: str
    score: float


@dataclass(frozen=True)
class FeatureScoreTable:
    entries: tuple[ScoreEntry, ...]

    def __post_init__(self):
        for e in self.entries:
            if e.role not in ROLES:
                raise ValueError(f"unknown role {e.role!r} for feature {e.feature_name!r}")
            if math.isnan(e.score) or e.score < 0:
                raise ValueError(f"negative or NaN score for {e.feature_name!r}")
        keys = [(-e.score, e.feature_name) for e in self.entries]
        if keys != sorted(keys):
            raise ValueError("entries must be sorted by descending score, then name")


def _class_split(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if not ((y == 0).any() and (y == 1).any()):
        raise ValueError("single-class target")
    return x[y == 0], x[y == 1]


def _contingency(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    _class_split(x, y)
    _, inv = np.unique(x, return_inverse=True)
    n_codes = inv.max() + 1
    return np.bincount(inv * 2 + y, minlength=n_codes * 2).reshape(n_codes, 2)


def chi2_score(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson chi-squared statistic of the observed codes-by-class table."""
    obs = _contingency(np.asarray(x), np.asarray(y)).astype(np.float64)
    row = obs.sum(axis=1, keepdims=True)
    col = obs.sum(axis=0, keepdims=True)
    expected = row * col / obs.sum()
    return float(((obs - expected) ** 2 / expected).sum())


def anova_f_score(x: np.ndarray, y: np.ndarray) -> float:
    """One-way F = MS_between / MS_within over the two class groups.

    Returns +inf when the within-group variance is zero but the means
    differ, and 0.0 when both variances are zero.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    g0, g1 = _class_split(x, y)
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 rows (df_within < 1)")
    grand = x.mean()
    ss_between = g0.size * (g0.mean() - grand) ** 2 + g1.size * (g1.mean() - grand) ** 2
    ss_within = ((g0 - g0.mean()) ** 2).sum() + ((g1 - g1.mean()) ** 2).sum()
    ms_between = ss_between / 1.0
    ms_within = ss_within / (n - 2)
    if ms_within == 0.0:
        return math.inf if ms_between > 0.0 else 0.0
    return float(ms_between / ms_within)


def mutual_info_score(x: np.ndarray, y: np.ndarray) -> float:
    """Plug-in discrete mutual information in nats; empty cells add 0."""
    joint = _contingency(np.asarray(x), np.asarray(y)).astype(np.float64)
    n = joint.sum()
    p_xy = joint / n
    p_x = p_xy.sum(axis=1, keepdims=True)
    p_y = p_xy.sum(axis=0, keepdims=True)
    mask = p_xy > 0
    mi = float((p_xy[mask] * np.log(p_xy[mask] / (p_x * p_y)[mask])).sum())
    return max(mi, 0.0)


_SCORERS = {
    METHOD_CHI2: chi2_score,
    METHOD_ANOVA_F: anova_f_score,
    METHOD_MUTUAL_INFO: mutual_info_score,
}


def score_all(d: Dataset, method: str) -> FeatureScoreTable:
    """Score every feature with one method, sorted by descending score and
    ascending name on ties."""
    if method not in _SCORERS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    scorer = _SCORERS[method]
    entries = [
        ScoreEntry(feature_name=f.name, role=f.role, score=scorer(d.X[:, j], d.y))
        for j, f in enumerate(d.schema)
    ]
    entries.sort(key=lambda e: (-e.score, e.feature_name))
    return FeatureScoreTable(entries=tuple(entries))


def table_to_csv(table: FeatureScoreTable) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["feature", "role", "score"])
    for e in table.entries:
        w.writerow([e.feature_name, e.role, repr(e.score)])
    return out.getvalue()


def table_from_csv(text: str) -> FeatureScoreTable:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["feature", "role", "score"]:
        raise ValueError("expected header 'feature,role,score'")
    entries = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != 3:
            raise ValueError(f"data row {i} is not 'feature,role,score': {row!r}")
        name, role, score = row
        try:
            entries.append(ScoreEntry(feature_name=name, role=role, score=float(score)))
        except ValueError:
            raise ValueError(f"data row {i}: score {score!r} of {name!r} is not a number") from None
    return FeatureScoreTable(entries=tuple(entries))
