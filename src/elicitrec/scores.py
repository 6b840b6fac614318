"""Score tables and the recommendations formed from them, in plain Python.

A `FeatureScoreTable` is one filter method's scores, one `ScoreEntry` per
feature, as `score` writes it to `scores_<method>.csv` and `recommend`
reads it back (`table_to_csv`, `table_from_csv`). `form_recommendations`
splits the features that score above a threshold by role, as the
recommendations.json document that `recommend` writes. Nothing here
imports numpy.
"""

from __future__ import annotations

import csv
import io
import math

from .config import ROLE_CONTEXT, ROLE_TECHNIQUE, ROLES, Record


class ScoreEntry(Record):
    __slots__ = ("feature_name", "role", "score")

    def __init__(self, feature_name: str, role: str, score: float):
        self._set(feature_name=feature_name, role=role, score=score)


class FeatureScoreTable(Record):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[ScoreEntry, ...]):
        seen = set()
        for e in entries:
            if e.feature_name in seen:
                raise ValueError(f"feature {e.feature_name!r} is listed twice")
            seen.add(e.feature_name)
            if e.role not in ROLES:
                raise ValueError(f"unknown role {e.role!r} for feature {e.feature_name!r}")
            if math.isnan(e.score) or e.score < 0:
                raise ValueError(f"negative or NaN score for {e.feature_name!r}")
        keys = [(-e.score, e.feature_name) for e in entries]
        if keys != sorted(keys):
            raise ValueError("entries must be sorted by descending score, then name")
        self._set(entries=entries)


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


class Prediction(Record):
    __slots__ = ("label", "probability")

    def __init__(self, label: str, probability: float):
        self._set(label=label, probability=probability)


def form_recommendations(scores: FeatureScoreTable, prediction: Prediction, threshold: float) -> dict:
    """`recommend`'s recommendations.json document: the features scoring
    strictly above `threshold`, split by role.

    Technique-role features become the collaborative list (other
    techniques to use alongside the predicted one); context-role features
    become the content-based list (the context features the filter
    method ranks highest against the target over the whole scored
    dataset). Both keep descending-score order. The lists come from the
    score table alone: they read no row, so every context row gets the
    same lists and only `prediction` differs. The threshold is the
    caller's choice and has no default. An infinite score (AnovaF with
    zero within-class variance) is written as the string "inf".
    """
    if not 0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and non-negative, got {threshold!r}")

    def listed(role: str) -> list[dict]:
        return [
            {"feature": e.feature_name, "score": e.score if math.isfinite(e.score) else repr(e.score)}
            for e in scores.entries if e.score > threshold and e.role == role
        ]

    return {
        "format_version": 1,
        "predicted": {"label": prediction.label, "probability": prediction.probability},
        "threshold": threshold,
        "collaborative": listed(ROLE_TECHNIQUE),
        "content_based": listed(ROLE_CONTEXT),
    }
