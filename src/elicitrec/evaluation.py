"""Classifier evaluation: confusion metrics, ROC analysis, and paired t-tests.

A ROC curve is one (n, 3) float array of rows (fpr, tpr, threshold): a
(0, 0, inf) anchor, then one row per distinct score threshold in
descending order, so the rows ascend in (fpr, tpr) and end at (1, 1).
Tied scores collapse into a single step, so the trapezoidal area equals
the Mann-Whitney rank statistic with ties counted as one half. A boolean
mask over the rows marks the curve's upper convex hull, whose area is
AUCH, and two hulls can be compared for dominance (one curve at least as
high everywhere and strictly higher somewhere).

`judge` is the one place a fitted model's test scores become confusion
counts (at `CUTOFF`) and a ROC analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True, eq=False)
class RocAnalysis:
    """A curve from `roc_curve`, its hull mask and both areas."""

    curve: np.ndarray
    on_hull: np.ndarray
    auc: float
    auch: float

    def __post_init__(self):
        rates = self.curve[:, :2]
        dx, dy = np.diff(rates, axis=0).T
        if not np.all((rates >= 0) & (rates <= 1)) or np.any((dx < 0) | ((dx == 0) & (dy < 0))):
            raise ValueError("curve rates must lie in [0, 1], sorted by (fpr, tpr)")
        ends = self.hull[[0, -1], :2].tolist() if self.on_hull.any() else None
        if ends != [[0.0, 0.0], [1.0, 1.0]]:
            raise ValueError("hull must run from (0,0) to (1,1)")
        if self.auch < self.auc - 1e-9:
            raise ValueError("area under the hull cannot fall below the curve's")

    @property
    def hull(self) -> np.ndarray:
        return self.curve[self.on_hull]


def confusion(y_true: Sequence[int], y_pred: Sequence[int]) -> tuple[int, int, int, int]:
    """Count (tp, fp, tn, fn) with class 1 treated as positive."""
    yt = np.asarray(y_true)
    yp = np.asarray(y_pred)
    if yt.shape != yp.shape:
        raise ValueError("length mismatch between labels and predictions")
    if yt.size == 0:
        raise ValueError("empty label sequence")
    for arr, what in ((yt, "labels"), (yp, "predictions")):
        if not np.isin(arr, (0, 1)).all():
            raise ValueError(f"{what} must be 0 or 1")
    tp = int(np.sum((yt == 1) & (yp == 1)))
    fp = int(np.sum((yt == 0) & (yp == 1)))
    tn = int(np.sum((yt == 0) & (yp == 0)))
    fn = int(np.sum((yt == 1) & (yp == 0)))
    return tp, fp, tn, fn


def accuracy(conf: tuple[int, int, int, int]) -> float:
    tp, fp, tn, fn = conf
    total = tp + fp + tn + fn
    if total == 0:
        raise ValueError("empty confusion counts")
    return (tp + tn) / total


def precision(conf: tuple[int, int, int, int]) -> Optional[float]:
    """tp/(tp+fp), or None when no positive predictions exist (undefined,
    deliberately never coerced to 0)."""
    tp, fp, _, _ = conf
    if tp + fp == 0:
        return None
    return tp / (tp + fp)


def recall(conf: tuple[int, int, int, int]) -> Optional[float]:
    """tp/(tp+fn), or None when no positive labels exist."""
    tp, _, _, fn = conf
    if tp + fn == 0:
        return None
    return tp / (tp + fn)


def roc_curve(scores: Sequence[float], y_true: Sequence[int]) -> np.ndarray:
    """Rows (fpr, tpr, threshold): the (0, 0, inf) anchor, then one row per
    distinct descending score threshold.

    A row's rates count rows with score >= threshold as predicted
    positive, so tied scores form a single step.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y_true)
    if s.shape != y.shape:
        raise ValueError("length mismatch between scores and labels")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("single-class labels")
    order = np.argsort(-s, kind="stable")
    s_desc = s[order]
    y_desc = y[order]
    tps = np.cumsum(y_desc == 1)
    fps = np.cumsum(y_desc == 0)
    ends = np.flatnonzero(np.r_[s_desc[1:] != s_desc[:-1], True])
    rows = np.column_stack((fps[ends] / n_neg, tps[ends] / n_pos, s_desc[ends]))
    return np.vstack(([0.0, 0.0, math.inf], rows))


def auc(curve: np.ndarray) -> float:
    """Trapezoidal area under rows (fpr, tpr, ...) sorted by ascending fpr."""
    if len(curve) < 2:
        raise ValueError("need at least two points")
    terms = np.diff(curve[:, 0]) * (curve[:-1, 1] + curve[1:, 1]) / 2.0
    # summed left to right: np.sum's pairwise order would change the last bits
    return float(np.cumsum(terms)[-1])


def roc_convex_hull(curve: np.ndarray) -> np.ndarray:
    """Mask of the rows on the upper convex hull (monotone chain) of a
    `roc_curve` curve; collinear rows are left off."""
    pts = curve[:, :2].tolist()
    stack: list[int] = []
    for i, (x, y) in enumerate(pts):
        while len(stack) >= 2:
            (ox, oy), (ax, ay) = pts[stack[-2]], pts[stack[-1]]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) < 0:
                break
            stack.pop()
        stack.append(i)
    mask = np.zeros(len(pts), dtype=bool)
    mask[stack] = True
    return mask


def analyze_scores(scores: Sequence[float], y_true: Sequence[int]) -> RocAnalysis:
    curve = roc_curve(scores, y_true)
    on_hull = roc_convex_hull(curve)
    return RocAnalysis(curve=curve, on_hull=on_hull, auc=auc(curve), auch=auc(curve[on_hull]))


#: a row whose positive-class score reaches the cut-off is predicted positive
CUTOFF = 0.5


def judge(scores: Sequence[float], y_true: Sequence[int]) -> tuple[tuple[int, int, int, int], RocAnalysis]:
    """A fitted model's test scores judged against the labels: the
    (tp, fp, tn, fn) counts at `CUTOFF` and the ROC analysis."""
    preds = (np.asarray(scores) >= CUTOFF).astype(np.int64)
    return confusion(y_true, preds), analyze_scores(scores, y_true)


def _hull_heights(hull: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # rows ascend in (fpr, tpr), so the last row of each fpr is the top of
    # a vertical segment
    fpr, tpr = hull[np.append(hull[1:, 0] != hull[:-1, 0], True), :2].T
    return np.interp(xs, fpr, tpr)


def dominates(hull_a: np.ndarray, hull_b: np.ndarray) -> str:
    """'A' if hull_a is at least as high everywhere and strictly higher
    somewhere, 'B' for the symmetric case, else 'neither'. Each hull is
    rows (fpr, tpr, ...) in ascending (fpr, tpr) order."""
    xs = np.concatenate((hull_a[:, 0], hull_b[:, 0]))
    ha = _hull_heights(hull_a, xs)
    hb = _hull_heights(hull_b, xs)
    eps = 1e-12
    a_above = bool((ha > hb + eps).any())
    b_above = bool((hb > ha + eps).any())
    if a_above and not b_above:
        return "A"
    if b_above and not a_above:
        return "B"
    return "neither"


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p_two_tailed: float
    mean_diff: float


def student_t_p_two_tailed(t: float, df: int) -> float:
    """Two-tailed tail mass of Student's t for a whole-number df, as the
    finite sums of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even
    df) in theta = atan(|t| / sqrt(df))."""
    if math.isnan(t):
        raise ValueError("t must not be NaN")
    if not (df >= 1 and float(df).is_integer()):
        raise ValueError(f"df must be a whole number of at least 1, got {df!r}")
    n = int(df)
    odd = n % 2
    theta = math.atan2(abs(t), math.sqrt(n))
    sin, cos = math.sin(theta), math.cos(theta)
    # term k is term k-1 times (2k-1)/(2k) cos^2 (even df) or (2k)/(2k+1)
    # cos^2 (odd df); there are n // 2 terms, so none for df = 1
    k = np.arange(1, n // 2)
    terms = np.cumprod(np.r_[1.0, (2 * k - 1 + odd) / (2 * k + odd) * cos * cos])[: n // 2]
    total = float(terms.sum())
    central = 2 * (theta + sin * cos * total) / math.pi if odd else sin * total
    return min(1.0, max(0.0, 1.0 - central))


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Paired two-tailed t-test of matched finite samples.

    t = mean(d) / (sd(d)/sqrt(n)) with the n-1 sample deviation and
    df = n - 1. A zero deviation makes t 0 when the means agree (p = 1)
    and infinite otherwise (p = 0).
    """
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if xa.shape != xb.shape:
        raise ValueError("length mismatch between paired samples")
    n = xa.size
    if n < 2:
        raise ValueError("need at least 2 paired values")
    d = xa - xb
    if not np.isfinite(d).all():
        raise ValueError("paired samples must be finite (no NaN or infinity)")
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd > 0.0:
        t = mean / (sd / math.sqrt(n))
    else:
        t = math.copysign(math.inf, mean) if mean else 0.0
    return TTestResult(t=t, df=n - 1, p_two_tailed=student_t_p_two_tailed(t, n - 1), mean_diff=mean)


@dataclass(frozen=True)
class ArmMetrics:
    """Test-set metrics of one pipeline arm (with or without balancing):
    what `judge` found on its test rows, the forest's mean split entropy
    and the training row count. The other metrics derive from these."""

    confusion: tuple[int, int, int, int]  # (tp, fp, tn, fn) at CUTOFF
    roc: RocAnalysis
    mean_split_entropy: Optional[float]  # None when the forest has no split
    n_train: int

    @property
    def accuracy(self) -> float:
        return accuracy(self.confusion)

    @property
    def precision(self) -> Optional[float]:
        return precision(self.confusion)

    @property
    def recall(self) -> Optional[float]:
        return recall(self.confusion)

    @property
    def n_test(self) -> int:
        return sum(self.confusion)

    @property
    def auch(self) -> float:
        return self.roc.auch


def relative_improvement_pct(before: float, after: float) -> Optional[float]:
    """Relative change in percent, or None when the baseline is zero."""
    if before == 0:
        return None
    return (after - before) / before * 100.0


@dataclass(frozen=True)
class ReportRow:
    """One label's two arms. Every comparison is derived from them, and
    each delta is balanced minus imbalanced."""

    label: str
    imbalanced: ArmMetrics
    balanced: ArmMetrics

    @property
    def accuracy_improvement_pct(self) -> Optional[float]:
        return relative_improvement_pct(self.imbalanced.accuracy, self.balanced.accuracy)

    @property
    def auc_improvement_pct(self) -> Optional[float]:
        return relative_improvement_pct(self.imbalanced.roc.auc, self.balanced.roc.auc)

    @property
    def hull_verdict(self) -> str:
        """The arm whose hull dominates the other's, or "neither"."""
        outcome = dominates(self.balanced.roc.hull, self.imbalanced.roc.hull)
        return {"A": "balanced", "B": "imbalanced"}.get(outcome, "neither")

    @property
    def auc_delta(self) -> float:
        return self.balanced.roc.auc - self.imbalanced.roc.auc

    @property
    def accuracy_delta(self) -> float:
        return self.balanced.accuracy - self.imbalanced.accuracy

    @property
    def entropy_delta(self) -> Optional[float]:
        """None when either forest has no split."""
        bal, imb = self.balanced.mean_split_entropy, self.imbalanced.mean_split_entropy
        return None if bal is None or imb is None else bal - imb


def t_tests_for_rows(rows: Sequence[ReportRow]) -> dict[str, Optional[TTestResult]]:
    """Paired t-tests of imbalanced vs balanced precision and recall over
    the rows where both sides are defined; None when fewer than 2 pairs."""
    out: dict[str, Optional[TTestResult]] = {}
    for metric in ("precision", "recall"):
        pairs = [(getattr(r.imbalanced, metric), getattr(r.balanced, metric)) for r in rows]
        pairs = [pair for pair in pairs if None not in pair]
        out[metric] = paired_t_test(*zip(*pairs)) if len(pairs) >= 2 else None
    return out


@dataclass(frozen=True)
class EvaluationReport:
    rows: tuple[ReportRow, ...]

    @property
    def t_tests(self) -> dict[str, Optional[TTestResult]]:
        """The cross-row comparison: `t_tests_for_rows` over every row."""
        return t_tests_for_rows(self.rows)


def t_test_to_dict(r: Optional[TTestResult]) -> Optional[dict]:
    if r is None:
        return None
    t = None if math.isinf(r.t) else r.t
    return {"t": t, "df": r.df, "p_two_tailed": r.p_two_tailed, "mean_diff": r.mean_diff}


def _arm_to_dict(m: ArmMetrics) -> dict:
    return {
        "accuracy": m.accuracy,
        "auc": m.roc.auc,
        "auch": m.roc.auch,
        "precision": m.precision,
        "recall": m.recall,
        "mean_split_entropy": m.mean_split_entropy,
        "n_train": m.n_train,
        "n_test": m.n_test,
        "hull": m.roc.hull[:, :2].tolist(),
    }


def report_to_dict(report: EvaluationReport) -> dict:
    """JSON-ready structure: per-label metric rows for both arms, rounded
    whole-percent improvement columns, and the two t-test blocks."""
    rows = []
    for row in report.rows:
        rows.append(
            {
                "label": row.label,
                "imbalanced": _arm_to_dict(row.imbalanced),
                "balanced": _arm_to_dict(row.balanced),
                "accuracy_improvement_pct": _round_pct(row.accuracy_improvement_pct),
                "auc_improvement_pct": _round_pct(row.auc_improvement_pct),
            }
        )
    return {
        "rows": rows,
        "t_tests": {name: t_test_to_dict(r) for name, r in sorted(report.t_tests.items())},
    }


def _round_pct(value: Optional[float]) -> Optional[dict]:
    if value is None:
        return None
    return {"value": value, "display": f"{round(value)}%"}


def roc_analysis_to_csv(analysis: RocAnalysis) -> str:
    """CSV text with one row per curve point: fpr,tpr,threshold,on_hull."""
    lines = ["fpr,tpr,threshold,on_hull"]
    for (fpr, tpr, threshold), flag in zip(analysis.curve.tolist(), analysis.on_hull.tolist()):
        lines.append(f"{fpr!r},{tpr!r},{threshold!r},{'true' if flag else 'false'}")
    return "\n".join(lines) + "\n"
