"""Classifier evaluation: confusion metrics, ROC analysis, and paired t-tests.

A ROC curve is one (n, 3) float array of rows (fpr, tpr, threshold): a
(0, 0, inf) anchor, then one row per distinct score threshold in
descending order, so the rows ascend in (fpr, tpr) and end at (1, 1).
Tied scores collapse into a single step, so the trapezoidal area equals
the Mann-Whitney rank statistic with ties counted as one half. A boolean
mask over the rows marks the curve's upper convex hull, whose area is
AUCH, and two hulls can be compared for dominance (one curve at least as
high everywhere and strictly higher somewhere).
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


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iter = 300
    eps = 3e-16
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_p_two_tailed(t: float, df: int) -> float:
    """Two-tailed tail mass of Student's t via the incomplete beta."""
    if df < 1:
        raise ValueError("df must be at least 1")
    if math.isinf(t):
        return 0.0
    p = _reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))
    return min(1.0, max(0.0, p))


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Paired two-tailed t-test of matched samples.

    t = mean(d) / (sd(d)/sqrt(n)) with the n-1 sample deviation and
    df = n - 1. A zero deviation yields p = 1 when the means agree and
    p = 0 otherwise.
    """
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if xa.shape != xb.shape:
        raise ValueError("length mismatch between paired samples")
    n = xa.size
    if n < 2:
        raise ValueError("need at least 2 paired values")
    d = xa - xb
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, df=df, p_two_tailed=1.0, mean_diff=mean)
        t = math.copysign(math.inf, mean)
        return TTestResult(t=t, df=df, p_two_tailed=0.0, mean_diff=mean)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t=t, df=df, p_two_tailed=student_t_p_two_tailed(t, df), mean_diff=mean)


@dataclass(frozen=True)
class ArmMetrics:
    """Test-set metrics of one pipeline arm (with or without balancing)."""

    accuracy: float
    precision: Optional[float]
    recall: Optional[float]
    roc: RocAnalysis
    mean_split_entropy: float
    n_train: int
    n_test: int

    @property
    def auch(self) -> float:
        return self.roc.auch


@dataclass(frozen=True)
class ReportRow:
    label: str
    imbalanced: ArmMetrics
    balanced: ArmMetrics
    accuracy_improvement_pct: Optional[float]
    auc_improvement_pct: Optional[float]


@dataclass(frozen=True)
class EvaluationReport:
    rows: tuple[ReportRow, ...]
    t_tests: dict[str, Optional[TTestResult]]


def relative_improvement_pct(before: float, after: float) -> Optional[float]:
    """Relative change in percent, or None when the baseline is zero."""
    if before == 0:
        return None
    return (after - before) / before * 100.0


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
