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

The files of `evaluate` and `run` are laid out here: `evaluation_to_dict`
(evaluation.json), `report_to_dict` (report.json),
`roc_analysis_to_csv` (a ROC CSV) and `render_hulls_svg` (roc_hulls.svg).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .config import CUTOFF, PipelineConfig, Record


class RocAnalysis(Record, eq=False):
    """A curve from `roc_curve`, its hull mask and both areas."""

    __slots__ = ("curve", "on_hull", "auc", "auch")

    def __init__(self, curve: np.ndarray, on_hull: np.ndarray, auc: float, auch: float):
        rates = curve[:, :2]
        dx, dy = np.diff(rates, axis=0).T
        if not np.all((rates >= 0) & (rates <= 1)) or np.any((dx < 0) | ((dx == 0) & (dy < 0))):
            raise ValueError("curve rates must lie in [0, 1], sorted by (fpr, tpr)")
        ends = curve[on_hull][[0, -1], :2].tolist() if on_hull.any() else None
        if ends != [[0.0, 0.0], [1.0, 1.0]]:
            raise ValueError("hull must run from (0,0) to (1,1)")
        if auch < auc - 1e-9:
            raise ValueError("area under the hull cannot fall below the curve's")
        self._set(curve=curve, on_hull=on_hull, auc=auc, auch=auch)

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


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> dict:
    """Paired two-tailed t-test of matched finite samples: the dict of
    `t`, `df`, `p_two_tailed` and `mean_diff` (mean of a - b).

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
    return {"t": t, "df": n - 1, "p_two_tailed": student_t_p_two_tailed(t, n - 1), "mean_diff": mean}


class ArmMetrics(Record):
    """Test-set metrics of one pipeline arm (with or without balancing):
    what `judge` found on its test rows, the forest's mean split entropy
    and the training row count. `report_to_dict` derives the rest."""

    __slots__ = ("confusion", "roc", "mean_split_entropy", "n_train")

    def __init__(
        self,
        confusion: tuple[int, int, int, int],  # (tp, fp, tn, fn) at CUTOFF
        roc: RocAnalysis,
        mean_split_entropy: Optional[float],  # None when the forest has no split
        n_train: int,
    ):
        self._set(confusion=confusion, roc=roc, mean_split_entropy=mean_split_entropy, n_train=n_train)

    @property
    def auch(self) -> float:
        return self.roc.auch


class ReportRow(Record):
    """One label's two arms. `report_to_dict` compares them, each delta
    balanced minus imbalanced."""

    __slots__ = ("label", "imbalanced", "balanced")

    def __init__(self, label: str, imbalanced: ArmMetrics, balanced: ArmMetrics):
        self._set(label=label, imbalanced=imbalanced, balanced=balanced)

    @property
    def hull_verdict(self) -> str:
        """The arm whose hull dominates the other's, or "neither"."""
        outcome = dominates(self.balanced.roc.hull, self.imbalanced.roc.hull)
        return {"A": "balanced", "B": "imbalanced"}.get(outcome, "neither")


class EvaluationReport(Record):
    __slots__ = ("rows",)

    def __init__(self, rows: tuple[ReportRow, ...]):
        self._set(rows=rows)


def metrics_to_dict(conf: tuple[int, int, int, int], analysis: RocAnalysis) -> dict:
    """The metric fields of (tp, fp, tn, fn) counts and their ROC analysis."""
    return {"accuracy": accuracy(conf), "precision": precision(conf), "recall": recall(conf),
            "auc": analysis.auc, "auch": analysis.auch}


def evaluation_to_dict(conf: tuple[int, int, int, int], analysis: RocAnalysis) -> dict:
    """The evaluation.json document of `judge`'s two results."""
    return {"format_version": 1, "n_rows": sum(conf), **metrics_to_dict(conf, analysis),
            "confusion": dict(zip(("tp", "fp", "tn", "fn"), conf))}


def _arm_to_dict(m: ArmMetrics) -> dict:
    return {
        **metrics_to_dict(m.confusion, m.roc),
        "mean_split_entropy": m.mean_split_entropy,
        "n_train": m.n_train,
        "n_test": sum(m.confusion),
        "hull": m.roc.hull[:, :2].tolist(),
    }


def _improvement_pct(before: float, after: float) -> Optional[dict]:
    """The relative change in percent and its whole-percent display, or
    None when the baseline is zero."""
    if before == 0:
        return None
    value = (after - before) / before * 100.0
    return {"value": value, "display": f"{round(value)}%"}


def report_to_dict(report: EvaluationReport, cfg: PipelineConfig) -> dict:
    """The report.json document: the target, mode and seed of `cfg`, the
    first row's comparison of its arms, and a `report` block of per-label
    metric rows for both arms, with rounded whole-percent improvement
    columns, and the two t-test blocks. Every comparison is taken from
    the arm blocks the document holds, balanced against imbalanced."""
    rows = []
    for row in report.rows:
        imb, bal = _arm_to_dict(row.imbalanced), _arm_to_dict(row.balanced)
        rows.append(
            {
                "label": row.label,
                "imbalanced": imb,
                "balanced": bal,
                "accuracy_improvement_pct": _improvement_pct(imb["accuracy"], bal["accuracy"]),
                "auc_improvement_pct": _improvement_pct(imb["auc"], bal["auc"]),
            }
        )
    imb, bal = rows[0]["imbalanced"], rows[0]["balanced"]
    imb_entropy, bal_entropy = imb["mean_split_entropy"], bal["mean_split_entropy"]  # None without a split
    # paired t-tests of imbalanced vs balanced over the rows where both
    # sides are defined; None when fewer than 2 pairs
    t_tests = {}
    for metric in ("precision", "recall"):
        pairs = [(r["imbalanced"][metric], r["balanced"][metric]) for r in rows]
        pairs = [pair for pair in pairs if None not in pair]
        test = paired_t_test(*zip(*pairs)) if len(pairs) >= 2 else None
        if test is not None and math.isinf(test["t"]):
            test["t"] = None  # JSON has no infinity
        t_tests[metric] = test
    return {
        "format_version": 1,
        "target": cfg.target_name,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "comparison": {
            "hull_verdict": report.rows[0].hull_verdict,
            "auc_delta": bal["auc"] - imb["auc"],
            "accuracy_delta": bal["accuracy"] - imb["accuracy"],
            "entropy_delta": None if bal_entropy is None or imb_entropy is None else bal_entropy - imb_entropy,
        },
        "report": {"rows": rows, "t_tests": t_tests},
    }


def roc_analysis_to_csv(analysis: RocAnalysis) -> str:
    """CSV text with one row per curve point: fpr,tpr,threshold,on_hull."""
    lines = ["fpr,tpr,threshold,on_hull"]
    for (fpr, tpr, threshold), flag in zip(analysis.curve.tolist(), analysis.on_hull.tolist()):
        lines.append(f"{fpr!r},{tpr!r},{threshold!r},{'true' if flag else 'false'}")
    return "\n".join(lines) + "\n"


_PLOT_SIZE = 600


def render_hulls_svg(hull_imbalanced: np.ndarray, hull_balanced: np.ndarray) -> str:
    """Both hulls (rows fpr, tpr, ...) as polylines in a square viewport.

    A point maps to (fpr * _PLOT_SIZE, (1 - tpr) * _PLOT_SIZE) so (0,0)
    sits bottom left and the perfect corner (fpr 0, tpr 1) top left.
    """
    w = h = _PLOT_SIZE

    def poly(hull: np.ndarray) -> str:
        xs, ys = (hull[:, 0] * w).tolist(), ((1 - hull[:, 1]) * h).tolist()
        return " ".join(f"{x!r},{y!r}" for x, y in zip(xs, ys))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="-80 -30 {w + 170} {h + 110}"'
        ' font-family="sans-serif" font-size="14">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="none" stroke="#444"/>',
        f'<line x1="0" y1="{h}" x2="{w}" y2="0" stroke="#bbb" stroke-dasharray="6 4"/>',
    ]
    for i in range(6):
        t = i / 5
        x, y, label = t * w, (1 - t) * h, f"{t:g}"
        lines.append(f'<line x1="{x!r}" y1="{h}" x2="{x!r}" y2="{h + 6}" stroke="#444"/>')
        lines.append(f'<text x="{x!r}" y="{h + 24}" text-anchor="middle">{label}</text>')
        lines.append(f'<line x1="-6" y1="{y!r}" x2="0" y2="{y!r}" stroke="#444"/>')
        lines.append(f'<text x="-12" y="{y + 5!r}" text-anchor="end">{label}</text>')
    lines.append(f'<text x="{w / 2!r}" y="{h + 56}" text-anchor="middle">false positive rate</text>')
    lines.append(f'<text x="{-h / 2!r}" y="-48" transform="rotate(-90)" text-anchor="middle">true positive rate</text>')
    legend, legend_y = [], h + 84
    for arm, hull, colour, x, text in (
        ("imbalanced", hull_imbalanced, "#767676", 0, "imbalanced"),
        ("balanced", hull_balanced, "#c0392b", 160, "balanced (oversampled)"),
    ):
        pen = f'stroke="{colour}" stroke-width="2"'
        lines.append(f'<polyline id="hull-{arm}" fill="none" {pen} points="{poly(hull)}"/>')
        legend.append(f'<line x1="{x}" y1="{legend_y}" x2="{x + 28}" y2="{legend_y}" {pen}/>')
        legend.append(f'<text x="{x + 34}" y="{legend_y + 5}">{text}</text>')
    return "\n".join(lines + legend + ["</svg>"]) + "\n"
