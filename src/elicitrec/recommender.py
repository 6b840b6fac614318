"""End-to-end pipeline: balance, split, train, evaluate, and recommend.

Two orderings of balancing and splitting are supported:

- "balance-first" mode balances the full dataset and then splits, the
  ordering many studies report. Because synthetic minority points are
  created before the split, some of them land in the test subset; metrics
  measured this way are optimistic.
- "sound" mode (the default) splits first and balances only the training
  subset, so the test subset contains real rows only. Both arms share the
  same split, making their comparison paired.

Every random choice derives from the master seed through fixed stream
indices, so a run is a pure function of (dataset, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .data_model import (
    ROLE_CONTEXT,
    ROLE_TECHNIQUE,
    STREAM_FOREST_BALANCED,
    STREAM_FOREST_IMBALANCED,
    STREAM_SMOTE,
    STREAM_SPLIT,
    Dataset,
    derive_seed,
    drop_constant_features,
    split_train_test,
)
from .evaluation import (
    ArmMetrics,
    EvaluationReport,
    ReportRow,
    TTestResult,
    accuracy,
    analyze_scores,
    confusion,
    dominates,
    paired_t_test,
    precision,
    recall,
    relative_improvement_pct,
)
from .feature_scoring import METHODS, FeatureScoreTable, ScoreEntry
from .forest import ForestParams, mean_split_entropy, predict_proba_many, train_forest
from .sampler import SmoteConfig, smote_oversample

MODE_BALANCE_FIRST = "balance-first"  # balance, then split (optimistic)
MODE_SOUND = "sound"  # split, then balance the training subset only
MODES = (MODE_BALANCE_FIRST, MODE_SOUND)


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


def _evaluate_arm(train: Dataset, test: Dataset, params: ForestParams) -> ArmMetrics:
    model = train_forest(train, params)
    scores = predict_proba_many(model, test.X)
    preds = (scores >= 0.5).astype(np.int64)
    conf = confusion(test.y, preds)
    return ArmMetrics(
        accuracy=accuracy(conf),
        precision=precision(conf),
        recall=recall(conf),
        roc=analyze_scores(scores, test.y),
        mean_split_entropy=mean_split_entropy(model),
        n_train=train.n_rows,
        n_test=test.n_rows,
    )


def run_pipeline(d: Dataset, cfg: PipelineConfig) -> EvaluationReport:
    """Train and evaluate both arms (without and with balancing).

    Returns one report row per run, carrying accuracy, precision, recall,
    the full ROC analysis, and the forest's mean split entropy for each
    arm, plus relative improvement percentages.
    """
    d = drop_constant_features(d)
    split_seed = derive_seed(cfg.seed, STREAM_SPLIT)
    params_imb = replace(cfg.forest, seed=derive_seed(cfg.seed, STREAM_FOREST_IMBALANCED))
    params_bal = replace(cfg.forest, seed=derive_seed(cfg.seed, STREAM_FOREST_BALANCED))
    smote_cfg = None
    if cfg.smote is not None:
        smote_cfg = replace(cfg.smote, seed=derive_seed(cfg.seed, STREAM_SMOTE))

    if cfg.mode == MODE_BALANCE_FIRST:
        train_imb, test_imb = split_train_test(d, cfg.test_fraction, seed=split_seed)
        if smote_cfg is None:
            train_bal, test_bal = train_imb, test_imb
        else:
            balanced = smote_oversample(d, smote_cfg)
            train_bal, test_bal = split_train_test(balanced, cfg.test_fraction, seed=split_seed)
    else:
        train_imb, test_imb = split_train_test(d, cfg.test_fraction, seed=split_seed)
        test_bal = test_imb
        train_bal = train_imb if smote_cfg is None else smote_oversample(train_imb, smote_cfg)
        if test_bal.synthetic.any():
            raise AssertionError("synthetic row leaked into the test subset")

    imb = _evaluate_arm(train_imb, test_imb, params_imb)
    # with balancing off the arms are one experiment; reuse the evaluation
    # so the rows come out identical
    bal = imb if smote_cfg is None else _evaluate_arm(train_bal, test_bal, params_bal)
    row = ReportRow(
        label=d.target_name,
        imbalanced=imb,
        balanced=bal,
        accuracy_improvement_pct=relative_improvement_pct(imb.accuracy, bal.accuracy),
        auc_improvement_pct=relative_improvement_pct(imb.roc.auc, bal.roc.auc),
    )
    return EvaluationReport(rows=(row,), t_tests=t_tests_for_rows((row,)))


def t_tests_for_rows(rows: Sequence[ReportRow]) -> dict[str, Optional[TTestResult]]:
    """Paired t-tests of imbalanced vs balanced precision and recall over
    the rows where both sides are defined; None when fewer than 2 pairs."""
    out: dict[str, Optional[TTestResult]] = {}
    for metric in ("precision", "recall"):
        pairs = [
            (getattr(r.imbalanced, metric), getattr(r.balanced, metric))
            for r in rows
            if getattr(r.imbalanced, metric) is not None
            and getattr(r.balanced, metric) is not None
        ]
        if len(pairs) >= 2:
            out[metric] = paired_t_test([a for a, _ in pairs], [b for _, b in pairs])
        else:
            out[metric] = None
    return out


def combine_reports(reports: Sequence[EvaluationReport]) -> EvaluationReport:
    """Merge per-target reports into one table and recompute the t-tests
    over all rows (the cross-technique comparison)."""
    rows = tuple(row for rep in reports for row in rep.rows)
    if not rows:
        raise ValueError("no report rows to combine")
    return EvaluationReport(rows=rows, t_tests=t_tests_for_rows(rows))


@dataclass(frozen=True)
class Prediction:
    label: str
    probability: float


@dataclass(frozen=True)
class RecommendationSet:
    predicted: Prediction
    collaborative: tuple[ScoreEntry, ...]  # technique-role features
    content_based: tuple[ScoreEntry, ...]  # context-role features
    threshold: float

    def __post_init__(self):
        for e in self.collaborative + self.content_based:
            if e.score <= self.threshold:
                raise ValueError("recommended features must score strictly above threshold")


def form_recommendations(
    scores: FeatureScoreTable, prediction: Prediction, threshold: float
) -> RecommendationSet:
    """Partition strictly-above-threshold features by role.

    Technique-role features become the collaborative list (other
    techniques to use alongside the predicted one); context-role features
    become the content-based list (the project-context factors that drive
    the choice). Both keep descending-score order. The threshold is the
    caller's choice and has no default.
    """
    if not 0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and non-negative, got {threshold!r}")
    above = [e for e in scores.entries if e.score > threshold]
    return RecommendationSet(
        predicted=prediction,
        collaborative=tuple(e for e in above if e.role == ROLE_TECHNIQUE),
        content_based=tuple(e for e in above if e.role == ROLE_CONTEXT),
        threshold=threshold,
    )


@dataclass(frozen=True)
class BalancingComparison:
    verdict: str  # "balanced", "imbalanced", or "neither"
    auc_delta: float
    accuracy_delta: float
    entropy_delta: float
    report: EvaluationReport


def compare_balancing(d: Dataset, cfg: PipelineConfig) -> BalancingComparison:
    """Hull-dominance verdict plus balanced-minus-imbalanced metric deltas."""
    report = run_pipeline(d, cfg)
    row = report.rows[0]
    outcome = dominates(row.balanced.roc.hull, row.imbalanced.roc.hull)
    verdict = {"A": "balanced", "B": "imbalanced"}.get(outcome, "neither")
    return BalancingComparison(
        verdict=verdict,
        auc_delta=row.balanced.roc.auc - row.imbalanced.roc.auc,
        accuracy_delta=row.balanced.accuracy - row.imbalanced.accuracy,
        entropy_delta=row.balanced.mean_split_entropy - row.imbalanced.mean_split_entropy,
        report=report,
    )


def recommendation_set_to_dict(rs: RecommendationSet) -> dict:
    """JSON-ready structure; an infinite score (AnovaF with zero
    within-class variance) is written as the string "inf"."""

    def entry(e: ScoreEntry) -> dict:
        return {"feature": e.feature_name, "score": e.score if math.isfinite(e.score) else repr(e.score)}

    return {
        "predicted": {"label": rs.predicted.label, "probability": rs.predicted.probability},
        "threshold": rs.threshold,
        "collaborative": [entry(e) for e in rs.collaborative],
        "content_based": [entry(e) for e in rs.content_based],
    }
