"""End-to-end pipeline: split, balance, train, evaluate, and recommend.

`run_pipeline` tests two arms, a forest without balancing and one with
SMOTE. Both start from one split; only the balanced arm's data differs.
Two orderings of balancing and splitting are supported:

- "balance-first" mode balances the full dataset and then splits, the
  ordering many studies report. Because synthetic minority points are
  created before the split, some of them land in the test subset; metrics
  measured this way are optimistic.
- "sound" mode (the default) balances only the training subset, so the
  test subset contains real rows only and both arms share it, making
  their comparison paired. An input that already holds synthetic rows is
  refused.

With `smote` None the balanced arm is the imbalanced one. A report row
holds the two arms; it derives every comparison between them.

`_arm_data` builds an arm's train and test rows, `_evaluate_arm` fits and
scores its forest. `select_best_filter` ranks each method by the balanced
arm of a balance-first run on its top-k features, the forest seeded from
the imbalanced stream: a leak, as synthetic rows reach the test split
that ranks the filters, whatever mode `run` uses. With `smote` None it
ranks them by the unbalanced arm, as `run` does.

Every random choice derives from the master seed through fixed stream
indices, so a run is a pure function of (dataset, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from .data_model import (
    PROVENANCE_COLUMN,
    ROLE_CONTEXT,
    ROLE_TECHNIQUE,
    STREAM_FOREST_BALANCED,
    STREAM_FOREST_IMBALANCED,
    STREAM_SMOTE,
    STREAM_SPLIT,
    Dataset,
    derive_seed,
    drop_constant_features,
    select_features,
    split_train_test,
)
from .evaluation import ArmMetrics, EvaluationReport, ReportRow, judge
from .feature_scoring import (
    METHOD_ANOVA_F,
    METHOD_CHI2,
    METHOD_MUTUAL_INFO,
    METHODS,
    FeatureScoreTable,
    ScoreEntry,
    score_all,
)
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


def balance(d: Dataset, smote: SmoteConfig, seed: int) -> Dataset:
    """SMOTE on `d`, seeded from the master `seed`'s SMOTE stream."""
    return smote_oversample(d, replace(smote, seed=derive_seed(seed, STREAM_SMOTE)))


def _arm_data(d: Dataset, cfg: PipelineConfig, balanced: bool) -> tuple[Dataset, Dataset]:
    """One arm's (train, test) rows: the split of `d`, balanced before the
    split (balance-first) or on its training rows (sound) for the balanced
    arm."""
    if balanced and cfg.mode == MODE_BALANCE_FIRST:
        d = balance(d, cfg.smote, cfg.seed)
    train, test = split_train_test(d, cfg.test_fraction, seed=derive_seed(cfg.seed, STREAM_SPLIT))
    if balanced and cfg.mode == MODE_SOUND:
        train = balance(train, cfg.smote, cfg.seed)
    return train, test


def _evaluate_arm(train: Dataset, test: Dataset, params: ForestParams, seed: int) -> ArmMetrics:
    model = train_forest(train, replace(params, seed=seed))
    conf, roc = judge(predict_proba_many(model, test.X), test.y)
    return ArmMetrics(
        confusion=conf,
        roc=roc,
        mean_split_entropy=mean_split_entropy(model) if (model.feature >= 0).any() else None,
        n_train=train.n_rows,
    )


def run_pipeline(d: Dataset, cfg: PipelineConfig) -> EvaluationReport:
    """Train and evaluate both arms (without and with balancing).

    Returns one report row per run, carrying accuracy, precision, recall,
    the full ROC analysis, and the forest's mean split entropy for each
    arm; the row derives the comparisons between the arms.
    """
    if cfg.mode == MODE_SOUND and d.synthetic.any():
        raise ValueError(
            f"the input holds {int(d.synthetic.sum())} synthetic rows (column {PROVENANCE_COLUMN}), "
            "but sound mode tests on real rows only; run on the data from before balance, "
            f"or use --mode {MODE_BALANCE_FIRST}"
        )
    d = drop_constant_features(d)
    imb = _evaluate_arm(
        *_arm_data(d, cfg, False), cfg.forest, derive_seed(cfg.seed, STREAM_FOREST_IMBALANCED)
    )
    if cfg.smote is None:
        # with balancing off the arms are one experiment; reuse the
        # evaluation so the rows come out identical
        bal = imb
    else:
        bal = _evaluate_arm(
            *_arm_data(d, cfg, True), cfg.forest, derive_seed(cfg.seed, STREAM_FOREST_BALANCED)
        )
    return EvaluationReport(rows=(ReportRow(label=d.target_name, imbalanced=imb, balanced=bal),))


# preference when areas tie exactly, strongest first
_TIE_RANK = {METHOD_MUTUAL_INFO: 2, METHOD_CHI2: 1, METHOD_ANOVA_F: 0}


@dataclass(frozen=True)
class FilterSelection:
    method: str
    auch_by_method: dict[str, float]


def select_best_filter(
    d: Dataset,
    methods: Sequence[str],
    top_k: int,
    forest_params: ForestParams,
    eval_seed: int,
    test_fraction: float = 0.2,
    smote_template: Optional[SmoteConfig] = SmoteConfig(),
    tables: Optional[Mapping[str, FeatureScoreTable]] = None,
) -> FilterSelection:
    """Pick the filter whose top_k features yield the largest AUCH.

    Each method's AUCH is that of the balanced arm of a balance-first run
    with master seed `eval_seed` on the method's top_k features, its
    forest seeded from the imbalanced stream; with `smote_template` None
    it is the unbalanced arm's. The features keep schema order, so the run
    depends only on the selected set: methods that select the same set
    share one evaluated arm and its area, and exact ties fall back to the
    canonical preference MutualInfo > Chi2 > AnovaF.

    `tables` may hold `score_all(d, method)` tables already made, by
    method; the methods it lacks are scored here.
    """
    FilterConfig(methods, top_k)  # checks both
    if top_k > d.n_features:
        raise ValueError(f"top_k {top_k} exceeds feature count {d.n_features}")
    cfg = PipelineConfig(
        target_name=d.target_name,
        mode=MODE_BALANCE_FIRST,
        test_fraction=test_fraction,
        smote=smote_template,
        forest=forest_params,
        seed=eval_seed,
    )
    forest_seed = derive_seed(eval_seed, STREAM_FOREST_IMBALANCED)
    tables = tables or {}
    auch_by_subset: dict[tuple[str, ...], float] = {}  # one arm per distinct set
    auch_by_method: dict[str, float] = {}
    for method in methods:
        table = tables[method] if method in tables else score_all(d, method)
        names = {e.feature_name for e in table.entries[:top_k]}
        subset = tuple(f.name for f in d.schema if f.name in names)
        if subset not in auch_by_subset:
            arm = _arm_data(select_features(d, subset), cfg, cfg.smote is not None)
            auch_by_subset[subset] = _evaluate_arm(*arm, forest_params, forest_seed).auch
        auch_by_method[method] = auch_by_subset[subset]
    best = max(methods, key=lambda m: (auch_by_method[m], _TIE_RANK[m]))
    return FilterSelection(method=best, auch_by_method=auch_by_method)


def combine_reports(reports: Sequence[EvaluationReport]) -> EvaluationReport:
    """Merge per-target reports into one table; its t-tests then run over
    all rows (the cross-technique comparison)."""
    rows = tuple(row for rep in reports for row in rep.rows)
    if not rows:
        raise ValueError("no report rows to combine")
    return EvaluationReport(rows=rows)


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
