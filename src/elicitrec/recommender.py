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
holds the two arms; report.json derives every comparison between them.

`_arm_data` builds an arm's train and test rows, and refuses a split that
leaves a part unusable before the arm's forest grows; `_evaluate_arm` fits and
scores its forest. `select_best_filter` ranks each method by the balanced
arm of a balance-first run on its top-k features, the forest seeded from
the imbalanced stream: a leak, as synthetic rows reach the test split
that ranks the filters, whatever mode `run` uses. With `smote` None it
ranks them by the unbalanced arm, as `run` does. Its forests differ only
in their columns, so they share the bootstrap draw that
`forest.draw_bootstrap` keeps. `check_selection` refuses, before any
work, a `top_k` or `mtry` those forests could not grow with.

Every random choice derives from the master seed through fixed stream
indices, so a run is a pure function of (dataset, config).

The settings records and modes live in `config`, and the forming of
recommendations from a score table in `scores`; both need no numpy.

At import the module loads only what `balance` runs (`config`,
`data_model`, `sampler`); each other function imports the array layers
it runs (`forest`, `evaluation`, `feature_scoring`) where it runs them,
so `elicitrec balance` starts without them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .config import (
    METHOD_ANOVA_F,
    METHOD_CHI2,
    METHOD_MUTUAL_INFO,
    MODE_BALANCE_FIRST,
    MODE_SOUND,
    FilterConfig,
    ForestParams,
    PipelineConfig,
    SmoteConfig,
)
from .data_model import (
    PROVENANCE_COLUMN,
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
from .sampler import smote_oversample

if TYPE_CHECKING:
    from .evaluation import ArmMetrics, EvaluationReport
    from .scores import FeatureScoreTable


def balance(d: Dataset, smote: SmoteConfig, seed: int) -> Dataset:
    """SMOTE on `d`, seeded from the master `seed`'s SMOTE stream."""
    return smote_oversample(d, replace(smote, seed=derive_seed(seed, STREAM_SMOTE)))


def _check_split(train: Dataset, test: Dataset, cfg: PipelineConfig) -> None:
    """Refuse a split with a part that lacks a class, or, where sound mode
    will balance it, a training part with fewer minority rows than SMOTE
    needs: 2 whenever it has rows to add (`sampler.smote_details`)."""
    for part, rows in (("training", train), ("test", test)):
        n_pos = int(rows.y.sum())
        counts = (rows.n_rows - n_pos, n_pos)
        smote_next = part == "training" and cfg.mode == MODE_SOUND and cfg.smote is not None
        # SMOTE adds rows while the minority is short of target_ratio times the majority
        if min(counts) == 1 and smote_next and round(cfg.smote.target_ratio * max(counts)) > 1:
            need = "sound-mode SMOTE needs at least 2 minority rows there"
        elif min(counts) == 0:
            need = "each part needs rows of both classes"
        else:
            continue
        levels = rows.target_levels
        short = counts.index(min(counts))  # class 0 on a tie, as in `minority_label`
        raise ValueError(
            f"the split at test_fraction {cfg.test_fraction} and seed {cfg.seed} leaves the {part} part with "
            f"class counts {levels[0]!r}: {counts[0]}, {levels[1]!r}: {counts[1]}; {need}: "
            f"choose another seed, {'raise' if part == 'test' else 'lower'} test_fraction, "
            f"or add rows of class {levels[short]!r}"
        )


def _arm_data(d: Dataset, cfg: PipelineConfig, balanced: bool) -> tuple[Dataset, Dataset]:
    """One arm's (train, test) rows: the split of `d`, balanced before the
    split (balance-first) or on its training rows (sound) for the balanced
    arm. `_check_split` checks the split before the arm's forest grows;
    in sound mode the arms share it, so a refusal comes before either."""
    if balanced and cfg.mode == MODE_BALANCE_FIRST:
        d = balance(d, cfg.smote, cfg.seed)
    train, test = split_train_test(d, cfg.test_fraction, seed=derive_seed(cfg.seed, STREAM_SPLIT))
    _check_split(train, test, cfg)
    if balanced and cfg.mode == MODE_SOUND:
        train = balance(train, cfg.smote, cfg.seed)
    return train, test


def _evaluate_arm(train: Dataset, test: Dataset, params: ForestParams, seed: int) -> ArmMetrics:
    from .evaluation import ArmMetrics, judge
    from .forest import mean_split_entropy, predict_proba_many, train_forest

    model = train_forest(train, replace(params, seed=seed))
    conf, roc = judge(predict_proba_many(model, test.X), test.y)
    return ArmMetrics(
        confusion=conf,
        roc=roc,
        mean_split_entropy=mean_split_entropy(model),
        n_train=train.n_rows,
    )


def run_pipeline(d: Dataset, cfg: PipelineConfig) -> EvaluationReport:
    """Train and evaluate both arms (without and with balancing).

    Returns one report row per run, carrying each arm's confusion counts
    at `CUTOFF`, full ROC analysis, forest's mean split entropy and
    training row count; `report_to_dict` derives the comparisons.
    """
    from .evaluation import EvaluationReport, ReportRow

    if cfg.mode == MODE_SOUND and d.synthetic.any():
        raise ValueError(
            f"the input holds {int(d.synthetic.sum())} synthetic rows (column {PROVENANCE_COLUMN}), "
            "but sound mode tests on real rows only; run on the data from before balance, "
            f"or use --mode {MODE_BALANCE_FIRST}"
        )
    names = d.feature_names
    d = drop_constant_features(d)
    if cfg.forest.mtry is not None and cfg.forest.mtry > d.n_features:
        dropped = [name for name in names if name not in d.feature_names]
        raise ValueError(
            f"forest.mtry {cfg.forest.mtry} exceeds the {d.n_features} feature(s) left"
            + (f" once the constant column(s) {', '.join(dropped)} are dropped" if dropped else "")
        )
    label = d.target_name
    imb = _evaluate_arm(
        *_arm_data(d, cfg, False), cfg.forest, derive_seed(cfg.seed, STREAM_FOREST_IMBALANCED)
    )
    if cfg.smote is None:
        # with balancing off the arms are one experiment; reuse the
        # evaluation so the rows come out identical
        bal = imb
    else:
        train, test = _arm_data(d, cfg, True)
        d = None  # unless the caller holds the input, it is freed before the balanced forest grows
        bal = _evaluate_arm(train, test, cfg.forest, derive_seed(cfg.seed, STREAM_FOREST_BALANCED))
    return EvaluationReport(rows=(ReportRow(label=label, imbalanced=imb, balanced=bal),))


# preference when areas tie exactly, strongest first
_TIE_RANK = {METHOD_MUTUAL_INFO: 2, METHOD_CHI2: 1, METHOD_ANOVA_F: 0}


@dataclass(frozen=True)
class FilterSelection:
    method: str
    auch_by_method: dict[str, float]


def check_selection(d: Dataset, top_k: int, forest_params: ForestParams) -> None:
    """Refuse a filter selection on `d` whose forests could not grow: each
    grows on one method's top_k features."""
    if top_k > d.n_features:
        raise ValueError(f"filter.top_k {top_k} exceeds the feature count {d.n_features}")
    if forest_params.mtry is not None and forest_params.mtry > top_k:
        raise ValueError(
            f"forest.mtry {forest_params.mtry} exceeds filter.top_k {top_k}: "
            "filter selection grows each forest on one method's top_k features"
        )


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
    from .feature_scoring import score_all

    FilterConfig(methods, top_k)  # checks both
    check_selection(d, top_k, forest_params)
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
            train, test = _arm_data(select_features(d, subset), cfg, cfg.smote is not None)
            auch_by_subset[subset] = _evaluate_arm(train, test, forest_params, forest_seed).auch
        auch_by_method[method] = auch_by_subset[subset]
    best = max(methods, key=lambda m: (auch_by_method[m], _TIE_RANK[m]))
    return FilterSelection(method=best, auch_by_method=auch_by_method)

