"""End-to-end pipeline: split, balance, train, evaluate, and recommend.

`run_pipeline` tests two arms, a forest without balancing and one with
SMOTE, and builds both arms' rows before any forest grows. `_split`
refuses a split that leaves a part without a class; the imbalanced arm
trains and tests on that split. The balanced arm's rows depend on the
mode:

- "sound" mode (the default) balances the training part of that split,
  so the test part holds real rows only and both arms share it, making
  their comparison paired. SMOTE's refusal of that part (`sampler`'s
  two-row rule) is given in the split's terms. An input that already
  holds synthetic rows is refused.
- "balance-first" mode balances the full dataset and splits the result,
  the ordering many studies report. Because synthetic minority points
  are created before the split, some of them land in the test part;
  metrics measured this way are optimistic.

With `smote` None the balanced arm is the imbalanced one. A report row
holds the two arms; report.json derives every comparison between them.
`_evaluate_arm` fits and scores an arm's forest.

`select_best_filter` ranks each method by the balanced arm of a
balance-first run on its top-k features, the forest seeded from the
imbalanced stream: a leak, as synthetic rows reach the test split that
ranks the filters, whatever mode `run` uses. With `smote` None it ranks
them by the unbalanced arm, as `run` does. Before any work it refuses a
`top_k` or `mtry` its forests could not grow with, a `test_fraction`
outside (0, 1) and a negative seed.

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
    Record,
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
    return smote_oversample(d, smote.replace(seed=derive_seed(seed, STREAM_SMOTE)))


def _refusal(d: Dataset, part: str, rows: Dataset, test_fraction: float, seed: int, need: str) -> ValueError:
    """The refusal of the split of `d` at `test_fraction` and master `seed`
    whose `part` holds `rows`: its class counts, `need` and the remedy, which
    offers another seed or test_fraction only where `d` holds the 2 rows of
    the short class both parts need."""
    n_pos = int(rows.y.sum())
    counts = (rows.n_rows - n_pos, n_pos)
    levels = rows.target_levels
    short = counts.index(min(counts))  # class 0 on a tie, as in `minority_label`
    remedy = f"add rows of class {levels[short]!r}"
    if int((d.y == short).sum()) >= 2:
        remedy = f"choose another seed, {'raise' if part == 'test' else 'lower'} test_fraction, or {remedy}"
    return ValueError(
        f"the split at test_fraction {test_fraction} and seed {seed} leaves the {part} part with "
        f"class counts {levels[0]!r}: {counts[0]}, {levels[1]!r}: {counts[1]}; {need}: {remedy}"
    )


def _split(d: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """The (train, test) split of `d` from the master `seed`'s split stream,
    refused when a part lacks a class."""
    train, test = split_train_test(d, test_fraction, seed=derive_seed(seed, STREAM_SPLIT))
    for part, rows in (("training", train), ("test", test)):
        if int(rows.y.sum()) in (0, rows.n_rows):
            raise _refusal(d, part, rows, test_fraction, seed, "each part needs rows of both classes")
    return train, test


def _evaluate_arm(train: Dataset, test: Dataset, params: ForestParams, seed: int) -> ArmMetrics:
    from .evaluation import ArmMetrics, judge
    from .forest import mean_split_entropy, predict_proba_many, train_forest

    model = train_forest(train, params.replace(seed=seed))
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
    train, test = _split(d, cfg.test_fraction, cfg.seed)
    arms = [(train, test)]
    if cfg.smote is not None and cfg.mode == MODE_SOUND:
        try:
            arms.append((balance(train, cfg.smote, cfg.seed), test))
        except ValueError as e:
            raise _refusal(d, "training", train, cfg.test_fraction, cfg.seed, f"sound-mode {e}") from e
    elif cfg.smote is not None:
        arms.append(_split(balance(d, cfg.smote, cfg.seed), cfg.test_fraction, cfg.seed))
    d = train = test = None  # unless the caller holds the input, only the arms' rows outlive this line
    imb = _evaluate_arm(*arms.pop(0), cfg.forest, derive_seed(cfg.seed, STREAM_FOREST_IMBALANCED))
    # with balancing off the arms are one experiment, evaluated once
    bal = _evaluate_arm(*arms.pop(0), cfg.forest, derive_seed(cfg.seed, STREAM_FOREST_BALANCED)) if arms else imb
    return EvaluationReport(rows=(ReportRow(label=label, imbalanced=imb, balanced=bal),))


# preference when areas tie exactly, strongest first
_TIE_RANK = {METHOD_MUTUAL_INFO: 2, METHOD_CHI2: 1, METHOD_ANOVA_F: 0}


class FilterSelection(Record):
    __slots__ = ("method", "auch_by_method")

    def __init__(self, method: str, auch_by_method: dict[str, float]):
        self._set(method=method, auch_by_method=auch_by_method)


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
    if top_k > d.n_features:
        raise ValueError(f"filter.top_k {top_k} exceeds the feature count {d.n_features}")
    if forest_params.mtry is not None and forest_params.mtry > top_k:
        raise ValueError(
            f"forest.mtry {forest_params.mtry} exceeds filter.top_k {top_k}: "
            "filter selection grows each forest on one method's top_k features"
        )
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    if eval_seed < 0:
        raise ValueError("eval_seed must be non-negative")
    forest_seed = derive_seed(eval_seed, STREAM_FOREST_IMBALANCED)
    tables = tables or {}
    auch_by_subset: dict[tuple[str, ...], float] = {}  # one arm per distinct set
    auch_by_method: dict[str, float] = {}
    for method in methods:
        table = tables[method] if method in tables else score_all(d, method)
        names = {e.feature_name for e in table.entries[:top_k]}
        subset = tuple(f.name for f in d.schema if f.name in names)
        if subset not in auch_by_subset:
            sub = select_features(d, subset)
            rows = sub if smote_template is None else balance(sub, smote_template, eval_seed)
            train, test = _split(rows, test_fraction, eval_seed)
            auch_by_subset[subset] = _evaluate_arm(train, test, forest_params, forest_seed).auch
        auch_by_method[method] = auch_by_subset[subset]
    best = max(methods, key=lambda m: (auch_by_method[m], _TIE_RANK[m]))
    return FilterSelection(method=best, auch_by_method=auch_by_method)

