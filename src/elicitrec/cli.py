"""Command-line driver.

Subcommands: balance, train, evaluate, run, score, recommend. A JSON
config file supplies experiment settings; unknown keys, values of the
wrong type and non-finite numbers are rejected so a typo fails fast
instead of silently using a default or crashing later. Every output file is
written atomically (temp file + rename), and a fixed seed makes each
subcommand's outputs byte-identical across runs.

Exit codes: 0 success, 1 runtime failure, 2 validation or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import data_model, evaluation, feature_scoring, forest, recommender
from .data_model import Dataset, FeatureSchema, derive_seed, load_csv
from .forest import ForestParams
from .recommender import FilterConfig, PipelineConfig, Prediction
from .sampler import SmoteConfig, smote_oversample

#: JSON types by the name a config error gives them
_JSON_TYPES = {
    "an integer": (int,),
    "a number": (int, float),
    "a string": (str,),
    "a list": (list,),
    "an object": (dict,),
    "null": (type(None),),
}

#: every key of each config level and the JSON types it accepts; null is
#: accepted only where it means something
_KEYS = {
    "config": {
        "target": ("a string", "null"),
        "positive_label": ("a string", "null"),
        "roles": ("an object",),
        "mode": ("a string",),
        "test_fraction": ("a number",),
        "seed": ("an integer",),
        "smote": ("an object", "null"),  # null turns balancing off
        "forest": ("an object",),
        "filter": ("an object",),
        "recommendation_threshold": ("a number", "null"),
    },
    "smote": {"k_neighbors": ("an integer",), "target_ratio": ("a number",)},
    "forest": {
        "n_trees": ("an integer",),
        "mtry": ("an integer", "null"),  # null: floor(sqrt(p))
        "max_depth": ("an integer", "null"),  # null: unlimited
        "min_samples_leaf": ("an integer",),
        "criterion": ("a string",),
    },
    "filter": {"methods": ("a list",), "top_k": ("an integer",)},
}

#: the dataclass each config section is read into; a key the section
#: leaves out takes the dataclass default
_SECTIONS = {"smote": SmoteConfig, "forest": ForestParams, "filter": FilterConfig}

_PIPELINE_DEFAULTS = {f.name: f.default for f in fields(PipelineConfig)}


def _checked(doc, level: str) -> dict:
    """`doc` once it is known to be an object holding only keys of config
    `level`, each with one of its JSON types (a bool is no integer) and
    every number finite."""
    where = "config" if level == "config" else f"config {level}"
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    keys = _KEYS[level]
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    for key, value in doc.items():
        name = key if level == "config" else f"{level}.{key}"
        types = tuple(t for kind in keys[key] for t in _JSON_TYPES[kind])
        if isinstance(value, bool) or not isinstance(value, types):
            expected = " or ".join(keys[key])
            raise ValueError(f"config {name} must be {expected}, got {json.dumps(value)}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"config {name} must be finite, got {value!r}")
    return doc


@dataclass(frozen=True)
class Settings:
    """Everything a subcommand might need, merged from config and flags."""

    smote: Optional[SmoteConfig]
    forest: ForestParams
    filter: FilterConfig
    target: Optional[str] = None
    positive_label: Optional[str] = None
    roles: dict[str, str] = field(default_factory=dict)
    mode: str = _PIPELINE_DEFAULTS["mode"]
    test_fraction: float = _PIPELINE_DEFAULTS["test_fraction"]
    seed: int = _PIPELINE_DEFAULTS["seed"]
    recommendation_threshold: Optional[float] = None


def _load_settings(args: argparse.Namespace) -> Settings:
    doc: dict = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"no such config file: {path}")
        doc = _checked(json.loads(path.read_text(encoding="utf-8")), "config")
    for name, cls in _SECTIONS.items():
        if doc.get(name, {}) is not None:  # "smote": null stays None
            doc[name] = cls(**_checked(doc.get(name, {}), name))
    for name, role in doc.get("roles", {}).items():
        if role not in (data_model.ROLE_CONTEXT, data_model.ROLE_TECHNIQUE):
            raise ValueError(f"config roles[{name!r}] must be 'context' or 'technique'")
    for key in ("target", "positive_label", "mode", "seed"):  # a flag overrides the config
        if getattr(args, key) not in (None, ""):
            doc[key] = getattr(args, key)
    s = Settings(**doc)
    if s.mode not in recommender.MODES:
        raise ValueError(f"mode must be one of {recommender.MODES}, got {s.mode!r}")
    return s


def _target(s: Settings) -> str:
    if not s.target:
        raise ValueError("a target column is required (config 'target' or --target)")
    return s.target


def _pipeline_config(s: Settings) -> PipelineConfig:
    return PipelineConfig(
        target_name=_target(s),
        mode=s.mode,
        test_fraction=s.test_fraction,
        smote=s.smote,
        forest=s.forest,
        seed=s.seed,
    )


def _load_input(args: argparse.Namespace, s: Settings) -> Dataset:
    return load_csv(args.input, _target(s), role_map=s.roles, positive_label=s.positive_label)


def _dump_json(doc, compact: bool = False) -> str:
    kwargs = {"separators": (",", ":")} if compact else {"indent": 2}
    return json.dumps(doc, sort_keys=True, allow_nan=False, **kwargs) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            # mkstemp creates the file 0600; give it the mode a plain open
            # would (reading the umask means setting it)
            umask = os.umask(0o022)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _out_dir(args: argparse.Namespace) -> Path:
    return Path(args.out_dir)


# --- model bundle: forest + the schema needed to score new rows ---------


def _schema_to_doc(d: Dataset) -> dict:
    return {
        "schema": [
            {"name": f.name, "role": f.role, "levels": list(f.levels)} for f in d.schema
        ],
        "target_name": d.target_name,
        "target_levels": list(d.target_levels),
    }


def _bundle_to_doc(m: forest.RandomForestModel, d: Dataset) -> dict:
    doc = forest.model_to_dict(m)
    doc.update(_schema_to_doc(d))
    return doc


@dataclass(frozen=True)
class ModelBundle:
    model: forest.RandomForestModel
    schema: tuple[FeatureSchema, ...]
    target_name: str
    target_levels: tuple[str, str]


def _load_bundle(path: str) -> ModelBundle:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such model file: {p}")
    doc = json.loads(p.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("model file must hold a JSON object")
    for key in ("schema", "target_name", "target_levels"):
        if key not in doc:
            raise ValueError(f"model file lacks {key!r}")
    try:
        schema = tuple(
            FeatureSchema(f["name"], f["role"], tuple(f["levels"])) for f in doc["schema"]
        )
    except (KeyError, TypeError):
        raise ValueError("model schema entries need 'name', 'role' and 'levels'") from None
    levels = doc["target_levels"]
    if not isinstance(levels, list) or len(levels) != 2:
        raise ValueError("model target_levels must list exactly two values")
    model = forest.model_from_dict(doc)
    if model.feature.min() < -1 or model.feature.max() >= len(schema):
        raise ValueError(f"model has a feature index outside its {len(schema)}-feature schema")
    return ModelBundle(
        model=model,
        schema=schema,
        target_name=str(doc["target_name"]),
        target_levels=(str(levels[0]), str(levels[1])),
    )


# --- SVG hull plot -------------------------------------------------------

_PLOT_SIZE = 600


def render_hulls_svg(
    hull_imbalanced: np.ndarray, hull_balanced: np.ndarray, size: int = _PLOT_SIZE
) -> str:
    """Both hulls (rows fpr, tpr, ...) as polylines in a square viewport.

    A point maps to (fpr * size, (1 - tpr) * size) so (0,0) sits bottom
    left and the perfect corner (fpr 0, tpr 1) top left.
    """
    w = h = size

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
        x = t * w
        y = (1 - t) * h
        label = f"{t:g}"
        lines.append(f'<line x1="{x!r}" y1="{h}" x2="{x!r}" y2="{h + 6}" stroke="#444"/>')
        lines.append(
            f'<text x="{x!r}" y="{h + 24}" text-anchor="middle">{label}</text>'
        )
        lines.append(f'<line x1="-6" y1="{y!r}" x2="0" y2="{y!r}" stroke="#444"/>')
        lines.append(f'<text x="-12" y="{y + 5!r}" text-anchor="end">{label}</text>')
    lines.append(
        f'<text x="{w / 2!r}" y="{h + 56}" text-anchor="middle">false positive rate</text>'
    )
    lines.append(
        f'<text x="{-h / 2!r}" y="-48" transform="rotate(-90)" text-anchor="middle">'
        "true positive rate</text>"
    )
    lines.append(
        f'<polyline id="hull-imbalanced" fill="none" stroke="#767676" stroke-width="2"'
        f' points="{poly(hull_imbalanced)}"/>'
    )
    lines.append(
        f'<polyline id="hull-balanced" fill="none" stroke="#c0392b" stroke-width="2"'
        f' points="{poly(hull_balanced)}"/>'
    )
    legend_y = h + 84
    lines.append(
        f'<line x1="0" y1="{legend_y}" x2="28" y2="{legend_y}" stroke="#767676" stroke-width="2"/>'
    )
    lines.append(f'<text x="34" y="{legend_y + 5}">imbalanced</text>')
    lines.append(
        f'<line x1="160" y1="{legend_y}" x2="188" y2="{legend_y}" stroke="#c0392b" stroke-width="2"/>'
    )
    lines.append(f'<text x="194" y="{legend_y + 5}">balanced (oversampled)</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# --- subcommands ----------------------------------------------------------


def cmd_balance(args: argparse.Namespace) -> int:
    s = _load_settings(args)
    if s.smote is None:
        raise ValueError('config "smote" is null, which turns balancing off; balance needs an object')
    d = _load_input(args, s)
    smote_cfg = replace(s.smote, seed=derive_seed(s.seed, recommender.STREAM_SMOTE))
    balanced = smote_oversample(d, smote_cfg)
    out = _out_dir(args) / "balanced.csv"
    _write_atomic(out, data_model.csv_text(balanced, include_provenance=True))
    summary = data_model.summarize(balanced)
    print(
        f"balanced {d.n_rows} -> {balanced.n_rows} rows "
        f"({summary.n_majority} majority / {summary.n_minority} minority) -> {out}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    s = _load_settings(args)
    d = _load_input(args, s)
    params = replace(s.forest, seed=s.seed)
    model = forest.train_forest(d, params)
    out = _out_dir(args) / "model.json"
    _write_atomic(out, _dump_json(_bundle_to_doc(model, d), compact=True))
    print(
        f"trained {model.n_trees} trees (mtry {model.mtry}, criterion {model.criterion}) "
        f"on {d.n_rows} rows -> {out}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    s = _load_settings(args)
    bundle = _load_bundle(args.model)
    positive = bundle.target_levels[1]
    d = load_csv(
        args.input,
        bundle.target_name,
        positive_label=positive,
        schema=bundle.schema,
    )
    scores = forest.predict_proba_many(bundle.model, d.X)
    preds = (scores >= 0.5).astype(np.int64)
    conf = evaluation.confusion(d.y, preds)
    analysis = evaluation.analyze_scores(scores, d.y)
    tp, fp, tn, fn = conf
    doc = {
        "format_version": 1,
        "n_rows": d.n_rows,
        "accuracy": evaluation.accuracy(conf),
        "precision": evaluation.precision(conf),
        "recall": evaluation.recall(conf),
        "auc": analysis.auc,
        "auch": analysis.auch,
        "confusion": {"tp": tp, "fp": fp, "tn": tn, "fn": fn},
    }
    out = _out_dir(args) / "evaluation.json"
    _write_atomic(out, _dump_json(doc))
    print(
        f"evaluated {d.n_rows} rows: accuracy {doc['accuracy']:.4f}, "
        f"auc {doc['auc']:.4f} -> {out}"
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    s = _load_settings(args)
    cfg = _pipeline_config(s)
    d = _load_input(args, s)
    cmp = recommender.compare_balancing(d, cfg)
    row = cmp.report.rows[0]
    out_dir = _out_dir(args)
    report_doc = {
        "format_version": 1,
        "target": cfg.target_name,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "comparison": {
            "hull_verdict": cmp.verdict,
            "auc_delta": cmp.auc_delta,
            "accuracy_delta": cmp.accuracy_delta,
            "entropy_delta": cmp.entropy_delta,
        },
        "report": evaluation.report_to_dict(cmp.report),
    }
    _write_atomic(out_dir / "report.json", _dump_json(report_doc))
    _write_atomic(
        out_dir / "roc_imbalanced.csv", evaluation.roc_analysis_to_csv(row.imbalanced.roc)
    )
    _write_atomic(
        out_dir / "roc_balanced.csv", evaluation.roc_analysis_to_csv(row.balanced.roc)
    )
    _write_atomic(
        out_dir / "roc_hulls.svg",
        render_hulls_svg(row.imbalanced.roc.hull, row.balanced.roc.hull),
    )
    print(
        f"run complete ({cfg.mode} mode): auc {row.imbalanced.roc.auc:.4f} -> "
        f"{row.balanced.roc.auc:.4f}, hull verdict {cmp.verdict}; wrote report.json, "
        f"roc_imbalanced.csv, roc_balanced.csv, roc_hulls.svg in {out_dir}"
    )
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    s = _load_settings(args)
    d = _load_input(args, s)
    out_dir = _out_dir(args)
    tables = {method: feature_scoring.score_all(d, method) for method in s.filter.methods}
    for method, table in tables.items():
        _write_atomic(out_dir / f"scores_{method}.csv", feature_scoring.table_to_csv(table))
    print(f"scored {d.n_features} features with {len(s.filter.methods)} method(s)")
    if len(s.filter.methods) > 1:
        selection = feature_scoring.select_best_filter(
            d,
            s.filter.methods,
            s.filter.top_k,
            s.forest,
            eval_seed=s.seed,
            test_fraction=s.test_fraction,
            smote_template=s.smote,
            tables=tables,
        )
        _write_atomic(out_dir / "best_method.txt", selection.method + "\n")
        for method in s.filter.methods:
            print(f"  {method}: auch {selection.auch_by_method[method]:.6f}")
        print(f"best filter: {selection.method} -> {out_dir / 'best_method.txt'}")
    return 0


def _method_from_scores_path(path: str) -> str:
    stem = Path(path).stem
    if stem.startswith("scores_") and stem[len("scores_"):] in feature_scoring.METHODS:
        return stem[len("scores_"):]
    return feature_scoring.METHOD_MUTUAL_INFO


def cmd_recommend(args: argparse.Namespace) -> int:
    s = _load_settings(args)
    threshold = args.threshold if args.threshold is not None else s.recommendation_threshold
    if threshold is None:
        raise ValueError(
            "a recommendation threshold is required (--threshold or config key)"
        )
    bundle = _load_bundle(args.model)
    scores_path = Path(args.scores)
    if not scores_path.exists():
        raise FileNotFoundError(f"no such scores file: {scores_path}")
    table = feature_scoring.table_from_csv(
        scores_path.read_text(encoding="utf-8"), _method_from_scores_path(args.scores)
    )
    row_path = Path(args.row)
    if not row_path.exists():
        raise FileNotFoundError(f"no such context row file: {row_path}")
    row_doc = json.loads(row_path.read_text(encoding="utf-8"))
    if not isinstance(row_doc, dict) or not all(
        isinstance(v, str) for v in row_doc.values()
    ):
        raise ValueError("context row must be a JSON object of feature -> level string")
    values = []
    for f in bundle.schema:
        if f.name not in row_doc:
            raise ValueError(f"context row lacks feature {f.name!r}")
        values.append(f.encode(row_doc[f.name]))
    extra = sorted(set(row_doc) - {f.name for f in bundle.schema})
    if extra:
        raise ValueError(f"context row has unknown feature(s): {', '.join(extra)}")
    proba = forest.predict_proba(bundle.model, np.asarray(values, dtype=np.int64))
    prediction = Prediction(label=bundle.target_name, probability=proba)
    rs = recommender.form_recommendations(table, prediction, float(threshold))
    doc = {"format_version": 1, **recommender.recommendation_set_to_dict(rs)}
    out = _out_dir(args) / "recommendations.json"
    _write_atomic(out, _dump_json(doc))

    use = "use" if proba >= 0.5 else "do not use"
    print(f"prediction: {use} {bundle.target_name} (probability {proba:.3f})")
    if rs.collaborative:
        print("also consider (technique features above threshold):")
        for e in rs.collaborative:
            print(f"  {e.feature_name}: {e.score:g}")
    else:
        print("no technique features score above the threshold")
    if rs.content_based:
        print("driven by (context features above threshold):")
        for e in rs.content_based:
            print(f"  {e.feature_name}: {e.score:g}")
    else:
        print("no context features score above the threshold")
    print(f"wrote {out}")
    return 0


# --- argument parsing -----------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out-dir", default=".", help="output directory (default: .)")
    common.add_argument("--seed", type=int, help="master seed (overrides config)")
    common.add_argument(
        "--mode", choices=list(recommender.MODES), help="pipeline mode (overrides config)"
    )
    common.add_argument("--target", help="target column (overrides config)")
    common.add_argument("--positive-label", help="positive target value (overrides config)")

    parser = argparse.ArgumentParser(
        prog="elicitrec",
        description="Elicitation-technique recommendation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--input", required=True, help="input CSV")
        return p

    with_input(
        sub.add_parser("balance", parents=[common], help="oversample the minority class")
    ).set_defaults(func=cmd_balance)
    with_input(
        sub.add_parser("train", parents=[common], help="train a forest on the input as-is")
    ).set_defaults(func=cmd_train)
    p_eval = with_input(
        sub.add_parser("evaluate", parents=[common], help="evaluate a trained model")
    )
    p_eval.add_argument("--model", required=True, help="model.json from train")
    p_eval.set_defaults(func=cmd_evaluate)
    with_input(
        sub.add_parser(
            "run", parents=[common], help="full two-arm pipeline with report and plots"
        )
    ).set_defaults(func=cmd_run)
    with_input(
        sub.add_parser("score", parents=[common], help="filter-score features")
    ).set_defaults(func=cmd_score)
    p_rec = sub.add_parser(
        "recommend", parents=[common], help="recommend techniques for a context row"
    )
    p_rec.add_argument("--model", required=True, help="model.json from train")
    p_rec.add_argument("--scores", required=True, help="scores_<method>.csv from score")
    p_rec.add_argument("--row", required=True, help="JSON file with one context row")
    p_rec.add_argument("--threshold", type=float, help="recommendation score threshold")
    p_rec.set_defaults(func=cmd_recommend)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, IsADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure distinct from bad input
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
