"""Command-line driver.

Subcommands: balance, train, evaluate, run, score, recommend. A JSON
config file supplies experiment settings; unknown keys, values of the
wrong type and non-finite numbers are rejected so a typo fails fast
instead of silently using a default or crashing later. Every output file is
written atomically (temp file + rename), and a fixed seed makes each
subcommand's outputs byte-identical across runs.

Exit codes: 0 success, 1 runtime failure, 2 validation or config error
or a path that cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import data_model, evaluation, feature_scoring, forest, recommender
from .data_model import Dataset, FeatureSchema, load_csv, write_atomic as _write_atomic
from .forest import ForestParams
from .recommender import FilterConfig, PipelineConfig, Prediction
from .sampler import SmoteConfig

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


def _read_file(path: str, kind: str) -> str:
    """The text of the `kind` file at `path`."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such {kind} file: {p}")
    try:
        return p.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise ValueError(f"{kind} file {p} is not valid UTF-8") from None


def _read_json(path: str, kind: str):
    """The JSON document of the `kind` file at `path`."""
    try:
        return json.loads(_read_file(path, kind))
    except json.JSONDecodeError as e:
        raise ValueError(f"{kind} file {path}: not valid JSON: {e}") from None


@dataclass(frozen=True)
class Settings:
    """Everything a subcommand might need, merged from config and flags.
    `pipeline.target_name` is empty when no target is set."""

    pipeline: PipelineConfig
    filter: FilterConfig
    positive_label: Optional[str] = None
    roles: dict[str, str] = field(default_factory=dict)
    recommendation_threshold: Optional[float] = None


def _load_settings(args: argparse.Namespace) -> Settings:
    doc: dict = {}
    if args.config is not None:
        doc = _checked(_read_json(args.config, "config"), "config")
    for name, cls in _SECTIONS.items():
        if doc.get(name, {}) is not None:  # "smote": null stays None
            doc[name] = cls(**_checked(doc.get(name, {}), name))
    for name, role in doc.get("roles", {}).items():
        if role not in data_model.ROLES:
            raise ValueError(f"config roles[{name!r}] must be 'context' or 'technique'")
    # a flag overrides the config key its dest names
    doc.update((k, v) for k, v in vars(args).items() if k in _KEYS["config"] and v is not None)
    pipeline = {f.name: doc.pop(f.name) for f in fields(PipelineConfig) if f.name in doc}
    return Settings(PipelineConfig(target_name=doc.pop("target", None) or "", **pipeline), **doc)


def _target(s: Settings) -> str:
    if not s.pipeline.target_name:
        raise ValueError("a target column is required (config 'target' or --target)")
    return s.pipeline.target_name


def _load_input(args: argparse.Namespace, s: Settings) -> Dataset:
    return load_csv(args.input, _target(s), role_map=s.roles, positive_label=s.positive_label)


def _dump_json(doc, compact: bool = False) -> str:
    kwargs = {"separators": (",", ":")} if compact else {"indent": 2}
    return json.dumps(doc, sort_keys=True, allow_nan=False, **kwargs) + "\n"


# --- model bundle: forest + the schema needed to score new rows ---------


def _bundle_head(m: forest.RandomForestModel, d: Dataset) -> dict:
    """The bundle document without its trees."""
    return {
        **forest._model_head(m),
        "schema": [
            {"name": f.name, "role": f.role, "levels": list(f.levels)} for f in d.schema
        ],
        "target_name": d.target_name,
        "target_levels": list(d.target_levels),
    }


def _bundle_to_doc(m: forest.RandomForestModel, d: Dataset) -> dict:
    return {**_bundle_head(m, d), "trees": forest.model_to_dict(m)["trees"]}


def _bundle_pieces(m: forest.RandomForestModel, d: Dataset):
    """`_dump_json(_bundle_to_doc(m, d), compact=True)` one node array of
    one tree at a time. "trees" sorts after every other key, so the text
    is the head's up to its closing brace, then the trees, each with its
    arrays in key order."""
    yield _dump_json(_bundle_head(m, d), compact=True)[:-2] + ',"trees":['
    cut = m.offsets.tolist()
    for t, (a, b) in enumerate(zip(cut, cut[1:])):
        opening = ",{" if t else "{"
        for f in sorted(forest.NODE_FIELDS):
            yield f'{opening}"{f}":' + _dump_json(getattr(m, f)[a:b].tolist(), compact=True)[:-1]
            opening = ","
        yield "}"
    yield "]}\n"


@dataclass(frozen=True)
class ModelBundle:
    model: forest.RandomForestModel
    schema: tuple[FeatureSchema, ...]
    target_name: str
    target_levels: tuple[str, str]


def _load_bundle(path: str) -> ModelBundle:
    doc = _read_json(path, "model")
    if not isinstance(doc, dict):
        raise ValueError("model file must hold a JSON object")
    for key in ("schema", "target_name", "target_levels"):
        if key not in doc:
            raise ValueError(f"model file lacks {key!r}")
    try:
        entries = [(f["name"], f["role"], f["levels"]) for f in doc["schema"]]
    except (KeyError, TypeError):
        raise ValueError("model schema entries need 'name', 'role' and 'levels'") from None
    for name, _, levels in entries:
        if not isinstance(levels, list) or not all(isinstance(v, str) for v in [name, *levels]):
            raise ValueError(f"model schema entry {name!r}: name must be a string, levels a list of strings")
    schema = tuple(FeatureSchema(name, role, tuple(levels)) for name, role, levels in entries)
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


def _load_model(args: argparse.Namespace, s: Settings) -> ModelBundle:
    """The bundle at --model, once the config's target and positive label,
    where set, are known to be the model's own."""
    bundle = _load_bundle(args.model)
    for key, given, own in (
        ("target", s.pipeline.target_name or None, bundle.target_name),
        ("positive_label", s.positive_label, bundle.target_levels[1]),
    ):
        if given is not None and given != own:
            raise ValueError(f"config {key} {given!r} differs from the model's {own!r}")
    return bundle


# --- SVG hull plot -------------------------------------------------------

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


# --- subcommands ----------------------------------------------------------


def cmd_balance(args: argparse.Namespace) -> int:
    s = _load_settings(args)
    if s.pipeline.smote is None:
        raise ValueError('config "smote" is null, which turns balancing off; balance needs an object')
    d = _load_input(args, s)
    balanced = recommender.balance(d, s.pipeline.smote, s.pipeline.seed)
    out = args.out_dir / "balanced.csv"
    data_model.write_csv(balanced, out, include_provenance=True)
    counts = np.bincount(balanced.y, minlength=2)
    print(
        f"balanced {d.n_rows} -> {balanced.n_rows} rows "
        f"({counts.max()} majority / {counts.min()} minority) -> {out}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    s = _load_settings(args)
    d = _load_input(args, s)
    params = replace(s.pipeline.forest, seed=s.pipeline.seed)
    model = forest.train_forest(d, params)
    out = args.out_dir / "model.json"
    _write_atomic(out, _bundle_pieces(model, d))
    print(
        f"trained {model.n_trees} trees (mtry {model.mtry}, criterion {model.criterion}) "
        f"on {d.n_rows} rows -> {out}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    bundle = _load_model(args, _load_settings(args))
    positive = bundle.target_levels[1]
    d = load_csv(args.input, bundle.target_name, positive_label=positive, schema=bundle.schema)
    if d.target_levels != bundle.target_levels:
        raise ValueError(
            f"{args.input}: target values {list(d.target_levels)} differ from the model's "
            f"{list(bundle.target_levels)}"
        )
    conf, analysis = evaluation.judge(forest.predict_proba_many(bundle.model, d.X), d.y)
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
    out = args.out_dir / "evaluation.json"
    _write_atomic(out, _dump_json(doc))
    print(
        f"evaluated {d.n_rows} rows: accuracy {doc['accuracy']:.4f}, "
        f"auc {doc['auc']:.4f} -> {out}"
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    s = _load_settings(args)
    cfg = s.pipeline
    report = recommender.run_pipeline(_load_input(args, s), cfg)
    row = report.rows[0]
    out_dir = args.out_dir
    report_doc = {
        "format_version": 1,
        "target": cfg.target_name,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "comparison": {
            "hull_verdict": row.hull_verdict,
            "auc_delta": row.auc_delta,
            "accuracy_delta": row.accuracy_delta,
            "entropy_delta": row.entropy_delta,
        },
        "report": evaluation.report_to_dict(report),
    }
    _write_atomic(out_dir / "report.json", _dump_json(report_doc))
    for arm in ("imbalanced", "balanced"):
        _write_atomic(out_dir / f"roc_{arm}.csv", evaluation.roc_analysis_to_csv(getattr(row, arm).roc))
    _write_atomic(
        out_dir / "roc_hulls.svg",
        render_hulls_svg(row.imbalanced.roc.hull, row.balanced.roc.hull),
    )
    print(
        f"run complete ({cfg.mode} mode): auc {row.imbalanced.roc.auc:.4f} -> "
        f"{row.balanced.roc.auc:.4f}, hull verdict {row.hull_verdict}; wrote report.json, "
        f"roc_imbalanced.csv, roc_balanced.csv, roc_hulls.svg in {out_dir}"
    )
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    s = _load_settings(args)
    d = _load_input(args, s)
    out_dir = args.out_dir
    tables = {method: feature_scoring.score_all(d, method) for method in s.filter.methods}
    for method, table in tables.items():
        _write_atomic(out_dir / f"scores_{method}.csv", feature_scoring.table_to_csv(table))
    print(f"scored {d.n_features} features with {len(s.filter.methods)} method(s)")
    if len(s.filter.methods) > 1:
        selection = recommender.select_best_filter(
            d,
            s.filter.methods,
            s.filter.top_k,
            s.pipeline.forest,
            eval_seed=s.pipeline.seed,
            test_fraction=s.pipeline.test_fraction,
            smote_template=s.pipeline.smote,
            tables=tables,
        )
        _write_atomic(out_dir / "best_method.txt", selection.method + "\n")
        for method in s.filter.methods:
            print(f"  {method}: auch {selection.auch_by_method[method]:.6f}")
        print(f"best filter: {selection.method} -> {out_dir / 'best_method.txt'}")
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    s = _load_settings(args)
    if s.recommendation_threshold is None:
        raise ValueError(
            "a recommendation threshold is required (--threshold or config key)"
        )
    bundle = _load_model(args, s)
    roles = {f.name: f.role for f in bundle.schema}
    text = _read_file(args.scores, "scores")
    try:
        table = feature_scoring.table_from_csv(text)
    except ValueError as e:
        raise ValueError(f"scores file {args.scores}: {e}") from None
    unknown = [e.feature_name for e in table.entries if roles.get(e.feature_name) != e.role]
    if unknown:
        raise ValueError(f"scores file {args.scores}: feature(s) not in the model with that role: {', '.join(unknown)}")
    row_doc = _read_json(args.row, "context row")
    if not isinstance(row_doc, dict) or not all(
        isinstance(v, str) for v in row_doc.values()
    ):
        raise ValueError("context row must be a JSON object of feature -> level string")
    values = []
    for f in bundle.schema:
        if f.name not in row_doc:
            raise ValueError(f"context row lacks feature {f.name!r}")
        values.append(f.encode(row_doc[f.name]))
    extra = sorted(set(row_doc) - set(roles))
    if extra:
        raise ValueError(f"context row has unknown feature(s): {', '.join(extra)}")
    proba = forest.predict_proba(bundle.model, np.asarray(values, dtype=np.int64))
    prediction = Prediction(label=bundle.target_name, probability=proba)
    rs = recommender.form_recommendations(table, prediction, float(s.recommendation_threshold))
    doc = {"format_version": 1, **recommender.recommendation_set_to_dict(rs)}
    out = args.out_dir / "recommendations.json"
    _write_atomic(out, _dump_json(doc))

    use = "use" if proba >= evaluation.CUTOFF else "do not use"
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
    """Each subcommand takes only the flags it reads. A flag whose dest is
    a config key overrides that key (see `_load_settings`)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out-dir", type=Path, default=".", help="output directory (default: .)")
    data = argparse.ArgumentParser(add_help=False, parents=[common])
    data.add_argument("--input", required=True, help="input CSV")
    data.add_argument("--seed", type=int, help="master seed (overrides config)")
    data.add_argument("--target", help="target column (overrides config)")
    data.add_argument("--positive-label", help="positive target value (overrides config)")

    parser = argparse.ArgumentParser(
        prog="elicitrec",
        description="Elicitation-technique recommendation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, parent: argparse.ArgumentParser, func, help_text: str):
        # no abbreviations: "--mode" would pass for "--model" on evaluate
        p = sub.add_parser(name, parents=[parent], help=help_text, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    add("balance", data, cmd_balance, "oversample the minority class")
    add("train", data, cmd_train, "train a forest on the input as-is")
    p_eval = add("evaluate", common, cmd_evaluate, "evaluate a trained model on a holdout")
    p_eval.add_argument("--input", required=True, help="holdout CSV, read with the model's schema")
    p_run = add("run", data, cmd_run, "full two-arm pipeline with report and plots")
    p_run.add_argument("--mode", choices=list(recommender.MODES), help="pipeline mode (overrides config)")
    add("score", data, cmd_score, "filter-score features")
    p_rec = add("recommend", common, cmd_recommend, "recommend techniques for a context row")
    for p in (p_eval, p_rec):
        p.add_argument("--model", required=True, help="model.json from train")
    p_rec.add_argument("--scores", required=True, help="scores_<method>.csv from score")
    p_rec.add_argument("--row", required=True, help="JSON file with one context row")
    p_rec.add_argument("--threshold", type=float, dest="recommendation_threshold", metavar="THRESHOLD",
                       help="recommendation score threshold (overrides config)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError,
            PermissionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure distinct from bad input
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
