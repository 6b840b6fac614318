"""Command-line driver.

Subcommands: balance, train, evaluate, run, score, recommend. The module
parses the flags, calls the library, writes the texts it is handed and
prints; it owns no file format. The modules whose data a file describes
lay it out: `config` reads the config file and merges the flags into it,
`model_file` writes, reads and checks `model.json` and codes a context
row, `evaluation` lays out `evaluation.json`, `report.json`, the ROC CSVs
and the hull SVG, and `scores` the score CSVs and `recommendations.json`.
Every output file is written atomically (temp file + rename), and a
fixed seed makes each subcommand's outputs byte-identical across runs.

Exit codes: 0 success, 1 runtime failure, 2 validation or config error
or a path that cannot be read or written.

`main(argv)` runs one command in the calling process; `entry()` is the
process entry of `python -m elicitrec` and the `elicitrec` script.

The module loads only `config` and `files`, the two numpy-free layers
every command needs; each command imports the other layers it runs where
it runs them, so `--help` loads nothing more, `recommend` runs without
numpy and `balance` without the forest, evaluation and filter code.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import config
from .config import CUTOFF, MODES
from .files import dump_json as _dump_json
from .files import read_json, read_text
from .files import write_atomic as _write_atomic

if TYPE_CHECKING:
    from .data_model import Dataset
    from .forest import RandomForestModel
    from .model_file import Bundle


def _load_settings(args: argparse.Namespace) -> config.Settings:
    return config.load_settings(args.config, vars(args))


def _load_input(args: argparse.Namespace, s: config.Settings) -> Dataset:
    from .data_model import load_csv

    if not s.pipeline.target_name:
        raise ValueError("a target column is required (config 'target' or --target)")
    return load_csv(args.input, s.pipeline.target_name, role_map=s.roles, positive_label=s.positive_label)


@contextlib.contextmanager
def _naming_the_input(args: argparse.Namespace):
    """Prefixes the input file to a split of too few rows."""
    from .data_model import TooFewRowsError

    try:
        yield
    except TooFewRowsError as e:
        raise ValueError(f"{args.input}: {e}") from None


# --- the model file --------------------------------------------------------


def _bundle_to_doc(m: RandomForestModel, d: Dataset) -> dict:
    """The model file of forest `m` trained on `d`, as one document."""
    from . import model_file

    return model_file.model_to_dict(m, d)


def _load_bundle(path: str) -> Bundle:
    """The model file at `path`, checked, with its forest arrays built."""
    from . import model_file

    bundle = model_file.load(path)
    bundle.model  # built now, as part of loading, not on first use
    return bundle


def _own_model(s: config.Settings, bundle: Bundle) -> Bundle:
    """`bundle`, once the config's target and positive label, where set,
    are known to be the model's own."""
    for key, given, own in (
        ("target", s.pipeline.target_name or None, bundle.target_name),
        ("positive_label", s.positive_label, bundle.target_levels[1]),
    ):
        if given is not None and given != own:
            raise ValueError(f"config {key} {given!r} differs from the model's {own!r}")
    return bundle


# --- subcommands ----------------------------------------------------------


def cmd_balance(args: argparse.Namespace) -> int:
    import numpy as np

    from . import data_model, recommender

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
    from . import forest, model_file

    s = _load_settings(args)
    d = _load_input(args, s)
    params = s.pipeline.forest.replace(seed=s.pipeline.seed)
    model = forest.train_forest(d, params)
    out = args.out_dir / "model.json"
    _write_atomic(out, model_file.pieces(model, d))
    print(
        f"trained {model.n_trees} trees (mtry {model.mtry}, criterion {model.criterion}) "
        f"on {d.n_rows} rows -> {out}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import evaluation, forest
    from .data_model import load_csv

    bundle = _own_model(_load_settings(args), _load_bundle(args.model))
    positive = bundle.target_levels[1]
    d = load_csv(args.input, bundle.target_name, positive_label=positive, schema=bundle.schema)
    if d.target_levels != bundle.target_levels:
        raise ValueError(
            f"{args.input}: target values {list(d.target_levels)} differ from the model's "
            f"{list(bundle.target_levels)}"
        )
    doc = evaluation.evaluation_to_dict(*evaluation.judge(forest.predict_proba_many(bundle.model, d.X), d.y))
    out = args.out_dir / "evaluation.json"
    _write_atomic(out, _dump_json(doc))
    print(
        f"evaluated {d.n_rows} rows: accuracy {doc['accuracy']:.4f}, "
        f"auc {doc['auc']:.4f} -> {out}"
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from . import evaluation, recommender

    s = _load_settings(args)
    cfg = s.pipeline
    with _naming_the_input(args):
        report = recommender.run_pipeline(_load_input(args, s), cfg)
    row = report.rows[0]
    out_dir = args.out_dir
    _write_atomic(out_dir / "report.json", _dump_json(evaluation.report_to_dict(report, cfg)))
    for arm in ("imbalanced", "balanced"):
        _write_atomic(out_dir / f"roc_{arm}.csv", evaluation.roc_analysis_to_csv(getattr(row, arm).roc))
    _write_atomic(out_dir / "roc_hulls.svg", evaluation.render_hulls_svg(row.imbalanced.roc.hull, row.balanced.roc.hull))
    print(
        f"run complete ({cfg.mode} mode): auc {row.imbalanced.roc.auc:.4f} -> "
        f"{row.balanced.roc.auc:.4f}, hull verdict {row.hull_verdict}; wrote report.json, "
        f"roc_imbalanced.csv, roc_balanced.csv, roc_hulls.svg in {out_dir}"
    )
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    from . import feature_scoring, recommender, scores

    s = _load_settings(args)
    d = _load_input(args, s)
    out_dir = args.out_dir
    methods = s.filter.methods
    try:
        tables = {method: feature_scoring.score_all(d, method) for method in methods}
    except ValueError as e:
        raise ValueError(f"{args.input}: {e}") from None
    selection = None
    if len(methods) > 1:  # selection refuses before anything is written
        with _naming_the_input(args):
            selection = recommender.select_best_filter(
                d, methods, s.filter.top_k, s.pipeline.forest, eval_seed=s.pipeline.seed,
                test_fraction=s.pipeline.test_fraction, smote_template=s.pipeline.smote, tables=tables,
            )
    for method, table in tables.items():
        _write_atomic(out_dir / f"scores_{method}.csv", scores.table_to_csv(table))
    print(f"scored {d.n_features} features with {len(methods)} method(s)")
    if selection is not None:
        _write_atomic(out_dir / "best_method.txt", selection.method + "\n")
        for method in methods:
            print(f"  {method}: auch {selection.auch_by_method[method]:.6f}")
        print(f"best filter: {selection.method} -> {out_dir / 'best_method.txt'}")
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    from . import model_file, scores

    s = _load_settings(args)
    if s.recommendation_threshold is None:
        raise ValueError(
            "a recommendation threshold is required (--threshold or config key)"
        )
    bundle = _own_model(s, model_file.load(args.model))
    roles = {f.name: f.role for f in bundle.schema}
    text = read_text(args.scores, "scores")
    try:
        table = scores.table_from_csv(text)
    except ValueError as e:
        raise ValueError(f"scores file {args.scores}: {e}") from None
    unknown = [e.feature_name for e in table.entries if roles.get(e.feature_name) != e.role]
    if unknown:
        raise ValueError(f"scores file {args.scores}: feature(s) not in the model with that role: {', '.join(unknown)}")
    row = read_json(args.row, "context row")
    try:
        codes = bundle.code_row(row)
    except ValueError as e:
        raise ValueError(f"context row file {args.row}: {e}") from None
    share = model_file.vote_share(bundle.forest, codes)
    prediction = scores.Prediction(label=bundle.target_name, probability=share)
    doc = scores.form_recommendations(table, prediction, float(s.recommendation_threshold))
    out = args.out_dir / "recommendations.json"
    _write_atomic(out, _dump_json(doc))

    use = "use" if share >= CUTOFF else "do not use"
    print(f"prediction: {use} {bundle.target_name} (vote share {share:.3f})")
    if doc["collaborative"]:
        print("also consider (technique features above threshold):")
        for e in doc["collaborative"]:
            print(f"  {e['feature']}: {float(e['score']):g}")
    else:
        print("no technique features score above the threshold")
    if doc["content_based"]:
        print("context features above threshold (from the scores file, the same for every row):")
        for e in doc["content_based"]:
            print(f"  {e['feature']}: {float(e['score']):g}")
    else:
        print("no context features score above the threshold")
    print(f"wrote {out}")
    return 0


# --- argument parsing -----------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags it reads. A flag whose dest is
    a config key overrides that key (see `config.load_settings`)."""
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
    p_run.add_argument("--mode", choices=list(MODES), help="pipeline mode (overrides config)")
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


def entry() -> int:
    """Run `main` on the process's own arguments, then freeze the cyclic
    collector's tracked objects, also when `main` leaves by `SystemExit`
    (`--help`, a usage error). The interpreter's shutdown collections then
    skip their walk over everything numpy and the command made; exit
    codes, stream flushes, atexit handlers and every written file are
    unchanged. Only a process that is about to exit calls this."""
    try:
        return main()
    finally:
        gc.freeze()
