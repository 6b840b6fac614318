"""The traced run: each command of a pass replayed in-process, with a span
around every call into a layer of elicitrec.

`run_pipeline` and `select_best_filter` call into other layers. Their
whole call is timed, then replayed step by step through the public
functions they use; the replay must reproduce their AUCH values exactly,
and the layer's self time is the whole call minus the replayed children.

Before the traced passes, one pass runs with spans off and without
replays; the traced pass time (replays excluded) against it is the
tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from elicitrec import (
    ForestParams,
    PipelineConfig,
    Prediction,
    SmoteConfig,
    analyze_scores,
    derive_seed,
    dominates,
    drop_constant_features,
    form_recommendations,
    load_csv,
    model_to_dict,
    predict_proba,
    predict_proba_many,
    run_pipeline,
    score_all,
    select_best_filter,
    select_features,
    smote_oversample,
    split_train_test,
    train_forest,
    write_csv,
)
from elicitrec import cli as cli_module
from elicitrec import recommender
from elicitrec.feature_scoring import METHOD_MUTUAL_INFO, METHODS

from run import cli, keep_going, metric
from workloads import occurrence

STARTUP_SAMPLES = 5


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, request: str, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), name, parent, request, time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def children_seconds(self, parent: Span) -> float:
        return sum(s.seconds for s in self.spans if s.parent == parent.id)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


class ReplayMismatch(AssertionError):
    pass


def _forest_params(config: dict, seed: int) -> ForestParams:
    return ForestParams(**config.get("forest", {}), seed=seed)


def tree_shape(tree: dict) -> tuple[int, int]:
    """(nodes, depth) of one tree of `model_to_dict` output.

    Reads the nested node objects of model format 1 and also parallel node
    arrays with `left`/`right` child indices, the planned next format: a
    change that claims a speed-up may not edit the benchmark that judges it.
    """
    if isinstance(tree.get("left"), list):
        left, right = tree["left"], tree["right"]
        n = len(left)
        depth = [0] * n
        for i in range(n):  # children follow their parent in storage order
            for child in (left[i], right[i]):
                if 0 <= child < n:
                    depth[child] = depth[i] + 1
        return n, max(depth)
    nodes, deepest, stack = 0, 0, [(tree, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        deepest = max(deepest, d)
        if "leaf" not in node:
            stack += [(node["left"], d + 1), (node["right"], d + 1)]
    return nodes, deepest


class Mirror:
    """In-process equivalents of the CLI commands of one workload."""

    def __init__(self, w, inputs, work: Path, tracer: Tracer, replay: bool):
        self.w, self.inputs, self.work, self.t, self.replay = w, inputs, work, tracer, replay
        self.model_doc: Path | None = None
        self.mi_table = None
        self.forests: list[tuple[Span, object]] = []  # every traced forest and its span
        self.train_shape: tuple[int, int] | None = None
        self.model_bytes = 0
        self.synthetic: list[tuple[int, int]] = []  # (synthetic rows, distinct rows) per balance

    def _load(self, req: str):
        with self.t.span("data_model.load_csv", req) as s:
            d = load_csv(self.inputs.data_csv, "target")
        if s is not None:
            s.attrs["rows"] = d.n_rows
        return d

    def _train(self, d, params: ForestParams, req: str):
        with self.t.span("forest.train_forest", req) as s:
            model = train_forest(d, params)
        if s is not None:
            self.forests.append((s, model))
        return model

    def _score_arm(self, train, test, params: ForestParams, req: str) -> float:
        model = self._train(train, params, req)
        with self.t.span("forest.predict_proba_many", req, rows=test.n_rows):
            scores = predict_proba_many(model, test.X)
        with self.t.span("evaluation.analyze_scores", req):
            return analyze_scores(scores, test.y).auch

    def run(self, seed: int, req: str) -> None:
        cfg = PipelineConfig(
            target_name="target",
            forest=_forest_params(self.w.config, 0),
            seed=seed,
        )
        with self.t.span("cli.run", req):
            d = self._load(req)
            with self.t.span("recommender.run_pipeline", req) as whole:
                report = run_pipeline(d, cfg)
            row = report.rows[0]
            with self.t.span("evaluation.dominates", req):
                dominates(row.balanced.roc.hull, row.imbalanced.roc.hull)
        if not self.replay:
            return
        with self.t.span("replay.run_pipeline", req) as rep:
            with self.t.span("data_model.drop_constant_features", req):
                d = drop_constant_features(d)
            with self.t.span("data_model.split_train_test", req):
                train, test = split_train_test(
                    d, cfg.test_fraction, seed=derive_seed(seed, recommender.STREAM_SPLIT)
                )
            with self.t.span("sampler.smote_oversample", req):
                balanced = smote_oversample(
                    train, replace(cfg.smote, seed=derive_seed(seed, recommender.STREAM_SMOTE))
                )
            auch = {}
            for arm, data, stream in (
                ("imbalanced", train, recommender.STREAM_FOREST_IMBALANCED),
                ("balanced", balanced, recommender.STREAM_FOREST_BALANCED),
            ):
                params = replace(cfg.forest, seed=derive_seed(seed, stream))
                auch[arm] = self._score_arm(data, test, params, req)
        whole.attrs["self_seconds"] = whole.seconds - self.t.children_seconds(rep)
        for arm in auch:
            if auch[arm] != getattr(row, arm).auch:
                raise ReplayMismatch(f"run_pipeline {arm} auch {getattr(row, arm).auch!r} != replay {auch[arm]!r}")

    def score(self, seed: int, req: str) -> None:
        methods = self.w.config.get("filter", {}).get("methods", list(METHODS))
        top_k = self.w.config.get("filter", {}).get("top_k", 10)
        params = _forest_params(self.w.config, 0)
        with self.t.span("cli.score", req):
            d = self._load(req)
            for method in methods:
                with self.t.span("feature_scoring.score_all", req):
                    table = score_all(d, method)
                if method == METHOD_MUTUAL_INFO:
                    self.mi_table = table
            selection = None
            if len(methods) > 1:
                with self.t.span("feature_scoring.select_best_filter", req) as whole:
                    selection = select_best_filter(
                        d, methods, top_k, params, eval_seed=seed, smote_template=SmoteConfig()
                    )
        if not self.replay or selection is None:
            return
        with self.t.span("replay.select_best_filter", req) as rep:
            for method in methods:
                with self.t.span("feature_scoring.score_all", req):
                    table = score_all(d, method)
                names = {e.feature_name for e in table.entries[:top_k]}
                with self.t.span("data_model.select_features", req):
                    sub = select_features(d, [f.name for f in d.schema if f.name in names])
                with self.t.span("sampler.smote_oversample", req):
                    balanced = smote_oversample(sub, SmoteConfig(seed=derive_seed(seed, 1)))
                with self.t.span("data_model.split_train_test", req):
                    train, test = split_train_test(balanced, 0.2, seed=derive_seed(seed, 0))
                auch = self._score_arm(train, test, replace(params, seed=derive_seed(seed, 2)), req)
                if auch != selection.auch_by_method[method]:
                    raise ReplayMismatch(
                        f"select_best_filter {method} auch {selection.auch_by_method[method]!r} != replay {auch!r}"
                    )
        whole.attrs["self_seconds"] = whole.seconds - self.t.children_seconds(rep)

    def balance(self, seed: int, req: str) -> None:
        with self.t.span("cli.balance", req):
            d = self._load(req)
            with self.t.span("sampler.smote_oversample", req):
                balanced = smote_oversample(
                    d, SmoteConfig(seed=derive_seed(seed, recommender.STREAM_SMOTE))
                )
            with self.t.span("data_model.write_csv", req):
                write_csv(balanced, self.work / "balanced.csv", include_provenance=True)
        if self.t.enabled:
            synthetic = balanced.X[d.n_rows:]
            originals = {row.tobytes() for row in d.X}
            distinct = sum(row.tobytes() not in originals for row in synthetic)
            self.synthetic.append((len(synthetic), distinct))

    def train(self, seed: int, req: str) -> None:
        config = {**self.w.config, **self.w.train_config}
        with self.t.span("cli.train", req):
            d = self._load(req)
            model = self._train(d, _forest_params(config, seed), req)
            with self.t.span("forest.model_save", req):
                doc = cli_module._bundle_to_doc(model, d)
                text = cli_module._dump_json(doc, compact=True)
                self.model_doc = self.work / "model.json"
                cli_module._write_atomic(self.model_doc, text)
        if self.t.enabled:
            shapes = [tree_shape(t) for t in doc["trees"]]
            self.train_shape = (sum(n for n, _ in shapes), max(d for _, d in shapes))
            self.model_bytes = len(text.encode("utf-8"))

    def _load_model(self, req: str):
        with self.t.span("forest.model_load", req):
            return cli_module._load_bundle(str(self.model_doc))

    def evaluate(self, req: str) -> None:
        with self.t.span("cli.evaluate", req):
            bundle = self._load_model(req)
            with self.t.span("data_model.load_csv_schema", req):
                d = load_csv(
                    self.inputs.holdout_csv, "target",
                    positive_label=bundle.target_levels[1], schema=bundle.schema,
                )
            with self.t.span("forest.predict_proba_many", req, rows=d.n_rows):
                scores = predict_proba_many(bundle.model, d.X)
            with self.t.span("evaluation.analyze_scores", req):
                analyze_scores(scores, d.y)

    def recommend(self, row: Path, threshold: float, req: str) -> None:
        with self.t.span("cli.recommend", req):
            bundle = self._load_model(req)
            context = json.loads(row.read_text(encoding="utf-8"))
            codes = np.array([f.encode(context[f.name]) for f in bundle.schema], dtype=np.int64)
            with self.t.span("forest.predict_proba", req):
                p = predict_proba(bundle.model, codes)
            with self.t.span("recommender.form_recommendations", req):
                form_recommendations(self.mi_table, Prediction("target", p), threshold)

    def run_pass(self, pass_index: int) -> float:
        """One pass of the workload's plan; returns the seconds spent in
        the commands themselves, replays and bookkeeping excluded."""
        seen = {kind: 0 for kind in self.w.pass_plan}
        seeds = self.inputs.master_seeds
        busy = 0.0
        for kind in self.w.pass_plan:
            i = seen[kind]
            seen[kind] += 1
            n = occurrence(self.w, kind, pass_index, i)
            req = f"p{pass_index}.{kind}{i}"
            start = time.perf_counter()
            if kind in ("run", "score"):
                getattr(self, kind)(seeds[n % len(seeds)], req)
            elif kind in ("balance", "train"):
                getattr(self, kind)(seeds[0], req)
            elif kind == "evaluate":
                self.evaluate(req)
            else:
                j = n % len(self.inputs.rows)
                self.recommend(self.inputs.rows[j], self.inputs.thresholds[j], req)
            busy += time.perf_counter() - start
        if self.t.enabled:
            prefix = f"p{pass_index}."
            busy = sum(
                s.seconds for s in self.t.spans if s.name.startswith("cli.") and s.request.startswith(prefix)
            )
        return busy


def _median_ms(t: Tracer, name: str) -> float:
    return 1000.0 * statistics.median(s.seconds for s in t.named(name))


def per_layer(t: Tracer, m: Mirror, startup: list[float]) -> dict:
    loads = t.named("data_model.load_csv")
    predicts = t.named("forest.predict_proba_many")
    train_s = sum(s.seconds for s, _ in m.forests)
    nodes_all = sum(tree_shape(tree)[0] for _, model in m.forests for tree in model_to_dict(model)["trees"])
    synthetic = sum(n for n, _ in m.synthetic)
    return {
        "cli.startup_ms": metric(1000.0 * statistics.median(startup), "ms"),
        "data_model.load_csv_ms": metric(_median_ms(t, "data_model.load_csv"), "ms"),
        "data_model.load_csv_rows_per_s": metric(
            sum(s.attrs["rows"] for s in loads) / sum(s.seconds for s in loads), "rows/s"
        ),
        "data_model.write_csv_ms": metric(_median_ms(t, "data_model.write_csv"), "ms"),
        "data_model.load_csv_schema_ms": metric(_median_ms(t, "data_model.load_csv_schema"), "ms"),
        "data_model.split_ms": metric(_median_ms(t, "data_model.split_train_test"), "ms"),
        "sampler.smote_ms": metric(_median_ms(t, "sampler.smote_oversample"), "ms"),
        "sampler.synthetic_rows": metric(statistics.median(n for n, _ in m.synthetic), "count"),
        "sampler.distinct_share": metric(sum(k for _, k in m.synthetic) / synthetic, "share"),
        "forest.train_ms": metric(_median_ms(t, "forest.train_forest"), "ms"),
        "forest.nodes": metric(m.train_shape[0], "count"),
        "forest.us_per_node": metric(1e6 * train_s / nodes_all, "us"),
        "forest.max_depth": metric(m.train_shape[1], "levels"),
        "forest.predict_ms": metric(_median_ms(t, "forest.predict_proba_many"), "ms"),
        "forest.predict_rows": metric(statistics.median(s.attrs["rows"] for s in predicts), "count"),
        "forest.predict_one_ms": metric(_median_ms(t, "forest.predict_proba"), "ms"),
        "forest.model_save_ms": metric(_median_ms(t, "forest.model_save"), "ms"),
        "forest.model_bytes": metric(m.model_bytes, "bytes"),
        "forest.model_load_ms": metric(_median_ms(t, "forest.model_load"), "ms"),
        "feature_scoring.score_all_ms": metric(_median_ms(t, "feature_scoring.score_all"), "ms"),
        "feature_scoring.select_ms": metric(_median_ms(t, "feature_scoring.select_best_filter"), "ms"),
        "feature_scoring.select_self_ms": metric(
            1000.0 * statistics.median(s.attrs["self_seconds"] for s in t.named("feature_scoring.select_best_filter")),
            "ms",
        ),
        "evaluation.analyze_ms": metric(_median_ms(t, "evaluation.analyze_scores"), "ms"),
        "evaluation.dominates_ms": metric(_median_ms(t, "evaluation.dominates"), "ms"),
        "recommender.run_pipeline_ms": metric(_median_ms(t, "recommender.run_pipeline"), "ms"),
        "recommender.self_ms": metric(
            1000.0 * statistics.median(s.attrs["self_seconds"] for s in t.named("recommender.run_pipeline")),
            "ms",
        ),
        "recommender.form_ms": metric(_median_ms(t, "recommender.form_recommendations"), "ms"),
    }


def report_traced(w, inputs, seconds: float, work: Path, out: Path, seed: int) -> tuple[dict, int, int, bool]:
    work.mkdir(parents=True, exist_ok=True)
    startup = []
    for _ in range(STARTUP_SAMPLES):
        wall, result = cli(["--help"], work)
        if result is None or result.returncode != 0:
            raise RuntimeError("elicitrec --help failed")
        startup.append(wall)

    start = time.perf_counter()
    untraced_pass = Mirror(w, inputs, work, Tracer(False), replay=False).run_pass(0)
    tracer = Tracer(True)
    mirror = Mirror(w, inputs, work, tracer, replay=True)
    attempted = 0
    pass_times: list[float] = []
    pass_walls: list[float] = []
    problems = []
    while True:
        pass_start = time.perf_counter()
        try:
            pass_times.append(mirror.run_pass(len(pass_walls)))
        except ReplayMismatch as e:
            problems.append(str(e))
        pass_walls.append(time.perf_counter() - pass_start)
        attempted += len(w.pass_plan)
        if problems or not keep_going(time.perf_counter() - start, pass_walls, seconds):
            break
    for p in problems:
        print(f"FAILED replay: {p}")
    if pass_times:
        traced_pass = statistics.median(pass_times)
        print(f"traced passes {len(pass_times)}; pass_s untraced {untraced_pass:.4f} s, "
              f"traced {traced_pass:.4f} s (replays excluded)")
        print(f"tracing overhead {100.0 * (traced_pass / untraced_pass - 1.0):+.2f} %")

    out.mkdir(parents=True, exist_ok=True)
    spans_path = out / f"spans-{w.name}-{seed}.json"
    spans_path.write_text(
        json.dumps([vars(s) for s in tracer.spans], sort_keys=True), encoding="utf-8"
    )
    print(f"spans written to {spans_path.relative_to(out.parent)} ({len(tracer.spans)} spans)")
    if problems:
        return {}, attempted, len(problems), False
    metrics = per_layer(tracer, mirror, startup)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return metrics, attempted, 0, True
