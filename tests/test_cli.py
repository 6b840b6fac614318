import argparse
import csv
import json
import os
import re
import stat
import subprocess
import sys
from operator import setitem
from pathlib import Path

import numpy as np
import pytest

from elicitrec import cli, feature_scoring, forest, recommender
from elicitrec.cli import main, render_hulls_svg
from elicitrec.data_model import (
    PROVENANCE_COLUMN,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    write_csv,
)


@pytest.fixture(scope="module")
def input_csv(tmp_path_factory):
    d = generate_synthetic(SyntheticSpec(n_majority=90, n_minority=20, p=8, n_informative=4, seed=3))
    path = tmp_path_factory.mktemp("data") / "data.csv"
    write_csv(d, path)
    return str(path)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def fast_config(tmp_path, **extra):
    doc = {"target": "target", "forest": {"n_trees": 15}, "seed": 7}
    doc.update(extra)
    return write_config(tmp_path, doc)


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def no_tmp_leftovers(dirpath):
    return not [p for p in dirpath.iterdir() if p.suffix == ".tmp"]


class TestBalance:
    def test_writes_balanced_csv(self, tmp_path, input_csv, capsys):
        cfg = fast_config(tmp_path)
        rc = main(["balance", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "balanced.csv")
        header, body = rows[0], rows[1:]
        assert header[-1] == PROVENANCE_COLUMN
        assert header[-2] == "target"
        labels = [r[-2] for r in body]
        assert labels.count("0") == labels.count("1") == 90
        flags = [r[-1] for r in body]
        assert flags.count("1") == 70  # the oversampled rows
        assert "-> " in capsys.readouterr().out
        assert no_tmp_leftovers(tmp_path)

    def test_already_balanced_input_passes_through(self, tmp_path, input_csv):
        cfg = fast_config(tmp_path)
        main(["balance", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)])
        first = read_rows(tmp_path / "balanced.csv")
        # rebalance the balanced output: counts are already equal, so the
        # rows pass through unchanged
        out2 = tmp_path / "second"
        rc = main([
            "balance", "--config", cfg,
            "--input", str(tmp_path / "balanced.csv"), "--out-dir", str(out2),
        ])
        assert rc == 0
        second = read_rows(out2 / "balanced.csv")
        assert second == first  # synthetic flags survive the round trip too

    def test_smote_null_rejected(self, tmp_path, input_csv, capsys):
        cfg = fast_config(tmp_path, smote=None)
        rc = main(["balance", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert '"smote" is null' in capsys.readouterr().err
        assert not (tmp_path / "balanced.csv").exists()

    def test_missing_input(self, tmp_path, capsys):
        cfg = fast_config(tmp_path)
        rc = main(["balance", "--config", cfg, "--input", "/nope.csv", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("under", ["", "sub"], ids=["is_a_file", "under_a_file"])
    def test_out_dir_blocked_by_a_file_exits_2(self, tmp_path, input_csv, capsys, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep\n", encoding="utf-8")
        out = blocker / under if under else blocker
        rc = main(["balance", "--config", fast_config(tmp_path), "--input", input_csv, "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("error:") and str(blocker) in err
        assert blocker.read_text(encoding="utf-8") == "keep\n"


class TestTrainEvaluate:
    def test_train_writes_model(self, tmp_path, input_csv):
        cfg = fast_config(tmp_path)
        rc = main(["train", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "model.json").read_text())
        assert doc["format_version"] == 2
        assert doc["n_trees"] == 15
        assert doc["target_name"] == "target"
        assert len(doc["schema"]) == 8
        assert doc["target_levels"] == ["0", "1"]

    def test_train_seed_above_64_bits(self, tmp_path, input_csv):
        seed = 2**70
        rc = main([
            "train", "--config", fast_config(tmp_path), "--input", input_csv,
            "--out-dir", str(tmp_path), "--seed", str(seed),
        ])
        assert rc == 0
        assert json.loads((tmp_path / "model.json").read_text())["seed"] == seed

    def test_evaluate_round_trip(self, tmp_path, input_csv):
        cfg = fast_config(tmp_path)
        main(["train", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)])
        rc = main([
            "evaluate", "--config", cfg, "--input", input_csv,
            "--model", str(tmp_path / "model.json"), "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "evaluation.json").read_text())
        conf = doc["confusion"]
        assert conf["tp"] + conf["fp"] + conf["tn"] + conf["fn"] == doc["n_rows"] == 110
        for key in ("accuracy", "auc", "auch"):
            assert 0.0 <= doc[key] <= 1.0
        # forests memorize their own training data almost perfectly
        assert doc["accuracy"] > 0.9

    def test_evaluate_missing_model(self, tmp_path, input_csv, capsys):
        cfg = fast_config(tmp_path)
        rc = main([
            "evaluate", "--config", cfg, "--input", input_csv,
            "--model", str(tmp_path / "absent.json"), "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert "model" in capsys.readouterr().err

    def test_evaluate_rejects_holdout_with_other_target_values(self, tmp_path, input_csv, capsys):
        header, *rows = read_rows(input_csv)

        def relabel(name, negative):
            path = tmp_path / name
            text = [",".join(header)] + [",".join(r[:-1] + [negative if r[-1] == "0" else "yes"]) for r in rows]
            path.write_text("\n".join(text) + "\n", encoding="utf-8")
            return str(path)

        cfg = write_config(tmp_path, {"target": "target", "positive_label": "yes", "forest": {"n_trees": 3}})
        assert main(["train", "--config", cfg, "--input", relabel("train.csv", "no"), "--out-dir", str(tmp_path)]) == 0
        rc = main([
            "evaluate", "--input", relabel("holdout.csv", "maybe"),
            "--model", str(tmp_path / "model.json"), "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "['maybe', 'yes']" in err and "['no', 'yes']" in err
        assert not (tmp_path / "evaluation.json").exists()


# each case breaks a model.json (doc) or its first tree (tree) in place
MALFORMED_MODELS = {
    "version_1": (lambda doc, tree: doc.update(format_version=1), "retrain with `elicitrec train`"),
    "missing_key": (lambda doc, tree: doc.pop("seed"), "lacks 'seed'"),
    "missing_node_array": (lambda doc, tree: tree.pop("n1"), "lacks the node array 'n1'"),
    "missing_schema_key": (lambda doc, tree: doc["schema"][0].pop("levels"), "'levels'"),
    "levels_a_string": (lambda doc, tree: doc["schema"][0].update(levels="abc"), "list of strings"),
    "level_not_a_string": (lambda doc, tree: doc["schema"][0]["levels"].append(7), "list of strings"),
    "name_not_a_string": (lambda doc, tree: doc["schema"][0].update(name=["ctx00"]), "must be a string"),
    "unequal_lengths": (lambda doc, tree: tree["threshold"].pop(), "equal length"),
    "child_before_parent": (lambda doc, tree: setitem(tree["left"], 0, 0), "not after its parent"),
    "child_outside_tree": (
        lambda doc, tree: setitem(tree["right"], 0, len(tree["right"])),
        "outside the tree",
    ),
    "feature_outside_schema": (
        lambda doc, tree: setitem(tree["feature"], 0, len(doc["schema"])),
        "8-feature schema",
    ),
    "negative_leaf_count": (
        lambda doc, tree: setitem(tree["n0"], tree["feature"].index(-1), -1),
        "negative",
    ),
    "empty_leaf": (
        lambda doc, tree: tree.update(n0=[0] * len(tree["n0"]), n1=[0] * len(tree["n1"])),
        "none at all",
    ),
}


class TestModelFile:
    @pytest.fixture(scope="class")
    def model_doc(self, tmp_path_factory, input_csv):
        out = tmp_path_factory.mktemp("model")
        cfg = write_config(out, {"target": "target", "forest": {"n_trees": 2}})
        assert main(["train", "--config", cfg, "--input", input_csv, "--out-dir", str(out)]) == 0
        return (out / "model.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize("case", list(MALFORMED_MODELS))
    def test_malformed_model_exits_2(self, tmp_path, input_csv, model_doc, capsys, case):
        mutate, message = MALFORMED_MODELS[case]
        doc = json.loads(model_doc)
        assert doc["trees"][0]["feature"][0] >= 0  # the root splits
        mutate(doc, doc["trees"][0])
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        rc = main([
            "evaluate", "--input", input_csv,
            "--model", str(model), "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_key_error_is_a_bug(self, tmp_path, input_csv, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise KeyError("n_trees")

        monkeypatch.setattr(forest, "train_forest", broken)
        cfg = fast_config(tmp_path)
        rc = main(["train", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "runtime error: KeyError" in capsys.readouterr().err

    def test_permission_error_exits_2(self, tmp_path, input_csv, monkeypatch, capsys):
        def denied(path, text):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "_write_atomic", denied)
        rc = main(["train", "--config", fast_config(tmp_path), "--input", input_csv, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{tmp_path / 'model.json'}'\n"

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("shape", ["survey", "deep"])
    def test_model_file_is_one_dump_of_the_bundle(self, tmp_path, criterion, shape):
        # train writes model.json a node array at a time; the bytes are those of
        # one dump of the whole bundle document
        data = tmp_path / "data.csv"
        if shape == "survey":
            write_csv(generate_synthetic(SyntheticSpec(282, 41, p=27, n_informative=6, seed=7)), data)
        else:  # alternating labels over 300 levels grow trees about a hundred deep
            rows = "".join(f"v{k:03d},{k % 2}\n" for _ in range(4) for k in range(300))
            data.write_text("x,target\n" + rows, encoding="utf-8")
        params = {"n_trees": 5, "criterion": criterion}
        cfg = write_config(tmp_path, {"target": "target", "forest": params, "seed": 3})
        assert main(["train", "--config", cfg, "--input", str(data), "--out-dir", str(tmp_path)]) == 0
        d = load_csv(data, "target")
        m = forest.train_forest(d, forest.ForestParams(**params, seed=3))
        assert (m.feature >= 0).sum() > (100 if shape == "deep" else 20)
        expected = cli._dump_json(cli._bundle_to_doc(m, d), compact=True)
        assert (tmp_path / "model.json").read_bytes().decode("utf-8") == expected

    def test_deep_tree_trains_evaluates_and_recommends(self, tmp_path):
        # 1500 levels with alternating labels, each row 8 times: the single
        # tree peels off a few levels per split and grows hundreds deep
        data = tmp_path / "deep.csv"
        rows = "".join(f"v{k:04d},{k % 2}\n" for _ in range(8) for k in range(1500))
        data.write_text("x,target\n" + rows, encoding="utf-8")
        cfg = write_config(tmp_path, {"target": "target", "forest": {"n_trees": 1}})
        out = str(tmp_path)
        assert main(["train", "--config", cfg, "--input", str(data), "--out-dir", out]) == 0
        tree = json.loads((tmp_path / "model.json").read_text())["trees"][0]
        depth = [0] * len(tree["feature"])
        for i, f in enumerate(tree["feature"]):
            if f >= 0:
                depth[tree["left"][i]] = depth[tree["right"][i]] = depth[i] + 1
        assert max(depth) > 500
        model = str(tmp_path / "model.json")
        rc = main([
            "evaluate", "--config", cfg, "--input", str(data), "--model", model, "--out-dir", out,
        ])
        assert rc == 0
        assert json.loads((tmp_path / "evaluation.json").read_text())["n_rows"] == 12000
        scores = tmp_path / "scores_MutualInfo.csv"
        scores.write_text("feature,role,score\nx,context,0.5\n", encoding="utf-8")
        row = tmp_path / "row.json"
        row.write_text(json.dumps({"x": "v0007"}), encoding="utf-8")
        rc = main([
            "recommend", "--model", model, "--scores", str(scores), "--row", str(row),
            "--threshold", "0.1", "--out-dir", out,
        ])
        assert rc == 0


class TestRun:
    def run_once(self, tmp_path, input_csv, out_name, extra=()):
        cfg = fast_config(tmp_path)
        out = tmp_path / out_name
        rc = main([
            "run", "--config", cfg, "--input", input_csv, "--out-dir", str(out), *extra,
        ])
        assert rc == 0
        return out

    def test_artifacts_present_and_consistent(self, tmp_path, input_csv):
        out = self.run_once(tmp_path, input_csv, "out")
        for name in ("report.json", "roc_imbalanced.csv", "roc_balanced.csv", "roc_hulls.svg"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["format_version"] == 1
        assert report["mode"] == "sound"
        assert report["comparison"]["hull_verdict"] in ("balanced", "imbalanced", "neither")
        svg = (out / "roc_hulls.svg").read_text()
        assert svg.count("<polyline") == 2
        assert 'id="hull-imbalanced"' in svg and 'id="hull-balanced"' in svg
        for arm, csv_name in (("imbalanced", "roc_imbalanced.csv"), ("balanced", "roc_balanced.csv")):
            rows = read_rows(out / csv_name)
            assert rows[0] == ["fpr", "tpr", "threshold", "on_hull"]
            n_hull = sum(1 for r in rows[1:] if r[3] == "true")
            poly = svg.split(f'id="hull-{arm}"')[1].split('points="')[1].split('"')[0]
            assert len(poly.split()) == n_hull
        assert no_tmp_leftovers(out)

    def test_artifacts_honour_umask(self, tmp_path, input_csv):
        old = os.umask(0o027)
        try:
            out = self.run_once(tmp_path, input_csv, "out")
        finally:
            os.umask(old)
        for name in ("report.json", "roc_imbalanced.csv", "roc_hulls.svg"):
            assert stat.S_IMODE((out / name).stat().st_mode) == 0o640

    def test_report_byte_identical_across_runs(self, tmp_path, input_csv):
        a = self.run_once(tmp_path, input_csv, "a")
        b = self.run_once(tmp_path, input_csv, "b")
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "roc_hulls.svg").read_bytes() == (b / "roc_hulls.svg").read_bytes()

    def test_mode_flag_overrides_config(self, tmp_path, input_csv):
        out = self.run_once(tmp_path, input_csv, "bf", extra=("--mode", "balance-first"))
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "balance-first"

    def test_seed_changes_report(self, tmp_path, input_csv):
        a = self.run_once(tmp_path, input_csv, "s1", extra=("--seed", "1"))
        b = self.run_once(tmp_path, input_csv, "s2", extra=("--seed", "2"))
        assert (a / "report.json").read_bytes() != (b / "report.json").read_bytes()

    def test_sound_mode_on_balanced_output_exits_2(self, tmp_path, input_csv, capsys):
        cfg = fast_config(tmp_path)
        assert main(["balance", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)]) == 0
        balanced = str(tmp_path / "balanced.csv")
        out = tmp_path / "sound"
        rc = main(["run", "--config", cfg, "--input", balanced, "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "70 synthetic rows" in err and PROVENANCE_COLUMN in err
        assert "before balance" in err and "--mode balance-first" in err
        assert not out.exists()
        # balance-first mode measures on the oversampled pool by design
        self.run_once(tmp_path, balanced, "bf", extra=("--mode", "balance-first"))

    @pytest.mark.parametrize("forest_doc", [{"max_depth": 0}, {"min_samples_leaf": 100}])
    def test_forest_without_splits(self, tmp_path, input_csv, forest_doc):
        cfg = write_config(tmp_path, {"target": "target", "forest": {"n_trees": 5, **forest_doc}, "filter": {"top_k": 4}})
        for command in ("run", "train", "score"):
            assert main([command, "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["comparison"]["entropy_delta"] is None
        for arm in ("imbalanced", "balanced"):
            assert report["report"]["rows"][0][arm]["mean_split_entropy"] is None


class TestScore:
    def test_all_methods_and_marker(self, tmp_path, input_csv, capsys):
        cfg = write_config(
            tmp_path,
            {"target": "target", "forest": {"n_trees": 10}, "filter": {"top_k": 4}, "seed": 1},
        )
        out = tmp_path / "scores"
        rc = main(["score", "--config", cfg, "--input", input_csv, "--out-dir", str(out)])
        assert rc == 0
        for m in ("Chi2", "AnovaF", "MutualInfo"):
            rows = read_rows(out / f"scores_{m}.csv")
            assert rows[0] == ["feature", "role", "score"]
            assert len(rows) == 9
        best = (out / "best_method.txt").read_text().strip()
        assert best in ("Chi2", "AnovaF", "MutualInfo")
        assert "best filter" in capsys.readouterr().out

    def test_each_method_scored_once_and_written_before_selection(
        self, tmp_path, input_csv, monkeypatch
    ):
        cfg = write_config(tmp_path, {"target": "target", "forest": {"n_trees": 5}, "filter": {"top_k": 4}})
        out = tmp_path / "once"
        scored, written = [], []
        score_all, select = feature_scoring.score_all, recommender.select_best_filter

        def counted(d, method):
            scored.append(method)
            return score_all(d, method)

        def checked(*args, **kwargs):
            written.extend(sorted(p.name for p in out.glob("scores_*.csv")))
            return select(*args, **kwargs)

        # the command scores through feature_scoring, selection through recommender
        monkeypatch.setattr(feature_scoring, "score_all", counted)
        monkeypatch.setattr(recommender, "score_all", counted)
        monkeypatch.setattr(recommender, "select_best_filter", checked)
        assert main(["score", "--config", cfg, "--input", input_csv, "--out-dir", str(out)]) == 0
        assert sorted(scored) == sorted(feature_scoring.METHODS)
        assert written == sorted(f"scores_{m}.csv" for m in feature_scoring.METHODS)

    def test_single_method_skips_marker(self, tmp_path, input_csv):
        cfg = write_config(
            tmp_path, {"target": "target", "filter": {"methods": ["Chi2"]}}, "single.json"
        )
        out = tmp_path / "single"
        rc = main(["score", "--config", cfg, "--input", input_csv, "--out-dir", str(out)])
        assert rc == 0
        assert (out / "scores_Chi2.csv").exists()
        assert not (out / "best_method.txt").exists()
        assert not (out / "scores_MutualInfo.csv").exists()


class TestThreadCounts:
    def test_artifacts_identical_across_thread_counts(self, tmp_path, input_csv):
        cfg = write_config(tmp_path, {"target": "target", "forest": {"n_trees": 10}, "filter": {"top_k": 4}})
        src = str(Path(forest.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        files = []
        for k, threads in enumerate((1, min(2, os.cpu_count() or 1))):  # never more than the machine has
            env = dict(os.environ, PYTHONPATH=path, **{var: str(threads) for var in THREAD_VARS})
            out = tmp_path / f"out{k}"
            for command in ("run", "score"):
                proc = subprocess.run(
                    [sys.executable, "-m", "elicitrec", command, "--config", cfg, "--input", input_csv,
                     "--out-dir", str(out)],
                    capture_output=True, text=True, env=env,
                )
                assert proc.returncode == 0, proc.stderr
            names = ["report.json", "best_method.txt", *sorted(p.name for p in out.glob("roc_*.csv"))]
            files.append({name: (out / name).read_bytes() for name in names})
        assert len(files[0]) >= 4 and files[0] == files[1]


#: runs every subcommand in one interpreter, on a quote-free file that
#: `load_csv` reads as bytes, then reports whether numpy.ma was imported;
#: argv[1] is a scratch directory
ALL_COMMANDS_SCRIPT = """
import json, sys
from pathlib import Path
from elicitrec.cli import main
from elicitrec.data_model import SyntheticSpec, generate_synthetic, write_csv

tmp = Path(sys.argv[1])
d = generate_synthetic(SyntheticSpec(n_majority=30, n_minority=10, p=4, n_informative=2, seed=1))
write_csv(d, tmp / "data.csv")
(tmp / "cfg.json").write_text(json.dumps({"target": "target", "forest": {"n_trees": 3}, "filter": {"top_k": 2}}))
(tmp / "row.json").write_text(json.dumps(dict(zip(d.feature_names, d.decode_row(0)))))
common = ["--config", str(tmp / "cfg.json"), "--out-dir", str(tmp)]
data = ["--input", str(tmp / "data.csv")]
model = ["--model", str(tmp / "model.json")]
for argv in (
    ["run", *common, *data], ["score", *common, *data], ["train", *common, *data], ["balance", *common, *data],
    ["evaluate", *common, *data, *model],
    ["recommend", *common, *model, "--scores", str(tmp / "scores_MutualInfo.csv"), "--row", str(tmp / "row.json"),
     "--threshold", "0.01"],
):
    assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_no_command_imports_numpy_ma(tmp_path):
    """A plain `np.unique` (no `return_*` flag) imports numpy.ma, which
    costs a command 20-30 ms of start-up; no command needs it."""
    src = str(Path(forest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", ALL_COMMANDS_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


class TestRecommend:
    @pytest.fixture()
    def trained(self, tmp_path, input_csv):
        cfg = fast_config(tmp_path)
        main(["train", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)])
        main([
            "score", "--config",
            write_config(tmp_path, {"target": "target", "filter": {"methods": ["MutualInfo"]}}, "sc.json"),
            "--input", input_csv, "--out-dir", str(tmp_path),
        ])
        header, first = read_rows(input_csv)[:2]
        row = dict(zip(header[:-1], first[:-1]))
        row_path = tmp_path / "row.json"
        row_path.write_text(json.dumps(row), encoding="utf-8")
        return {
            "model": str(tmp_path / "model.json"),
            "scores": str(tmp_path / "scores_MutualInfo.csv"),
            "row": str(row_path),
            "dir": tmp_path,
        }

    def base_args(self, t):
        return [
            "recommend", "--model", t["model"], "--scores", t["scores"],
            "--row", t["row"], "--out-dir", str(t["dir"]),
        ]

    def test_recommendations_written(self, trained, capsys):
        rc = main(self.base_args(trained) + ["--threshold", "0.01"])
        assert rc == 0
        doc = json.loads((trained["dir"] / "recommendations.json").read_text())
        assert doc["format_version"] == 1
        assert doc["predicted"]["label"] == "target"
        assert 0.0 <= doc["predicted"]["probability"] <= 1.0
        assert doc["threshold"] == 0.01
        for entry in doc["collaborative"] + doc["content_based"]:
            assert entry["score"] > 0.01
        out = capsys.readouterr().out
        assert "prediction:" in out

    def test_high_threshold_gives_empty_lists(self, trained):
        rc = main(self.base_args(trained) + ["--threshold", "1e9"])
        assert rc == 0
        doc = json.loads((trained["dir"] / "recommendations.json").read_text())
        assert doc["collaborative"] == [] and doc["content_based"] == []

    def test_infinite_score_written_as_string(self, trained):
        # AnovaF scores a feature whose classes each hold one code as +inf
        scores = trained["dir"] / "scores_AnovaF.csv"
        scores.write_text("feature,role,score\nctx00,context,inf\nctx01,context,0.5\n", encoding="utf-8")
        rc = main(self.base_args({**trained, "scores": str(scores)}) + ["--threshold", "1"])
        assert rc == 0
        text = (trained["dir"] / "recommendations.json").read_text()
        assert json.loads(text)["content_based"] == [{"feature": "ctx00", "score": "inf"}]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_threshold_rejected(self, trained, capsys, value):
        rc = main(self.base_args(trained) + ["--threshold", value])
        assert rc == 2
        assert "threshold must be finite" in capsys.readouterr().err
        cfg = write_config(trained["dir"], {"recommendation_threshold": float(value)}, "thr.json")
        rc = main(self.base_args(trained) + ["--config", cfg])
        assert rc == 2
        assert "threshold must be finite" in capsys.readouterr().err
        assert not (trained["dir"] / "recommendations.json").exists()

    def test_negative_threshold_rejected(self, trained, capsys):
        rc = main(self.base_args(trained) + ["--threshold", "-0.1"])
        assert rc == 2
        assert "threshold must be finite and non-negative" in capsys.readouterr().err
        cfg = write_config(trained["dir"], {"recommendation_threshold": -0.1}, "thr.json")
        rc = main(self.base_args(trained) + ["--config", cfg])
        assert rc == 2
        assert "threshold must be finite and non-negative" in capsys.readouterr().err
        assert not (trained["dir"] / "recommendations.json").exists()

    def test_threshold_required(self, trained, capsys):
        rc = main(self.base_args(trained))
        assert rc == 2
        assert "threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("key,other,own", [("target", "other", "target"), ("positive_label", "0", "1")])
    def test_config_target_must_be_the_models(self, trained, input_csv, capsys, key, other, own):
        evaluate = [
            "evaluate", "--input", input_csv, "--model", trained["model"], "--out-dir", str(trained["dir"]),
        ]
        for argv in (self.base_args(trained), evaluate):
            cfg = write_config(trained["dir"], {key: other, "recommendation_threshold": 0.01}, "other.json")
            assert main(argv + ["--config", cfg]) == 2
            err = capsys.readouterr().err
            assert f"config {key} {other!r}" in err and repr(own) in err
            cfg = write_config(trained["dir"], {key: own, "recommendation_threshold": 0.01}, "own.json")
            assert main(argv + ["--config", cfg]) == 0, capsys.readouterr().err

    def test_threshold_flag_overrides_config(self, trained):
        cfg = write_config(trained["dir"], {"recommendation_threshold": 1e9}, "thr.json")
        assert main(self.base_args(trained) + ["--config", cfg, "--threshold", "0.01"]) == 0
        doc = json.loads((trained["dir"] / "recommendations.json").read_text())
        assert doc["threshold"] == 0.01

    @pytest.mark.parametrize("role", ["ctx", "tech", "Context", ""])
    def test_unknown_role_in_scores_rejected(self, trained, capsys, role):
        scores = trained["dir"] / "scores_bad.csv"
        scores.write_text(f"feature,role,score\nctx00,{role},0.5\n", encoding="utf-8")
        rc = main(self.base_args({**trained, "scores": str(scores)}) + ["--threshold", "0.1"])
        assert rc == 2
        assert f"unknown role {role!r}" in capsys.readouterr().err
        assert not (trained["dir"] / "recommendations.json").exists()

    def test_scores_feature_not_in_model_rejected(self, trained, capsys):
        # ctx01 is a context feature of the model, so a technique row for it is foreign too
        scores = trained["dir"] / "scores_bad.csv"
        scores.write_text(
            "feature,role,score\nnot_in_model,technique,0.9\nctx00,context,0.5\n"
            "ctx01,technique,0.3\nalso_absent,context,0.1\n",
            encoding="utf-8",
        )
        rc = main(self.base_args({**trained, "scores": str(scores)}) + ["--threshold", "0.01"])
        assert rc == 2
        assert "not_in_model, ctx01, also_absent" in capsys.readouterr().err
        assert not (trained["dir"] / "recommendations.json").exists()

    @pytest.mark.parametrize("body,message", [
        ("ctx00,context,0.5\nctx01,context,abc\n", "data row 2: score 'abc' of 'ctx01' is not a number"),
        ("ctx00,context\n", "data row 1 is not 'feature,role,score': ['ctx00', 'context']"),
        ("ctx00,context,nan\n", "negative or NaN score for 'ctx00'"),
        ("ctx00,context,-0.5\n", "negative or NaN score for 'ctx00'"),
    ], ids=["not_a_number", "short_row", "nan", "negative"])
    def test_bad_score_row_names_the_file(self, trained, capsys, body, message):
        scores = trained["dir"] / "scores_bad.csv"
        scores.write_text("feature,role,score\n" + body, encoding="utf-8")
        rc = main(self.base_args({**trained, "scores": str(scores)}) + ["--threshold", "0.1"])
        assert rc == 2
        assert f"error: scores file {scores}: {message}" in capsys.readouterr().err
        assert not (trained["dir"] / "recommendations.json").exists()

    def test_unknown_level_names_feature(self, trained, capsys):
        row_path = Path(trained["row"])
        row = json.loads(row_path.read_text(encoding="utf-8"))
        bad_feature = sorted(row)[0]
        row[bad_feature] = "never-seen"
        row_path.write_text(json.dumps(row), encoding="utf-8")
        rc = main(self.base_args(trained) + ["--threshold", "0.1"])
        assert rc == 2
        assert bad_feature in capsys.readouterr().err

    def test_missing_feature_rejected(self, trained, capsys):
        row_path = Path(trained["row"])
        row = json.loads(row_path.read_text(encoding="utf-8"))
        removed = sorted(row)[0]
        del row[removed]
        row_path.write_text(json.dumps(row), encoding="utf-8")
        rc = main(self.base_args(trained) + ["--threshold", "0.1"])
        assert rc == 2
        assert removed in capsys.readouterr().err

    @pytest.mark.parametrize("flag,kind,text,detail", [
        ("config", "config", b'{"target": "target",}',
         ": not valid JSON: Expecting property name enclosed in double quotes: line 1 column 21 (char 20)"),
        ("config", "config", b"\xff{}", " is not valid UTF-8"),
        ("model", "model", None, ": not valid JSON: "),
        ("row", "context row", None, ": not valid JSON: "),
    ], ids=["config_comma", "config_not_utf8", "model_truncated", "row_truncated"])
    def test_bad_json_file_is_named(self, trained, capsys, flag, kind, text, detail):
        path = trained["dir"] / f"bad_{flag}.json"
        if text is None:  # the first half of the good file
            good = Path(trained[flag]).read_bytes()
            text = good[: len(good) // 2]
        path.write_bytes(text)
        args = self.base_args({**trained, flag: str(path)}) + ["--threshold", "0.1"]
        if flag == "config":
            args += ["--config", str(path)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {kind} file {path}{detail}")


# every config key as (section, key): whether null is accepted, and a
# value of a type the key never takes
CONFIG_KEYS = {
    (None, "target"): (True, 5),
    (None, "positive_label"): (True, 5),
    (None, "roles"): (False, "technique"),
    (None, "mode"): (False, 5),
    (None, "test_fraction"): (False, "0.2"),
    (None, "seed"): (False, 1.5),
    (None, "smote"): (True, 5),
    (None, "forest"): (False, [15]),
    (None, "filter"): (False, "Chi2"),
    (None, "recommendation_threshold"): (True, "0.2"),
    ("smote", "k_neighbors"): (False, 2.0),
    ("smote", "target_ratio"): (False, "1"),
    ("forest", "n_trees"): (False, "15"),
    ("forest", "mtry"): (True, 2.5),
    ("forest", "max_depth"): (True, "3"),
    ("forest", "min_samples_leaf"): (False, 1.0),
    ("forest", "criterion"): (False, 0),
    ("filter", "methods"): (False, "Chi2"),
    ("filter", "top_k"): (False, 3.0),
}


def bad_config_cases():
    for (section, key), (nullable, wrong) in CONFIG_KEYS.items():
        name = key if section is None else f"{section}.{key}"
        # json writes inf as Infinity: the wrong type, or a non-finite number
        values = {"wrong_type": wrong, "true": True, "inf": float("inf")}
        if not nullable:
            values["null"] = None
        for label, value in values.items():
            yield pytest.param(section, key, value, id=f"{name}-{label}")


def config_with(section, key, value):
    doc = {"target": "target", "forest": {"n_trees": 5}}
    if section is None:
        doc[key] = value
    else:
        doc[section] = {**doc.get(section, {}), key: value}
    return doc


class TestConfigErrors:
    @pytest.mark.parametrize("section,key,value", bad_config_cases())
    def test_bad_value_exits_2_naming_key(self, tmp_path, input_csv, capsys, section, key, value):
        cfg = write_config(tmp_path, config_with(section, key, value))
        for command in ("run", "score", "train", "balance"):
            out = tmp_path / command
            rc = main([command, "--config", cfg, "--input", input_csv, "--out-dir", str(out)])
            err = capsys.readouterr().err
            assert rc == 2, err
            assert (key if section is None else f"{section}.{key}") in err
            assert not out.exists()

    def test_null_accepted_where_it_means_something(self, tmp_path, input_csv, capsys):
        def run(name, doc):
            out = tmp_path / name
            rc = main(["run", "--config", write_config(tmp_path, doc, f"{name}.json"),
                       "--input", input_csv, "--out-dir", str(out), "--target", "target"])
            assert rc == 0, capsys.readouterr().err
            return json.loads((out / "report.json").read_text())

        base = run("base", config_with(None, "seed", 3))
        nullable = [sk for sk, (ok, _) in CONFIG_KEYS.items() if ok]
        assert len(nullable) == 6
        for section, key in nullable:
            doc = config_with(section, key, None)
            doc["seed"] = 3
            report = run(f"{section}-{key}", doc)
            if key == "smote":
                assert report["comparison"]["auc_delta"] == 0.0
            else:  # null stands for the default, or for the --target flag
                assert report == base

    def test_unknown_key(self, tmp_path, input_csv, capsys):
        cfg = write_config(tmp_path, {"target": "target", "tress": 5})
        rc = main(["train", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "tress" in capsys.readouterr().err

    def test_unknown_nested_key(self, tmp_path, input_csv, capsys):
        cfg = write_config(tmp_path, {"target": "target", "forest": {"ntrees": 5}})
        rc = main(["train", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "ntrees" in capsys.readouterr().err

    @pytest.mark.parametrize("fraction", [0, 1.5])
    def test_test_fraction_out_of_range_exits_2(self, tmp_path, input_csv, capsys, fraction):
        cfg = write_config(tmp_path, config_with(None, "test_fraction", fraction))
        for command in ("run", "score", "train", "balance"):
            out = tmp_path / command
            rc = main([command, "--config", cfg, "--input", input_csv, "--out-dir", str(out)])
            err = capsys.readouterr().err
            assert rc == 2, err
            assert "test_fraction" in err
            assert not out.exists()

    def test_bad_mode(self, tmp_path, input_csv):
        cfg = write_config(tmp_path, {"target": "target", "mode": "fast"})
        rc = main(["run", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_wrong_type(self, tmp_path, input_csv):
        cfg = write_config(tmp_path, {"target": "target", "seed": "seven"})
        rc = main(["train", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_bool_is_not_int(self, tmp_path, input_csv):
        cfg = write_config(tmp_path, {"target": "target", "forest": {"n_trees": True}})
        rc = main(["train", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_invalid_json(self, tmp_path, input_csv):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        rc = main(["train", "--config", str(path), "--input", input_csv, "--out-dir", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("roles", [{"ctx99": "technique"}, {"target": "context"}])
    def test_roles_for_non_features_rejected(self, tmp_path, input_csv, capsys, roles):
        cfg = write_config(tmp_path, {"target": "target", "roles": roles})
        rc = main(["train", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert repr(next(iter(roles))) in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_missing_target(self, tmp_path, input_csv, capsys):
        rc = main(["train", "--input", input_csv, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "target" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", [
        b"x" * (csv.field_size_limit() + 1),
        b'"' + b"x" * (csv.field_size_limit() + 1) + b'"',
        b"y\xff",
    ], ids=["long", "long quoted", "not utf-8"])
    def test_unreadable_cell_exits_2_naming_the_file(self, tmp_path, capsys, cell):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"a,target\nx,1\n" + cell + b",0\n")
        rc = main(["train", "--config", fast_config(tmp_path), "--input", str(data), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert re.search(r"^error: .*bad\.csv: (row|line) 3", capsys.readouterr().err)

    def test_smote_null_disables_balancing(self, tmp_path, input_csv):
        cfg = write_config(
            tmp_path,
            {"target": "target", "smote": None, "forest": {"n_trees": 10}},
        )
        out = tmp_path / "off"
        rc = main(["run", "--config", cfg, "--input", input_csv, "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["comparison"]["hull_verdict"] == "neither"
        assert report["comparison"]["auc_delta"] == 0.0


class TestByteOrderMark:
    """Files saved with a UTF-8 byte order mark read as they would without it."""

    @pytest.mark.parametrize("target_first", [True, False])
    def test_csv_with_a_bom(self, tmp_path, input_csv, target_first):
        rows = read_rows(input_csv)
        if target_first:
            rows = [[r[-1]] + r[:-1] for r in rows]
        first_feature = rows[0][1] if target_first else rows[0][0]
        data = tmp_path / "bom.csv"
        data.write_text("\ufeff" + "".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
        cfg = fast_config(tmp_path, roles={first_feature: "technique"})
        rc = main(["train", "--config", cfg, "--input", str(data), "--out-dir", str(tmp_path)])
        assert rc == 0
        schema = json.loads((tmp_path / "model.json").read_text())["schema"]
        assert {"name": first_feature, "role": "technique"}.items() <= schema[0].items()

    def test_config_with_a_bom(self, tmp_path, input_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("\ufeff" + json.dumps({"target": "target", "forest": {"n_trees": 3}}), encoding="utf-8")
        rc = main(["train", "--config", str(cfg), "--input", input_csv, "--out-dir", str(tmp_path)])
        assert rc == 0
        assert json.loads((tmp_path / "model.json").read_text())["n_trees"] == 3


#: the flags of each subcommand, as in README's table
DATA_FLAGS = {"--config", "--out-dir", "--input", "--seed", "--target", "--positive-label"}
FLAGS = {
    "balance": DATA_FLAGS,
    "train": DATA_FLAGS,
    "evaluate": {"--config", "--out-dir", "--input", "--model"},
    "run": DATA_FLAGS | {"--mode"},
    "score": DATA_FLAGS,
    "recommend": {"--config", "--out-dir", "--model", "--scores", "--row", "--threshold"},
}
#: (command, flag, value) for each flag a command once took and never read
REMOVED = [
    *((cmd, flag, value) for cmd in ("evaluate", "recommend")
      for flag, value in (("--seed", "5"), ("--mode", "sound"), ("--target", "t"), ("--positive-label", "q"))),
    *((cmd, "--mode", "sound") for cmd in ("balance", "train", "score")),
]
#: every flag a command requires, with a placeholder value
REQUIRED = {
    "evaluate": ["--input", "x.csv", "--model", "m.json"],
    "recommend": ["--model", "m.json", "--scores", "s.csv", "--row", "r.json"],
}


class TestFlags:
    @pytest.mark.parametrize("command", list(FLAGS))
    def test_help_lists_exactly_the_commands_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"} == FLAGS[command]
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        row = next(line for line in readme.splitlines() if line.startswith(f"| `{command}` | `--"))
        assert set(re.findall(r"--[a-z][a-z-]*", row)) == FLAGS[command]

    @pytest.mark.parametrize("command,flag,value", REMOVED, ids=[f"{c}{f}" for c, f, _ in REMOVED])
    def test_removed_flag_exits_2(self, tmp_path, command, flag, value, capsys):
        assert len(REMOVED) == 11
        argv = [command, *REQUIRED.get(command, ["--input", "x.csv"]), flag, value, "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_empty_target_flag_is_no_target(self, tmp_path, input_csv, capsys):
        rc = main(["run", "--config", fast_config(tmp_path), "--input", input_csv,
                   "--target", "", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "a target column is required" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestReadmeConfigBlock:
    """README's "Config keys" JSON block is a config `_load_settings`
    accepts, names every key, and shows the library defaults."""

    @pytest.fixture()
    def block(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config keys", 1)[1]
        return section.split("```json\n", 1)[1].split("```", 1)[0]

    def test_block_names_every_key(self, block):
        doc = json.loads(block)
        assert set(doc) == set(cli._KEYS["config"])
        for level in cli._KEYS.keys() - {"config"}:
            assert set(doc[level]) == set(cli._KEYS[level]), level

    def test_block_loads_with_the_defaults(self, tmp_path, block):
        # mode, test_fraction, seed, smote and forest make up the pipeline
        doc = json.loads(block)
        s = cli._load_settings(argparse.Namespace(config=write_config(tmp_path, doc)))
        assert s.pipeline == recommender.PipelineConfig(target_name=doc["target"])
        assert s.filter == recommender.FilterConfig()


class TestSvgRendering:
    def test_polyline_coordinates(self):
        hull = np.array([[0.0, 0.0, 1.0], [0.25, 0.75, 0.5], [1.0, 1.0, 0.0]])
        svg = render_hulls_svg(hull, hull)
        # fpr 0.25 -> x 150, tpr 0.75 -> y 150 in the 600 square
        assert "150.0,150.0" in svg
        assert svg.count("0.0,600.0 150.0,150.0 600.0,0.0") == 2
        assert "false positive rate" in svg and "true positive rate" in svg


class TestArtifactText:
    """Artifacts hold plain float text, whatever numpy's scalar repr is."""

    def test_roc_cells_and_polyline_coordinates_are_floats(self, tmp_path, input_csv):
        out = tmp_path / "run"
        assert main(["run", "--config", fast_config(tmp_path), "--input", input_csv, "--out-dir", str(out)]) == 0
        for name in ("roc_imbalanced.csv", "roc_balanced.csv"):
            rows = read_rows(out / name)
            assert len(rows) > 2
            for row in rows[1:]:
                for cell in row[:3]:
                    float(cell)
                assert row[3] in ("true", "false")
        svg = (out / "roc_hulls.svg").read_text()
        for arm in ("imbalanced", "balanced"):
            poly = svg.split(f'id="hull-{arm}"')[1].split('points="')[1].split('"')[0]
            for point in poly.split():
                x, y = point.split(",")
                assert 0.0 <= float(x) <= 600.0 and 0.0 <= float(y) <= 600.0

    def test_no_numpy_repr_in_any_artifact(self, tmp_path, input_csv):
        cfg = fast_config(tmp_path, filter={"top_k": 4})
        out = tmp_path / "out"
        common = ["--config", cfg, "--input", input_csv, "--out-dir", str(out)]
        for command in ("run", "score", "train", "balance"):
            assert main([command, *common]) == 0
        assert main([
            "evaluate", "--config", cfg, "--input", input_csv,
            "--model", str(out / "model.json"), "--out-dir", str(out),
        ]) == 0
        header, first = read_rows(input_csv)[:2]
        row_path = tmp_path / "row.json"
        row_path.write_text(json.dumps(dict(zip(header[:-1], first[:-1]))), encoding="utf-8")
        assert main([
            "recommend", "--model", str(out / "model.json"), "--scores", str(out / "scores_MutualInfo.csv"),
            "--row", str(row_path), "--threshold", "0.01", "--out-dir", str(out),
        ]) == 0
        names = sorted(p.name for p in out.iterdir())
        for expected in ("report.json", "roc_balanced.csv", "roc_hulls.svg", "scores_Chi2.csv", "best_method.txt",
                         "model.json", "balanced.csv", "evaluation.json", "recommendations.json"):
            assert expected in names
        for path in out.iterdir():
            assert "np." not in path.read_text(encoding="utf-8"), path.name
