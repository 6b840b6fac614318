import argparse
import csv
import gc
import importlib
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

from elicitrec import cli, config, evaluation, feature_scoring, files, forest, model_file, recommender
from elicitrec.cli import main
from elicitrec.data_model import (
    PROVENANCE_COLUMN,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    write_csv,
)
from elicitrec.evaluation import dominates, render_hulls_svg


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


def constant_column_csv(tmp_path):
    """60 rows of features a (one value throughout), b and c and a 0/1 target."""
    rng = np.random.default_rng(5)
    lines = ["a,b,c,target"] + [
        f"x,{'pqr'[rng.integers(3)]},{'uv'[rng.integers(2)]},{int(i < 20)}" for i in range(60)
    ]
    path = tmp_path / "three.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def no_tmp_leftovers(dirpath):
    return not [p for p in dirpath.iterdir() if p.suffix == ".tmp"]


def test_write_atomic_leaves_nothing_when_its_text_fails(tmp_path):
    def pieces():
        yield "first piece\n"
        raise RuntimeError("the text failed part-way")

    with pytest.raises(RuntimeError, match="part-way"):
        files.write_atomic(tmp_path / "out.txt", pieces())
    assert list(tmp_path.iterdir()) == []


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
        assert doc["format_version"] == 3
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

    def test_evaluate_one_class_holdout_names_the_value(self, tmp_path, input_csv, capsys):
        header, *rows = read_rows(input_csv)
        holdout = tmp_path / "holdout.csv"
        one_class = [r for r in rows if r[-1] == "1"]
        holdout.write_text("\n".join(",".join(row) for row in [header, *one_class]) + "\n", encoding="utf-8")
        assert main(["train", "--config", fast_config(tmp_path), "--input", input_csv, "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = main(["evaluate", "--input", str(holdout), "--model", str(tmp_path / "model.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {holdout}: target 'target' holds one value ('1'); a binary target needs two\n"
        assert not (tmp_path / "evaluation.json").exists()

    def test_evaluate_unknown_level_names_file_and_row(self, tmp_path, input_csv, capsys):
        header, *rows = read_rows(input_csv)
        col = header.index("ctx01")
        for r in (6, 4):  # the first in the file is reported, as a file line
            rows[r][col] = f"v{9 + r}"
        holdout = tmp_path / "holdout.csv"
        holdout.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n", encoding="utf-8")
        cfg = fast_config(tmp_path)
        assert main(["train", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)]) == 0
        rc = main(["evaluate", "--input", str(holdout), "--model", str(tmp_path / "model.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {holdout}: row 6: unknown level 'v13' for feature 'ctx01'\n"
        assert not (tmp_path / "evaluation.json").exists()


#: a string that `write_model` writes without its quotes: a JSON number
#: that `json` reads as an infinite float
HUGE = "1e999"


def write_model(path, doc):
    path.write_text(json.dumps(doc).replace(f'"{HUGE}"', HUGE), encoding="utf-8")


def as_format_2(doc, tree):
    """Rewrite model document `doc` in place as format 2 wrote it: float
    thresholds and a per-node `split_entropy`."""
    doc["format_version"] = 2
    for t in doc["trees"]:
        t["threshold"] = [v + 0.5 if f >= 0 else 0.0 for f, v in zip(t["feature"], t["threshold"])]
        t["split_entropy"] = [0.5 if f >= 0 else 0.0 for f in t["feature"]]


def swap_sibling_pairs(doc, tree):
    """Swap the children of nodes 1 and 2, the root's children and both
    splits: node 2's children then come before node 1's. The layout still
    moves forward, but it is not the breadth-first one."""
    assert min(tree["feature"][1:3]) >= 0
    for f in ("left", "right"):
        tree[f][1], tree[f][2] = tree[f][2], tree[f][1]


def append_leaf(doc, tree):
    """A leaf after the last node, which no split reaches."""
    for f, value in dict(feature=-1, threshold=0, left=-1, right=-1, n0=1, n1=0).items():
        tree[f].append(value)


def drop_last_two(doc, tree):
    """Drop the last two nodes, the children of the last split."""
    for values in tree.values():
        del values[-2:]


def first_leaf_sets(field, value):
    return lambda doc, tree: setitem(tree[field], tree["feature"].index(-1), value)


SPLIT_RULE = "model tree 0 has a split (node {}) whose children are not {} and {}"
LEAF_RULE = "other than feature -1, threshold 0, left -1, right -1 with class counts >= 0, not both 0"

# each case breaks a model.json (doc) or its first tree (tree) in place
MALFORMED_MODELS = {
    "version_1": (
        lambda doc, tree: doc.update(format_version=1),
        "model format_version 1 is no longer read; retrain with `elicitrec train`",
    ),
    "version_2": (as_format_2, "model format_version 2 is no longer read; retrain with `elicitrec train`"),
    "missing_key": (lambda doc, tree: doc.pop("seed"), "lacks 'seed'"),
    **{
        f"missing_{key}": (lambda doc, tree, key=key: doc.pop(key), f"model file lacks {key!r}")
        for key in ("schema", "target_name", "target_levels")
    },
    "trees_fewer_than_n_trees": (
        lambda doc, tree: doc.update(trees=doc["trees"][:1]),
        "model trees must be a list of n_trees (at least 1) trees",
    ),
    "schema_role_unknown": (
        lambda doc, tree: doc["schema"][0].update(role="ctx"),
        "unknown role 'ctx' for feature 'ctx00'",
    ),
    "schema_levels_empty": (lambda doc, tree: doc["schema"][0].update(levels=[]), "feature 'ctx00' has no levels"),
    "schema_levels_repeated": (
        lambda doc, tree: doc["schema"][0].update(levels=["v0", "v1", "v0"]),
        "feature 'ctx00' has duplicate levels",
    ),
    "missing_node_array": (lambda doc, tree: tree.pop("n1"), "lacks the node array 'n1'"),
    "missing_schema_key": (lambda doc, tree: doc["schema"][0].pop("levels"), "'levels'"),
    "levels_a_string": (lambda doc, tree: doc["schema"][0].update(levels="abc"), "list of strings"),
    "level_not_a_string": (lambda doc, tree: doc["schema"][0]["levels"].append(7), "list of strings"),
    "name_not_a_string": (lambda doc, tree: doc["schema"][0].update(name=["ctx00"]), "must be a string"),
    "unequal_lengths": (lambda doc, tree: tree["threshold"].pop(), "equal length"),
    # the split that follows k earlier splits has the children 2k + 1 and
    # 2k + 2; a leaf is feature -1, threshold 0, left -1, right -1
    "child_before_parent": (lambda doc, tree: setitem(tree["left"], 0, 0), SPLIT_RULE.format(0, 1, 2)),
    "child_outside_tree": (
        lambda doc, tree: setitem(tree["right"], 0, len(tree["right"])),
        SPLIT_RULE.format(0, 1, 2),
    ),
    "right_not_after_left": (
        lambda doc, tree: setitem(tree["right"], 0, tree["left"][0]),
        SPLIT_RULE.format(0, 1, 2),
    ),
    "children_not_breadth_first": (swap_sibling_pairs, SPLIT_RULE.format(1, 3, 4)),
    "unreached_node": (append_leaf, ") that no split reaches"),
    "last_children_missing": (drop_last_two, "model tree 0 has a child index outside the tree"),
    "leaf_right_not_minus_one": (first_leaf_sets("right", 0), LEAF_RULE),
    "leaf_left_not_minus_one": (first_leaf_sets("left", 7), LEAF_RULE),
    "leaf_threshold_not_zero": (first_leaf_sets("threshold", 9), LEAF_RULE),
    "leaf_feature_below_minus_one": (first_leaf_sets("feature", -5), LEAF_RULE),
    "feature_outside_schema": (
        lambda doc, tree: setitem(tree["feature"], 0, len(doc["schema"])),
        "8-feature schema",
    ),
    "negative_leaf_count": (first_leaf_sets("n0", -1), LEAF_RULE),
    "empty_leaf": (
        lambda doc, tree: tree.update(n0=[0] * len(tree["n0"]), n1=[0] * len(tree["n1"])),
        LEAF_RULE,
    ),
    # JSON numbers of the wrong kind are refused, not converted
    "child_not_an_integer": (
        lambda doc, tree: setitem(tree["left"], 0, tree["left"][0] + 0.9),
        "('left') that is not a list of 64-bit integers",
    ),
    "feature_a_bool": (
        lambda doc, tree: setitem(tree["feature"], 0, True),
        "('feature') that is not a list of 64-bit integers",
    ),
    "count_a_string": (
        lambda doc, tree: setitem(tree["n0"], 0, str(tree["n0"][0])),
        "('n0') that is not a list of 64-bit integers",
    ),
    "count_beyond_int64": (
        lambda doc, tree: setitem(tree["n1"], tree["feature"].index(-1), 2**63),
        "('n1') that is not a list of 64-bit integers",
    ),
    # a threshold is an integer: no string, float (finite or not, as `json`
    # reads NaN, Infinity and 1e999) or integer beyond int64 is one
    **{
        f"threshold_{name}": (
            lambda doc, tree, value=value: setitem(tree["threshold"], 0, value),
            "('threshold') that is not a list of 64-bit integers",
        )
        for name, value in (
            ("a_string", "1.5"), ("a_float", 1.5), ("nan", float("nan")), ("infinity", float("inf")),
            ("1e999", HUGE), ("int_beyond_floats", 10**400),
        )
    },
    "header_bools": (
        lambda doc, tree: doc.update(n_trees=True, mtry=True, trees=doc["trees"][:1]),
        "n_trees, mtry and seed must be integers",
    ),
    "target_name_not_a_string": (lambda doc, tree: doc.update(target_name=7), "target_name must be a string"),
    "target_levels_not_strings": (
        lambda doc, tree: doc.update(target_levels=[0, [1]]),
        "target_levels two distinct strings",
    ),
    "target_levels_equal": (lambda doc, tree: doc.update(target_levels=["1", "1"]), "two distinct strings"),
    "target_levels_one_value": (
        lambda doc, tree: doc.update(target_levels=["1"]),
        "model target_levels must list exactly two values",
    ),
    "criterion_a_number": (lambda doc, tree: doc.update(criterion=7), "model criterion must be one of"),
    "criterion_a_list": (lambda doc, tree: doc.update(criterion=["x"]), "model criterion must be one of"),
    "mtry_negative": (lambda doc, tree: doc.update(mtry=-3), "model mtry must be at least 1"),
    # two schema entries of one name would read one file column twice
    "duplicate_feature_name": (
        lambda doc, tree: doc["schema"][1].update(name=doc["schema"][0]["name"]),
        "feature 'ctx00' appears more than once in the schema",
    ),
}
#: the cases that break the node layout or a leaf, which `model_from_dict` refuses too
LAYOUT_CASES = (
    "child_before_parent", "child_outside_tree", "right_not_after_left", "children_not_breadth_first",
    "unreached_node", "last_children_missing", "leaf_right_not_minus_one", "leaf_left_not_minus_one",
    "leaf_threshold_not_zero", "leaf_feature_below_minus_one", "negative_leaf_count", "empty_leaf",
)


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
        write_model(model, doc)
        rc = main([
            "evaluate", "--input", input_csv,
            "--model", str(model), "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "evaluation.json").exists()

    @pytest.mark.parametrize("case", list(MALFORMED_MODELS))
    def test_malformed_model_exits_2_in_recommend(self, tmp_path, input_csv, model_doc, capsys, case):
        # recommend checks the model file with the same checker, without numpy
        mutate, message = MALFORMED_MODELS[case]
        doc = json.loads(model_doc)
        mutate(doc, doc["trees"][0])
        model = tmp_path / "model.json"
        write_model(model, doc)
        scores = tmp_path / "scores.csv"
        scores.write_text("feature,role,score\n", encoding="utf-8")
        header, first = read_rows(input_csv)[:2]
        row = tmp_path / "row.json"
        row.write_text(json.dumps(dict(zip(header[:-1], first[:-1]))), encoding="utf-8")
        rc = main([
            "recommend", "--model", str(model), "--scores", str(scores), "--row", str(row),
            "--threshold", "0.1", "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "recommendations.json").exists()

    def test_model_file_not_an_object_exits_2(self, tmp_path, input_csv, capsys):
        model = tmp_path / "model.json"
        model.write_text("[]", encoding="utf-8")
        (tmp_path / "scores.csv").write_text("feature,role,score\n", encoding="utf-8")
        (tmp_path / "row.json").write_text("{}", encoding="utf-8")
        for argv, output in (
            (["evaluate", "--input", input_csv], "evaluation.json"),
            (["recommend", "--scores", str(tmp_path / "scores.csv"), "--row", str(tmp_path / "row.json"),
              "--threshold", "0.1"], "recommendations.json"),
        ):
            assert main([*argv, "--model", str(model), "--out-dir", str(tmp_path)]) == 2
            assert capsys.readouterr().err == "error: model file must hold a JSON object\n"
            assert not (tmp_path / output).exists()

    @pytest.mark.parametrize("case", LAYOUT_CASES)
    def test_malformed_layout_raises_in_model_from_dict(self, model_doc, case):
        # benchmarks/checks.py reads model files through model_from_dict
        mutate, message = MALFORMED_MODELS[case]
        doc = json.loads(model_doc)
        mutate(doc, doc["trees"][0])
        with pytest.raises(ValueError, match=re.escape(message)):
            forest.model_from_dict(doc)

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
    @pytest.mark.parametrize("shape", ["survey", "deep", "single_leaf"])
    def test_model_file_is_one_dump_of_the_bundle(self, tmp_path, criterion, shape):
        # train writes model.json a tree at a time; the bytes are those of one
        # dump of the bundle document, built here from the node arrays
        data = tmp_path / "data.csv"
        if shape == "survey":
            write_csv(generate_synthetic(SyntheticSpec(282, 41, p=27, n_informative=6, seed=7)), data)
        elif shape == "deep":  # alternating labels over 300 levels grow trees about a hundred deep
            rows = "".join(f"v{k:03d},{k % 2}\n" for _ in range(4) for k in range(300))
            data.write_text("x,target\n" + rows, encoding="utf-8")
        else:  # two rows: a tree that draws one of them twice is a single leaf
            data.write_text("x,target\na,0\nb,1\n", encoding="utf-8")
        params = {"n_trees": 5, "criterion": criterion}
        cfg = write_config(tmp_path, {"target": "target", "forest": params, "seed": 3})
        assert main(["train", "--config", cfg, "--input", str(data), "--out-dir", str(tmp_path)]) == 0
        d = load_csv(data, "target")
        m = forest.train_forest(d, forest.ForestParams(**params, seed=3))
        sizes = np.diff(m.offsets)
        if shape == "single_leaf":
            assert sizes.min() == 1 < sizes.max()
        else:
            assert (m.feature >= 0).sum() > (100 if shape == "deep" else 20)
        cut = m.offsets.tolist()
        fields = ("feature", "threshold", "n0", "n1")
        # the file's derived columns: the split that follows k earlier splits
        # of its tree has the children 2k + 1 and 2k + 2, a leaf -1 and -1
        split = m.feature >= 0
        k = np.concatenate([np.cumsum(split[a:b]) for a, b in zip(cut, cut[1:])])
        left, right = np.where(split, 2 * k - 1, -1), np.where(split, 2 * k, -1)
        doc = {
            "format_version": 3, "n_trees": 5, "mtry": m.mtry, "criterion": criterion, "seed": 3,
            "schema": [{"name": f.name, "role": f.role, "levels": list(f.levels)} for f in d.schema],
            "target_name": "target", "target_levels": list(d.target_levels),
            "trees": [
                {**{f: getattr(m, f)[a:b].tolist() for f in fields},
                 "left": left[a:b].tolist(), "right": right[a:b].tolist()}
                for a, b in zip(cut, cut[1:])
            ],
        }
        expected = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert "".join(model_file.pieces(m, d)) == expected
        assert (tmp_path / "model.json").read_bytes().decode("utf-8") == expected
        assert cli._bundle_to_doc(m, d) == doc
        forest_only = {k: v for k, v in doc.items() if k not in ("schema", "target_name", "target_levels")}
        assert model_file.model_to_dict(m) == forest_only

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

    def test_writes_leave_the_umask_alone(self, tmp_path, input_csv, monkeypatch):
        # the umask is the whole process's: setting it, even briefly, is
        # seen by every other thread that creates a file
        def refused(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", refused)
        out = self.run_once(tmp_path, input_csv, "out")
        assert (out / "report.json").exists() and no_tmp_leftovers(out)

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

    @pytest.mark.parametrize("command", ["balance", "run"])
    def test_provenance_column_is_never_the_target(self, tmp_path, input_csv, capsys, command):
        cfg = fast_config(tmp_path)
        assert main(["balance", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)]) == 0
        balanced = str(tmp_path / "balanced.csv")
        out = tmp_path / "synthetic_target"
        mode = ["--mode", "balance-first"] if command == "run" else []
        rc = main([
            command, "--config", cfg, "--input", balanced, "--out-dir", str(out), "--target", PROVENANCE_COLUMN, *mode,
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {balanced}: '{PROVENANCE_COLUMN}' is the provenance column")
        assert not out.exists()

    def test_mtry_above_the_varying_features_exits_2(self, tmp_path, capsys):
        # train grows on every column; run first drops the constant one
        data = constant_column_csv(tmp_path)
        cfg = write_config(tmp_path, {"target": "target", "forest": {"n_trees": 5, "mtry": 3}})
        assert main(["train", "--config", cfg, "--input", data, "--out-dir", str(tmp_path / "train")]) == 0
        out = tmp_path / "run"
        assert main(["run", "--config", cfg, "--input", data, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: forest.mtry 3 exceeds the 2 feature(s) left once the constant column(s) a are dropped\n"
        )
        assert not out.exists()

    def test_train_names_the_mtry_key(self, tmp_path, capsys):
        write_csv(generate_synthetic(SyntheticSpec(40, 10, 4, 2, seed=1)), tmp_path / "data.csv")
        cfg = write_config(tmp_path, {"target": "target", "forest": {"n_trees": 3, "mtry": 9}})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--input", str(tmp_path / "data.csv"), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: forest.mtry 9 exceeds the 4 feature(s) its forest grows on\n"
        assert not (out / "model.json").exists()

    # both counts fail when numpy sizes the sample array, before any memory
    # is touched: 10**15 past the address space, 10**18 past numpy's size limit
    @pytest.mark.parametrize("n_trees", [10**15, 10**18])
    def test_train_names_an_unallocatable_tree_count(self, tmp_path, input_csv, capsys, n_trees):
        cfg = write_config(tmp_path, {"target": "target", "forest": {"n_trees": n_trees}})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--input", input_csv, "--out-dir", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: forest.n_trees {n_trees}: that many bootstrap samples of 110 rows do not fit in memory\n"
        )
        assert not out.exists()

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

    def test_each_method_scored_once_and_nothing_written_before_selection(
        self, tmp_path, input_csv, monkeypatch
    ):
        cfg = write_config(tmp_path, {"target": "target", "forest": {"n_trees": 5}, "filter": {"top_k": 4}})
        out = tmp_path / "once"
        scored, seen = [], []
        score_all, select = feature_scoring.score_all, recommender.select_best_filter

        def counted(d, method):
            scored.append(method)
            return score_all(d, method)

        def checked(*args, **kwargs):
            selection = select(*args, **kwargs)
            seen.append(out.exists() and sorted(p.name for p in out.iterdir()))
            return selection

        # the command and selection both score through feature_scoring
        monkeypatch.setattr(feature_scoring, "score_all", counted)
        monkeypatch.setattr(recommender, "select_best_filter", checked)
        assert main(["score", "--config", cfg, "--input", input_csv, "--out-dir", str(out)]) == 0
        assert sorted(scored) == sorted(feature_scoring.METHODS)
        assert seen == [False]  # selection returned before the output directory was made
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["best_method.txt", *(f"scores_{m}.csv" for m in feature_scoring.METHODS)]
        )

    @pytest.mark.parametrize("doc, message", [
        ({}, "filter.top_k 10 exceeds the feature count 3"),
        ({"forest": {"mtry": 3}, "filter": {"top_k": 2}}, "forest.mtry 3 exceeds filter.top_k 2"),
    ])
    def test_selection_config_refused_before_any_output(self, tmp_path, capsys, doc, message):
        cfg = write_config(tmp_path, {"target": "target", **doc})
        out = tmp_path / "out"
        rc = main(["score", "--config", cfg, "--input", constant_column_csv(tmp_path), "--out-dir", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("methods", [["AnovaF"], ["Chi2", "AnovaF", "MutualInfo"]])
    def test_too_few_rows_for_anova_names_the_file_and_method(self, tmp_path, capsys, methods):
        data = tmp_path / "two.csv"
        data.write_text("a,b,target\nx,p,1\ny,q,0\n", encoding="utf-8")
        cfg = write_config(tmp_path, {"target": "target", "filter": {"methods": methods, "top_k": 1}})
        out = tmp_path / "out"
        assert main(["score", "--config", cfg, "--input", str(data), "--out-dir", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {data}: AnovaF needs at least 3 rows, the input holds 2\n")
        assert not out.exists()

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


NEAR_PURE = SyntheticSpec(n_majority=307, n_minority=16, p=27, n_informative=6, seed=1)  # 95/5
TWO_MINORITY = SyntheticSpec(n_majority=40, n_minority=2, p=5, n_informative=2, seed=3)


class TestSplitErrors:
    """A split that leaves a part unusable exits 2 with one message: the
    part, its class counts, test_fraction, the seed and the remedy."""

    @pytest.mark.parametrize("spec, seed, part, counts, need, remedy", [
        (NEAR_PURE, 47, "test", "'0': 0, '1': 65", "each part needs rows of both classes", "raise"),
        (NEAR_PURE, 86, "test", "'0': 0, '1': 65", "each part needs rows of both classes", "raise"),
        (TWO_MINORITY, 6, "test", "'0': 0, '1': 8", "each part needs rows of both classes", "raise"),
        (TWO_MINORITY, 1, "test", "'0': 0, '1': 8", "each part needs rows of both classes", "raise"),
        (TWO_MINORITY, 5, "training", "'0': 0, '1': 34", "each part needs rows of both classes", "lower"),
        (TWO_MINORITY, 3, "test", "'0': 0, '1': 8", "each part needs rows of both classes", "raise"),
        (TWO_MINORITY, 4, "training", "'0': 1, '1': 33",
         "sound-mode SMOTE needs at least 2 rows of the minority class '0' to add 32, and the data holds 1", "lower"),
        (TWO_MINORITY, 0, "training", "'0': 1, '1': 33",
         "sound-mode SMOTE needs at least 2 rows of the minority class '0' to add 32, and the data holds 1", "lower"),
    ])
    def test_run_names_the_part_and_the_remedy(self, tmp_path, capsys, spec, seed, part, counts, need, remedy):
        write_csv(generate_synthetic(spec), tmp_path / "data.csv")
        cfg = write_config(tmp_path, {"target": "target", "forest": {"n_trees": 3}})
        out = tmp_path / "out"
        rc = main(["run", "--config", cfg, "--input", str(tmp_path / "data.csv"), "--seed", str(seed),
                   "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: the split at test_fraction 0.2 and seed {seed} leaves the {part} part with class counts "
            f"{counts}; {need}: choose another seed, {remedy} test_fraction, or add rows of class '0'\n"
        )
        assert not out.exists()

    def test_score_gets_the_same_message(self, tmp_path, capsys):
        # only the unbalanced arm can lose its minority: SMOTE before the
        # split fills both parts
        write_csv(generate_synthetic(NEAR_PURE), tmp_path / "data.csv")
        argv = ["--input", str(tmp_path / "data.csv"), "--seed", "47", "--out-dir", str(tmp_path)]
        cfg = write_config(tmp_path, {"target": "target", "smote": None, "forest": {"n_trees": 3}})
        assert main(["run", "--config", cfg, *argv]) == 2
        message = capsys.readouterr().err
        assert message.startswith("error: the split at test_fraction 0.2 and seed 47 leaves the test part")
        assert main(["score", "--config", cfg, *argv]) == 2
        assert capsys.readouterr().err == message

    def test_score_refused_by_its_split_writes_and_prints_nothing(self, tmp_path, capsys):
        write_csv(generate_synthetic(NEAR_PURE), tmp_path / "data.csv")
        cfg = write_config(tmp_path, {"target": "target", "smote": None})
        out = tmp_path / "out"
        argv = ["--config", cfg, "--input", str(tmp_path / "data.csv"), "--seed", "47", "--out-dir", str(out)]
        assert main(["score", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the split at test_fraction 0.2 and seed 47 leaves the test part")
        assert not out.exists()


    @pytest.mark.parametrize("command, extra", [
        ("run", {}),
        ("score", {"filter": {"methods": ["Chi2", "MutualInfo"], "top_k": 1}}),
    ])
    def test_too_few_rows_to_split_names_the_file(self, tmp_path, capsys, command, extra):
        data = tmp_path / "data.csv"
        data.write_text("a,b,target\nx,p,0\ny,q,1\n", encoding="utf-8")
        cfg = write_config(tmp_path, {"target": "target", "forest": {"n_trees": 3}, **extra})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--input", str(data), "--out-dir", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {data}: the split at test_fraction 0.2 leaves a part empty: it needs at least 3 rows and gets 2\n"
        )
        assert not out.exists()


class TestOneMinorityRow:
    """SMOTE on an input with one minority row exits 2 with sampler's
    message, and no command writes or prints before it."""

    MESSAGE = "error: SMOTE needs at least 2 rows of the minority class '0' to add 39, and the data holds 1\n"

    @pytest.mark.parametrize("command", ["balance", "score"])
    def test_refused_with_nothing_written(self, tmp_path, capsys, command):
        write_csv(generate_synthetic(SyntheticSpec(40, 1, 5, 2, seed=3)), tmp_path / "data.csv")
        cfg = write_config(tmp_path, {"target": "target", "forest": {"n_trees": 3}, "filter": {"top_k": 3}})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--input", str(tmp_path / "data.csv"), "--out-dir", str(out)]) == 2
        assert capsys.readouterr() == ("", self.MESSAGE)
        assert not out.exists()

    def test_filter_selection_gives_the_same_text(self):
        d = generate_synthetic(SyntheticSpec(40, 1, 5, 2, seed=3))
        with pytest.raises(ValueError) as refused:
            recommender.select_best_filter(d, feature_scoring.METHODS, 3, forest.ForestParams(n_trees=3), eval_seed=0)
        assert f"error: {refused.value}\n" == self.MESSAGE


class TestReportDocument:
    """report.json's comparison, improvement columns and t-tests follow
    from the arm blocks it prints."""

    @staticmethod
    def improvement(before, after):
        if before == 0:
            return None
        value = (after - before) / before * 100.0
        return {"value": value, "display": f"{round(value)}%"}

    @pytest.mark.parametrize("extra", [{}, {"mode": "balance-first"}, {"smote": None}])
    def test_comparisons_recomputed_from_the_arm_blocks(self, tmp_path, input_csv, extra):
        cfg = write_config(tmp_path, {"target": "target", "forest": {"n_trees": 15}, "seed": 7, **extra})
        assert main(["run", "--config", cfg, "--input", input_csv, "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        (row,) = doc["report"]["rows"]
        imb, bal = row["imbalanced"], row["balanced"]
        verdict = {"A": "balanced", "B": "imbalanced"}.get(dominates(np.array(bal["hull"]), np.array(imb["hull"])),
                                                           "neither")
        assert doc["comparison"] == {
            "hull_verdict": verdict,
            "auc_delta": bal["auc"] - imb["auc"],
            "accuracy_delta": bal["accuracy"] - imb["accuracy"],
            "entropy_delta": bal["mean_split_entropy"] - imb["mean_split_entropy"],
        }
        assert row["accuracy_improvement_pct"] == self.improvement(imb["accuracy"], bal["accuracy"])
        assert row["auc_improvement_pct"] == self.improvement(imb["auc"], bal["auc"])
        assert doc["report"]["t_tests"] == {"precision": None, "recall": None}  # one row, no pairs
        if "smote" in extra:
            assert imb == bal and doc["comparison"]["hull_verdict"] == "neither"

    def test_joined_rows_t_tests_are_ttest_rel_of_the_printed_metrics(self, tmp_path, input_csv):
        stats = pytest.importorskip("scipy.stats")
        d = load_csv(input_csv, "target")
        rows = ()
        for seed in (1, 2, 3):
            cfg = config.PipelineConfig(target_name="target", forest=config.ForestParams(n_trees=15), seed=seed)
            rows += recommender.run_pipeline(d, cfg).rows
        doc = evaluation.report_to_dict(evaluation.EvaluationReport(rows=rows), cfg)
        printed = doc["report"]["rows"]
        for metric in ("precision", "recall"):
            a = [r["imbalanced"][metric] for r in printed]
            b = [r["balanced"][metric] for r in printed]
            ref, ours = stats.ttest_rel(a, b), doc["report"]["t_tests"][metric]
            assert ours["df"] == 2
            assert ours["t"] == pytest.approx(ref.statistic, rel=1e-9)
            assert ours["p_two_tailed"] == pytest.approx(ref.pvalue, rel=1e-7, abs=1e-12)
            assert ours["mean_diff"] == pytest.approx(np.mean(np.subtract(a, b)), rel=1e-12)


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
from elicitrec.evaluation import render_hulls_svg
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


#: runs `python -m elicitrec` with argv[1:] (none: only `import elicitrec`)
#: in this interpreter, then prints its exit code, whether the process entry
#: froze the collector's objects on the way out, whether numpy and
#: numpy.random were imported, the number of `Record` classes the loaded
#: elicitrec modules define, the dataclasses they define (about 1 ms of
#: start-up each), comma-joined, and the sorted elicitrec modules it loaded
LOADS_SCRIPT = """
import dataclasses, gc, runpy, sys
code = 0
if sys.argv[1:]:
    sys.argv[0] = "elicitrec"
    try:
        runpy.run_module("elicitrec", run_name="__main__", alter_sys=True)
    except SystemExit as e:
        code = e.code
else:
    import elicitrec
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "elicitrec")
from elicitrec.config import Record
defined = [v for m in loaded for v in vars(sys.modules[m]).values() if isinstance(v, type) and v.__module__ == m]
records = sum(issubclass(v, Record) and v is not Record for v in defined)
dataclass_names = sorted(v.__name__ for v in defined if dataclasses.is_dataclass(v))
print(code, gc.get_freeze_count() > 0, "numpy" in sys.modules, "numpy.random" in sys.modules, records,
      ",".join(dataclass_names), *loaded)
"""


def run_fresh(*argv):
    """The last line `LOADS_SCRIPT` prints for argv, run in a fresh interpreter."""
    src = str(Path(forest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", LOADS_SCRIPT, *argv], capture_output=True, text=True, env=env)
    return proc.stdout.splitlines()[-1]


#: names defined in a numpy-free module, and an array module that imports each for its own use
MOVED = {
    ("config", "data_model"): ("ROLE_CONTEXT", "ROLE_TECHNIQUE", "FeatureSchema"),
    ("files", "data_model"): ("write_atomic",),
    ("config", "feature_scoring"): ("METHOD_CHI2", "METHOD_ANOVA_F", "METHOD_MUTUAL_INFO", "METHODS"),
    ("scores", "feature_scoring"): ("ScoreEntry", "FeatureScoreTable"),
    ("config", "forest"): ("ForestParams",),
    ("config", "sampler"): ("SmoteConfig",),
    ("config", "recommender"): ("MODE_BALANCE_FIRST", "MODE_SOUND", "FilterConfig", "PipelineConfig"),
    ("config", "evaluation"): ("CUTOFF",),
}


def test_recommend_and_help_import_no_numpy(tmp_path):
    """`recommend`, `--help` and `import elicitrec` never import numpy
    (about 90 ms of start-up), and the package's names stay where they were.
    The process entry freezes the collector on every way out, exit 2 too;
    an import alone freezes nothing."""
    d = generate_synthetic(SyntheticSpec(n_majority=30, n_minority=10, p=4, n_informative=2, seed=1))
    data = tmp_path / "data.csv"
    write_csv(d, data)
    cfg = write_config(tmp_path, {"target": "target", "forest": {"n_trees": 3}, "filter": {"methods": ["Chi2"]}})
    common = ["--config", cfg, "--out-dir", str(tmp_path), "--input", str(data)]
    assert main(["train", *common]) == 0 and main(["score", *common]) == 0
    row = tmp_path / "row.json"
    row.write_text(json.dumps(dict(zip(d.feature_names, d.decode_row(0)))), encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads((tmp_path / "model.json").read_text()), "mtry": 1.5}), encoding="utf-8")

    def run(*argv):
        return " ".join(run_fresh(*argv).split()[:3])

    recommend = [
        "recommend", "--scores", str(tmp_path / "scores_Chi2.csv"), "--row", str(row),
        "--threshold", "0.01", "--out-dir", str(tmp_path),
    ]
    assert run(*recommend, "--model", str(tmp_path / "model.json")) == "0 True False"
    assert (tmp_path / "recommendations.json").exists()
    assert run(*recommend, "--model", str(bad)) == "2 True False"
    assert run("--help") == "0 True False"
    assert run() == "0 False False"

    import elicitrec

    assert all(getattr(elicitrec, name) is not None for name in elicitrec.__all__)
    for (home, old), names in MOVED.items():
        new_module, old_module = (importlib.import_module(f"elicitrec.{m}") for m in (home, old))
        for name in names:
            assert getattr(old_module, name) is getattr(new_module, name), (old, name)
    from elicitrec import cli as cli_again

    assert cli_again is cli


#: the `Record` classes each command defines at start-up, and the elicitrec
#: modules it loads beyond the package, `cli`, `config` and `files`
LAYERS = {
    "--help": (4, ()),
    "balance": (7, ("data_model", "recommender", "sampler")),
    "train": (8, ("data_model", "forest", "model_file")),
    "score": (15, ("data_model", "evaluation", "feature_scoring", "forest", "recommender", "sampler", "scores")),
    "run": (12, ("data_model", "evaluation", "forest", "recommender", "sampler")),
    "evaluate": (12, ("data_model", "evaluation", "forest", "model_file")),
    "recommend": (8, ("model_file", "scores")),
}
#: the only dataclasses the package defines, both in `config`, which every
#: command loads: code outside the package copies them with `dataclasses.replace`
DATACLASSES = "ForestParams,SmoteConfig"


def test_each_command_loads_only_its_layers(tmp_path):
    """Each command imports only the layers whose code it runs: `balance`
    starts without the forest, evaluation and filter code, `run` without
    the filter code, `run` and `score` (which write no model) without
    `model_file`, and `recommend` and `--help` without numpy. None
    imports `numpy.random` (about 12 ms of start-up): every draw is the
    package's own stream. Each defines the records counted in `LAYERS` and
    only the two dataclasses `DATACLASSES`, and leaves through the process
    entry, which freezes the collector's objects."""
    d = generate_synthetic(SyntheticSpec(n_majority=30, n_minority=10, p=4, n_informative=2, seed=1))
    write_csv(d, tmp_path / "data.csv")
    cfg = write_config(tmp_path, {"target": "target", "forest": {"n_trees": 3}, "filter": {"top_k": 2}})
    (tmp_path / "row.json").write_text(json.dumps(dict(zip(d.feature_names, d.decode_row(0)))), encoding="utf-8")
    common = ["--config", cfg, "--out-dir", str(tmp_path)]
    data, model = ["--input", str(tmp_path / "data.csv")], ["--model", str(tmp_path / "model.json")]
    argv = {
        "--help": [],
        "balance": [*common, *data],
        "train": [*common, *data],
        "score": [*common, *data],
        "run": [*common, *data],
        "evaluate": [*common, *data, *model],
        "recommend": [*common, *model, "--scores", str(tmp_path / "scores_MutualInfo.csv"),
                      "--row", str(tmp_path / "row.json"), "--threshold", "0.01"],
    }
    base = ("elicitrec", "elicitrec.cli", "elicitrec.config", "elicitrec.files")
    for command, (records, layers) in LAYERS.items():  # train and score write what evaluate and recommend read
        numpy = command not in ("--help", "recommend")
        loaded = sorted([*base, *(f"elicitrec.{layer}" for layer in layers)])
        assert run_fresh(command, *argv[command]).split() == [
            "0", "True", str(numpy), "False", str(records), DATACLASSES, *loaded
        ], command


def test_main_leaves_the_collector_as_it_found_it(tmp_path, input_csv, capsys):
    """Only the process entry freezes: `cli.main` in a caller's process
    leaves the collector's freeze count and its on/off switch alone, on a
    success, on bad input and on `--help`."""
    state = gc.get_freeze_count(), gc.isenabled()
    assert main(["balance", "--config", fast_config(tmp_path), "--input", input_csv, "--out-dir", str(tmp_path)]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == state
    assert main(["balance", "--input", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path)]) == 2
    assert (gc.get_freeze_count(), gc.isenabled()) == state
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == state


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

    def test_technique_features_listed_as_written(self, trained, input_csv, capsys):
        roles = {f"tech0{k}": "technique" for k in range(4)}
        cfg = fast_config(trained["dir"], roles=roles)
        assert main(["train", "--config", cfg, "--input", input_csv, "--out-dir", str(trained["dir"])]) == 0
        scores = trained["dir"] / "scores_tech.csv"
        scores.write_text(
            "feature,role,score\ntech02,technique,0.75\nctx01,context,0.5\ntech00,technique,0.25\n"
            "tech01,technique,0.05\n",
            encoding="utf-8",
        )
        assert main(self.base_args({**trained, "scores": str(scores)}) + ["--threshold", "0.1"]) == 0
        out = capsys.readouterr().out.splitlines()
        doc = json.loads((trained["dir"] / "recommendations.json").read_text())
        assert doc["collaborative"] == [{"feature": "tech02", "score": 0.75}, {"feature": "tech00", "score": 0.25}]
        start = out.index("also consider (technique features above threshold):")
        listed = out[start + 1:start + 1 + len(doc["collaborative"])]
        assert listed == [f"  {e['feature']}: {e['score']:g}" for e in doc["collaborative"]]
        assert out[start + 1 + len(listed)].startswith("context features above threshold")

    @pytest.mark.parametrize("body,message", [
        ("feature,role,score\nctx00,context,0.1\nctx01,context,0.5\n",
         "entries must be sorted by descending score, then name"),
        ("feature,score,role\nctx00,0.5,context\n", "expected header 'feature,role,score'"),
        ("", "expected header 'feature,role,score'"),
    ], ids=["unsorted", "wrong_header", "empty"])
    def test_bad_scores_file_exits_2(self, trained, capsys, body, message):
        scores = trained["dir"] / "scores_bad.csv"
        scores.write_text(body, encoding="utf-8")
        assert main(self.base_args({**trained, "scores": str(scores)}) + ["--threshold", "0.1"]) == 2
        assert capsys.readouterr().err == f"error: scores file {scores}: {message}\n"
        assert not (trained["dir"] / "recommendations.json").exists()

    @pytest.mark.parametrize("change,message", [
        (lambda row: ["ctx00"], "must be a JSON object of feature -> level string"),
        (lambda row: {**row, "ctx00": 1}, "must be a JSON object of feature -> level string"),
        (lambda row: {**row, "zz": "v0", "aa": "v1"}, "has unknown feature(s): aa, zz"),
    ], ids=["a_list", "level_not_a_string", "unknown_features"])
    def test_bad_context_row_exits_2(self, trained, capsys, change, message):
        row_path = Path(trained["row"])
        row_path.write_text(json.dumps(change(json.loads(row_path.read_text(encoding="utf-8")))), encoding="utf-8")
        assert main(self.base_args(trained) + ["--threshold", "0.1"]) == 2
        assert capsys.readouterr().err == f"error: context row file {row_path}: {message}\n"
        assert not (trained["dir"] / "recommendations.json").exists()

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
        ("ctx00,context,0.5\nctx01,context,0.4\nctx01,context,0.4\n", "feature 'ctx01' is listed twice"),
    ], ids=["not_a_number", "short_row", "nan", "negative", "duplicate"])
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
        assert capsys.readouterr().err == (
            f"error: context row file {row_path}: unknown level 'never-seen' for feature {bad_feature!r}\n"
        )

    def test_missing_feature_rejected(self, trained, capsys):
        row_path = Path(trained["row"])
        row = json.loads(row_path.read_text(encoding="utf-8"))
        removed = sorted(row)[0]
        del row[removed]
        row_path.write_text(json.dumps(row), encoding="utf-8")
        rc = main(self.base_args(trained) + ["--threshold", "0.1"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: context row file {row_path}: lacks feature {removed!r}\n"

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

    @pytest.mark.parametrize("section, key, value, message", [
        ("smote", "k_neighbors", 0, "k_neighbors must be at least 1"),
        ("smote", "target_ratio", 1.5, "target_ratio must be in (0, 1]"),
        ("forest", "n_trees", 0, "n_trees must be at least 1"),
        ("forest", "mtry", 0, "mtry must be at least 1"),
        ("forest", "max_depth", -1, "max_depth must be non-negative"),
        ("forest", "min_samples_leaf", 0, "min_samples_leaf must be at least 1"),
        ("forest", "criterion", "Gini", "criterion must be one of ('gini', 'entropy')"),
        ("filter", "methods", ["Chi2", "Chi2"], "duplicate scoring methods"),
        ("filter", "top_k", 0, "top_k must be at least 1"),
    ])
    def test_out_of_range_value_names_its_section(self, tmp_path, input_csv, capsys, section, key, value, message):
        cfg = write_config(tmp_path, config_with(section, key, value))
        for command in ("run", "score", "train", "balance"):
            out = tmp_path / command
            rc = main([command, "--config", cfg, "--input", input_csv, "--out-dir", str(out)])
            assert rc == 2
            assert capsys.readouterr().err == f"error: config {section}: {message}\n"
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

    @pytest.mark.parametrize("doc,message", [
        ([], "config must be a JSON object"),
        ({"target": "target", "roles": {"ctx00": "ctx"}}, "config roles['ctx00'] must be 'context' or 'technique'"),
    ], ids=["a_list", "role_unknown"])
    def test_refused_before_any_output(self, tmp_path, input_csv, capsys, doc, message):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--input", input_csv, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_csv_of_only_the_target_exits_2(self, tmp_path, capsys):
        data = tmp_path / "target_only.csv"
        data.write_text("target\n0\n1\n0\n1\n", encoding="utf-8")
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"target": "target"})
        assert main(["train", "--config", cfg, "--input", str(data), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {data}: no feature columns\n"
        assert not out.exists()

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
        assert set(doc) == set(config._KEYS["config"])
        for level in config._KEYS.keys() - {"config"}:
            assert set(doc[level]) == set(config._KEYS[level]), level

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
