"""Every CLI artifact, byte for byte, against SHA-256 digests recorded from
a known-good build.

A refactor that keeps outputs must keep every digest. A change that alters
an artifact on purpose updates its digest here and says so in CHANGES.md.
Print the current digests with `python tests/test_golden.py`.
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from elicitrec.cli import main
from elicitrec.data_model import SyntheticSpec, generate_synthetic, write_csv

GOLDEN = {
    "cmds/balanced.csv": "f242266bc095ea7d58a5eda76697ebe2fba43b5cc932e6e8cc473a1cfea2b6cf",
    "cmds/best_method.txt": "bf4563d019348832d7a0df9f8ba14a3a58697a72c81522c0a01d8013bf9a2e70",
    "cmds/evaluation.json": "2680febc19c50d95165d57c11a1d2c5c736339ed39136ff39eca11fb37b13d91",
    "cmds/model.json": "0f44f42dcc69b8f11d4376f6b5abb4b562a5f37e186ccaab0b959a0a24439732",
    "cmds/recommendations.json": "a02dec9c18a4614f2a3392de82605505717bac6a67847f970ae1a6ce8a96f554",
    "cmds/scores_AnovaF.csv": "c8b7b388abccb695739ef8b8675ab956546b109d38af7862e33fc6cc6f5c2dd9",
    "cmds/scores_Chi2.csv": "aa1d8fc83aeb4d57fc902e8ccde10ef190b9524123579d49452eb76cb415d79e",
    "cmds/scores_MutualInfo.csv": "768dc23902bd84f3cd376e8e5fb6a1e8e971940dd9880199699fc71c757ba9f3",
    "run_balance_first/report.json": "966a66afd0fa3e7db23c54b00960c13f594f2984cb6692dfb39b5f5c15ffbc5b",
    "run_balance_first/roc_balanced.csv": "d09966878d3aa704d6f132f06fd3136c4e3b15d92937c7f656c325d2558fea87",
    "run_balance_first/roc_hulls.svg": "88faac72900daa30da1c3a4e20d86d11b433cdbe24b0bba453958fdb2601519d",
    "run_balance_first/roc_imbalanced.csv": "bacc06f0b1f3810ad1694f76a78ae53d7e29986acf37a76118a6070306878e31",
    "run_on_balanced/report.json": "7dca4be7f84c3f0ed678158237182f7d76c5a0617f6f61589a3731f29127a271",
    "run_on_balanced/roc_balanced.csv": "d09966878d3aa704d6f132f06fd3136c4e3b15d92937c7f656c325d2558fea87",
    "run_on_balanced/roc_hulls.svg": "ca95f07a228e569b89456a1547778b864dfd43980b1d2f3298743a0c82b01f56",
    "run_on_balanced/roc_imbalanced.csv": "70d7b356cf0e1bfcf6f2ca2e4212625d91d78dbdd939d38029b9369e9eb0bb2f",
    "run_smote_off/report.json": "0ae22d855d844fd54eef243494ab7f3b7f2021092bfe73b85b3e392caf306dfa",
    "run_smote_off/roc_balanced.csv": "bacc06f0b1f3810ad1694f76a78ae53d7e29986acf37a76118a6070306878e31",
    "run_smote_off/roc_hulls.svg": "fd27395a8d60bb3da7da480e05de5340303da0a31988d0f903cd636318d73c06",
    "run_smote_off/roc_imbalanced.csv": "bacc06f0b1f3810ad1694f76a78ae53d7e29986acf37a76118a6070306878e31",
    "run_sound/report.json": "438865a9b03cf9d8c647f828f0d5427de84321d14cbed49fe6c5115ec06397c2",
    "run_sound/roc_balanced.csv": "da0521a5e0909e09267d64498df53d7ce2b59de09217881adf756d17fb84cc67",
    "run_sound/roc_hulls.svg": "0110ca487520f1c2fa787dcdda2ad27506fced19694f95f05acb2278afbf80f4",
    "run_sound/roc_imbalanced.csv": "bacc06f0b1f3810ad1694f76a78ae53d7e29986acf37a76118a6070306878e31",
}


def produce(work: Path) -> dict[str, str]:
    """Run every subcommand on a small synthetic input; digest each artifact."""
    data = work / "data.csv"
    write_csv(generate_synthetic(SyntheticSpec(n_majority=90, n_minority=20, p=8, n_informative=4, seed=3)), data)
    base = {"target": "target", "forest": {"n_trees": 15}, "filter": {"top_k": 4}, "seed": 7}
    configs = {
        "sound": base,
        "balance_first": {**base, "mode": "balance-first"},
        "smote_off": {**base, "smote": None},
    }
    for name, doc in configs.items():
        (work / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    cfg = str(work / "sound.json")
    cmds = work / "cmds"
    with open(data, newline="", encoding="utf-8") as fh:
        header, first = list(csv.reader(fh))[:2]
    row = work / "row.json"
    row.write_text(json.dumps(dict(zip(header[:-1], first[:-1]))), encoding="utf-8")
    calls = [
        ["run", "--config", str(work / f"{name}.json"), "--input", str(data), "--out-dir", str(work / f"run_{name}")]
        for name in configs
    ]
    calls += [[command, "--config", cfg, "--input", str(data), "--out-dir", str(cmds)] for command in ("score", "train", "balance")]
    calls += [
        ["evaluate", "--config", cfg, "--input", str(data), "--model", str(cmds / "model.json"), "--out-dir", str(cmds)],
        ["recommend", "--config", cfg, "--model", str(cmds / "model.json"), "--scores", str(cmds / "scores_MutualInfo.csv"),
         "--row", str(row), "--threshold", "0.01", "--out-dir", str(cmds)],
        # balance's own output, whose provenance column balance-first mode accepts
        ["run", "--config", cfg, "--mode", "balance-first", "--input", str(cmds / "balanced.csv"),
         "--out-dir", str(work / "run_on_balanced")],
    ]
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    return {
        p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work.glob("*/*"))
    }


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


def test_artifact_set(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_bytes(digests, name):
    assert digests.get(name) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(produce(Path(tmp)), sys.stdout, indent=4, sort_keys=True)
        print()
