"""Every CLI artifact, byte for byte, against SHA-256 digests recorded from
a known-good build.

A refactor that keeps outputs must keep every digest. A change that alters
an artifact on purpose updates its digest here and says so in CHANGES.md.
The commands run twice: through `cli.main` in this process, and as
`python -m elicitrec` processes, whose entry must write the same bytes.
Print the current digests with `python tests/test_golden.py`.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import elicitrec
from elicitrec.cli import main
from elicitrec.data_model import SyntheticSpec, generate_synthetic, write_csv

GOLDEN = {
    "cmds/balanced.csv": "b9ca39d75cda123df316223846bda7ee9fae9a3a3102820654021abc8b70fdc3",
    "cmds/best_method.txt": "bf4563d019348832d7a0df9f8ba14a3a58697a72c81522c0a01d8013bf9a2e70",
    "cmds/evaluation.json": "2680febc19c50d95165d57c11a1d2c5c736339ed39136ff39eca11fb37b13d91",
    "cmds/model.json": "867789a5e5ec7b1bdb7f2ddfcc1a4ee3cac85a8420cad6c396e60ffbb6f9e20c",
    "cmds/recommendations.json": "a02dec9c18a4614f2a3392de82605505717bac6a67847f970ae1a6ce8a96f554",
    "cmds/scores_AnovaF.csv": "c8b7b388abccb695739ef8b8675ab956546b109d38af7862e33fc6cc6f5c2dd9",
    "cmds/scores_Chi2.csv": "aa1d8fc83aeb4d57fc902e8ccde10ef190b9524123579d49452eb76cb415d79e",
    "cmds/scores_MutualInfo.csv": "768dc23902bd84f3cd376e8e5fb6a1e8e971940dd9880199699fc71c757ba9f3",
    "run_balance_first/report.json": "a94c788454da87e96bc7b4247fd01cb91836fc91d8db33174be4dc9f4e2b2ad5",
    "run_balance_first/roc_balanced.csv": "2c396b3cfad39979b37320ad002c1536a31af6dfc8e5602c0770561d83a6c3a5",
    "run_balance_first/roc_hulls.svg": "81c3e131881e58276ddb99e0dbeaedf959444b360c82d83e2c35c258c5ec8bda",
    "run_balance_first/roc_imbalanced.csv": "d9d08b5e2dfd197b940d34291fe78da1d617a6976c6780ce6a3ab4ecdd3594d1",
    "run_on_balanced/report.json": "500269b906415314b72614970088788c1e730438f637fbcd387a7630ae224f74",
    "run_on_balanced/roc_balanced.csv": "2c396b3cfad39979b37320ad002c1536a31af6dfc8e5602c0770561d83a6c3a5",
    "run_on_balanced/roc_hulls.svg": "523c7699aedb7d7d500ea4891e1bd7a53abedc7613a174ec439be7cc9aa9a2d5",
    "run_on_balanced/roc_imbalanced.csv": "fc313520f4f15a30c854c70fe9c8feddf560fef0d24b204452bac343798cb944",
    "run_smote_off/report.json": "be3ca59f68227fe99736449782e04e55a664960422f9406d5ee5c1fe75987198",
    "run_smote_off/roc_balanced.csv": "d9d08b5e2dfd197b940d34291fe78da1d617a6976c6780ce6a3ab4ecdd3594d1",
    "run_smote_off/roc_hulls.svg": "9520bc43f442cff6339e9feaf25fde76ad61118f85a008ae63dababff6672d1f",
    "run_smote_off/roc_imbalanced.csv": "d9d08b5e2dfd197b940d34291fe78da1d617a6976c6780ce6a3ab4ecdd3594d1",
    "run_sound/report.json": "06e9f7b73669963558545cfc1dee521984b29437c00f119f6f1f8a0cddcae8aa",
    "run_sound/roc_balanced.csv": "ea690d8b6aef54c8ed81d50231aba87a573f26dd0504dbc90c2c859cab37ef64",
    "run_sound/roc_hulls.svg": "fe93be25a4d261d02aebcf2cd3c9daf5d1f1f9fd330f8aad9e64430e77ffe0ed",
    "run_sound/roc_imbalanced.csv": "d9d08b5e2dfd197b940d34291fe78da1d617a6976c6780ce6a3ab4ecdd3594d1",
}


def in_process(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def in_a_fresh_process(argv: list[str]) -> int:
    """`python -m elicitrec` with argv, on this checkout's package."""
    src = str(Path(elicitrec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "elicitrec", *argv], capture_output=True, env=env).returncode


def produce(work: Path, run=in_process) -> dict[str, str]:
    """Run every subcommand on a small synthetic input, each through `run`;
    digest each artifact."""
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
        assert run(argv) == 0, argv
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


def test_process_entry_writes_the_same_bytes(tmp_path):
    assert produce(tmp_path, run=in_a_fresh_process) == GOLDEN


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(produce(Path(tmp)), sys.stdout, indent=4, sort_keys=True)
        print()
