"""Steadiness check: run one workload k times on the same code, one seed
per run, and print for each end-to-end metric its median and quartile
spread next to the metric's bound from BENCHMARK.json.

Usage (from the repository root):

    python3 benchmarks/steady.py --workload survey --runs 10

The spread is (q3 - q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`. A metric is steady when its spread is
at most a third of its bound; a metric whose spread exceeds its bound
cannot tell a regression from noise and is reported as unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results = []
    seconds = str(spec["run_seconds"])
    for seed in range(1, args.runs + 1):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        results.append(result)

    out = ROOT / ".benchout" / f"steady-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"\n{args.workload}: {args.runs} runs, seeds 1..{args.runs}")
    print(f"{'metric':<14} {'median':>12} {'unit':<6} {'spread':>8} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results if m["name"] in r["metrics"]]
        if len(values) < 2:
            print(f"{m['name']:<14} missing in {args.runs - len(values)} run(s)")
            continue
        s = spread(values)
        verdict = "steady" if s <= m["bound"] / 3 else ("within bound" if s <= m["bound"] else "unresolved")
        print(f"{m['name']:<14} {statistics.median(values):>12.6g} {m['unit']:<6} {s:>8.4f} {m['bound']:>6}  {verdict}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
