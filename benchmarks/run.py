"""Benchmark of the elicitrec CLI: one closed-loop client, one command at a time.

Usage (from the repository root):

    python3 benchmarks/run.py --workload survey --seed 1 --seconds 30 --trace 0

Set-up generates every input from --seed with `generate_synthetic` and
`write_csv`, then warms up with `elicitrec --help`; it runs several times
and `setup_s` is their median. The timed window then repeats the
workload's fixed pass of commands (see workloads.py) until --seconds is
spent, each command a `python -m elicitrec` subprocess of the source tree
in ./src with one BLAS/OpenMP thread. Outputs are checked after the
window. Every timing metric is scaled to a reference machine speed, which
calibrate.py measures between commands (see SPEED); the wall times are
printed next to it. With --trace 1 the same workload runs in-process
instead, with a span around each public call (see traced.py), and
per-layer metrics are reported. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

--scale smoke shrinks every input so that a run takes seconds; the
benchmark's own test uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"
OUT = ROOT / ".benchout"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
#: a command that runs longer than this is killed and counts as failed
COMMAND_TIMEOUT_S = 150
#: the tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10
#: The machine's speed changes in spells that last from seconds to minutes
#: and move every command of a run together. calibrate.py runs before and
#: after every timed step, and each step's time is reported as wall time x
#: SPEED / (mean of those two calibration times): the time the step would
#: take on a machine that runs calibrate.py in SPEED seconds, about what a
#: 2-core Xeon takes.
SPEED = 0.3


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def cli(argv: list[str], cwd: Path) -> tuple[float, subprocess.CompletedProcess | None]:
    """Run one `elicitrec` command; returns its wall time and result
    (None when it timed out and was killed)."""
    return _child(["-m", "elicitrec", *argv], cwd)


class Calibration:
    """calibrate.py times taken between timed steps."""

    def __init__(self, cwd: Path):
        self.cwd = cwd
        self.times = [self._run()]

    def _run(self) -> float:
        seconds, result = _child([str(CALIBRATE)], self.cwd)
        if result is None or result.returncode != 0:
            raise RuntimeError("calibrate.py failed")
        return seconds

    def after_step(self) -> float:
        """Calibrate once more; returns the mean of the calibrations just
        before and just after the step that has ended."""
        self.times.append(self._run())
        return (self.times[-2] + self.times[-1]) / 2


def scaled(seconds: float, calibration: float) -> float:
    return seconds * SPEED / calibration


def _child(args: list[str], cwd: Path) -> tuple[float, subprocess.CompletedProcess | None]:
    start = time.perf_counter()
    try:
        result = subprocess.run(
            [sys.executable, *args],
            cwd=cwd,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        result = None
    return time.perf_counter() - start, result


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        return "unavailable"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "child_thread_vars": {var: "1" for var in THREAD_VARS},
        "loadavg_start": _loadavg(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest sample with TAIL_BEYOND samples
    above it, or None when that sample would lie below the median."""
    if len(samples) < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank of the reported sample
    return 100.0 * rank / len(ordered), ordered[rank - 1]


@dataclass
class Command:
    kind: str
    argv: list[str]
    out: Path
    master_seed: int | None = None
    model: Path | None = None
    row: Path | None = None
    threshold: float | None = None
    seconds: float = 0.0
    calibration: float = 0.0  # mean calibrate.py seconds just before and after the command
    problems: list[str] = field(default_factory=list)


def plan_pass(w, inputs, pass_index: int, work: Path, first_command: int) -> list[Command]:
    """The commands of one pass, with every input and output path fixed."""
    from workloads import occurrence

    commands: list[Command] = []
    seen = {kind: 0 for kind in w.pass_plan}
    model = scores = None
    base_seed = inputs.master_seeds[0]
    for k, kind in enumerate(w.pass_plan):
        i = seen[kind]
        seen[kind] += 1
        out = work / f"cmd{first_command + k:04d}_{kind}"
        c = Command(kind, [], out)
        n = occurrence(w, kind, pass_index, i)
        if kind in ("run", "score"):
            c.master_seed = inputs.master_seeds[n % len(inputs.master_seeds)]
            c.argv = [kind, "--config", str(inputs.config), "--input", str(inputs.data_csv),
                      "--seed", str(c.master_seed)]
            if kind == "score":
                scores = out / "scores_MutualInfo.csv"
        elif kind == "balance":
            c.argv = ["balance", "--config", str(inputs.config), "--input", str(inputs.data_csv),
                      "--seed", str(base_seed)]
        elif kind == "train":
            c.argv = ["train", "--config", str(inputs.train_config), "--input", str(inputs.data_csv),
                      "--seed", str(base_seed)]
            model = out / "model.json"
        elif kind == "evaluate":
            c.model = model
            c.argv = ["evaluate", "--config", str(inputs.config), "--model", str(model),
                      "--input", str(inputs.holdout_csv)]
        else:
            j = n % len(inputs.rows)
            c.model, c.row, c.threshold = model, inputs.rows[j], inputs.thresholds[j]
            c.argv = ["recommend", "--model", str(model), "--scores", str(scores),
                      "--row", str(c.row), "--threshold", repr(c.threshold)]
        c.argv += ["--out-dir", str(out)]
        commands.append(c)
    return commands


def keep_going(elapsed: float, pass_times: list[float], seconds: float) -> bool:
    """Start another pass only if it should end within half a pass of the budget."""
    return elapsed + 0.5 * statistics.median(pass_times) <= seconds


def setup(w, seed: int, work: Path, cal: Calibration) -> tuple[object, list[tuple[float, float]]]:
    """Generate the inputs and warm up, SETUP_REPEATS times; the inputs of
    the last repeat are used. Returns the inputs and, per repeat, its
    seconds and calibration."""
    from workloads import generate_inputs

    times = []
    for r in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = generate_inputs(w, seed, work / f"inputs{r}")
        _, result = cli(["--help"], work)
        seconds = time.perf_counter() - start
        if result is None or result.returncode != 0:
            raise RuntimeError("elicitrec --help failed during set-up")
        times.append((seconds, cal.after_step()))
    return inputs, times


def check(commands: list[Command], w, inputs, work: Path) -> dict[int, float]:
    """Check every command's outputs; returns the balanced auch of each
    master seed's runs (the determinism check makes them equal)."""
    import checks

    models = checks.ModelCache()
    n_trees = {**w.config, **w.train_config}.get("forest", {}).get("n_trees", 100)
    n_features = w.data.p
    auchs = {}
    for c in commands:
        if c.problems:
            continue
        try:
            if c.kind == "run":
                c.problems, auch = checks.check_run(c.out)
                if auch is not None:
                    auchs[c.master_seed] = auch
            elif c.kind == "score":
                c.problems = checks.check_score(c.out, w.config, n_features)
            elif c.kind == "balance":
                c.problems = checks.check_balance(c.out, inputs.data_csv)
            elif c.kind == "train":
                c.problems = checks.check_train(c.out, n_trees)
            elif c.kind == "evaluate":
                c.problems = checks.check_evaluate(c.out, inputs.n_holdout_rows)
            else:
                c.problems = checks.check_recommend(c.out, c.model, c.row, c.threshold, models)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            c.problems = [f"unreadable output: {type(e).__name__}: {e}"]
    check_determinism([c for c in commands if c.kind == "run" and not c.problems], work)
    return auchs


def check_determinism(runs: list[Command], work: Path) -> None:
    """report.json must be byte-identical for the same (input, config,
    seed). Passes repeat their commands; when no seed ran twice, the first
    run is repeated here, outside the timed window."""
    by_seed: dict[int, list[Command]] = {}
    for c in runs:
        by_seed.setdefault(c.master_seed, []).append(c)
    if runs and all(len(group) < 2 for group in by_seed.values()):
        first = runs[0]
        again = Command("run", [], work / "determinism_repeat", first.master_seed)
        again.argv = first.argv[:-1] + [str(again.out)]
        _, result = cli(again.argv, work)
        if result is None or result.returncode != 0:
            first.problems.append("determinism repeat failed to run")
            return
        by_seed[first.master_seed].append(again)
    for group in by_seed.values():
        reference = (group[0].out / "report.json").read_bytes()
        for c in group[1:]:
            if (c.out / "report.json").read_bytes() != reference:
                group[0].problems.append(f"report.json differs between {group[0].out.name} and {c.out.name}")


def untraced(w, inputs, seconds: float, work: Path, cal: Calibration) -> tuple[list[Command], list[float], float]:
    """The timed closed loop; returns the commands, the scaled time of
    each pass (its commands', calibrations excluded) and the window length."""
    commands: list[Command] = []
    pass_times: list[float] = []
    pass_walls: list[float] = []
    start = time.perf_counter()
    while True:
        batch = plan_pass(w, inputs, len(pass_times), work, len(commands))
        pass_start = time.perf_counter()
        for c in batch:
            c.seconds, result = cli(c.argv, work)
            c.calibration = cal.after_step()
            if result is None:
                c.problems.append(f"killed after {COMMAND_TIMEOUT_S} s")
            elif result.returncode != 0:
                c.problems.append(f"exit {result.returncode}: {result.stderr.strip()[-300:]}")
        pass_times.append(sum(scaled(c.seconds, c.calibration) for c in batch))
        pass_walls.append(time.perf_counter() - pass_start)
        commands += batch
        if not keep_going(time.perf_counter() - start, pass_walls, seconds):
            break
    return commands, pass_times, time.perf_counter() - start


def report_untraced(w, inputs, setup_times, seconds, work, cal) -> tuple[dict, int, int, bool]:
    from workloads import KINDS

    commands, pass_times, window = untraced(w, inputs, seconds, work, cal)
    # read before the checks: a child's max-RSS counts this process's
    # resident set at spawn time, and the checks load models in-process
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    auchs = check(commands, w, inputs, work)
    failed = [c for c in commands if c.problems]
    for c in failed:
        print(f"FAILED {c.out.name}: {'; '.join(c.problems)}")
    ok = len(commands) - len(failed)
    print(f"window {window:.2f} s, {len(pass_times)} pass(es), {len(commands)} commands; "
          f"benchmark process max-RSS {own_mb:.1f} MB")
    print(f"calibration median {statistics.median(cal.times):.4f} s (n={len(cal.times)}); "
          f"timings below are scaled to {SPEED} s")
    # name -> (seconds and calibration of each step, unit); the metric is
    # the median scaled time, printed next to the median wall time
    timings = {"setup_s": (setup_times, "s")}
    for kind in KINDS:
        steps = [(c.seconds, c.calibration) for c in commands if c.kind == kind and not c.problems]
        if steps:
            timings[f"{kind}_ms"] = (steps, "ms")
    metrics, samples, walls = {}, {}, {}
    for name, (steps, unit) in timings.items():
        per = 1000.0 if unit == "ms" else 1.0
        metrics[name] = metric(per * statistics.median(scaled(*step) for step in steps), unit)
        walls[name] = per * statistics.median(seconds for seconds, _ in steps)
        samples[name] = len(steps)
    metrics["pass_s"] = metric(statistics.median(pass_times), "s")
    samples["pass_s"] = len(pass_times)
    metrics["peak_rss_mb"] = metric(peak_mb, "MB")
    samples["peak_rss_mb"] = len(commands)
    metrics["ops_ok_share"] = metric(ok / len(commands), "share")
    samples["ops_ok_share"] = len(commands)
    if auchs:
        metrics["auch"] = metric(statistics.fmean(auchs.values()), "area")
        samples["auch"] = len(auchs)
    for name, m in metrics.items():
        wall = f"; wall {walls[name]:.6g} {m['unit']}" if name in walls else ""
        print(f"{name} {m['value']:.6g} {m['unit']} (n={samples[name]}{wall})")
    for kind in KINDS:
        times = " ".join(f"{c.seconds * 1000.0:.1f}" for c in commands if c.kind == kind and not c.problems)
        print(f"samples {kind}_ms (wall) {times}")
    rec = [1000.0 * scaled(c.seconds, c.calibration) for c in commands if c.kind == "recommend" and not c.problems]
    t = tail(rec)
    if t is None:
        print(f"recommend_tail_ms not reported: {len(rec)} samples, fewer than {2 * TAIL_BEYOND}")
    else:
        print(f"recommend_tail_ms {t[1]:.6g} ms (p{t[0]:.1f} of n={len(rec)}, {TAIL_BEYOND} beyond)")
    return metrics, len(commands), len(failed), not failed and bool(auchs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "elicitrec" / "__init__.py").is_file():
        print(f"error: no elicitrec source tree at {SRC}", file=sys.stderr)
        return 2
    # one thread in this process too, set before numpy is first imported
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    from workloads import SCALES

    workloads = SCALES[args.scale]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    w = workloads[args.workload]

    env = environment()
    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        cal = Calibration(work)
        inputs, setup_times = setup(w, args.seed, work, cal)
        print(f"workload {w.name} ({args.scale}) seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        if args.trace:
            from traced import report_traced

            metrics, attempted, failed, correct = report_traced(w, inputs, args.seconds, work, OUT, args.seed)
        else:
            metrics, attempted, failed, correct = report_untraced(w, inputs, setup_times, args.seconds, work, cal)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = _loadavg()
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
