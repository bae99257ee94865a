#!/usr/bin/env python3
"""Run the HumMer benchmark, one workload or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of BENCHMARK.json, `cold_prepare`, or `all` to run every
one of them in turn (each in its own process); the last line then keys each
metric `<workload>/<metric>` and the exit code is the worst of the runs.

Run it from the repository root. It builds perfbench/ (a cargo workspace of
its own, path dependencies on crates/) in release mode into
$CARGO_TARGET_DIR (default .bench_build), runs the workload, writes the full
report -- every metric with its sample count, the correctness checks, notes
and provenance (git rev, nproc, rustc version) -- to perfbench/work/, prints
every metric by name, value, unit and sample count, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.

Exit codes: 0 when every output was correct and no operation failed, 1 when
one was wrong or failed, 2 when the benchmark could not be built or set up
(then no result line is printed).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Runnable but not declared in BENCHMARK.json: a cold prepare is pure CPU
# work, and on a 2-vCPU shared host its median moved by up to a quarter
# between runs, the largest bound a declared metric may have. It stays here
# for the per-layer profile of the cold path.
UNDECLARED = ["cold_prepare"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def command_output(argv, cwd):
    try:
        done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root):
    rev = command_output(["git", "rev-parse", "HEAD"], root)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "git_rev": rev or "unknown (not a git checkout)",
        "nproc": cpus,
        "rustc": command_output(["rustc", "--version"], root) or "unknown",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = Path.cwd()
    bench = Path(__file__).resolve().parent
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json in {root}: {e}")
    names = [w["name"] for w in spec["workloads"]] + UNDECLARED
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        fail(f"unknown workload {args.workload}")

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(root / ".bench_build")))
    if not target.is_absolute():
        target = root / target
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(bench / "Cargo.toml")]
    try:
        built = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail("build failed")

    work = bench / "work"
    argv = [str(target / "release" / "hummer-perfbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--work", str(work)]
    try:
        ran = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    lines = ran.stdout.strip().splitlines()
    if ran.returncode not in (0, 1) or not lines:
        fail(f"run failed with exit code {ran.returncode}")
    report = json.loads(lines[-1])

    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
    measured = [(m["name"], m["unit"]) for m in report["metrics"]]
    if measured != [(m["name"], m["unit"]) for m in declared]:
        fail("the metrics reported differ from those BENCHMARK.json declares")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "provenance": provenance(root),
        **report,
    }
    work.mkdir(parents=True, exist_ok=True)
    path = work / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={report['attempted']} failed={report['failed']} "
          f"correct={report['correct']}")
    for check in report["checks"]:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    for m in report["metrics"]:
        print(f"  {m['name']:<34} {m['value']:>16.6f} {m['unit']:<6} n={m['samples']}")
    print(f"  report: {path}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": m["value"], "unit": m["unit"]}
                    for m in report["metrics"]},
    }))
    return 0 if report["correct"] and report["failed"] == 0 else 1


def run_all(args, names):
    worst, attempted, failed, metrics = 0, 0, 0, {}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace]
        ran = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = ran.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, ran.returncode)
        if ran.returncode == 2 or not lines:
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": worst == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return worst


if __name__ == "__main__":
    sys.exit(main())
