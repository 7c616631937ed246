#!/usr/bin/env python3
"""Entry point for one benchmark run, as declared in BENCHMARK.json.

Configures the repository's root build into .bench_build/ with bench/e2e
attached (first use only), builds the bench_e2e target (later runs rebuild
incrementally), runs one workload, and prints as its last line
one JSON object with the metrics BENCHMARK.json declares: the end-to-end
metrics for --trace 0, the per-layer metrics for --trace 1.

    python3 bench/e2e/run.py --workload cold_table3 --seed 7 --seconds 12 --trace 0

Exits non-zero, without the JSON line, when the benchmark cannot be built
or run, and with "correct": false when a correctness check failed.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bench" / "e2e" / "bench_e2e"
# A run takes well under a minute; the cap keeps a hung run from outliving
# the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no clouddns sources under {ROOT}; cannot build")
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release",
                            "-DCMAKE_PROJECT_clouddns_INCLUDE="
                            f"{SOURCE / 'attach.cmake'}"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "bench_e2e", "-j", jobs],
                       stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"run.py: build failed: {error}")

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    out = results / (f"{args.workload}-{args.seed}-"
                     f"{'traced' if args.trace else 'untraced'}.json")
    work = BUILD / "work" / str(os.getpid())
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--out", str(out), "--work-dir", str(work)]
    if args.trace:
        command.append("--trace")
    if out.exists():
        out.unlink()
    try:
        proc = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not out.is_file():
        sys.exit(f"run.py: bench_e2e exited {proc.returncode} without results")

    run = json.loads(out.read_text())["workloads"][0]
    metrics = {}
    for metric in declared:
        measured = run["metrics"].get(metric["name"])
        if measured is None or measured["unit"] != metric["unit"]:
            sys.exit(f"run.py: bench_e2e did not report {metric['name']} "
                     f"in {metric['unit']}")
        metrics[metric["name"]] = {"value": measured["value"],
                                   "unit": measured["unit"]}
    correct = bool(run["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
