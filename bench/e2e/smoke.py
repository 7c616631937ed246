#!/usr/bin/env python3
"""Smoke test of bench_e2e (the bench_e2e_smoke ctest).

Runs every workload at --quick size twice: untraced at one thread and traced
at four. Fails unless both runs pass their own checks, print every metric
BENCHMARK.json declares (end-to-end untraced, per-layer traced) with
error_rate 0, and render byte-identical reports at both thread counts.

    python3 bench/e2e/smoke.py path/to/bench_e2e
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def run(binary, work, name, extra):
    out = work / f"{name}.json"
    proc = subprocess.run([binary, "--workload", "all", "--quick",
                           "--out", str(out), "--work-dir", str(work / "w")]
                          + extra, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"smoke: bench_e2e {' '.join(extra)} exited {proc.returncode}")
    printed = {tuple(line.split()[:2]) for line in proc.stdout.splitlines()
               if line and not line.startswith("#")}
    runs = {r["workload"]: r for r in json.loads(out.read_text())["workloads"]}
    return printed, runs


def main():
    binary = sys.argv[1]
    spec = json.loads(BENCHMARK.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    work = Path("bench_e2e_smoke")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    failures = []
    single, single_runs = run(binary, work, "threads1", ["--threads", "1"])
    traced, traced_runs = run(binary, work, "threads4",
                              ["--threads", "4", "--trace"])
    for workload in workloads:
        for printed, runs, declared in (
                (single, single_runs, spec["end_to_end"]),
                (traced, traced_runs, spec["per_layer"])):
            result = runs.get(workload)
            if result is None:
                failures.append(f"{workload}: no result")
                continue
            for metric in declared + [{"name": "error_rate"}]:
                if (workload, metric["name"]) not in printed:
                    failures.append(f"{workload}: {metric['name']} not printed")
            if result["metrics"]["error_rate"]["value"] != 0:
                failures.append(f"{workload}: error_rate is not 0")
        if (workload in single_runs and workload in traced_runs and
                single_runs[workload]["report_sha256"] !=
                traced_runs[workload]["report_sha256"]):
            failures.append(f"{workload}: report differs between 1 thread "
                            "untraced and 4 threads traced")
    shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"smoke: FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
