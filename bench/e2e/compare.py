#!/usr/bin/env python3
"""Compares two sets of bench_e2e result files against BENCHMARK.json.

    python3 bench/e2e/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are each a result file written by `bench_e2e --out`, a
directory of such files, or a quoted glob. Every file contributes its
per-run median of each metric; each side is summarized by the median and
interquartile range (IQR) of those values. Untraced runs feed the
end-to-end rows and traced runs the per-layer rows.

Verdicts for an end-to-end metric, with `bound` from BENCHMARK.json:
  regression  NEW's median is worse than BASE's by more than the bound;
  unresolved  either side's IQR exceeds the bound (run-to-run noise is wider
              than the change that would count), unless every NEW run is
              better than every BASE run;
  gain        with at least 10 pairs (files matched in the order given,
              runs alternating between sides), NEW wins at least 9 of 10
              pairs and the medians differ by more than BASE's IQR;
  ok          otherwise.
Per-layer metrics have no bound: their rows are `gain` by the same pair
rule, or `-`. The exit status is 1 when any row is a regression.
"""
import argparse
import glob
import json
import os
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def result_files(spec):
    if os.path.isdir(spec):
        files = sorted(glob.glob(os.path.join(spec, "*.json")))
    else:
        files = sorted(glob.glob(spec)) or [spec]
    return files


def load(spec):
    """{(workload, traced): [run, ...]} in file order."""
    runs = {}
    for path in result_files(spec):
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as error:
            sys.exit(f"compare.py: cannot read {path}: {error}")
        for run in data.get("workloads", []):
            runs.setdefault((run["workload"], bool(run["trace"])), []).append(run)
    if not runs:
        sys.exit(f"compare.py: no bench_e2e results in {spec}")
    return runs


def summary(runs, name):
    """Values of one metric, their median and IQR."""
    values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
    if not values:
        return [], None, None
    if len(values) == 1:
        metric = runs[0]["metrics"][name]
        return values, values[0], metric["p75"] - metric["p25"]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return values, statistics.median(values), q3 - q1


def verdict(base, new, better, bound):
    base_values, base_med, base_iqr = base
    new_values, new_med, new_iqr = new
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (new_med - base_med) / base_med if base_med else 0.0
    improves = lambda b, n: sign * (b - n) > 0  # noqa: E731
    if bound is not None:
        if worse > bound:
            return "regression"
        all_better = all(improves(b, n) for b in base_values
                         for n in new_values)
        noisy = base_iqr / abs(base_med) > bound if base_med else False
        noisy = noisy or (new_iqr / abs(new_med) > bound if new_med else False)
        if noisy and not all_better:
            return "unresolved"
    pairs = list(zip(base_values, new_values))
    if len(pairs) >= 10:
        wins = sum(1 for b, n in pairs if improves(b, n))
        if wins >= 0.9 * len(pairs) and sign * (base_med - new_med) > base_iqr:
            return "gain"
    return "ok" if bound is not None else "-"


def row(workload, name, unit, base, new, result):
    _, base_med, base_iqr = base
    _, new_med, new_iqr = new
    change = (new_med - base_med) / base_med * 100 if base_med else 0.0
    print(f"{workload:15s} {name:34s} {base_med:12.6g} [{base_iqr:9.3g}] "
          f"{new_med:12.6g} [{new_iqr:9.3g}] {change:+8.2f}% {unit:9s} "
          f"{result}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    args = parser.parse_args()
    spec = json.loads(Path(args.benchmark).read_text())
    base_runs = load(args.base)
    new_runs = load(args.new)

    print(f"{'workload':15s} {'metric':34s} {'base median':>12s} {'[IQR]':>11s} "
          f"{'new median':>12s} {'[IQR]':>11s} {'change':>9s} {'unit':9s} "
          f"verdict")
    regressions = 0
    for metrics in (spec["end_to_end"], spec["per_layer"]):
        for workload in [w["name"] for w in spec["workloads"]]:
            for metric in metrics:
                # Untraced runs where they report the metric (throughput and
                # wall time are measured with tracing off), else traced runs.
                for traced in (False, True):
                    a = summary(base_runs.get((workload, traced), []),
                                metric["name"])
                    b = summary(new_runs.get((workload, traced), []),
                                metric["name"])
                    if a[0] and b[0]:
                        break
                else:
                    continue
                result = verdict(a, b, metric["better"], metric.get("bound"))
                regressions += result == "regression"
                row(workload, metric["name"], metric["unit"], a, b, result)

    # Reports are deterministic per (workload, seed, size): a changed digest
    # means the change altered an output.
    for key, base in base_runs.items():
        digests = {(r["seed"], r["quick"]): r["report_sha256"] for r in base}
        for run in new_runs.get(key, []):
            old = digests.get((run["seed"], run["quick"]))
            if old is not None and old != run["report_sha256"]:
                print(f"note: {key[0]} report at seed {run['seed']} differs "
                      f"({old[:12]} -> {run['report_sha256'][:12]})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
