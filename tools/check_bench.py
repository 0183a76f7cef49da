#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh BENCH_*.json against a committed
baseline and fail when a throughput metric regresses beyond the tolerance.

Usage:
  check_bench.py --baseline bench/baselines/BENCH_sim.json \
                 --current build/BENCH_sim.json \
                 [--metrics frames_per_sec,batch_frames_per_sec] \
                 [--lower-metrics open_loop_p99_ms] \
                 [--parallel-metrics batch_speedup] \
                 [--max-regress 0.20]

Only named metrics are checked. --metrics are higher-is-better (throughput):
only downward moves fail. --lower-metrics are lower-is-better (latency
percentiles): only upward moves fail. --parallel-metrics are higher-is-better
metrics that only mean anything on a multi-core host (thread-fan-out
speedups): they gate exactly like --metrics, but are skipped with a notice
unless BOTH documents record host_cores > 1 — a 1-CPU runner measures ~1.0x
for every parallel speedup no matter how good the code is, and a baseline
recorded on a 1-CPU host has nothing meaningful to hold a beefy runner to.
CI machines differ, so an improvement is never an error, and the tolerance
absorbs normal scheduler noise. The tolerance can also be set via the
SHENJING_BENCH_MAX_REGRESS environment variable (the flag wins).

Exit codes: 0 pass, 1 regression, 2 bad invocation/missing data.
"""

import argparse
import json
import os
import sys


def fail(msg: str, code: int = 2) -> None:
    print(f"check_bench: {msg}", file=sys.stderr)
    sys.exit(code)


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: expected a JSON object")
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True, help="committed baseline JSON")
    ap.add_argument("--current", required=True, help="freshly measured JSON")
    ap.add_argument(
        "--metrics",
        default="frames_per_sec,batch_frames_per_sec",
        help="comma-separated higher-is-better metrics to gate on",
    )
    ap.add_argument(
        "--lower-metrics",
        default="",
        help="comma-separated lower-is-better metrics (latency percentiles)",
    )
    ap.add_argument(
        "--parallel-metrics",
        default="",
        help="comma-separated higher-is-better metrics gated only when both "
        "baseline and current report host_cores > 1",
    )
    ap.add_argument(
        "--max-regress",
        type=float,
        default=None,
        help="allowed fractional drop vs baseline (default 0.20)",
    )
    args = ap.parse_args()

    tolerance = args.max_regress
    if tolerance is None:
        env = os.environ.get("SHENJING_BENCH_MAX_REGRESS", "")
        try:
            tolerance = float(env) if env else 0.20
        except ValueError:
            fail(f"SHENJING_BENCH_MAX_REGRESS={env!r} is not a number")
    if not 0.0 <= tolerance < 1.0:
        fail(f"--max-regress {tolerance} outside [0, 1)")

    baseline = load(args.baseline)
    current = load(args.current)

    def numeric(doc: dict, metric: str, which: str) -> float:
        value = doc.get(metric)
        if not isinstance(value, (int, float)):
            fail(f"{which} has no numeric metric {metric!r}")
        return value

    failures = []
    print(f"check_bench: {args.current} vs {args.baseline} "
          f"(tolerance {tolerance:.0%})")

    def gate_higher(metric: str) -> None:
        base = numeric(baseline, metric, "baseline")
        cur = numeric(current, metric, "current run")
        floor = base * (1.0 - tolerance)
        verdict = "OK" if cur >= floor else "REGRESSED"
        print(f"  {metric}: baseline {base:.1f}, current {cur:.1f}, "
              f"floor {floor:.1f} -> {verdict}")
        if cur < floor:
            failures.append(metric)

    for metric in [m.strip() for m in args.metrics.split(",") if m.strip()]:
        gate_higher(metric)

    parallel = [m.strip() for m in args.parallel_metrics.split(",") if m.strip()]
    if parallel:
        base_cores = baseline.get("host_cores")
        cur_cores = current.get("host_cores")
        multi = (isinstance(base_cores, (int, float)) and base_cores > 1 and
                 isinstance(cur_cores, (int, float)) and cur_cores > 1)
        if multi:
            for metric in parallel:
                gate_higher(metric)
        else:
            # One explicit line per metric so a log grep for a metric name
            # always finds its verdict — OK, REGRESSED, or SKIPPED.
            hosts = []
            if not (isinstance(base_cores, (int, float)) and base_cores > 1):
                hosts.append("baseline")
            if not (isinstance(cur_cores, (int, float)) and cur_cores > 1):
                hosts.append("current")
            reason = f"host_cores<=1 on {'/'.join(hosts)}"
            for metric in parallel:
                print(f"  SKIPPED: {metric} ({reason})")
    for metric in [m.strip() for m in args.lower_metrics.split(",") if m.strip()]:
        base = numeric(baseline, metric, "baseline")
        cur = numeric(current, metric, "current run")
        ceiling = base * (1.0 + tolerance)
        verdict = "OK" if cur <= ceiling else "REGRESSED"
        print(f"  {metric}: baseline {base:.3f}, current {cur:.3f}, "
              f"ceiling {ceiling:.3f} -> {verdict} (lower is better)")
        if cur > ceiling:
            failures.append(metric)

    if failures:
        print(f"check_bench: FAILED on {', '.join(failures)} — if the slowdown "
              "is intended, refresh the baseline under bench/baselines/",
              file=sys.stderr)
        return 1
    print("check_bench: all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
