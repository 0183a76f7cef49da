#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <mlp-batch|mlp-shard> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (the library sources plus the benchmark, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, without a result,
when the library sources are missing or the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# A run takes --seconds plus its set-up and, traced, about 20 s of probes.
RUN_TIMEOUT_BASE_S = 90
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
        return False
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return False


def build(root, build_dir):
    if not (root / "src" / "sim" / "engine.h").is_file():
        fail(f"library sources not found under {root / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        if not run_logged(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            fail("cmake configure failed")
    if not run_logged(["cmake", "--build", str(build_dir), "-j", jobs], BUILD_TIMEOUT_S):
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    build(root, build_dir)

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", str(target / "traces")]
    timeout = RUN_TIMEOUT_BASE_S + 2 * args.seconds
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(out)
        fail("the last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result line has the wrong keys")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
