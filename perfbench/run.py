#!/usr/bin/env python3
"""Coupled-SYPD benchmark entry point.

    python3 perfbench/run.py --workload ocean_r4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout. On first use it configures and builds
perfbench/sypd_bench, together with the model libraries under src/, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs only
re-check the build. It then runs the benchmark, whose last line of standard
output is the JSON result. Checkpoints, Chrome traces and ledgers go to the
work/ directory beside the binary. See perfbench/README.md.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORKLOADS = ("ocean_r4", "ocean_r1", "ai_coupled")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures once, then brings sypd_bench up to date; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: model sources not found at src/ in the checkout")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(bdir), "-j", jobs, "--target", "sypd_bench"],
        stdout=sys.stderr, check=True)
    return bdir / "sypd_bench"


def bench_args(binary, workload, seed, seconds, trace, extra=()):
    return [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(binary.parent / "work"), *extra]


def run_captured(binary, workload, seed, seconds, trace, extra=()):
    """Runs the benchmark and returns its parsed last line (None if absent)."""
    proc = subprocess.run(
        bench_args(binary, workload, seed, seconds, trace, extra),
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def self_check(binary):
    """Short runs of every workload in both modes: each prints every metric
    BENCHMARK.json names, with its unit, and the witnesses pass; then a run
    handed a wrong expected hash must report itself incorrect."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            res = run_captured(binary, workload, 1, 1, trace)
            if res is None or set(res) != RESULT_KEYS:
                failures.append(f"{label}: no result line")
                continue
            if not (res["correct"] is True and res["failed"] == 0
                    and res["attempted"] >= 1):
                failures.append(f"{label}: run reported incorrect")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want:
                failures.append(f"{label}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            print(f"{label}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"    {name:26s} {m['value']:<22.8g} {m['unit']}")
    res = run_captured(binary, "ocean_r1", 0, 1, 0,
                       ("--expect-hash", "0123456789abcdef"))
    caught = res is not None and res["correct"] is False and res["failed"] >= 1
    print(f"wrong expected hash caught: {caught}")
    if not caught:
        failures.append("a wrong expected hash was not reported as a failure")
    for f in failures:
        print(f"SELF-CHECK FAILED: {f}")
    print("self-check", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.self_check:
        return self_check(binary)
    try:
        proc = subprocess.run(
            bench_args(binary, args.workload, args.seed, args.seconds,
                       args.trace),
            cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
