#!/usr/bin/env python3
"""Interleaved before/after runs of the coupled-SYPD benchmark.

    python3 tools/perfbench_pairs.py PARENT CHANGE \\
        [--workloads ocean_r4 ocean_r1 ai_coupled] [--pairs 5] [--seconds 25]

PARENT and CHANGE are two checkouts of the repository (for example the parent
commit extracted with `git archive <sha> | tar -x -C <dir>`, and the working
tree). For every workload the script runs `perfbench/run.py --trace 0` once in
each checkout per pair, with seed = pair number, and alternates which checkout
runs first, so host drift over minutes lands on both sides alike. Each
checkout builds into its own CARGO_TARGET_DIR, <checkout>/.bench_build.

It prints every run's end-to-end metrics, then per workload and metric the
median of each side, the parent's interquartile range, how many pairs the
change won, and whether the change's median is worse than the parent's by
more than the metric's BENCHMARK.json bound. It only reads BENCHMARK.json and
writes nothing to either checkout except the build directories.
"""
import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

WORKLOADS = ("ocean_r4", "ocean_r1", "ai_coupled")


def run_once(checkout, workload, seed, seconds):
    """Runs one untraced measurement in `checkout`; returns its result line."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(checkout / ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit(f"perfbench_pairs: no result from {checkout} ({workload})")


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be >= 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {checkout} has no perfbench/run.py")
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]

    failed_runs = 0
    for workload in args.workloads:
        values = {side: {m["name"]: [] for m in metrics} for side in sides}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                                 "parent")
            for side in order:
                res = run_once(sides[side], workload, pair + 1, args.seconds)
                if not res["correct"] or res["failed"]:
                    failed_runs += 1
                shown = []
                for m in metrics:
                    value = res["metrics"][m["name"]]["value"]
                    values[side][m["name"]].append(value)
                    shown.append(f"{m['name']}={value:.6g}")
                print(f"{workload} pair {pair + 1} {side:6s} "
                      f"correct={res['correct']} failed={res['failed']} "
                      + " ".join(shown), flush=True)
        print(f"\n{workload}: {args.pairs} interleaved pairs, "
              f"{args.seconds} s per run")
        print(f"  {'metric':12s} {'parent':>11s} {'change':>11s} {'delta':>8s}"
              f" {'parent IQR':>11s} {'won':>6s}  bound")
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            before, after = values["parent"][name], values["change"][name]
            med_before = statistics.median(before)
            med_after = statistics.median(after)
            delta = (med_after - med_before) / med_before if med_before else 0.0
            won = sum((a > b) if higher else (a < b)
                      for a, b in zip(after, before))
            worse = -delta if higher else delta
            verdict = "EXCEEDED" if worse > m["bound"] else "within"
            print(f"  {name:12s} {med_before:11.5g} {med_after:11.5g} "
                  f"{delta:+8.1%} {quartile_spread(before):11.4g} "
                  f"{won:>2d}/{args.pairs:<3d}  {verdict} {m['bound']:.0%}")
        print(flush=True)
    if failed_runs:
        print(f"{failed_runs} run(s) reported incorrect or failed operations")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
