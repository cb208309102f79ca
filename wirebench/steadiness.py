#!/usr/bin/env python3
"""Steadiness report for the wire-level benchmark.

Runs the command in BENCHMARK.json several times per workload, each time
with another --seed, in one or more sets, and writes per set, workload and
end-to-end metric the median, quartiles (statistics.quantiles(values, n=4)),
min and max, the quartile spread as a share of the median next to the
metric's bound, and each run's host steal seconds and nproc. The sets run
alternately, run k of every set before run k + 1 of any and the order
within a round reversed every other round, as A/B pairs of a parent and a
change would, so a host that changes speed midway moves every set alike.
With two or more sets it also compares every later set's medians with the
first set's in both directions: the change counts from whichever median
is smaller, so a set that happened to run faster is held to the bound as
well. Every metric, setup_s included, is checked. Run it from the
repository root:

    python3 wirebench/steadiness.py --runs 10 --sets 2 --out wirebench/STEADINESS.md
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    began = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - began
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diagnostics = next((json.loads(line)["diagnostics"] for line in lines
                        if line.startswith('{"diagnostics"')), {})
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}\n{done.stderr}")
    return result, diagnostics, elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    # runs[(set, workload)] = [(seed, result, diagnostics, elapsed)]
    runs = {}
    for workload in workloads:
        for k in range(args.runs):
            for s in (range(args.sets) if k % 2 == 0 else reversed(range(args.sets))):
                seed = args.first_seed + 100 * s + k
                result, diagnostics, elapsed = run_once(
                    bench["command"], workload, seed, bench["run_seconds"])
                runs.setdefault((s, workload), []).append((seed, result, diagnostics, elapsed))
                print(f"set {s + 1} {workload} seed {seed}: {elapsed:.1f} s "
                      f"steal {diagnostics.get('steal_s', 0):.2f} "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in result["metrics"].items()),
                      flush=True)

    report = ["# Steadiness report", "",
              f"{args.sets} set(s) of {args.runs} runs per workload of "
              f"`{' '.join(bench['command'])}` with `--seconds {bench['run_seconds']}`, "
              "each run with its own seed; the sets ran alternately, run k of every "
              "set before run k + 1 of any, the order within a round reversed every "
              "other round. Spread is (q3 - q1) / median with "
              "statistics.quantiles(values, n=4); every metric's spread, setup_s "
              "included, must stay within the metric's bound and should stay below "
              "a third of it. Generated by `python3 wirebench/steadiness.py`.", ""]
    medians = {}
    checks = []
    for s in range(args.sets):
        seeds = [args.first_seed + 100 * s + k for k in range(args.runs)]
        report += [f"## Set {s + 1} (seeds {seeds[0]}..{seeds[-1]})", ""]
        for workload in workloads:
            set_runs = runs[(s, workload)]
            report += [f"### {workload}", "",
                       "| metric | unit | median | q1 | q3 | min | max | spread | bound "
                       "| spread/bound |",
                       "|---|---|---|---|---|---|---|---|---|---|"]
            for name, metric in metrics.items():
                values = [r[1]["metrics"][name]["value"] for r in set_runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                ratio = spread / metric["bound"]
                medians[(s, workload, name)] = med
                checks.append((ratio, f"set {s + 1} spread {workload}/{name}"))
                report.append(f"| {name} | {metric['unit']} | {med:.6g} | {q1:.6g} | "
                              f"{q3:.6g} | {min(values):.6g} | {max(values):.6g} | "
                              f"{spread:.4f} | {metric['bound']} | {ratio:.2f} |")
            report += ["", "| seed | points | requests | wall s | steal s | nproc | run s |",
                       "|---|---|---|---|---|---|---|"]
            for seed, result, diagnostics, elapsed in set_runs:
                report.append(f"| {seed} | {result['attempted']} | "
                              f"{diagnostics.get('requests', '?')} | "
                              f"{diagnostics.get('wall_s', 0):.3f} | "
                              f"{diagnostics.get('steal_s', 0):.2f} | "
                              f"{diagnostics.get('nproc', '?')} | {elapsed:.1f} |")
            report.append("")
    if args.sets > 1:
        report += ["## Set medians against set 1", "",
                   "Change between each set's median and set 1's as a share of the "
                   "smaller of the two, signed so that positive means the later set "
                   "reads worse; its size must stay within the bound either way.", "",
                   "| workload | metric | set 1 median | "
                   + " | ".join(f"set {s + 1} median | change" for s in range(1, args.sets))
                   + " | bound |",
                   "|---|---|---|" + "---|---|" * (args.sets - 1) + "---|"]
        for workload in workloads:
            for name, metric in metrics.items():
                first = medians[(0, workload, name)]
                cells = []
                for s in range(1, args.sets):
                    later = medians[(s, workload, name)]
                    change = (later - first) / min(first, later)
                    if metric["better"] == "higher":
                        change = -change
                    cells.append(f"{later:.6g} | {change:+.4f}")
                    checks.append((abs(change) / metric["bound"],
                                   f"set {s + 1} drift {workload}/{name}"))
                report.append(f"| {workload} | {name} | {first:.6g} | "
                              + " | ".join(cells) + f" | {metric['bound']} |")
        report.append("")
    checks.sort(reverse=True)
    failing = [label for ratio, label in checks if ratio > 1.0]
    above_third = [label for ratio, label in checks if 1.0 / 3.0 < ratio <= 1.0]
    summary = ", ".join(f"{label} {ratio:.2f}" for ratio, label in checks[:6])
    report += ["## Verdict", "",
               f"Largest ratios to the bound: {summary}.", "",
               f"Beyond the bound ({len(failing)} of {len(checks)} checks): "
               + (", ".join(failing) or "none") + ".", "",
               f"Within the bound but above a third of it ({len(above_third)}): "
               + (", ".join(above_third) or "none") + ".", ""]
    print("largest ratios to the bound:", summary)
    print("beyond the bound:", ", ".join(failing) or "none")
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n".join(report))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
