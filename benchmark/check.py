#!/usr/bin/env python3
"""Run the benchmark the way its driver does and judge it by its own bounds.

    python3 benchmark/check.py                       # every workload once, traced too
    python3 benchmark/check.py --runs 10 --sets 2    # self-check

Reads `BENCHMARK.json` from the current directory (the root of a checkout)
and runs its `command` once per workload and seed. With one set it prints
every metric by name and unit. With `--runs N --sets 2` it takes, per
workload and end-to-end metric, the N values of each set (one seed each),
prints the median and the quartile spread as a share of the median, and
exits non-zero if a spread (except `setup_s`) or the drift of the second
set's median over the first exceeds the metric's bound, or if any run
reports a failed operation.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--runs", type=int, default=1, help="runs (seeds) per workload and set")
    ap.add_argument("--sets", type=int, default=1, help="sets of runs; 2 compares their medians")
    ap.add_argument("--seed", type=int, default=20030901, help="first seed")
    ap.add_argument("--workload", action="append", help="only this workload (repeatable)")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bad = []
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = [run_once(spec, workload, args.seed + i, 0) for i in range(args.runs)]
            sets.append(runs)
            sent = sum(r["attempted"] for r in runs)
            print(f"{workload} set {s + 1}: {len(runs)} runs, {sent} attempted, 0 failed")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            line = f"  {name:<18} {medians[0]:>12.4f} {metric['unit']:<5}"
            if args.runs >= 2:
                spreads = [spread(v) for v in values]
                line += f" spread {max(spreads):6.1%} (bound {bound:.0%})"
                if name != "setup_s" and max(spreads) > bound:
                    bad.append(f"{workload} {name}: spread {max(spreads):.1%} > {bound:.0%}")
            if args.sets >= 2:
                worse = medians[1] / medians[0] - 1
                if metric["better"] == "higher":
                    worse = medians[0] / medians[1] - 1
                line += f" second set {worse:+6.1%}"
                if worse > bound:
                    bad.append(f"{workload} {name}: second set worse by {worse:.1%} > {bound:.0%}")
            print(line)
            if args.runs >= 2:
                for v in values:
                    print("      " + " ".join(f"{x:.4g}" for x in v))
        if args.runs == 1:
            traced = run_once(spec, workload, args.seed, 1)
            for name, m in traced["metrics"].items():
                print(f"  {name:<32} {m['value']:>14.4f} {m['unit']}")
    for line in bad:
        print("OUT OF BOUND:", line)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
