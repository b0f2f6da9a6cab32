#!/usr/bin/env python3
"""Repeats the benchmark the way it is judged and reports how steady each
end-to-end metric is: two back-to-back sets of ten seeds per workload; for
each set the median, first and third quartile, and the quartile spread as a
share of the median; and how far the second set's median moved from the
first's, next to the metric's bound.

    python3 perfbench/stability.py [--sets 2] [--first-seed 1]
                                   [--workloads image_20hz,forensic_audit]

Exits 1 when a run failed or was incorrect, when a spread exceeds its
bound, or when a later set's median is worse than the first set's by more
than the bound. A spread within a third of the bound is the target. Prints a
Markdown table (the stability record in README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Seeds per set, as the benchmark is judged.
RUNS = 10


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited with %d"
                         % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    # results[set][workload] = [result per seed]; sets run back to back.
    results = []
    seed = args.first_seed
    for _ in range(args.sets):
        results.append({})
        for workload in workloads:
            runs = []
            for i in range(RUNS):
                runs.append(run_once(workload, seed + i, bench["run_seconds"]))
                print("%s seed %d done" % (workload, seed + i), file=sys.stderr)
            results[-1][workload] = runs
        seed += RUNS

    rejected = False
    header = ["workload", "metric", "bound"]
    for s in range(args.sets):
        header += ["set %d median [Q1, Q3]" % (s + 1), "spread"]
    header += ["worst median move"]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for workload in workloads:
        runs = [r for results_set in results for r in results_set[workload]]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        wrong = sum(not r["correct"] for r in runs)
        rejected = rejected or failed > 0 or wrong > 0
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells = [workload, name, "%.2f" % bound]
            medians = []
            for results_set in results:
                values = [r["metrics"][name]["value"]
                          for r in results_set[workload]]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                medians.append(median)
                rejected = rejected or spread > bound
                cells += ["%.4g [%.4g, %.4g] %s" % (median, q1, q3, m["unit"]),
                          "%.3f%s" % (spread, "" if spread <= bound / 3
                                      else " *" if spread <= bound else " !")]
            sign = 1 if m["better"] == "lower" else -1
            # + 0.0 turns a -0.0 into 0.0 for printing.
            worst = max(sign * (x - medians[0]) / medians[0]
                        for x in medians) + 0.0
            rejected = rejected or worst > bound
            cells.append("%+.3f" % worst)
            print("| " + " | ".join(cells) + " |")
        print("| %s | operations | | %d attempted, %d failed, %d incorrect "
              "runs |%s" % (workload, attempted, failed, wrong,
                            " |" * (len(header) - 4)))
    print("\n`*` spread above a third of the bound, `!` above the bound; "
          "a positive median move is a change for the worse.")
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main())
