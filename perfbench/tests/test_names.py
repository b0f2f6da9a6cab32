#!/usr/bin/env python3
"""Runs every workload BENCHMARK.json names for one second, untraced and
traced, and checks that adlp_perfbench measures every metric BENCHMARK.json
names for that mode, and that the run is correct.

    python3 perfbench/tests/test_names.py <path to adlp_perfbench> <workdir>
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(HERE))
from run import ROOT, select_metrics  # noqa: E402


def main():
    binary, workdir = sys.argv[1], sys.argv[2]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = subprocess.run(
                [binary, "--workload", workload, "--seed", "1", "--seconds",
                 "1", "--trace", trace, "--workdir", workdir],
                stdout=subprocess.PIPE, text=True)
            what = "%s --trace %s" % (workload, trace)
            if proc.returncode != 0:
                errors.append("%s exited with %d" % (what, proc.returncode))
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            try:
                select_metrics(bench[key], result["metrics"])
            except KeyError as e:
                errors.append("%s measured no %s" % (what, e))
            if not result["correct"]:
                errors.append("%s was not correct" % what)
    for message in errors:
        print("FAIL " + message)
    if not errors:
        print("every workload measures every metric BENCHMARK.json names")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
