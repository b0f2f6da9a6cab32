#!/usr/bin/env python3
"""End-to-end ADLP benchmark: builds the library and the benchmark program
(adlp_perfbench) from source, then runs one workload and prints its result
as the last line of stdout.

    python3 perfbench/run.py --workload <image_20hz|steering_repl3|forensic_audit>
                             --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), scratch files and per-run details to
.bench_build/perfbench-work. The result reports the metrics BENCHMARK.json
names for the trace mode, in its order and with its units, and fails when
the program did not measure one. See perfbench/README.md for the workloads
and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must finish within 180 s once the program is built.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, base)), "perfbench")


def build(out_dir):
    """Configures (once) and builds adlp_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no ADLP sources at %s/src; run from a checkout "
                 "of the repository" % ROOT)
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "--target", "adlp_perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "adlp_perfbench")


def select_metrics(specs, measured):
    """The metrics `specs` (a list of BENCHMARK.json), in its order and with
    its units, valued from `measured`; KeyError names one not measured."""
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in specs}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    work = os.path.join(os.path.dirname(build_dir()), "perfbench-work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", work]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: adlp_perfbench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = bench["end_to_end" if args.trace == "0" else "per_layer"]
    try:
        metrics = select_metrics(specs, result["metrics"])
    except KeyError as e:
        sys.exit("perfbench: %s measured no %s, which BENCHMARK.json names"
                 % (args.workload, e))
    other = {name: value for name, value in sorted(result["metrics"].items())
             if name not in metrics}
    result["metrics"] = metrics
    # Details first, the result object last.
    sys.stdout.write("\n".join(lines[:-1] + [
        "also measured: %s" % json.dumps(other),
        "wall: %.1f s" % (time.monotonic() - start),
        json.dumps(result)]) + "\n")


if __name__ == "__main__":
    main()
