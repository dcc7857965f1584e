#!/usr/bin/env python3
"""End-to-end benchmark of netmon: builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

BENCHMARK.json lists the gated workloads (bin_cycle, scale_whatif); the
open-loop query_mix and query_repeat run the same way (NOTES.md says why
they are not gated). Run from the repository root. The first run
configures and builds the netmon library plus perfbench/src into
.bench_build/perfbench (Release); later runs only check that the build is
current. The benchmark binary prints
progress and a PERFBENCH_RESULT line; this script prints the progress,
a comparison against the recorded baseline of the same hardware class
(perfbench/baselines.json; "no baseline" on an unrecorded class), and as
its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1), each as {"value": v, "unit": u}.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "netmon_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("netmon sources (src/) not found next to perfbench/")
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def compare_with_baseline(hw_class, workload, metrics):
    """Prints the deltas against the same hardware class's baseline."""
    try:
        with open(os.path.join(HERE, "baselines.json")) as f:
            baselines = json.load(f)
    except (OSError, ValueError):
        baselines = {}
    base = baselines.get("classes", {}).get(hw_class, {}).get(workload)
    if base is None:
        print("baseline: no baseline for class '%s'" % hw_class)
        return
    for name, metric in metrics.items():
        if name in base:
            now = metric["value"]
            ref = base[name]
            delta = (now - ref) / ref if ref else 0.0
            print("baseline: %-22s %.6g vs %.6g (%+.1f%%)"
                  % (name, now, ref, 100.0 * delta))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    result = None
    for line in lines:
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if run.returncode != 0 or result is None:
        fail("benchmark exited with code %d" % run.returncode)

    values = result["layer"] if args.trace else result["e2e"]
    unknown = set(values) - {m["name"] for m in metrics}
    if unknown:
        fail("metrics not declared in BENCHMARK.json: %s" % sorted(unknown))
    out = {}
    for metric in metrics:
        value = values.get(metric["name"])
        if value is None:
            if not args.trace:
                fail("metric %s missing from the run" % metric["name"])
            value = 0  # a layer this workload does not exercise
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print("hardware: " + result["hardware"]["class"])
    compare_with_baseline(result["hardware"]["class"], args.workload, out)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": out}))


if __name__ == "__main__":
    main()
