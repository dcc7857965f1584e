#!/usr/bin/env python3
"""Determinism self-check of the end-to-end benchmark.

    python3 perfbench/selftest.py [workload ...]

Runs each workload (default: all) for a fixed number of ops instead of a
time budget, twice with one seed and once with another. In that mode the
open-loop workloads send one request at a time, so every count the run
reports must repeat exactly: the generated input stream (hashed), cache
hits / misses / warm starts, control re-solves and pushes, solver
iterations, and ingest offered / sampled packets and exported records.
A different seed must give a different input stream. Every run must also
pass all correctness gates. Exits non-zero on any mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (build helpers and paths)

# query_repeat crosses one GEANT republish (every 10000 requests).
OPS = {"bin_cycle": 12, "query_mix": 200, "query_repeat": 10200,
       "scale_whatif": 1}


def once(workload, seed):
    command = [run.BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", "60", "--trace", "0", "--ops",
               str(OPS[workload])]
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         timeout=run.RUN_TIMEOUT_S)
    for line in out.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            return json.loads(line[len("PERFBENCH_RESULT "):])
    raise RuntimeError("%s seed %d: no result (exit %d)"
                       % (workload, seed, out.returncode))


def check(workload):
    first, again, other = once(workload, 7), once(workload, 7), once(workload, 8)
    problems = []
    for name, r in (("seed 7", first), ("seed 7 again", again),
                    ("seed 8", other)):
        if not r["correct"]:
            problems.append("%s failed gates: %s" % (name, r["gate_failures"]))
    if first["stream_hash"] != again["stream_hash"]:
        problems.append("same seed, different input stream")
    if first["counts"] != again["counts"]:
        diff = {k: (first["counts"].get(k), again["counts"].get(k))
                for k in set(first["counts"]) | set(again["counts"])
                if first["counts"].get(k) != again["counts"].get(k)}
        problems.append("same seed, different counts: %s" % diff)
    if first["stream_hash"] == other["stream_hash"]:
        problems.append("different seeds, same input stream")
    print("%-13s %s  counts %s" % (workload, "ok" if not problems else "FAIL",
                                   json.dumps(first["counts"], sort_keys=True)))
    for problem in problems:
        print("    " + problem)
    return not problems


def main():
    run.build()
    workloads = sys.argv[1:] or list(OPS)
    results = [check(w) for w in workloads]
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
