#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Checks that:
  * the same seed generates identical inputs and another seed different
    ones, for every workload (perfbench --describe-inputs);
  * every metric name matches [A-Za-z0-9_.-]+ and the metrics the binary
    emits agree, name and unit, with BENCHMARK.json;
  * a short run (one serve run, the cheapest workload) reports
    attempted == ok + failed, where attempted counts the requests the
    client sent and ok/failed count the responses by outcome, and that its
    setup_s is the median of SETUP_SAMPLES cold set-ups.
Builds the benchmark first, like run.py. Exits non-zero on any failure.
"""

import json
import re
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the source tree clean
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check(cond, what, failures):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def describe(binary, workload, seed):
    return subprocess.run([str(binary), "--describe-inputs", workload, "--seed",
                           str(seed)], capture_output=True, text=True,
                          check=True).stdout


def main():
    failures = []
    binary = run.build()

    for w in run.WORKLOADS:
        a, b, c = (describe(binary, w, s) for s in (7, 7, 8))
        check(a == b and a, f"{w}: seed 7 gives identical inputs twice", failures)
        check(a != c, f"{w}: seeds 7 and 8 give different inputs", failures)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = subprocess.run([str(binary), "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    emitted = {"end_to_end": {}, "per_layer": {}}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        emitted[kind][name] = unit
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        check(declared == emitted[kind],
              f"{kind} metrics agree with BENCHMARK.json", failures)
        bad = [n for n in declared if not NAME.fullmatch(n)]
        check(not bad, f"{kind} metric names match [A-Za-z0-9_.-]+ {bad}",
              failures)
    check(any(m["name"] == "setup_s" for m in spec["end_to_end"]),
          "setup_s is an end-to-end metric", failures)

    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"),
                           "--workload", "serve", "--seed", "3", "--seconds",
                           "1", "--trace", "0"], capture_output=True, text=True)
    check(proc.returncode == 0, "a 1 s serve run exits 0", failures)
    if proc.returncode == 0:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((run.OUT / "run-serve-seed3-trace0.json").read_text())
        check(record["attempted"] == record["ok"] + record["failed"],
              "attempted (requests sent) == ok + failed (responses)",
              failures)
        samples = record["diagnostics"]["setup_s_samples"]
        check(len(samples) == run.SETUP_SAMPLES and
              result["metrics"]["setup_s"]["value"] == statistics.median(samples),
              f"setup_s is the median of {run.SETUP_SAMPLES} cold set-ups",
              failures)
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              "result line has exactly the contract keys", failures)
        check(result["failed"] == 0 and result["correct"],
              "the serve run has no failed op", failures)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
