#!/usr/bin/env python3
"""End-to-end benchmark runner for InsightAlign.

    python3 perfbench/run.py --workload archive|kfold|recommend|serve \
        --seed N --seconds S --trace 0|1

Builds the program and the benchmark from source (Release, into
.bench_build/perfbench at the repository root), runs one measurement in a
fresh, empty INSIGHTALIGN_CACHE_DIR, writes a run record with the host
fingerprint to .bench_build/out/, and prints the result as one JSON object
on the last line of stdout. With --trace 0 it first starts SETUP_SAMPLES - 1
set-up-only processes; setup_s is the median of their set-up times and the
measuring process's own, so each sample is a cold set-up in a fresh
process.

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything else (build log, per-layer tables, host summary) goes to
stderr. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
# Compiler and program temporaries stay inside the checkout too.
TMP = ROOT / ".bench_build" / "tmp"
WORKLOADS = ("archive", "kfold", "recommend", "serve")
# A run (set-up samples and measurement, not the build) ends within this.
RUN_TIMEOUT_S = 170
SETUP_SAMPLES = 3


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    TMP.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(TMP))
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if proc.returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(1)
    return BUILD / "perfbench"


def cmake_cache(key):
    try:
        text = (BUILD / "CMakeCache.txt").read_text()
    except OSError:
        return None
    m = re.search(r"^" + re.escape(key) + r":[A-Z]+=(.*)$", text, re.M)
    return m.group(1) if m else None


def source_digest():
    """sha256 over the program and benchmark sources, for runs outside git."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def host_fingerprint(diagnostics):
    cpu = platform.processor() or "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True).stdout.splitlines()[0]
        except (OSError, IndexError):
            pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": version or compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "kernel_isa": diagnostics.get("kernel_isa"),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "calibration_triad_gbps": diagnostics.get("calibration_triad_gbps"),
    }


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def cpu_ticks():
    """(steal, total) jiffies of the host's CPUs so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_binary(binary, args, tag, deadline):
    """Runs the benchmark binary in a fresh, empty INSIGHTALIGN_CACHE_DIR;
    returns the JSON object on its last stdout line."""
    cache = ROOT / ".bench_build" / "run" / f"{tag}-{os.getpid()}"
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    env = dict(os.environ, INSIGHTALIGN_CACHE_DIR=str(cache), TMPDIR=str(TMP))
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, env=env,
                              cwd=str(ROOT),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        sys.exit(1)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: benchmark exited with {proc.returncode}")
        sys.exit(1)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    binary = build()
    OUT.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            sample = run_binary(binary, common + ["--setup-only", "1"],
                                tag + "-setup", deadline)
            setups.append(sample)
    steal0, total0 = cpu_ticks()
    result = run_binary(binary, common + [
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(OUT)], tag, deadline)
    steal1, total1 = cpu_ticks()
    # Share of CPU time the hypervisor gave to other guests while the
    # measuring process ran: a diagnostic that explains slow runs.
    result["diagnostics"]["host_steal_share"] = (
        (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0)

    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        log("perfbench: metrics disagree with BENCHMARK.json:",
            sorted(set(got.items()) ^ set(want.items())))
        sys.exit(1)
    if result["attempted"] != result["ok"] + result["failed"]:
        log("perfbench: attempted != ok + failed")
        result["correct"] = False
    if setups:
        samples = [s["setup_s"] for s in setups]
        samples.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)
        result["diagnostics"]["setup_s_samples"] = samples
        if not all(s["correct"] for s in setups):
            log("perfbench: a set-up-only process failed its checks")
            result["correct"] = False

    host = host_fingerprint(result.get("diagnostics", {}))
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host)
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    log(f"perfbench: host nproc={host['nproc']} cpu='{host['cpu_model']}' "
        f"compiler='{host['compiler']}' build={host['build_type']} "
        f"isa={host['kernel_isa']} commit={host['git_commit']} "
        f"triad={host['calibration_triad_gbps']:.2f} GB/s "
        f"steal={result['diagnostics']['host_steal_share']:.3f}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))


if __name__ == "__main__":
    main()
