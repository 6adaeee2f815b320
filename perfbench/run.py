#!/usr/bin/env python3
"""Repository benchmark: one seeded workload, timed on the host.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the library and the benchmark binary from
source (Release) into .bench_build/ (or $CARGO_TARGET_DIR), then:

  --trace 0  times set-up (process start to the first iteration, median of
             SETUP_RUNS starts) and iterations of the workload, and prints the
             end-to-end metrics of BENCHMARK.json;
  --trace 1  alternates untraced and traced iterations, writes the spans as
             Chrome trace-event JSON to .bench_build/traces/, and prints the
             per-layer metrics of BENCHMARK.json.

Every run checks the simulated outputs (conservation identities, repeatable
digests; at the recorded seed, the digest in perfbench/digests.json). The
last line of stdout is {"correct", "attempted", "failed", "metrics"}; the
line before it is the run's provenance.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD_DIR, "perfbench")
SETUP_RUNS = 15
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "build.ninja")) and not os.path.exists(
        os.path.join(BUILD_DIR, "Makefile")
    ):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(len(os.sched_getaffinity(0)))])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown: git not available"
    return out.stdout.strip() if out.returncode == 0 else "unknown: not a git checkout"


def setup_seconds(cmd):
    """Median time from starting the benchmark binary to its "ready" line."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd + ["--setup-only"], stdout=subprocess.PIPE, text=True)
        line = p.stdout.readline()
        times.append(time.perf_counter() - t0)
        p.stdout.read()
        if p.wait() != 0 or line.strip() != "ready":
            fail("set-up run failed")
    return statistics.median(times)


def run_workload(spec, recorded, workload, args):
    """Runs one workload; returns (lines to print first, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    setup_s = setup_seconds(cmd) if args.trace == 0 else None
    if args.seed == recorded["seed"] and workload in recorded["digests"]:
        cmd += ["--expect-digest", recorded["digests"][workload]]
    if args.trace == 1:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(trace_dir, f"{workload}-seed{args.seed}.json")]

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark binary exited with {proc.returncode}")
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    if sorted(metrics) != sorted(m["name"] for m in wanted) or any(
        metrics[m["name"]]["unit"] != m["unit"] for m in wanted
    ):
        fail("benchmark metrics do not match BENCHMARK.json")
    lines = lines[:-1] + [json.dumps({"provenance": result["provenance"],
                                      "digest": result["digest"]})]
    return lines, {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH_DIR, "digests.json")) as f:
        recorded = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    build()
    if args.workload != "all":
        lines, result = run_workload(spec, recorded, args.workload, args)
        print("\n".join(lines))
        print(json.dumps(result))
        return
    # One table of every workload's metrics, with the checks as
    # check_fail_frac; the last line maps each workload to its result.
    results = {}
    for name in names:
        _, results[name] = run_workload(spec, recorded, name, args)
        r = results[name]
        shown = {k: f"{v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items()}
        shown["check_fail_frac"] = f"{r['failed'] / r['attempted']:.6g} ratio"
        print(f"{name}: " + ", ".join(f"{k} = {v}" for k, v in shown.items()))
    print(json.dumps(results))


if __name__ == "__main__":
    main()
