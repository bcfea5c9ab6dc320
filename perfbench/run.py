#!/usr/bin/env python3
"""Builds and runs the mgc repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list        # every metric, its unit and meaning
    python3 perfbench/run.py --self-test   # exact counts repeat and agree

The script configures and builds perfbench/CMakeLists.txt (which compiles
the mgc libraries from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench under the checkout, then runs the benchmark binary.
Build output goes to stderr; the last stdout line is the result JSON, whose
metric names and units are checked against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["compile-mix", "destroy-3m-gc2", "server-gen"]
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    # Keep the compiler's temporary files inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(
        ["cmake", "--build", build_dir, "-j", BUILD_JOBS, "--target",
         "perfbench"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the parsed, validated result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--root", ROOT]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, r.returncode))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result keys")
    want = spec()["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in want):
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(got) ^ {m["name"] for m in want}))
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            fail("unit of %s differs from BENCHMARK.json" % m["name"])
    return result


def self_test(binary):
    """Exact counts repeat across processes.  (Within a run, destroy-3m-gc2
    also checks that the serial collector agrees with the parallel one: the
    N>1 determinism contract.)  A mismatch fails."""
    exact_layer = ["vm.instrs", "gc.collections", "gc.bytes_copied"]
    exact_e2e = ["code_bytes", "table_bytes"]
    ok = True
    for w in WORKLOADS:
        runs = [run_workload(binary, w, 1, 1, 1) for _ in range(2)]
        ends = [run_workload(binary, w, 1, 1, 0) for _ in range(2)]
        for res in runs + ends:
            if not res["correct"] or res["failed"]:
                print("FAIL %s: run reported failures" % w)
                ok = False
        for names, pair in ((exact_layer, runs), (exact_e2e, ends)):
            for n in names:
                a, b = (p["metrics"][n]["value"] for p in pair)
                if a != b:
                    print("FAIL %s: %s %r != %r" % (w, n, a, b))
                    ok = False
    print("self-test: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=32)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--list", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (args.list or args.self_test or args.workload):
        ap.error("one of --workload, --list or --self-test is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.list:
        return subprocess.run([binary, "--list"]).returncode
    if args.self_test:
        return self_test(binary)
    result = run_workload(binary, args.workload, args.seed, args.seconds,
                          args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
