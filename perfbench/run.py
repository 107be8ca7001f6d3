#!/usr/bin/env python3
"""Builds and runs the repository benchmark; prints one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exec-p4 --seed 1 --seconds 20 --trace 0

The script builds the library and the harness from source into
.bench_build (or $CARGO_TARGET_DIR), repeats the workload's set-up in
fresh processes so that set-up time is reported as a median, runs the
timed phase once, and merges everything into the last line of standard
output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics. The full record (host stamp, source
digest, per-kind samples, failure causes) is written to
<build>/work/result-<workload>-<seed>-trace<k>.json.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

WORKLOADS = ("exec-p4", "service-stream", "planner-cold")

# Set-ups per run (one of them is the timed run's own); the reported
# setup_s is their median.
SETUP_REPEATS = {"exec-p4": 7, "service-stream": 9, "planner-cold": 9}

# Per-layer metrics of modules a workload never calls into; reported as 0.
NOT_CALLED = {
    "exec-p4": ("service.", "core.plan_cache."),
    "service-stream": (),
    "planner-cold": ("service.", "core.plan_cache."),
}

CHILD_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


def source_digest(root):
    """sha256 over the library and benchmark sources, path and content."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build(root, build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j4", "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    exe = os.path.join(build_dir, "perfbench")
    if not os.path.exists(exe):
        fail("build produced no perfbench binary")
    return exe


def run_child(cmd, env):
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           env=env, timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"exit code {p.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "src/CMakeLists.txt",
                   "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found; run from the root of a checkout", 2)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(root, ".bench_build"))
    work = os.path.join(build_dir, "work")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(work, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    # Compiler temporaries (the build's and the JIT's) stay in the checkout.
    os.environ["TMPDIR"] = tmp
    exe = build(root, build_dir)
    env = dict(os.environ, SPIRAL_JIT_CACHE_DIR=os.path.join(work, "jit"))

    base = [exe, "--workload", args.workload, "--seed", str(args.seed),
            "--work-dir", work]
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS[args.workload] - 1):
            setups.append(run_child(base + ["--setup-only"], env))
    main_run = run_child(base + ["--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], env)
    setups.append(main_run)

    attempted = sum(r["attempted"] for r in setups)
    failed = sum(r["failed"] for r in setups)
    correct = all(r["correct"] for r in setups) and failed == 0
    metrics = dict(main_run["metrics"])
    if not args.trace:
        metrics["setup_s"] = {
            "value": statistics.median(r["setup_s"] for r in setups),
            "unit": "s"}

    out = {}
    for m in wanted:
        name = m["name"]
        if name not in metrics:
            if args.trace and name.startswith(NOT_CALLED[args.workload]):
                out[name] = {"value": 0.0, "unit": m["unit"]}
                continue
            fail(f"metric {name} missing from the {args.workload} run")
        value = metrics[name]["value"]
        if value is None or not math.isfinite(value):
            fail(f"metric {name} is not a finite number")
        # A lower-is-better metric may read 0: idle_cpu_cores will once
        # idle workers park.
        if not args.trace and (value < 0 or
                               (value == 0 and m["better"] != "lower")):
            fail(f"end-to-end metric {name} is {value}")
        out[name] = {"value": value, "unit": m["unit"]}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "source_sha256": source_digest(root),
        "stamp": main_run["stamp"],
        "setup_s_samples": [r["setup_s"] for r in setups],
        "failures": {cause: sum(r["failures"].get(cause, 0) for r in setups)
                     for r0 in setups for cause in r0["failures"]},
        "details": main_run["details"],
        "metrics": out,
    }
    path = os.path.join(work, f"result-{args.workload}-{args.seed}-"
                              f"trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    log(f"stamp {json.dumps(main_run['stamp'])} "
        f"source {record['source_sha256'][:16]} record {path}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
