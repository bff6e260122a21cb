#!/usr/bin/env python3
"""The repo benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the library modules from src/ plus the perfbench
binary) into .bench_build/perfbench, runs the workload in a per-run
temporary directory under .bench_build/tmp that is removed at exit,
prints the human-readable report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1
the per_layer ones (and writes the span trace to
.bench_build/traces/). Exits non-zero when an output check fails, when
the build fails, or when a metric named in BENCHMARK.json is missing.
--tiny shrinks every size for the smoke test; never measure with it.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    steps = []
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured for another checkout cannot be reused.
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(BUILD_DIR)
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return os.path.join(BUILD_DIR, "perfbench")


def source_identity():
    """The git commit when the checkout is a repository, and always a
    digest of the sources the benchmark builds."""
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write("perfbench: unknown workload %r\n" % args.workload)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    if binary is None:
        return 3

    commit, digest = source_identity()
    os.makedirs(os.path.join(BUILD_ROOT, "tmp"), exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD_ROOT, "tmp"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tmpdir", tmpdir]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % args.workload)
        return 4
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        sys.stderr.write("perfbench: no result (exit %d)\n" % proc.returncode)
        return 5

    for line in lines[:-1]:
        print(line)
    print("# source commit=%s digest=%s" % (commit or "unknown", digest))
    metrics = {}
    missing = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = got
        print("%-28s %18.10g %s" % (m["name"], got["value"], got["unit"]))
    if missing:
        sys.stderr.write("perfbench: metrics missing or with the wrong unit: "
                         "%s\n" % ", ".join(missing))
        return 6

    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
