#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the repo root:

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and
traced, and checks that each run exits 0, that its last line is the
result object with exactly the expected keys, that every end-to-end
(untraced) or per-layer (traced) metric appears with its unit, and that
the report records the run's environment. Then checks that the
benchmark fails, without printing a result, in a directory holding only
BENCHMARK.json and perfbench/. Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    sys.stderr.write("smoke: FAIL %s\n" % msg)
    sys.exit(1)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            name = "%s --trace %d" % (w["name"], trace)
            proc = run(ROOT, w["name"], trace)
            if proc.returncode != 0:
                fail("%s exited %d\n%s%s" % (name, proc.returncode,
                                            proc.stdout[-3000:],
                                            proc.stderr[-3000:]))
            lines = proc.stdout.rstrip("\n").split("\n")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (name, sorted(result)))
            if result["correct"] is not True or result["failed"] != 0 \
                    or result["attempted"] < 1:
                fail("%s: %s" % (name, lines[-1]))
            for m in spec[kind]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    fail("%s: metric %s missing or not in %s"
                         % (name, m["name"], m["unit"]))
                if not isinstance(got["value"], (int, float)):
                    fail("%s: metric %s is not a number" % (name, m["name"]))
            if set(result["metrics"]) != {m["name"] for m in spec[kind]}:
                fail("%s: unexpected metrics %s" % (
                    name, set(result["metrics"]) - {m["name"] for m in spec[kind]}))
            env = next((l for l in lines if l.startswith("# env ")), "")
            for field in ("seed=7", "nproc=", "simd=", "llc_bytes=",
                          "build_type=", "lattice_obs="):
                if field not in env:
                    fail("%s: report lacks %s" % (name, field))
            if not any(l.startswith("# source commit=") for l in lines):
                fail("%s: report lacks the source identity" % name)
            if trace == 0 and not any("highest supported percentile" in l
                                      for l in lines):
                fail("%s: percentiles reported without sample counts" % name)
            print("smoke: ok %s (%d metrics)" % (name, len(spec[kind])))

    # Only BENCHMARK.json and perfbench/: the build must fail and no
    # result line may be printed.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("the benchmark did not fail without the library sources")
    print("smoke: ok fails without the library sources")


if __name__ == "__main__":
    main()
