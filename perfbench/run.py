#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload flow --seed 1 --seconds 25 --trace 0

Builds ./perfbench/main.exe with dune, runs it, and relays its output: a
JSON log line (seed, pool lanes, nproc, OCaml version, commit, sample
counts, failures) followed by the result line
{"correct", "attempted", "failed", "metrics"}.  The metric names are checked
against BENCHMARK.json.  The exit status is the benchmark's own (0 when
every answer checked out); 2 when the tree cannot be built.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SOURCES = ["dune-project", "dune", "lib", "perfbench"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git") and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain"], capture_output=True,
                                   text=True).stdout.strip()
            return r.stdout.strip() + ("-dirty" if dirty else "")
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            if "__pycache__" in p:
                continue
            h.update(p.encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(needed):
            fail("run me from the repository root (missing %s)" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")

    cmd = [os.path.join("_build", "default", "perfbench", "main.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S, 1)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        sys.stdout.write(run.stdout)
        sys.exit(run.returncode or 1)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and sorted(result["metrics"]) != sorted(want):
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(want)), 1)
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
