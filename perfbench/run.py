#!/usr/bin/env python3
"""Build and run the MCFS wall-clock benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload explore-ext4-jffs2 --seed 1 \
        --seconds 20 --trace 0

The Go program in this directory is built from the checkout's sources
into the build directory ($CARGO_TARGET_DIR, default .bench_build), with
the Go build cache, temporary files and span output kept there too. Its
JSON result line is printed last. The exit code is non-zero
when the build, the run, or an output check fails; only an output
check failure prints a result, and it says "correct": false.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Builds may compile the whole standard library into a fresh cache.
BUILD_TIMEOUT_S = 840


def build(build_dir):
    for sub in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build_dir, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOMODCACHE=os.path.join(build_dir, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build_dir, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
    )
    binary = os.path.join(build_dir, "perfbench")
    try:
        proc = subprocess.run(
            ["go", "build", "-buildvcs=false", "-o", binary, "."],
            cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-spans", build_dir]
    # perfbench overshoots --seconds by at most a few runs; a hang is
    # killed well inside the caller's time limit.
    limit = 2 * args.seconds + 60
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, timeout=limit)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {limit}s", file=sys.stderr)
        return 1
    lines = proc.stdout.decode().strip().splitlines()
    if lines:
        # perfbench's result line: on an output check failure it says
        # "correct": false and the exit code is non-zero.
        print(lines[-1])
    if proc.returncode != 0:
        print(f"perfbench: exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
