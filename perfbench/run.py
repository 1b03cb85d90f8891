#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload stream-day --seed 1 --seconds 10 --trace 0

The Go package in this directory is compiled against the simulator
sources one directory up, with the build cache, temporary files and the
binary kept under .bench_build/ in the repository root (the toolchain is
used as installed, offline). Every argument is passed to the benchmark
binary; its last line of output is the JSON result. Exits non-zero without
a result when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update(
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        CGO_ENABLED="0",
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        # The go command keeps its config and telemetry under the user
        # config directory; keep those writes inside the build directory.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    out = os.path.join(BUILD, "perfbench-out")
    sys.stdout.flush()
    return subprocess.run([binary, "-out", out] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
