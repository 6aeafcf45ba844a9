#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fanout_wve --seed 1 --seconds 20 --trace 0

The Go program in this directory is built against the repository's own
packages (see go.mod) into .bench_build/, with the Go build cache kept
there too, so nothing outside the checkout is read from or written to
besides the toolchain itself. Arguments are passed through unchanged.
The exit code is the benchmark's, or 1 when the build fails.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out = os.path.join(build, "perfbench")
    return subprocess.run([binary, "--out", out] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
