#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload churn-joint --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py selftest
    python3 perfbench/run.py compare parent.jsonl change.jsonl

Everything the build writes (Go build cache, temporary files, telemetry
counters, the binary) stays under .bench_build/ in the repository root. The exit code is the
benchmark's; a failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys

# A run must finish within 180 s; stop a stuck one before that.
RUN_TIMEOUT_S = 170
# The first build in a fresh checkout compiles the standard library too.
BUILD_TIMEOUT_S = 850


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomod"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(
            ["go", "-C", "perfbench", "build", "-o", binary, "."],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        rc = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return rc if rc >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
