#!/usr/bin/env python3
"""Builds and runs the ioat-sim benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (release, offline) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs it with the same arguments. The last line of
standard output is the benchmark's JSON result; build output goes to
standard error. Exits non-zero when the build fails or any operation's
output is wrong.
"""

import os
import subprocess
import sys


def main() -> int:
    manifest = os.path.join("perfbench", "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "ioat-perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
