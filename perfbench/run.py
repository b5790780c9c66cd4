#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <figures|inval-32p|update-32p|observed> \\
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) built against
the simulator's crates by path. Cargo output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Build output lands in
$CARGO_TARGET_DIR (default: .bench_build) and span files of traced runs in
perfbench/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    for needed in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write(f"perfbench: {needed} not found beside perfbench/; run from a full checkout\n")
            return 2
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run([binary, *sys.argv[1:], "--spans-dir", os.path.join(HERE, "out")], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
