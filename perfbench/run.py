#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/perfbench.exe (and the
library it links) with dune into _build/, then runs it on one CPU; the
benchmark's own output, ending in one JSON result line, goes to stdout.
Build output goes to stderr. Exits non-zero when the build fails, the arguments are
wrong (the benchmark itself rejects an unknown workload), or an output
check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

TARGET = "./perfbench/perfbench.exe"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 1
    # Build inside the checkout only: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    # One CPU for the benchmark and the processes it starts: the host
    # probe then measures the CPU the job runs on.
    cpu = min(os.sched_getaffinity(0))
    run = subprocess.run(
        [
            exe,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
        ],
        env=env,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
