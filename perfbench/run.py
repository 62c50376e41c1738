#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 10 --trace 0

The arguments go to perfbench/main.exe unchanged (see README.md); its
last line of output is the JSON result.  Build output goes to stderr.
"""

import os
import shutil
import subprocess
import sys


def main():
    if not os.path.isfile("dune-project"):
        print("perfbench: no dune-project here; run from the repository root",
              file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    # keep every build product inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--profile", "release",
         "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
