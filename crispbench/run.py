#!/usr/bin/env python3
"""Build and run the repository benchmark (see crispbench/README.md).

    python3 crispbench/run.py --workload grid-cold --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout.  The script builds the benchmark
executable and the crisp_simd daemon with dune, then runs one workload;
the last line of standard output is the JSON result.  Build output goes
to standard error.  Exits non-zero, without a result line, when the
checkout holds no sources or the build fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["grid-cold", "fdo-catalog", "long-trace", "farm-memo"]
BUILD_DIR = "_build"
EXE = os.path.join(BUILD_DIR, "default", "crispbench", "main.exe")
DAEMON = os.path.join(BUILD_DIR, "default", "bin", "crisp_simd.exe")
OUT = os.path.join(".bench_build", "crispbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    for needed in ["dune-project", "lib", "bin", os.path.join("test", "goldens")]:
        if not os.path.exists(needed):
            sys.exit(f"crispbench: {needed} not found; run from a source checkout")
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("crispbench: dune not found on PATH")

    # Keep every build artefact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./crispbench/main.exe", "./bin/crisp_simd.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit(f"crispbench: build failed ({build.returncode})")

    child = subprocess.Popen(
        [EXE, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace),
         "--daemon", DAEMON, "--goldens", os.path.join("test", "goldens"),
         "--out", OUT, "--t0", repr(time.time())])
    # Pass termination on, so the benchmark can stop its daemon, and wait.
    signal.signal(signal.SIGTERM, lambda *_: child.terminate())
    signal.signal(signal.SIGINT, lambda *_: child.terminate())
    sys.exit(child.wait())


if __name__ == "__main__":
    main()
