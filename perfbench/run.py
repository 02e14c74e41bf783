#!/usr/bin/env python3
"""Build the perfbench driver from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ndp-offload --seed 1 --seconds 30 --trace 0

The sndp library and the driver are built with CMake (Release) into
.bench_build/perfbench on first use and brought up to date on every later
call.  Build output goes to .bench_build/perfbench-build.log and, on failure,
to stderr.  Every other flag is passed to the driver (see perfbench.cc);
with --trace 1 the driver also writes a Chrome trace of its spans to
.bench_build/traces/.  The last line of stdout is the driver's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_LOG = os.path.join(BUILD_ROOT, "perfbench-build.log")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log):
    log.write(f"$ {' '.join(cmd)}\n")
    log.flush()
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no sndp sources at {os.path.join(ROOT, 'src')}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_LOG, "w") as log:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja") is not None:
                configure += ["-G", "Ninja"]
            if run_logged(configure, log) != 0:
                return False
        return run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], log) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    if not build():
        with open(BUILD_LOG) as log:
            sys.stderr.write(log.read()[-4000:])
        fail(f"build failed; full log in {BUILD_LOG}")

    cmd = [BINARY, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace] + extra
    if args.trace == "1":
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
