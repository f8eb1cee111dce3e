#!/usr/bin/env python3
"""Builds bench_stack from this checkout and runs one workload.

    python3 bench/stack/run.py --workload hold_256k --seed 1 --seconds 10 --trace 0
    python3 bench/stack/run.py --smoke      # every workload for ~2 s, same gates

Run it from anywhere inside a checkout; the build and every file a run
writes live in .bench_build/ at the repository root. The last line of
stdout is the run's JSON result; build output goes to stderr. The exit
status is non-zero when the build fails or a correctness gate fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["hold_256k", "des_torus", "svc_mixed", "svc_timeouts"]
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 2


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: no repository sources at %s" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("run.py: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    build_cmd = ["cmake", "--build", BUILD, "--target", "bench_stack", "phd", "-j", jobs]
    if subprocess.run(build_cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")


def run(workload, seed, seconds, trace, smoke):
    cmd = [os.path.join(BUILD, "bench_stack"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--phd", os.path.join(BUILD, "ph", "tools", "phd"),
           "--work-dir", os.path.join(BUILD, "run")]
    if smoke:
        cmd.append("--smoke")
    # Flight-recorder dumps (stall, crash) land next to the run's other files.
    env = dict(os.environ, PH_FLIGHTREC_DIR=os.path.join(BUILD, "run"))
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: %s exceeded %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload for ~%d s with the same gates" % SMOKE_SECONDS)
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke")

    build()
    sys.stdout.flush()
    if not args.smoke:
        return run(args.workload, args.seed, args.seconds, args.trace, False)
    failed = [w for w in WORKLOADS
              if run(w, args.seed, SMOKE_SECONDS, args.trace, True) != 0]
    if failed:
        print("run.py: smoke failed: %s" % " ".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
