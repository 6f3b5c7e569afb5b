#!/usr/bin/env python3
"""Build and run the HYDRA benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is tivo_offloaded, fleet_openloop, fleet_churn, or "all" to run
the three in turn. Run from the repository root. The first call
configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls only re-check the build. The benchmark's last line of standard
output is one JSON object; build logs go to standard error. Span
exports of traced runs land in the build directory's spans/.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tivo_offloaded", "fleet_openloop", "fleet_churn")
# A measured run must end within 180 s, and a first run that builds
# within 900 s; stop short of both.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def call(command, timeout, **kwargs):
    """Run @command in its own process group; on timeout kill the whole
    group (make and the compilers too) and wait for it. Returns the exit
    status, or None on timeout."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as child:
        try:
            return child.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            return None


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build; returns the binary path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "hydra_perfbench"])
    for step in steps:
        try:
            status = call(step, BUILD_TIMEOUT_S, stdout=sys.stderr,
                          stderr=sys.stderr)
        except OSError as error:
            print(f"perfbench: cannot run {step[0]}: {error}",
                  file=sys.stderr)
            return None
        if status != 0:
            print("perfbench: build failed", file=sys.stderr)
            return None
    binary = os.path.join(out, "hydra_perfbench")
    return binary if os.path.exists(binary) else None


def run_workload(binary, workload, args):
    spans = os.path.join(build_dir(), "spans")
    os.makedirs(spans, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", spans]
    sys.stdout.flush()
    status = call(command, RUN_TIMEOUT_S)
    if status is None:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")

    binary = build()
    if binary is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        status = run_workload(binary, workload, args)
        if status != 0:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
