#!/usr/bin/env python3
"""Builds and runs the full-round benchmark (roundbench/round_bench.cc).

Run from the repository root:

  python3 roundbench/run.py --workload ingest|noise|fleet --seed N \
      --seconds S --trace 0|1 [--plant prover-output|drop-rejection|fleet-fault]

The first run configures and builds the vdp library, verify_server and
round_bench into $CARGO_TARGET_DIR/roundbench (default .bench_build/roundbench
under the repository root); later runs only rebuild what changed. Build output
goes to stderr. round_bench's stdout is passed through, so the last line is
the result object. Run-logs, and the fleet key while the fleet runs, land in
the build directory's work/ subdirectory. --plant makes rounds fail on
purpose (see selftest.py).
"""
import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Beyond --seconds, a run spends its three set-ups (10-17 s on a 4-core VM)
# and the rounds that overrun the clock.
SETUP_ALLOWANCE_S = 150


def fail(message):
    print(f"roundbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", build_dir, "-j", jobs,
               "--target", "round_bench", "verify_server"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(command, timeout):
    # Own process group, so verify_server children go down with round_bench
    # if it has to be killed.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        wait_group_gone(proc.pid)
        fail(f"round_bench exceeded {timeout:g}s")
    wait_group_gone(proc.pid)
    return proc.returncode, out


def wait_group_gone(pgid):
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    os.killpg(pgid, signal.SIGKILL)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ingest", "noise", "fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--plant", default="none",
                        choices=["none", "prover-output", "drop-rejection", "fleet-fault"],
                        help="positive control of the correctness check (self-test)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "protocol.h")):
        fail(f"no vdp sources under {ROOT}; run from a full checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "roundbench")
    build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    command = [os.path.join(build_dir, "round_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", work_dir, "--plant", args.plant]
    # The checkout is not a git repository; keep the run-log writer from
    # asking git for a revision.
    os.environ.setdefault("VDP_GIT_SHA", "unknown")
    code, out = run(command, args.seconds + SETUP_ALLOWANCE_S)
    sys.stdout.write(out)
    if code != 0:
        fail(f"round_bench exited with {code}")
    if not out.strip().splitlines() or not out.strip().splitlines()[-1].startswith('{"correct"'):
        fail("round_bench printed no result")


if __name__ == "__main__":
    main()
