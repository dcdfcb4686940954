#!/usr/bin/env python3
"""Self-test of the full-round benchmark, at the workloads' own sizes.

Run from the repository root:  python3 roundbench/selftest.py

Each run measures for one second after its set-ups; the whole test takes
about five minutes on a 4-core VM. Checks that
  - honest runs of every workload, traced and untraced, pass every round;
  - the planted-fault controls make rounds fail: a corrupted prover output on
    every workload, a planted rejection dropped from the expectation on
    ingest (the only workload with planted rejections), and a fleet whose
    servers answer with garbage on fleet (its shards are recovered
    in-process, with the same verdict);
  - the exact counts (decode/validate counts, msm.*, wire.*, fleet.*,
    upload_bytes) repeat bit for bit across two runs with the same seed, and
    hold the values the workload's layout fixes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT = ["decode.rejected", "validate.shards", "validate.shards_with_fallback",
         "validate.fallback_ratio", "validate.rejected", "msm.calls", "msm.scalars",
         "wire.bytes_out", "wire.bytes_in", "wire.frames_out", "fleet.shards_remote",
         "fleet.shards_recovered", "fleet.remote_ratio", "auth.failures"]
# Counts the layout fixes: ingest plants 4 refused encodings and 4 tampered
# proofs, one per 1024-upload shard of 16; fleet verifies every shard remotely.
LAYOUT = {
    "ingest": {"decode.rejected": 4, "validate.shards": 16, "validate.shards_with_fallback": 4,
               "validate.fallback_ratio": 0.25, "validate.rejected": 4},
    "fleet": {"decode.rejected": 0, "validate.rejected": 0, "fleet.remote_ratio": 1.0,
              "fleet.shards_recovered": 0, "auth.failures": 0},
}
PLANTS = {"ingest": ["prover-output", "drop-rejection"], "noise": ["prover-output"],
          "fleet": ["prover-output", "fleet-fault"]}


def bench(workload, trace, plant="none", seed=7):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--plant", plant]
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: {' '.join(command)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    return ok


def passes(result):
    return result["correct"] and result["failed"] == 0


def main():
    good = True
    for workload, plants in PLANTS.items():
        untraced = [bench(workload, 0) for _ in range(2)]
        good &= check(all(map(passes, untraced)), f"{workload}: honest rounds pass")
        a, b = (r["metrics"]["upload_bytes"]["value"] for r in untraced)
        good &= check(a == b, f"{workload}: upload_bytes repeats ({a} == {b})")
        for plant in plants:
            planted = bench(workload, 0, plant)
            good &= check(not planted["correct"] and planted["failed"] > 0,
                          f"{workload}: --plant {plant} fails "
                          f"{planted['failed']}/{planted['attempted']} rounds")
        if workload not in LAYOUT:
            continue
        traced = [bench(workload, 1) for _ in range(2)]
        good &= check(all(map(passes, traced)), f"{workload}: honest traced rounds pass")
        first, second = (r["metrics"] for r in traced)
        for name in EXACT:
            a, b = first[name]["value"], second[name]["value"]
            good &= check(a == b, f"{workload}: {name} repeats ({a} == {b})")
        for name, want in LAYOUT[workload].items():
            got = first[name]["value"]
            good &= check(got == want, f"{workload}: {name} is {want} ({got})")
    sys.exit(0 if good else 1)


if __name__ == "__main__":
    main()
