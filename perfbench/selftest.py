"""Self-test: the benchmark's exact work counts are noise-free.

    python3 perfbench/selftest.py [--seed N]

Runs every workload's per-layer pass (``--trace 1``) twice with the same
seed, each in its own process, and exits non-zero unless both runs are
correct and every exact count is identical.  Later changes may gate on
these counts only because this holds.  Takes about five minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("h264-debug", "time-travel")
#: per-layer metrics that are counts, not timings
EXACT = (
    "sim.dispatches",
    "pedf.bus_events",
    "pedf.bus_callbacks",
    "cminus.statements",
    "cminus.vm_failed_functions",
    "dbg.capture_events",
    "replay.tail_events",
    "replay.pool_hit_ratio",
    "replay.segment_loads",
    "replay.journal_bytes",
)


def traced_run(workload: str, seed: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", "1",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="exact-count determinism self-test")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    failures = 0
    for workload in WORKLOADS:
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        for run in (first, second):
            if not run["correct"]:
                print(f"{workload}: run not correct ({run['failed']} failed)")
                failures += 1
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            status = "ok" if a == b else "DIFFERS"
            failures += a != b
            print(f"{workload:15s} {name:28s} {a!s:>12} {b!s:>12}  {status}")
    print("self-test passed" if not failures else f"self-test FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
