"""The repo benchmark: debugged-decode throughput, time-travel latency and
daemon round trip, split by layer.

    python3 perfbench/run.py --workload h264-debug --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Every run covers all three scenarios (see README.md).  ``--trace 0``
interleaves their operations for ``--seconds`` and prints the
end-to-end metrics; the named workload (h264-debug or time-travel)
picks whose cold set-up is ``setup_s``.  ``--trace 1`` runs one pass of
each scenario untraced and then under the per-thread profiler, and
prints the per-layer metrics.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from statistics import median

import layers
from pace import PACE_EXPONENT, REFERENCE_PACE, pace_sample

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: seconds between heap sweeps (and set-up and pace samples) in the
#: measured loop
SWEEP_EVERY_S = 2.0
PACE_SAMPLES = 10  # pace samples per sweep

E2E_UNITS = {
    "decode_native_mbps": "macroblocks/s",
    "decode_vm_mbps": "macroblocks/s",
    "decode_capture_mbps": "macroblocks/s",
    "decode_observed_mbps": "macroblocks/s",
    "travel_p50_ms": "ms",
    "travel_p90_ms": "ms",
    "roundtrip_p50_ms": "ms",
    "roundtrip_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: units of the per-layer metrics that are not counts
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in layers.LAYERS},
    "replay.pool_hit_ratio": "ratio",
    "replay.segment_load_s": "s",
    "replay.journal_bytes": "B",
    "replay.journal_bytes_per_event": "B",
    "serve.wire_ms": "ms",
    "serve.continue_ms": "ms",
    "serve.inspect_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("h264-debug", "time-travel")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(scenarios, primary, budget_s: float):
    """Interleave the scenarios' operations for ``budget_s`` seconds,
    always advancing the one that has had the least time, so each gets
    a third and a burst of machine noise hits all three alike.  Every
    ``SWEEP_EVERY_S`` seconds, take one cold set-up sample of
    ``primary`` and ``PACE_SAMPLES`` pace samples, then sweep the heap.
    Returns the set-up and pace samples."""
    streams = {name: scenario.stream() for name, scenario in scenarios.items()}
    spent = dict.fromkeys(scenarios, 0.0)
    setups, paces = [], []
    deadline = time.perf_counter() + budget_s
    next_sweep = 0.0
    try:
        while time.perf_counter() < deadline:
            if time.perf_counter() >= next_sweep:
                setups.append(primary.setup())
                paces += [pace_sample() for _ in range(PACE_SAMPLES)]
                sweep_heap()
                next_sweep = time.perf_counter() + SWEEP_EVERY_S
            name = min(spent, key=spent.get)
            t0 = time.perf_counter()
            next(streams[name])
            spent[name] += time.perf_counter() - t0
    finally:
        for stream in streams.values():
            stream.close()
        gc.unfreeze()
    return setups, paces


def sweep_heap() -> None:
    """Collect everything, then freeze the survivors out of the
    collector's view.  A full collection scans the whole heap, which the
    three interleaved scenarios share (about 170k objects, 100-200 ms);
    frozen, that scan happens here, between operations, and a collection
    inside an operation only walks what was allocated since."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def run_untraced(args, scenarios, report):
    for scenario in scenarios.values():
        scenario.warm()
    setups, paces = measure(scenarios, scenarios[args.workload], args.seconds)
    metrics = {"setup_s": median(setups)}
    report.append(f"setup_s: median {metrics['setup_s']:.4f} s over {len(setups)} cold set-ups")
    for scenario in scenarios.values():
        metrics.update(scenario.summarize(scenario.timed, report))
    # report timings at the reference pace (see pace.py)
    scale = (REFERENCE_PACE / median(paces)) ** PACE_EXPONENT
    report.append(
        f"pace: median {median(paces) * 1000:.3f} ms over {len(paces)} samples; the JSON "
        f"divides the rates above by {scale:.3f} and multiplies the times by it"
    )
    for name in metrics:
        metrics[name] *= 1 / scale if name.endswith("_mbps") else scale
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.append(f"peak_rss_mb: {metrics['peak_rss_mb']:.1f} MiB")
    return metrics, E2E_UNITS


def run_traced(scenarios, report):
    """One probe pass of every scenario, then the same passes traced;
    self times are summed over the three traced passes."""
    import repro
    from repro.pedf.api import FrameworkEventBus

    repro_dir = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    probes, walls, self_s, profiles, star = {}, [0.0, 0.0], {}, [], set()
    for name, scenario in scenarios.items():
        scenario.warm()
        probes[name] = scenario.unit(probe=True)
        with layers.ThreadProfiler() as prof:
            traced = scenario.unit()
        walls[0] += probes[name].wall_s
        walls[1] += traced.wall_s
        folded = layers.fold(prof.profiles, repro_dir)
        for bucket, seconds in folded.items():
            self_s[bucket] = self_s.get(bucket, 0.0) + seconds
        profiles += prof.profiles
        star |= scenario.star_listeners
        report.append(
            f"{name} self time: "
            + ", ".join(f"{b} {folded.get(b, 0.0):.3f} s" for b in layers.LAYERS + ("other",))
        )
    h264, travel, daemon = (probes[n] for n in ("h264-debug", "time-travel", "daemon-session"))
    metrics = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in layers.LAYERS}
    for name in ("sim.dispatches", "pedf.bus_events", "cminus.statements", "dbg.capture_events"):
        metrics[name] = sum(unit.counts.get(name, 0) for unit in probes.values())
    metrics["pedf.bus_callbacks"] = layers.calls_from(
        profiles, star, layers.code_key(FrameworkEventBus.emit)
    )
    metrics["cminus.vm_failed_functions"] = h264.counts["cminus.vm_failed_functions"]
    for name in ("tail_events", "pool_hit_ratio", "segment_loads", "segment_load_s", "journal_bytes"):
        metrics[f"replay.{name}"] = travel.counts[f"replay.{name}"]
    metrics["replay.journal_bytes_per_event"] = (
        travel.counts["replay.journal_bytes"] / travel.counts["replay.journal_events"]
    )
    metrics["serve.wire_ms"] = median(daemon.samples["roundtrip_ms"]) - median(
        daemon.samples["inproc_ms"]
    )
    metrics["serve.continue_ms"] = median(daemon.samples["continue_ms"])
    metrics["serve.inspect_ms"] = median(daemon.samples["inspect_ms"])
    metrics["trace.overhead_ratio"] = walls[1] / walls[0]
    report.append(f"traced passes {walls[1]:.2f} s vs untraced {walls[0]:.2f} s")
    return metrics, {name: PER_LAYER_UNITS.get(name, "count") for name in metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from repro.obs.flight import FlightRecorder

    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=scratch_root)
    # the flight recorder is always armed: keep any post-mortem bundle
    # inside the checkout's scratch area
    FlightRecorder.dump_dir = tmp
    report = []
    try:
        ops = workloads.Ops()
        scenarios = {name: cls(args.seed, ops, tmp) for name, cls in workloads.SCENARIOS.items()}
        if args.trace:
            metrics, units = run_traced(scenarios, report)
        else:
            metrics, units = run_untraced(args, scenarios, report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    ratio = ops.failed / ops.attempted if ops.attempted else 0.0
    report.append(f"op_fail_ratio: {ratio:.4f} ({ops.failed} of {ops.attempted} operations)")
    for failure in ops.first_failures:
        report.append(f"FAILED: {failure}")
    for line in report:
        print(line)
    print(
        json.dumps(
            {
                "correct": ops.failed == 0 and ops.attempted > 0,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
