"""The benchmark's three closed-loop scenarios, one caller each.

Every scenario drives the system only through public entry points and
offers the same calls:

- ``warm()``  fills the front-end cache and first-use paths, untimed;
- ``setup()`` pays the scenario's cold cost once and returns its CPU
  seconds (h264-debug and time-travel, the two benchmark workloads);
- ``run_pass(unit, probe)`` is a generator over one fixed, seeded pass
  of work, the same operations in the same order for a given seed and
  pass index.  It yields after every operation (every few round trips
  for the daemon), so the runner can interleave the three scenarios.
  Timing samples and exact work counts land in ``unit``.  With
  ``probe=True`` the pass also takes what only the per-layer run
  reports (segment-load timing, the in-process command baseline);
- ``unit(probe)`` runs one whole pass; ``stream()`` runs passes
  forever into ``self.timed``; ``summarize(unit, report)`` turns the
  samples into end-to-end metrics;
- ``star_listeners`` collects the ``"*"`` bus subscribers a pass armed,
  so the traced run can count their callbacks.

Every operation checks its own result and is tallied in :class:`Ops`.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from statistics import median, quantiles
from typing import Dict, Iterator, List, Optional

from repro.apps.h264.app import build_decoder
from repro.apps.h264.bitstream import make_macroblocks
from repro.apps.h264.golden import decode_golden
from repro.cminus.compile import compiled_unit
from repro.cminus.frontend import frontend_cache
from repro.cminus.vm.compiler import vm_unit
from repro.core import DataflowSession
from repro.dbg import Debugger, StopKind
from repro.errors import ReproError
from repro.serve.builders import build_program_cli
from repro.serve.client import RpcError
from repro.serve.embed import DaemonThread
from repro.serve.sessions import journal_bytes

from layers import code_key

_END = (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR)

#: clock of every operation timing: CPU seconds of the whole process
#: (all threads, user + system).  The sandbox is shared, and wall time
#: would also count the slices the OS gave to other tenants.
op_clock = time.process_time


class Ops:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(what)
        return ok


@dataclass
class Unit:
    """Timing samples and exact counts; ``wall_s`` is the host time of
    one whole pass (used for the tracing-overhead ratio)."""

    wall_s: float = 0.0
    samples: Dict[str, List[float]] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def percentile(samples: List[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method; 50 is the median)."""
    if pct == 50:
        return median(samples)
    return quantiles(samples, n=100, method="inclusive")[pct - 1]


def machine_counts(runtimes) -> Dict[str, int]:
    """Exact work counts summed over machines."""
    out = {"sim.dispatches": 0, "pedf.bus_events": 0, "cminus.statements": 0}
    for runtime in runtimes:
        out["sim.dispatches"] += runtime.scheduler.dispatch_count
        out["pedf.bus_events"] += runtime.bus.emitted
        out["cminus.statements"] += sum(
            actor.interp.state.statements_executed
            for actor in runtime.all_actors()
            if getattr(actor, "interp", None) is not None
        )
    return out


def star_listener_keys(runtime) -> set:
    """Code keys of the ``"*"`` subscribers on one runtime's event bus
    (a read-only peek at the bus's subscription table)."""
    return {code_key(sub.listener) for sub in runtime.bus._listeners.get("*", [])}


def force_tier(runtime, tier: str) -> None:
    """Put every interpreter of a not-yet-loaded runtime on ``tier``."""
    runtime.config.interp_tier = tier
    for actor in runtime.all_actors():
        if getattr(actor, "interp", None) is not None:
            actor.interp.tier = tier


class Scenario:
    """What the three scenarios share; see the module docstring."""

    def unit(self, probe: bool = False) -> Unit:
        unit = Unit()
        for _ in self.run_pass(unit, probe):
            pass
        return unit

    def stream(self) -> Iterator[None]:
        """Endless passes into ``self.timed``, one yield per operation."""
        self.timed = Unit()
        while True:
            yield from self.run_pass(self.timed, False)


# --------------------------------------------------------------- h264-debug


class H264Debug(Scenario):
    """One seeded decode under each of the four §V debugger configurations."""

    N_MBS = 50
    CONFIGS = ("native", "vm", "capture", "observed")
    #: the link's capacity is 20, so this check can never trip
    CHECK = "occupancy pipe::Pipe_ipf_out->ipf::Pipe_cfg_in <= 20"

    def __init__(self, seed: int, ops: Ops, tmp: str):
        self.ops = ops
        self.mbs = make_macroblocks(self.N_MBS, seed=seed)
        self.golden = [trace.decoded for trace in decode_golden(self.mbs)]
        self.reference_now: Optional[int] = None
        self.star_listeners: set = set()

    def warm(self) -> None:
        for config in self.CONFIGS:
            self.decode(config, self.mbs[:8])

    def setup(self) -> float:
        """Cold build: front end (lex/parse/sema), closure and VM
        lowering of every actor, elaboration and load."""
        frontend_cache.clear()
        t0 = op_clock()
        _sched, _plat, runtime, _src, _sink, _mbs = build_decoder(mbs=self.mbs)
        runtime.load()
        for actor in runtime.all_actors():
            interp = getattr(actor, "interp", None)
            if interp is not None:
                compiled_unit(interp.program)
                vm_unit(interp.program)
        return op_clock() - t0

    def decode(self, config: str, mbs):
        """Decode ``mbs`` under ``config``; returns (seconds, runtime,
        sink, session, final stop).  Build time is not counted."""
        sched, _plat, runtime, _src, sink, _mbs = build_decoder(mbs=mbs)
        session = ev = None
        if config in ("native", "vm"):
            if config == "vm":
                force_tier(runtime, "vm")
            t0 = op_clock()
            runtime.load()
            sched.run()
            return op_clock() - t0, runtime, sink, session, ev
        observed = config == "observed"
        session = DataflowSession(Debugger(sched, runtime), stop_on_init=observed)
        if observed:
            session.set_data_capture("none")
            session.telemetry.enable()
            session.enable_event_journal()
            session.replay.record_on()
        t0 = op_clock()
        ev = session.dbg.run()
        if observed:
            session.checks.add(self.CHECK, action="log")
        while ev.kind not in _END:
            ev = session.dbg.cont()
        return op_clock() - t0, runtime, sink, session, ev

    def run_pass(self, unit: Unit, probe: bool) -> Iterator[None]:
        t_pass = time.perf_counter()
        runtimes = []
        for config in self.CONFIGS:
            try:
                seconds, runtime, sink, session, ev = self.decode(config, self.mbs)
            except ReproError as exc:
                self.ops.check(False, f"{config} decode raised {exc}")
                continue
            now = runtime.scheduler.now
            if self.reference_now is None:
                self.reference_now = now
            # simulated behaviour must be identical under every configuration
            ok = sink.values == self.golden and now == self.reference_now
            if session is not None:
                ok = ok and ev.kind == StopKind.EXITED and not session.checks.verdicts
            if self.ops.check(ok, f"{config} decode differs from decode_golden"):
                unit.add(f"decode_{config}_mbps", len(self.mbs) / seconds)
                runtimes.append(runtime)
                self._count(config, runtime, session, unit)
            yield
        unit.wall_s = time.perf_counter() - t_pass
        unit.counts.update(machine_counts(runtimes))

    def summarize(self, unit: Unit, report: List[str]) -> Dict[str, float]:
        out = {}
        for config in self.CONFIGS:
            name = f"decode_{config}_mbps"
            rates = unit.samples.get(name)
            if rates:
                out[name] = median(rates)
                report.append(
                    f"{name}: median {out[name]:.1f} macroblocks/s over "
                    f"{len(rates)} decodes of {self.N_MBS}"
                )
        return out

    def _count(self, config, runtime, session, unit) -> None:
        if config == "vm":
            programs = {
                id(a.interp.program): a.interp.program
                for a in runtime.all_actors()
                if getattr(a, "interp", None) is not None
            }
            unit.counts["cminus.vm_failed_functions"] = sum(
                len(vm_unit(p).failed) for p in programs.values()
            )
        elif config == "capture":
            unit.counts["dbg.capture_events"] = session.capture.data_events_processed
        elif config == "observed":
            unit.counts["replay.journal_bytes"] = journal_bytes(session)
            unit.counts["replay.journal_events"] = session.replay.master.total_events
        if session is not None:
            self.star_listeners |= star_listener_keys(runtime)


# -------------------------------------------------------------- time-travel


class TimeTravel(Scenario):
    """A segmented recording, then a seeded script of ``replay to`` hops
    mixed with ``reverse-continue`` steps."""

    N_MBS = 40
    WINDOW = 512  # in-memory journal window: older events rotate to disk
    CATCH = "ipf::decoded_out"  # one dataflow stop per decoded macroblock
    HOPS = 100
    STRATA = 20
    REVERSE_EVERY = 4  # every 4th hop is a reverse-continue
    #: the navigation pattern (which twentieth of the journal each hop
    #: lands in) is fixed; the seed picks the macroblocks and the event
    #: inside each twentieth
    PATTERN_SEED = 0x5EED

    def __init__(self, seed: int, ops: Ops, tmp: str):
        self.ops = ops
        self.seed = seed
        self.tmp = tmp
        self.mbs = make_macroblocks(self.N_MBS, seed=seed)
        self.golden = [trace.decoded for trace in decode_golden(self.mbs)]
        self.replayed: List[DataflowSession] = []
        self.star_listeners: set = set()
        self.passes_run = 0

    def _replay_machine(self) -> DataflowSession:
        """The builder replay rebuilds the decoder with."""
        sched, _plat, runtime, _src, _sink, _mbs = build_decoder(mbs=self.mbs)
        session = DataflowSession(Debugger(sched, runtime))
        self.replayed.append(session)
        return session

    def warm(self) -> None:
        _seconds, _session, seg_dir = self.record(self.mbs[:8])
        shutil.rmtree(seg_dir, ignore_errors=True)

    def record(self, mbs):
        """The recorded live run; returns (seconds, session, segment dir)."""
        seg_dir = tempfile.mkdtemp(prefix="segments-", dir=self.tmp)
        t0 = op_clock()
        sched, _plat, runtime, _src, sink, _mbs = build_decoder(mbs=mbs)
        session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
        session.replay.register_builder(self._replay_machine)
        session.replay.record_on(segment_dir=seg_dir, window=self.WINDOW)
        session.dbg.run()
        session.catch_iface(self.CATCH)
        stops = 0
        ev = session.dbg.cont()
        while ev.kind == StopKind.DATAFLOW:
            stops += 1
            ev = session.dbg.cont()
        seconds = op_clock() - t0
        ok = ev.kind == StopKind.EXITED and stops == len(mbs)
        ok = ok and sink.values == [t.decoded for t in decode_golden(mbs)]
        self.ops.check(ok, "recorded decode differs from decode_golden")
        return seconds, session, seg_dir

    def setup(self) -> float:
        seconds, _session, seg_dir = self.record(self.mbs)
        shutil.rmtree(seg_dir, ignore_errors=True)
        return seconds

    def script(self, total: int, stop_positions: List[int], index: int):
        """``[("to" | "rc", K)]``: each hop of pass ``index`` and the
        event it must land on."""
        pattern = random.Random(self.PATTERN_SEED)
        jitter = random.Random(self.seed * 1_000_003 + index)
        hops = []
        pos = None
        for i in range(self.HOPS):
            earlier = [p for p in stop_positions if pos is not None and p < pos]
            if i % self.REVERSE_EVERY == self.REVERSE_EVERY - 1 and earlier:
                pos = earlier[-1]
                hops.append(("rc", pos))
                continue
            stratum = pattern.randrange(self.STRATA)
            target = 1 + int((stratum + jitter.random()) * (total - 1) / self.STRATA)
            if target == pos:
                target = target - 1 if target > 1 else target + 1
            pos = target
            hops.append(("to", pos))
        return hops

    def run_pass(self, unit: Unit, probe: bool) -> Iterator[None]:
        t_pass = time.perf_counter()
        _seconds, session, seg_dir = self.record(self.mbs)
        try:
            yield
            mgr = session.replay
            master = mgr.master
            unit.counts["replay.journal_bytes"] = journal_bytes(session)
            unit.counts["replay.journal_events"] = master.total_events
            recorded = master.token_stream()
            stops = [s.index for s in master.stops if s.kind == StopKind.DATAFLOW.value]
            self.replayed = []
            loads = {"n": 0, "s": 0.0}
            if probe:
                self._time_segment_loads(master.segments, loads)
            # timed passes walk on to fresh scripts; a probe pass does
            # not advance, so the traced pass after it replays its script
            index = self.passes_run
            self.passes_run += not probe
            tails = resident = landed_ok = 0
            for op, target in self.script(master.total_events, stops, index):
                before = mgr.position
                try:
                    t0 = op_clock()
                    if op == "to":
                        mgr.replay_to(f"event {target}")
                    else:
                        mgr.reverse_continue()
                    seconds = op_clock() - t0
                except ReproError as exc:
                    self.ops.check(False, f"{op} {target} raised {exc}")
                    continue
                src, landed, tail = mgr.last_restore
                prefix = mgr.recorder.journal.token_stream()
                ok = mgr.position == target == landed and mgr.recorder.divergence is None
                ok = ok and prefix == recorded[: len(prefix)]
                if self.ops.check(ok, f"{op} {target} landed at {mgr.position}"):
                    unit.add("travel_ms", seconds * 1000.0)
                    landed_ok += 1
                    tails += tail
                    forward = before is not None and src == before and target > before
                    resident += src > 0 and not forward
                yield
            unit.wall_s = time.perf_counter() - t_pass
            unit.counts.update(machine_counts(s.dbg.runtime for s in self.replayed))
            unit.counts["dbg.capture_events"] = sum(
                s.capture.data_events_processed for s in self.replayed
            )
            unit.counts["replay.tail_events"] = tails
            unit.counts["replay.pool_hit_ratio"] = resident / landed_ok if landed_ok else 0.0
            if probe:
                unit.counts["replay.segment_loads"] = loads["n"]
                unit.counts["replay.segment_load_s"] = loads["s"]
            for s in [session] + self.replayed:
                self.star_listeners |= star_listener_keys(s.dbg.runtime)
        finally:
            self.replayed = []
            shutil.rmtree(seg_dir, ignore_errors=True)

    def summarize(self, unit: Unit, report: List[str]) -> Dict[str, float]:
        hops = unit.samples.get("travel_ms")
        if not hops:
            return {}
        p50, p90 = percentile(hops, 50), percentile(hops, 90)
        report.append(f"travel: p50 {p50:.2f} ms, p90 {p90:.2f} ms over {len(hops)} hops")
        return {"travel_p50_ms": p50, "travel_p90_ms": p90}

    @staticmethod
    def _time_segment_loads(store, loads) -> None:
        """Time every ``SegmentStore.load``; count the calls that
        decompressed (a cache hit returns the object it returned last)."""
        load = store.load
        last: Dict[str, object] = {}

        def timed_load(seg):
            t0 = time.perf_counter()
            data = load(seg)
            loads["s"] += time.perf_counter() - t0
            if last.get(seg.path) is not data:
                loads["n"] += 1
                last[seg.path] = data
            return data

        store.load = timed_load


# ----------------------------------------------------------- daemon-session


class DaemonSession(Scenario):
    """break→inspect→continue round trips through one daemon connection."""

    ROUNDS = 2000
    YIELD_EVERY = 20  # round trips between yields to the runner
    BREAK = "break pack.c:7"
    EXPR = "have"

    def __init__(self, seed: int, ops: Ops, tmp: str):
        self.ops = ops
        rng = random.Random(seed)
        values: List[int] = []
        prev = None
        # one pack firing (one breakpoint hit) per run of equal values
        for _ in range(self.ROUNDS + 8):
            value = rng.randrange(1, 100)
            while value == prev:
                value = rng.randrange(1, 100)
            values.extend([value] * rng.randint(1, 4))
            prev = value
        self.values = values
        self.star_listeners: set = set()

    def warm(self) -> None:
        with DaemonThread() as daemon:
            with daemon.connect(timeout=60) as client:
                sid = client.create("rle", values=self.values[:16])["session"]
                client.execute(sid, self.BREAK)
                client.execute(sid, "run")
                client.execute(sid, "continue")
                client.frames(sid)
                client.destroy(sid)

    def _round_ok(self, stop, frames, variables, value) -> bool:
        """The stop is the pack.c:7 breakpoint and inspection agrees."""
        if not stop or stop.get("kind") != "breakpoint":
            return False
        if (stop.get("filename"), stop.get("line")) != ("pack.c", 7):
            return False
        if not frames or frames[0].get("line") != 7:
            return False
        have = [v["value"] for v in variables if v["name"] == self.EXPR]
        return value.get("ok") is True and have == [value.get("value")]

    def run_pass(self, unit: Unit, probe: bool) -> Iterator[None]:
        t_pass = time.perf_counter()
        daemon = DaemonThread()
        client = daemon.connect(timeout=60)
        sid = client.create("rle", values=self.values)["session"]
        try:
            ok = client.execute(sid, self.BREAK)["ok"]
            ok = ok and client.execute(sid, "run")["stop"]["kind"] == "dataflow"
            self.ops.check(ok, "daemon session did not reach the init stop")
            yield
            for i in range(self.ROUNDS):
                try:
                    t0 = op_clock()
                    reply = client.execute(sid, "continue")
                    t1 = op_clock()
                    frames = client.frames(sid)
                    variables = client.variables(sid)
                    value = client.evaluate(sid, self.EXPR)
                    t2 = op_clock()
                except (RpcError, OSError) as exc:
                    self.ops.check(False, f"round trip {i} raised {exc}")
                    continue
                if self.ops.check(
                    self._round_ok(reply.get("stop"), frames, variables, value),
                    f"round trip {i} did not stop at pack.c:7",
                ):
                    unit.add("roundtrip_ms", (t2 - t0) * 1000.0)
                    unit.add("continue_ms", (t1 - t0) * 1000.0)
                    unit.add("inspect_ms", (t2 - t1) * 1000.0)
                if i % self.YIELD_EVERY == self.YIELD_EVERY - 1:
                    yield
            wire_state = client.state(sid)
            machine = daemon.daemon.registry.get(sid).session
            self.star_listeners |= star_listener_keys(machine.dbg.runtime)
        finally:
            try:
                client.destroy(sid)
            finally:
                client.close()
                daemon.stop()
        unit.wall_s = time.perf_counter() - t_pass
        if probe:
            self._in_process(unit, wire_state)

    def summarize(self, unit: Unit, report: List[str]) -> Dict[str, float]:
        trips = unit.samples.get("roundtrip_ms")
        if not trips:
            return {}
        p50, p99 = percentile(trips, 50), percentile(trips, 99)
        report.append(
            f"roundtrip: p50 {p50:.3f} ms, p99 {p99:.3f} ms over {len(trips)} round trips"
        )
        return {"roundtrip_p50_ms": p50, "roundtrip_p99_ms": p99}

    def _in_process(self, unit: Unit, wire_state) -> None:
        """The same script through an in-process CommandService: the
        baseline ``serve.wire_ms`` subtracts, and the exact counts."""
        cli, _sink = build_program_cli("rle", values=self.values)
        service = cli.service
        service.execute(self.BREAK)
        service.execute("run")
        for i in range(self.ROUNDS):
            t0 = op_clock()
            result = service.execute("continue")
            frames = service.frames()
            variables = service.variables()
            value = service.evaluate(self.EXPR)
            t1 = op_clock()
            if self.ops.check(
                self._round_ok(result.stop, frames, variables, value),
                f"in-process round trip {i} did not stop at pack.c:7",
            ):
                unit.add("inproc_ms", (t1 - t0) * 1000.0)
        self.ops.check(
            service.state()["dispatches"] == wire_state["dispatches"],
            "wire and in-process sessions executed different dispatch counts",
        )
        session = service.session
        unit.counts.update(machine_counts([session.dbg.runtime]))
        unit.counts["dbg.capture_events"] = session.capture.data_events_processed


SCENARIOS = {"h264-debug": H264Debug, "time-travel": TimeTravel, "daemon-session": DaemonSession}
