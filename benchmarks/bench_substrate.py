"""Substrate micro-benchmarks: the costs everything else is built on.

Not a paper artefact — these quantify the reproduction's own substrate
(kernel dispatch, FIFO transfer, Filter-C interpretation, event-bus
emission) so overhead numbers elsewhere can be put in context, and so
regressions in the hot paths show up.
"""

import threading

import pytest

from repro.cminus import Interpreter, NullEnvironment, analyze, parse_program, run_sync
from repro.cminus.interp import DebugHook
from repro.pedf.api import FrameworkEvent, FrameworkEventBus
from repro.sim import Delay, Fifo, Scheduler


def _fresh_stack(fn):
    """Run ``fn`` on a fresh thread and return its result.

    CPython ≥3.11 allocates Python frames in fixed-size data-stack
    chunks; recursion that oscillates across a chunk boundary pays an
    allocation per call, so recursive workloads (fib15, where every VM
    call nests a generator) can swing ~2x depending on how deep the
    *harness* stack happens to be when the measurement starts (pytest sits right
    in the pathological band).  A fresh thread starts with fresh chunks,
    making the measurement independent of harness stack depth.
    """
    box = []

    def trampoline():
        box.append(fn())

    t = threading.Thread(target=trampoline)
    t.start()
    t.join()
    if not box:
        raise RuntimeError("benchmark workload died on its thread")
    return box[0]


def test_kernel_dispatch_throughput(benchmark):
    """Cost of one process resume + timed requeue."""

    def run():
        sched = Scheduler()

        def proc():
            for _ in range(2000):
                yield Delay(1)

        sched.spawn(proc(), "p")
        sched.run()
        return sched

    sched = benchmark(run)
    assert sched.now == 2000


def test_fifo_transfer_throughput(benchmark):
    def run():
        sched = Scheduler()
        fifo = Fifo(sched, capacity=8)
        got = []

        def producer():
            for i in range(1000):
                yield from fifo.put(i)

        def consumer():
            for _ in range(1000):
                got.append((yield from fifo.get()))

        sched.spawn(producer(), "p")
        sched.spawn(consumer(), "c")
        sched.run()
        return got

    got = benchmark(run)
    assert len(got) == 1000


FIB_SRC = """
U32 fib(U32 n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
U32 main() { return fib(15); }
"""

LOOP_SRC = """
U32 main() {
    U32 s = 0;
    for (U32 i = 0; i < 5000; i++) {
        s = (s + i * 3) ^ (i >> 2);
    }
    return s;
}
"""


@pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
@pytest.mark.parametrize("name,src,expected", [
    ("fib15", FIB_SRC, 610),
    ("loop5k", LOOP_SRC, None),
])
def test_interpreter_throughput(benchmark, name, src, expected, timed):
    """``timed`` rows charge statement cycles as the runtime does for
    every actor it builds; untimed rows skip the cost accounting."""
    prog = parse_program(src)
    info = analyze(prog, None, src)

    def work():
        interp = Interpreter(prog, info, env=NullEnvironment(), timed=timed)
        return run_sync(interp.run_function("main")), interp.state.statements_executed

    (value, stmts) = benchmark(lambda: _fresh_stack(work))
    if expected is not None:
        assert value == expected
    assert stmts > 1000


class _CapHook(DebugHook):
    """A hook with a fixed capability mask and no-op callbacks — models a
    debugger with nothing armed (caps=0)."""

    def __init__(self, caps: int):
        self.capabilities = caps


def count_bytecodes(fn):
    """Run ``fn()`` and count the Python bytecodes it executes inside the
    ``repro`` package (``sys.settrace`` with ``f_trace_opcodes``).
    Returns ``(count, fn's result)``.  Deterministic: the same work gives
    the same count on every machine and every run of one interpreter
    version, so it can gate overheads far below timer noise."""
    import os
    import sys

    import repro

    root = os.path.dirname(repro.__file__)
    count = [0]

    def local(frame, event, arg):
        if event == "opcode":
            count[0] += 1
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(root):
            frame.f_trace_opcodes = True
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        out = fn()
    finally:
        sys.settrace(previous)
    return count[0], out


#: a debugger with nothing armed (telemetry, RV and the profiler all off)
#: may execute at most this many extra bytecodes per cost flush over the
#: no-debugger row.  Measured (CPython 3.11, loop5k timed, 235 flushes):
#: 14 extra in total — the hook-present branches of one activation's
#: call/return tests and of ``refresh_hook_caps`` — so 1 per flush
#: leaves room for a constant, while one extra test per statement
#: (15,004 of them) fails it
NOTHING_ARMED_BYTECODES_PER_FLUSH = 1


def _timed_loop_runner(caps):
    """Build a closure running loop5k on a timed VM-tier interpreter,
    with ``caps`` as the hook mask (None = no hook at all).  It returns
    the interpreter and the number of cost flushes (Delay requests)."""
    prog = parse_program(LOOP_SRC)
    info = analyze(prog, None, LOOP_SRC)

    def run():
        hook = _CapHook(caps) if caps is not None else None
        interp = Interpreter(prog, info, env=NullEnvironment(), hook=hook, timed=True)
        gen = interp.run_function("main")
        flushes = 0
        try:
            next(gen)
            while True:
                flushes += 1
                gen.send(None)
        except StopIteration:
            pass
        return interp, flushes

    return run


def test_telemetry_and_profiler_off_add_no_bytecode():
    """The nothing-armed acceptance gate (runs under
    ``--benchmark-disable`` too): with telemetry, RV and the profiler
    off, the timed VM tier executes the no-debugger bytecode, up to
    :data:`NOTHING_ARMED_BYTECODES_PER_FLUSH` per cost flush."""
    baseline_run = _timed_loop_runner(None)  # no debugger at all
    off_run = _timed_loop_runner(0)  # debugger attached, nothing armed
    baseline_run(), off_run()  # warm-up: lowering and first-call caches

    baseline, (_, flushes) = count_bytecodes(baseline_run)
    off, (interp, off_flushes) = count_bytecodes(off_run)
    assert interp._profile is None and not interp._vm_trace
    assert interp.opcode_cycles == {}
    assert flushes == off_flushes > 0
    allowance = NOTHING_ARMED_BYTECODES_PER_FLUSH * flushes
    assert baseline <= off <= baseline + allowance, (
        f"nothing armed executes {off - baseline} extra bytecodes over "
        f"no debugger (allowance {allowance} for {flushes} flushes)"
    )


def _count_calls(monkeypatch, counts, cls, attr, key):
    """Patch ``cls.attr`` to bump ``counts[key]`` on every call."""
    inner = getattr(cls, attr)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(cls, attr, wrapper)


def _counted_rle_run(monkeypatch, telemetry):
    """Run the RLE app end to end, counting tap events, span-builder
    constructions and feeds, and span-sink inserts."""
    from repro.apps.rle import build_rle_pipeline
    from repro.core import DataflowSession
    from repro.core.tap import EventTap
    from repro.dbg import Debugger, StopKind
    from repro.obs.builder import TelemetryBuilder
    from repro.obs.spans import SpanSink

    counts = {"tap_events": 0, "builders": 0, "feeds": 0, "span_adds": 0}
    _count_calls(monkeypatch, counts, EventTap, "_on_event", "tap_events")
    _count_calls(monkeypatch, counts, TelemetryBuilder, "__init__", "builders")
    _count_calls(monkeypatch, counts, TelemetryBuilder, "feed", "feeds")
    _count_calls(monkeypatch, counts, SpanSink, "add", "span_adds")
    sched, runtime, _sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    session = DataflowSession(Debugger(sched, runtime))
    if telemetry:
        session.telemetry.enable()
    ev = session.dbg.run()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = session.dbg.cont()
    assert ev.kind == StopKind.EXITED
    return session, counts


def test_telemetry_on_feeds_one_builder_once_per_event(monkeypatch):
    """The exact-count gate (runs under ``--benchmark-disable`` too):
    with telemetry on, the session holds one span builder, which is not
    on the tap: the run feeds it nothing.  The first read feeds it each
    tap event exactly once, and each span it closes is inserted once
    into the telemetry sink and once into the flight ring."""
    session, counts = _counted_rle_run(monkeypatch, telemetry=True)
    assert counts["tap_events"] > 0
    assert counts["builders"] == 1
    assert counts["feeds"] == counts["span_adds"] == 0
    closed = sum(session.telemetry.sink.name_counts.values())
    assert counts["feeds"] == counts["tap_events"]
    assert session.telemetry.builder.events_fed == counts["tap_events"]
    assert closed > 0
    assert session.flight.sink.name_counts == session.telemetry.sink.name_counts
    assert counts["span_adds"] == 2 * closed


def test_telemetry_off_builds_no_span(monkeypatch):
    """The exact-count gate's off half (runs under
    ``--benchmark-disable`` too): with telemetry off, no builder exists,
    no event reaches the tap, no span is built and nothing is inserted
    into the flight ring."""
    session, counts = _counted_rle_run(monkeypatch, telemetry=False)
    assert counts == {"tap_events": 0, "builders": 0, "feeds": 0, "span_adds": 0}
    assert session.telemetry.builder is None
    assert len(session.flight.sink) == 0 and not session.flight.sink.name_counts


def test_profiler_on_attribution_row(benchmark):
    """The profiler-on row: timed VM tier with a live ``profile_sink``
    attributing every flushed cycle to an (actor, call path)
    call-tree node."""
    from repro.obs.prof import Profile

    prog = parse_program(LOOP_SRC)
    info = analyze(prog, None, LOOP_SRC)
    profile = Profile()

    def charge(interp, cycles):
        path = tuple(f.func.name for f in interp.frames) or ("<entry>",)
        profile.add("bench", path, cycles)

    def run():
        hook = _CapHook(0)
        hook.profile_sink = charge
        interp = Interpreter(prog, info, env=NullEnvironment(), hook=hook, timed=True)
        run_sync(interp.run_function("main"))
        return interp

    interp = benchmark(lambda: _fresh_stack(run))
    assert not interp._want_stmt  # the profile sink arms no hook
    assert profile.total > 0  # flushes were actually attributed


def _counted_profiler_run(monkeypatch, profiler=False, telemetry=False, check=None):
    """Run the RLE app end to end, counting profile-sink calls (one per
    attributed cost flush) and profile inserts.  ``telemetry`` and
    ``check`` arm the other two tap consumers."""
    from repro.apps.rle import build_rle_pipeline
    from repro.core import DataflowSession
    from repro.dbg import Debugger, StopKind
    from repro.obs.prof import Profile, Profiler

    counts = {"sink_calls": 0, "profile_adds": 0}
    _count_calls(monkeypatch, counts, Profiler, "_charge", "sink_calls")
    _count_calls(monkeypatch, counts, Profile, "add", "profile_adds")
    sched, runtime, _sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
    ev = session.dbg.run()  # stop post-init so checks can resolve the graph
    if profiler:
        session.prof.enable()
    if telemetry:
        session.telemetry.enable()
    if check is not None:
        session.checks.add(check, action="log")
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = session.dbg.cont()
    assert ev.kind == StopKind.EXITED
    interps = [a.interp for a in runtime.all_actors() if getattr(a, "interp", None)]
    assert interps
    return session, interps, counts


def test_profiler_on_charges_once_per_flush(monkeypatch):
    """The exact-count gate (runs under ``--benchmark-disable`` too):
    with the profiler on, every interpreter holds the sink and each
    cost flush reaches it exactly once, as one profile insert."""
    session, interps, counts = _counted_profiler_run(monkeypatch, profiler=True)
    assert all(interp._profile is not None for interp in interps)
    assert counts["sink_calls"] > 0
    assert counts["sink_calls"] == counts["profile_adds"] == session.prof.profile.flushes


def test_profiler_off_calls_no_profile_sink(monkeypatch):
    """The exact-count gate's off half (runs under
    ``--benchmark-disable`` too): with the profiler off, no interpreter
    holds a sink and no cost flush is charged anywhere."""
    session, interps, counts = _counted_profiler_run(monkeypatch, profiler=False)
    assert counts == {"sink_calls": 0, "profile_adds": 0}
    assert all(interp._profile is None for interp in interps)
    assert session.dbg.hook.profile_sink is None and session.prof.profile is None


def test_telemetry_and_rv_on_call_no_profile_sink(monkeypatch):
    """The exact-count gate for telemetry and the tap's RV consumer (runs
    under ``--benchmark-disable`` too): a full run with telemetry and a
    check armed charges no cost flush and counts no opcode, because
    neither touches an interpreter."""
    session, interps, counts = _counted_profiler_run(
        monkeypatch, telemetry=True, check="occupancy pack::o->expand::i <= 999999"
    )
    assert session.telemetry.enabled and session.checks.armed
    assert session.telemetry.sink is not None  # a read feeds the builder
    assert session.telemetry.builder.events_fed > 0
    assert counts == {"sink_calls": 0, "profile_adds": 0}
    assert all(interp._profile is None and not interp._vm_trace for interp in interps)
    assert all(interp.opcode_cycles == {} for interp in interps)


#: a run that armed and removed a check may execute at most this many
#: extra bytecodes per kernel dispatch, once it continues past the
#: removal, over a check-free run: with no checks armed there is no
#: "*" bus listener (framework calls stay event-free via §V elision).
#: Measured (CPython 3.11, RLE feed, 123 dispatches): 0 extra
RV_OFF_BYTECODES_PER_DISPATCH = 1


def _rle_session_runner(check=None, lifecycle=False, measure=None):
    """Build a closure running the RLE app end to end, optionally with
    one armed check (``check``) or an armed-then-removed check
    (``lifecycle=True`` — exercises the subsystem, ends monitors-off).
    With ``measure``, the closure returns ``measure(cont)``, where
    ``cont()`` runs the part after the post-init stop."""
    from repro.apps.rle import build_rle_pipeline
    from repro.core import DataflowSession
    from repro.dbg import Debugger, StopKind

    def run():
        sched, runtime, sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
        session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
        session.dbg.run()  # stop post-init so checks can resolve the graph
        if lifecycle:
            session.checks.remove(session.checks.add(
                "occupancy pack::o->expand::i <= 999999", action="log").id)
        if check is not None:
            session.checks.add(check, action="log")

        def cont():
            ev = session.dbg.cont()
            while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
                ev = session.dbg.cont()
            assert ev.kind == StopKind.EXITED
            return session

        return cont() if measure is None else measure(cont)

    return run


def test_rv_monitors_on_link_occupancy_row(benchmark):
    """The monitors-on row: a full RLE run with one link-occupancy
    property armed (non-tripping bound — measures steady-state judging,
    not verdict construction)."""
    run = _rle_session_runner(check="occupancy pack::o->expand::i <= 999999")
    session = benchmark(lambda: _fresh_stack(run))
    assert session.checks.armed and not session.checks.verdicts
    # the armed monitor hooks no interpreter
    for actor in session.dbg.runtime.all_actors():
        interp = getattr(actor, "interp", None)
        if interp is not None:
            assert not (interp._want_stmt or interp._want_call or interp._want_ret)


def test_rv_monitors_off_add_no_bytecode():
    """The acceptance gate (runs under ``--benchmark-disable`` too): once
    a run that armed and removed a check continues, it executes the
    bytecode of a run that never touched the RV subsystem, up to
    :data:`RV_OFF_BYTECODES_PER_DISPATCH` per kernel dispatch."""
    baseline_run = _rle_session_runner(measure=count_bytecodes)
    off_run = _rle_session_runner(lifecycle=True, measure=count_bytecodes)
    baseline_run()  # warm-up: first-run caches

    baseline, base_session = baseline_run()
    off, session = off_run()
    assert not session.checks.armed
    assert session.tap.consumers == ()  # fully retracted
    dispatches = base_session.dbg.runtime.scheduler.dispatch_count
    assert session.dbg.runtime.scheduler.dispatch_count == dispatches > 0
    allowance = RV_OFF_BYTECODES_PER_DISPATCH * dispatches
    assert baseline <= off <= baseline + allowance, (
        f"monitors-off executes {off - baseline} extra bytecodes over a "
        f"check-free run (allowance {allowance} for {dispatches} dispatches)"
    )


def test_rv_removed_monitor_is_fed_nothing(monkeypatch):
    """The exact-count gate (runs under ``--benchmark-disable`` too):
    a check armed mid-run feeds its monitor; once removed, the rest of
    the run feeds it nothing, the tap holds no consumer and its ``"*"``
    bus subscription is gone."""
    from repro.apps.rle import build_rle_pipeline
    from repro.core import DataflowSession
    from repro.dbg import Debugger, StopKind
    from repro.rv.monitors import Monitor

    counts = {"feeds": 0}
    _count_calls(monkeypatch, counts, Monitor, "feed", "feeds")
    sched, runtime, _sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
    dbg, tap = session.dbg, session.tap
    assert dbg.run().kind == StopKind.DATAFLOW  # graph reconstructed
    check = session.checks.add("occupancy pack::o->expand::i <= 999999", action="log")
    assert tap.consumers and tap._sub is not None
    session.catch_iface("pack::o", event="push", temporary=True)
    assert dbg.cont().kind == StopKind.DATAFLOW
    assert counts["feeds"] > 0  # armed: the monitor judged the events so far

    session.checks.remove(check.id)
    counts["feeds"] = 0
    ev = dbg.cont()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    assert ev.kind == StopKind.EXITED
    assert counts["feeds"] == 0
    assert tap.consumers == () and tap._sub is None


def test_event_bus_emission(benchmark):
    """Cost of one event with and without listeners (the §V overhead's
    inner loop)."""
    bus = FrameworkEventBus()
    seen = []
    bus.subscribe("sym", lambda e: seen.append(e) or None)

    def run():
        for i in range(1000):
            bus.emit(FrameworkEvent("entry", "sym", {"i": i}))
        return len(seen)

    total = benchmark(run)
    assert total >= 1000


def test_event_bus_no_listeners(benchmark):
    bus = FrameworkEventBus()

    def run():
        for i in range(1000):
            bus.emit(FrameworkEvent("entry", "sym", {"i": i}))
        return bus.emitted

    assert benchmark(run) >= 1000
