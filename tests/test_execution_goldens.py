"""Execution goldens: what the Filter-C bytecode tier reproduces byte for byte.

Until commit 58a6436 a tree-walking interpreter ran beside the register
VM as a second execution tier, and a family of differential suites
checked that the two agreed.  The digests below were captured at that
commit from both tiers, which agreed on every one of them; the tree
walker then left the runtime (a hook-free copy of it is the reference
evaluator of ``tests/cminus/oracle.py``).  Each capture renders one
observable to ``repr`` text and the test compares its digest:

- the timed ``Delay`` streams and the blocking-I/O order of a plain
  Filter-C program (batched cost flushes are structural);
- journal fingerprints (token stream, checkpoint digests, dispatch
  counts), framework event streams, replay self-checks and the deep
  state snapshots of recorded runs;
- live and journal-derived RV verdicts, live and derived telemetry and
  the canonical telemetry projection;
- the single-kernel, 1-shard and 2-shard link fingerprints;
- the transcripts of scripted source-level debugging sessions.

``python tests/test_execution_goldens.py`` prints the digest table of
the code it runs against.
"""

import hashlib

import pytest

from repro.apps.amodule.app import AMODULE_HOSTS, build_amodule_program, build_demo
from repro.apps.h264.bugs import build_dropped_token, build_rate_mismatch
from repro.apps.rle.app import RLE_HOSTS, build_rle_pipeline, build_rle_program
from repro.cminus import CostModel, Interpreter, NullEnvironment, analyze, parse_program
from repro.core import DataflowSession
from repro.core.shards import ShardedRun
from repro.dbg import CommandCli, Debugger, StopKind
from repro.obs import aggregate_journal, derive_telemetry, to_chrome_trace
from repro.rv import GraphView, derive_verdicts, parse_property
from repro.serve.builders import build_program_cli
from repro.sim import Scheduler
from repro.sim.sharding import HostSpec, PushStreamRecorder, fingerprint_streams, partition_program

from tests.cminus.test_compile_tiers import (
    COMPREHENSIVE,
    IO_SRC,
    ScriptedIo,
    drain_requests,
    io_context,
)

GOLDEN = {
    "amodule.journal": "bf4de1d9ea677a54",
    "cminus.blocking_io": "47cf3bea4dabda33",
    "cminus.timed_delays": "98ed0d41cb5681ec",
    "debug.amodule": "f030476f97796604",
    "debug.amodule-calls": "87fd80a847f01a11",
    "debug.h264": "d94a2f39733d544e",
    "debug.rle": "96a49634859dcd73",
    "obs.canonical": "d889c1cbfbb3b5d2",
    "obs.telemetry_live": "0b40cbf2ce9e377b",
    "rle.framework_events": "443edf56aab1f7fe",
    "rle.journal": "507b2ec48346b852",
    "rle.journal_artifacts": "6e83428c9ef98049",
    "rle.replay": "6084b3e757135b30",
    "rle.state_snapshots": "fabdf07809ec0014",
    "rv.amodule": "b0f8dc7e99e5b25e",
    "rv.h264_dropped_token": "7498d13d9dd67a75",
    "rv.h264_rate_mismatch": "bd9343022019fbbe",
    "rv.rle": "feffa1c408727d29",
    "shards.amodule": "a7a053b4dc92d5bb",
    "shards.rle": "fb66bd58e36bc1b2",
    "synthetic.push_streams": "477b77e26a5c9d52",
}

CAPTURES = {}


def capture(name):
    def register(fn):
        CAPTURES[name] = fn
        return fn

    return register


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def run_to_exit(dbg):
    ev = dbg.run() if not dbg.runtime.loaded else dbg.cont()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


def journal_fingerprint(journal):
    return (
        journal.token_stream(),
        [(cp.index, cp.dispatch, cp.time, cp.next_seq, cp.occupancy) for cp in journal.checkpoints],
        journal.total_events,
    )


# ----------------------------------------------------------- plain Filter-C


def _interp(source, timed=True, context=None, cost=None, env=None):
    prog = parse_program(source, "<tiers>")
    return Interpreter(
        prog, analyze(prog, context, source), env=env or NullEnvironment(), timed=timed, cost=cost
    )


def _sched_run(cost):
    interp = _interp(COMPREHENSIVE, cost=cost)
    sched = Scheduler()
    out = {}

    def proc():
        out["value"] = yield from interp.run_function("main")

    sched.spawn(proc(), "main")
    sched.run()
    return out["value"], sched.now, sched.dispatch_count


@capture("cminus.timed_delays")
def _timed_delays():
    per_stmt = CostModel(batch_cycles=1)
    return (
        drain_requests(_interp(COMPREHENSIVE)),
        drain_requests(_interp(COMPREHENSIVE, cost=per_stmt)),
        _sched_run(None),
        _sched_run(per_stmt),
    )


@capture("cminus.blocking_io")
def _blocking_io():
    env = ScriptedIo([7, 9])
    interp = _interp(IO_SRC, context=io_context(), env=env)
    reqs, _ = drain_requests(interp, fn="work")
    return reqs, env.written, interp.state.statements_executed


# -------------------------------------------------------- recorded runs

RLE_VALUES = (1, 1, 2, 3, 3, 3, 3, 9, 9, 4)
AM_VALUES = (1, 2, 3, 4)


def _rle_session(values=RLE_VALUES):
    sched, runtime, _sink = build_rle_pipeline(list(values))
    return DataflowSession(Debugger(sched, runtime))


def _recorded_rle(values=RLE_VALUES):
    session = _rle_session(values)
    session.replay.record_on(interval=16)
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    return session


@capture("rle.journal")
def _rle_journal():
    session = _recorded_rle()
    return journal_fingerprint(session.replay.master), session.dbg.runtime.sinks[0].values


@capture("rle.framework_events")
def _rle_framework_events():
    session = _rle_session()
    seen = []
    for symbol in ("pedf_rt_push", "pedf_rt_pop"):
        session.dbg.runtime.bus.subscribe(
            symbol, lambda e: seen.append((e.phase, e.symbol, e.actor)) or None
        )
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    return seen


@capture("rle.replay")
def _rle_replay():
    session = _recorded_rle()
    mgr = session.replay
    mgr.builder = _rle_session
    assert mgr.replay_to("end").kind == StopKind.REPLAY
    rec = mgr.recorder
    assert rec.divergence is None
    return rec.journal.token_stream(), rec.events_compared, rec.checkpoints_verified


SNAPSHOT_VALUES = [5, 5, 5, 2, 7, 7, 1, 2, 3, 4, 9, 9] * 4
RLE_PROPS = ["occupancy pack::o->expand::i <= 0", "rate expand::o == 1 * pack::i tol 6"]


@capture("rle.state_snapshots")
def _rle_state_snapshots():
    return sorted(_recorded_rle(SNAPSHOT_VALUES).replay.master.state_snapshots.items())


@capture("rle.journal_artifacts")
def _rle_journal_artifacts():
    session = _recorded_rle(SNAPSHOT_VALUES)
    journal = session.replay.master
    props = [parse_property(p) for p in RLE_PROPS]
    verdicts = derive_verdicts(journal, props, GraphView(session.model))
    tel = derive_telemetry(journal)
    return (
        journal.token_stream(),
        journal.link_value_streams(),
        "\n".join(line for v in verdicts for line in v.render()),
        tel.sink.snapshot(),
        tel.metrics.render(),
        to_chrome_trace(tel.sink.snapshot().spans, "app"),
    )


@capture("amodule.journal")
def _amodule_journal():
    sched, _platform, runtime, _source, sink = build_demo(AM_VALUES)
    session = DataflowSession(Debugger(sched, runtime))
    session.replay.record_on(interval=8)
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    return journal_fingerprint(session.replay.master), sink.values


@capture("synthetic.push_streams")
def _synthetic_push_streams():
    from repro.apps.synthetic import build_synthetic_pipeline

    sched, runtime, sinks = build_synthetic_pipeline((3, 1, 4, 1, 5))
    session = DataflowSession(Debugger(sched, runtime))
    rec = PushStreamRecorder(runtime)
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    return fingerprint_streams(dict(rec.streams)), [sink.values for sink in sinks]


# ------------------------------------------------------------ telemetry


@capture("obs.telemetry_live")
def _telemetry_live():
    sched, runtime, _sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    dbg = Debugger(sched, runtime)
    session = DataflowSession(dbg, cli=CommandCli(dbg))
    session.telemetry.enable()
    assert run_to_exit(dbg).kind == StopKind.EXITED
    return session.telemetry.metrics.render(), session.telemetry.export_json("rle")


@capture("obs.canonical")
def _canonical():
    return aggregate_journal(_recorded_rle().replay.master).canonical_lines()


# ------------------------------------------------------------------- rv

RV_CHECKS = {
    "rle": [
        ("occupancy pack::o->expand::i <= 0", "log"),
        ("rate expand::o == 1 * pack::i tol 6", "log"),
        ("progress pack every 64", "log"),
    ],
    "amodule": [
        ("occupancy filter_1::an_output->filter_2::an_input <= 0", "log"),
        ("order stim::out before capture::in", "log"),
    ],
}


def _checked_run(sched, runtime, checks):
    """Record a run with live ``checks``; returns the session, the final
    stop kind, the rendered live verdicts and whether ``rv.derive``
    reproduces them from the journal."""
    session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
    session.replay.record_on()
    session.dbg.run()
    for text, action in checks:
        session.checks.add(text, action=action)
    end = run_to_exit(session.dbg).kind.value
    live = session.checks.verdicts
    rendered = [line for v in live for line in v.render()]
    return session, end, rendered, live == session.checks.derive()


@capture("rv.rle")
def _rv_rle():
    sched, runtime, _sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    return _checked_run(sched, runtime, RV_CHECKS["rle"])[1:]


@capture("rv.amodule")
def _rv_amodule():
    sched, _platform, runtime, _source, _sink = build_demo()
    return _checked_run(sched, runtime, RV_CHECKS["amodule"])[1:]


@capture("rv.h264_rate_mismatch")
def _rv_rate_mismatch():
    sched, _platform, runtime, *_ = build_rate_mismatch(n_mbs=24)
    session, *outcome = _checked_run(
        sched, runtime, [("occupancy pipe::Pipe_ipf_out->ipf::Pipe_cfg_in <= 16", "mark")]
    )
    return outcome, [index for index, _ in session.checks.marks]


@capture("rv.h264_dropped_token")
def _rv_dropped_token():
    sched, _platform, runtime, *_ = build_dropped_token(n_mbs=6)
    return _checked_run(sched, runtime, [("deadlock-free", "log")])[1:]


# --------------------------------------------------------------- shards


def _shard_fingerprints(program, hosts, build_session):
    single = build_session(None)
    single.replay.record_on(interval=16)
    assert run_to_exit(single.dbg).kind == StopKind.EXITED
    prints = [fingerprint_streams(single.replay.master.link_value_streams())]
    for n_shards in (1, 2):
        plan = partition_program(program, n_shards, hosts=[HostSpec(*h) for h in hosts])
        run = ShardedRun(plan, build_session, record=True)
        assert run.run().kind == "exited"
        prints.append(run.fingerprint())
    return prints


@capture("shards.rle")
def _shards_rle():
    def build(ctx):
        sched, runtime, _sink = build_rle_pipeline(list(RLE_VALUES), shard=ctx)
        return DataflowSession(Debugger(sched, runtime))

    return _shard_fingerprints(build_rle_program(list(RLE_VALUES)), RLE_HOSTS, build)


@capture("shards.amodule")
def _shards_amodule():
    def build(ctx):
        sched, _plat, runtime, _src, _sink = build_demo(AM_VALUES, shard=ctx)
        return DataflowSession(Debugger(sched, runtime))

    program = build_amodule_program(attribute=1, max_steps=len(AM_VALUES))
    return _shard_fingerprints(program, AMODULE_HOSTS, build)


# ------------------------------------------------ source-level debugging

SCRIPTS = {
    "amodule": [
        "run",
        "break Filter2Filter_work_function", "continue", "info locals", "bt", "delete 1",
        "break the_source.c:6 if v == 3", "continue", "info locals", "print v", "print cmd", "bt",
        "step", "next", "info locals",
        "watch r", "continue", "delete 2", "delete 3",
        "finish", "continue",
    ],
    "rle": [
        "run",
        "break ExpandFilter_work_function", "continue", "info locals", "bt", "delete 1",
        "break pack.c:24 if count == 3", "continue", "info locals", "print idx", "print next", "bt",
        "step", "next", "next", "info locals",
        "watch count", "continue", "delete 2",
        "break pack.c:30", "continue", "delete 4", "finish", "continue",
    ],
    "h264": [
        "run",
        "break McFilter_work_function", "continue", "info locals", "bt", "delete 1",
        "break bh.c:14 if i == 2", "continue", "info locals", "print sum", "print i", "bt",
        "step", "next", "next", "info locals",
        "watch sum", "continue", "continue", "delete 2",
        "finish", "info locals", "continue",
    ],
    # AModule with a helper call in filter_1: parameters, a conditional
    # function breakpoint, stepping into a callee and finishing out of it
    "amodule-calls": [
        "run",
        "break Filter1Filter_scale if x == 2", "continue", "info locals", "bt",
        "finish", "delete 1",
        "break the_source.c:10 if v == 3", "continue", "step", "bt", "next", "info locals",
        "finish", "next", "print r",
        "watch r", "continue", "delete 2", "continue",
    ],
}

CALLS_SOURCE = """\
// the_source.c — AFilter WORK method with a helper call
U32 scale(U32 x, U32 k) {
    U32 y = x * k;
    return y + 1;
}
void work() {
    U32 cmd = pedf.io.cmd_in[0];
    U32 v = pedf.io.an_input[0];
    pedf.data.a_private_data = v;
    U32 r = scale(v, 2);
    pedf.io.an_output[0] = r + cmd * 0;
}
"""


def calls_cli():
    """The AModule demo with ``CALLS_SOURCE`` as filter_1's WORK method."""
    from repro.p2012.soc import P2012Platform, PlatformConfig
    from repro.pedf.runtime import PedfRuntime, RuntimeConfig

    values = [1, 2, 3, 4]
    program = build_amodule_program(max_steps=len(values))
    program.modules["AModule"].filters["filter_1"].source = CALLS_SOURCE
    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=2, pes_per_cluster=4))
    runtime = PedfRuntime(sched, platform, program, RuntimeConfig())
    runtime.add_source("stim", "AModule", "module_in", values)
    runtime.add_sink("capture", "AModule", "module_out", expect=len(values))
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    DataflowSession(dbg, cli=cli, stop_on_init=True)
    return cli


def run_script(app):
    """Run ``SCRIPTS[app]``; returns (stops, transcript).  A stop is its
    kind, actor, file, line, breakpoint id, the stopped actor's statement
    count and the sim time."""
    cli = calls_cli() if app == "amodule-calls" else build_program_cli(app)[0]
    dbg = cli.dbg
    stops = []

    def record(ev):
        interp = dbg.runtime.find_actor(ev.actor).interp if ev.actor else None
        stops.append((
            ev.kind.value, ev.actor, ev.filename, ev.line, ev.bp_id,
            interp.state.statements_executed if interp is not None else None,
            dbg.scheduler.now,
        ))

    dbg.stop_callbacks.append(record)
    transcript = []
    for line in SCRIPTS[app]:
        transcript.append(f"(gdb) {line}")
        transcript.extend(cli.execute(line))
    assert dbg.finished, transcript
    assert not any(line.startswith("error:") for line in transcript), transcript
    kinds = {stop[0] for stop in stops}
    assert {"breakpoint", "function-breakpoint", "step", "watchpoint", "finish"} <= kinds
    return stops, transcript


for _app in SCRIPTS:
    capture(f"debug.{_app}")(lambda app=_app: run_script(app))


# ----------------------------------------------------------------- tests


def test_every_capture_has_a_golden():
    assert sorted(CAPTURES) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_vm_reproduces_golden(name):
    assert digest(CAPTURES[name]()) == GOLDEN[name]


def test_calls_session_reads_parameters_and_callee_locals():
    """Spot-check the transcript a golden pins: a parameter condition, a
    two-frame backtrace and callee locals, all from VM registers."""
    _stops, transcript = run_script("amodule-calls")
    assert "Function breakpoint 1, [AModule.filter_1] Filter1Filter_scale at the_source.c:2" in transcript
    i = transcript.index("(gdb) info locals")
    assert transcript[i + 1:i + 3] == ["k = 2", "x = 2"]
    assert " #1  Filter1Filter_work_function () at the_source.c:10" in transcript
    assert "Run till exit [AModule.filter_1]: Filter1Filter_scale returned 7 at the_source.c:10" in transcript
    j = transcript.index("(gdb) print r")
    assert transcript[j + 1] == "$1 = 7"


if __name__ == "__main__":
    import tempfile

    from repro.obs.flight import FlightRecorder

    FlightRecorder.dump_dir = tempfile.mkdtemp()  # deadlocked runs dump a bundle
    for _name in sorted(CAPTURES):
        print(f'    "{_name}": "{digest(CAPTURES[_name]())}",')
