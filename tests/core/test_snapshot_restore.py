"""O(1)-ish time travel: restorable snapshots must change the *cost* of
a hop, never its outcome.

``replay to`` restoring a parked resident machine and re-executing only
the tail has to be observationally indistinguishable from the old
full re-execution: same journal fingerprint, same ``rv.derive``
verdicts, same derived telemetry — byte for byte, on both interpreter
tiers, and per shard in a sharded run (barrier snapshots).  The cost
side is gated through ``last_restore``: deterministic event counts, not
wall clocks.
"""

import pytest

from repro.apps.amodule import build_demo
from repro.apps.rle import build_rle_pipeline
from repro.apps.rle.app import RLE_HOSTS, build_rle_program
from repro.core import DataflowSession, install_dataflow_commands
from repro.core.shards import ShardedRun
from repro.dbg import CommandCli, Debugger, StopKind
from repro.errors import ReplayError
from repro.obs import derive_telemetry, to_chrome_trace
from repro.rv import GraphView, derive_verdicts, parse_property
from repro.sim.replay import ReplayJournal
from repro.sim.sharding import HostSpec, partition_program

from .util import make_session

VALUES = [5, 5, 5, 2, 7, 7, 1, 2, 3, 4, 9, 9] * 4  # ~1400 journal events
RLE_PROPS = [
    "occupancy pack::o->expand::i <= 0",
    "rate expand::o == 1 * pack::i tol 6",
]


def _set_tier(runtime, tier):
    runtime.config.interp_tier = tier
    for actor in runtime.all_actors():
        interp = getattr(actor, "interp", None)
        if interp is not None:
            interp.tier = tier


def run_to_exit(dbg):
    ev = dbg.run() if not dbg.runtime.loaded else dbg.cont()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


def rle_session(tier="auto", values=VALUES):
    def fresh():
        sched, runtime, sink = build_rle_pipeline(values)
        _set_tier(runtime, tier)
        return DataflowSession(Debugger(sched, runtime))

    session = fresh()
    session.replay.register_builder(fresh)
    return session


def journal_artifacts(journal, model):
    """Everything a consumer can derive from a journal, rendered to
    comparable bytes: fingerprint streams, rv verdicts, telemetry."""
    props = [parse_property(p) for p in RLE_PROPS]
    verdicts = derive_verdicts(journal, props, GraphView(model))
    tel = derive_telemetry(journal)
    return (
        journal.token_stream(),
        journal.link_value_streams(),
        "\n".join(line for v in verdicts for line in v.render()),
        tel.sink.snapshot(),
        tel.metrics.render(),
        to_chrome_trace(tel.sink.snapshot().spans, "app"),
    )


# ------------------------------------------- hop == full re-execution


@pytest.mark.parametrize("tier", ["auto", "slow"])
def test_restore_hop_matches_full_reexecution(tier):
    session = rle_session(tier)
    mgr = session.replay
    mgr.record_on(interval=16)
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    master = mgr.master
    total = master.total_events
    reference = journal_artifacts(master, session.model)

    # first sweep: seeds geometric anchors en route, restores the nearest
    ev = mgr.replay_to("end")
    assert ev.kind == StopKind.REPLAY
    src, target, tail = mgr.last_restore
    assert target == total
    assert src > 0, "expected a resident restore, not a full rebuild"
    assert tail == total - src
    assert tail < total // 2  # O(tail), not O(run length)
    rec = mgr.recorder
    assert rec.divergence is None
    assert journal_artifacts(rec.journal, mgr.session.model) == reference

    # backward hop onto the parked mid anchor: exact hit, zero re-execution
    mid = total // 2
    ev = mgr.replay_to(f"event {mid}")
    assert ev.kind == StopKind.REPLAY
    assert mgr.position == mid
    assert mgr.last_restore == (mid, mid, 0)

    # short forward hop: drives the adopted machine, tail events only
    mgr.replay_to(f"event {mid + 5}")
    assert mgr.last_restore == (mid, mid + 5, 5)

    # the journey changed nothing: the tail-extended journal still
    # matches the master prefix event for event
    assert mgr.recorder.divergence is None
    prefix = mgr.recorder.journal.token_stream()
    assert prefix == master.token_stream()[: len(prefix)]


def test_info_reports_pool_and_last_hop():
    session = rle_session()
    mgr = session.replay
    mgr.record_on(interval=16)
    run_to_exit(session.dbg)
    mgr.replay_to("end")
    text = "\n".join(mgr.info())
    assert "resident snapshots:" in text and "parked @ event(s)" in text
    assert "last hop: to event #" in text and "restored resident @event" in text
    assert "deep snapshot(s) verified identical" in text


def test_shrinking_the_pool_keeps_the_widest_spread_residents():
    """``replay snapshots N`` below the parked count evicts, one at a
    time, the resident nearest its predecessor in position order, with
    position 0 (the free rebuild) as a virtual resident."""
    session = rle_session()
    mgr = session.replay
    cli = CommandCli(session.dbg)
    install_dataflow_commands(cli, session)
    cli.execute("record on every 16")
    run_to_exit(session.dbg)
    assert mgr.master.total_events == 1410
    cli.execute("replay snapshots 8")
    # each backward hop parks the machine it leaves
    for target in ("end", "event 1000", "event 450", "event 400", "event 100", "event 50"):
        assert "[Replayed to event" in cli.execute(f"replay to {target}")[0]
    parked = {r.position: r for r in mgr.pool}
    assert sorted(parked) == [100, 400, 450, 1000, 1410]

    # gaps 100/300/50/550/410: 450 goes first; then gaps 100/300/600/410,
    # so 100 goes (its predecessor is the virtual resident at 0)
    assert cli.execute("replay snapshots 3") == ["Resident snapshot pool: 3 machine(s)."]
    assert sorted(r.position for r in mgr.pool) == [400, 1000, 1410]
    assert parked[450].recorder.detached and parked[100].recorder.detached
    assert not parked[400].recorder.detached
    # gaps 400/600/410: 400 goes
    cli.execute("replay snapshots 2")
    assert sorted(r.position for r in mgr.pool) == [1000, 1410]

    # a survivor still serves hops
    mgr.replay_to("event 1200")
    assert mgr.last_restore == (1000, 1200, 200)
    assert mgr.recorder.divergence is None


def test_pool_off_forces_full_rebuild():
    session = rle_session()
    mgr = session.replay
    mgr.record_on(interval=16)
    run_to_exit(session.dbg)
    total = mgr.master.total_events
    assert mgr.set_pool_limit(0) == [
        "Resident snapshots off (every hop re-executes from the start)."
    ]
    mgr.replay_to("end")
    assert mgr.last_restore == (0, total, total)  # the old O(run) behaviour
    assert not mgr.pool


# ------------------------------------------------- deep journal snapshots


def test_deep_snapshots_recorded_and_verified_on_replay():
    session = rle_session()
    mgr = session.replay
    mgr.record_on(interval=16)
    run_to_exit(session.dbg)
    master = mgr.master
    assert master.state_snapshots, "run too short to cross a snapshot boundary"
    mgr.set_pool_limit(0)  # full sweep => every reference snapshot en route
    mgr.replay_to("end")
    rec = mgr.recorder
    assert rec.divergence is None
    assert rec.snapshots_verified > 0
    assert rec.snapshots_verified <= len(master.state_snapshots)


def test_journal_snapshots_are_tier_invariant():
    """Deep snapshots carry no interpreter frames, so the recorded states
    must be byte-identical between the slow and VM tiers."""
    snaps = {}
    for tier in ("auto", "slow"):
        session = rle_session(tier)
        session.replay.record_on(interval=16)
        run_to_exit(session.dbg)
        snaps[tier] = session.replay.master.state_snapshots
    assert snaps["auto"]
    assert snaps["auto"] == snaps["slow"]


# ------------------------------------------------------- segment rotation


def test_segmented_recording_round_trip_and_hop(tmp_path):
    session = rle_session()
    mgr = session.replay
    mgr.record_on(interval=16, segment_dir=str(tmp_path / "segs"), window=64)
    run_to_exit(session.dbg)
    master = mgr.master
    assert master.segments is not None and master.segments.segments
    assert len(master.events) < 64  # memory stayed within the window

    # identical run on an unbounded journal: every derivable artifact agrees
    twin = rle_session()
    twin.replay.record_on(interval=16)
    run_to_exit(twin.dbg)
    ref = twin.replay.master
    assert master.total_events == ref.total_events
    assert journal_artifacts(master, session.model) == journal_artifacts(
        ref, twin.model
    )

    # time travel over the rotated master (self-check reads segments too)
    mid = master.total_events // 2
    ev = mgr.replay_to(f"event {mid}")
    assert ev.kind == StopKind.REPLAY and mgr.position == mid
    assert mgr.recorder.divergence is None


# ------------------------------------------------------- position parsing


def test_negative_positions_are_rejected():
    session = rle_session()
    mgr = session.replay
    mgr.record_on()
    run_to_exit(session.dbg)
    with pytest.raises(ReplayError, match="bad replay position"):
        mgr.replay_to("time -5")
    with pytest.raises(ReplayError, match="bad replay position"):
        mgr.replay_to("event -3")
    with pytest.raises(ReplayError, match="bad replay position"):
        mgr.replay_to("seq -1")


# -------------------------------------------------------- fork invalidation


def test_fork_invalidates_resident_pool():
    session, cli, dbg, *_ = make_session(
        [1, 2, 3, 4, 5, 6, 7, 8], stop_on_init=True, register_builder=True
    )
    mgr = session.replay
    mgr.record_on(interval=8)
    dbg.run()
    run_to_exit(dbg)
    mgr.replay_to("end")
    assert mgr.pool, "first sweep should have parked anchor machines"
    mid = mgr.master.total_events // 2
    mgr.replay_to(f"event {mid}")
    mgr.session.alter.insert("stim::out", "42")
    # new timeline: parked residents were verified against the old future
    assert mgr.mode == "record"
    assert mgr.pool == []
    assert mgr.last_restore is None


# ---------------------------------------------------------------- CLI layer


def test_journal_has_no_lossy_cap():
    """A journal keeps every event: ``record on`` takes no ``limit``
    and ``ReplayJournal`` no cap parameter."""
    session, cli, dbg, *_ = make_session([5, 6], stop_on_init=True)
    assert cli.execute("record on limit 5") == [
        "error: usage: record on [every N] [segments DIR] [window N] [snapshot M]"
    ]
    assert not session.replay.recording
    with pytest.raises(TypeError):
        ReplayJournal(limit=1)


def test_cli_segment_and_snapshot_options(tmp_path):
    session, cli, dbg, *_ = make_session(
        [5, 6], stop_on_init=True, register_builder=True
    )
    out = cli.execute(f"record on every 8 segments {tmp_path}/segs window 32 snapshot 2")
    assert "segments in" in out[0] and "window 32" in out[0]
    dbg.run()
    run_to_exit(dbg)
    assert any("segments:" in line for line in cli.execute("info replay"))

    assert cli.execute("replay snapshots 2") == [
        "Resident snapshot pool: 2 machine(s)."
    ]
    assert cli.execute("replay snapshots off") == [
        "Resident snapshots off (every hop re-executes from the start)."
    ]
    out = cli.execute("replay snapshots maybe")
    assert out == ["error: usage: replay snapshots N|off"]


# ----------------------------------------------------- sharded runs (2-shard)


def _sharded_rle(snapshots=True):
    plan = partition_program(
        build_rle_program(list(VALUES)), 2, hosts=[HostSpec(*h) for h in RLE_HOSTS]
    )

    def build(ctx):
        sched, runtime, sink = build_rle_pipeline(list(VALUES), shard=ctx)
        return DataflowSession(Debugger(sched, runtime))

    return ShardedRun(plan, build, record=True, snapshots=snapshots)


def test_two_shard_barrier_snapshots_are_deterministic():
    run_a = _sharded_rle()
    assert run_a.run().kind == "exited"
    assert run_a.engine.snapshots_taken > 0
    states_a = run_a.barrier_states()
    assert set(states_a) == {0, 1}

    run_b = _sharded_rle()
    assert run_b.run().kind == "exited"
    # barrier states are a pure function of plan + program: shard for
    # shard, byte for byte — and so is the merged fingerprint
    assert run_b.barrier_states() == states_a
    assert run_b.fingerprint() == run_a.fingerprint()
    assert any("barrier snapshots" in line for line in run_a.info_lines())
