"""Cross-tier determinism: the bytecode and interpreted Filter-C tiers
must be indistinguishable to the record/replay machinery.

Batched Delay flushes are structural, so both tiers issue byte-identical
kernel-request streams — the journal's token stream, checkpoint digests
and dispatch counting therefore match exactly, and a run recorded on one
tier replays cleanly (full determinism self-check) on the other.
"""

import pytest

from repro.apps.rle import build_rle_pipeline
from repro.core import DataflowSession
from repro.dbg import Debugger, StopKind

VALUES = (1, 1, 2, 3, 3, 3, 3, 9, 9, 4)


def fresh_session(tier):
    sched, runtime, sink = build_rle_pipeline(VALUES)
    runtime.config.interp_tier = tier
    for actor in runtime.all_actors():
        interp = getattr(actor, "interp", None)
        if interp is not None:
            interp.tier = tier
    return DataflowSession(Debugger(sched, runtime))


def run_to_exit(dbg):
    ev = dbg.run()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


def record_run(tier, interval=16):
    session = fresh_session(tier)
    mgr = session.replay
    mgr.record_on(interval=interval)
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    return session, mgr.master


def journal_fingerprint(journal):
    return (
        journal.token_stream(),
        [
            (cp.index, cp.dispatch, cp.time, cp.next_seq, cp.occupancy)
            for cp in journal.checkpoints
        ],
        journal.total_events,
    )


def test_journal_fingerprints_identical_across_tiers():
    _, bytecode = record_run("auto")
    _, interpreted = record_run("slow")
    assert bytecode.token_stream(), "run produced no tokens"
    assert bytecode.checkpoints, "run crossed no checkpoint boundary"
    assert journal_fingerprint(bytecode) == journal_fingerprint(interpreted)


def test_framework_event_streams_identical_across_tiers():
    streams = {}
    for tier in ("auto", "slow"):
        session = fresh_session(tier)
        seen = []
        session.dbg.runtime.bus.subscribe(
            "pedf_rt_push",
            lambda e, seen=seen: seen.append((e.phase, e.symbol, e.actor)) or None,
        )
        session.dbg.runtime.bus.subscribe(
            "pedf_rt_pop",
            lambda e, seen=seen: seen.append((e.phase, e.symbol, e.actor)) or None,
        )
        assert run_to_exit(session.dbg).kind == StopKind.EXITED
        streams[tier] = seen
    assert streams["auto"] == streams["slow"]
    assert streams["auto"], "no framework events observed"


@pytest.mark.parametrize(
    "record_tier,replay_tier",
    [("auto", "slow"), ("slow", "auto"), ("vm", "slow"), ("auto", "vm")],
)
def test_record_one_tier_replay_on_the_other(record_tier, replay_tier):
    """The determinism self-check compares every recorded event and every
    checkpoint digest en route — a clean cross-tier replay is the
    strongest equivalence statement the machinery can make.  "vm" is the
    alias wire clients and scripts still pass for "auto": recording
    under it must replay on the tree tier, and a default-tier recording
    must replay under it."""
    session, master = record_run(record_tier)
    mgr = session.replay
    mgr.builder = lambda: fresh_session(replay_tier)

    ev = mgr.replay_to("end")
    assert ev.kind == StopKind.REPLAY
    rec = mgr.recorder
    assert rec.divergence is None
    assert rec.events_compared == master.total_events
    assert rec.checkpoints_verified > 0
    assert rec.journal.token_stream() == master.token_stream()

    # the replayed machine converges on the same final state
    run_to_exit(mgr.session.dbg)
    assert [t.value for t in mgr.session.dbg.runtime.sinks[0].received] == [
        t.value for t in session.dbg.runtime.sinks[0].received
    ]


# ------------------------------------------------- other application graphs


def _retier(runtime, tier):
    runtime.config.interp_tier = tier
    for actor in runtime.all_actors():
        interp = getattr(actor, "interp", None)
        if interp is not None:
            interp.tier = tier


def _amodule_fingerprint(tier):
    from repro.apps.amodule.app import build_demo

    sched, _platform, runtime, _source, sink = build_demo((1, 2, 3, 4))
    _retier(runtime, tier)
    session = DataflowSession(Debugger(sched, runtime))
    mgr = session.replay
    mgr.record_on(interval=8)
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    return journal_fingerprint(mgr.master), [t.value for t in sink.received]


def test_amodule_journal_fingerprints_identical_across_tiers():
    prints = {tier: _amodule_fingerprint(tier) for tier in ("auto", "slow")}
    assert prints["auto"][0][0], "run produced no tokens"
    assert prints["auto"] == prints["slow"]


def _synthetic_fingerprint(tier):
    from repro.apps.synthetic import build_synthetic_pipeline, lcg_reference
    from repro.sim.sharding import PushStreamRecorder, fingerprint_streams

    values = (3, 1, 4, 1, 5)
    sched, runtime, sinks = build_synthetic_pipeline(values)
    _retier(runtime, tier)
    session = DataflowSession(Debugger(sched, runtime))
    rec = PushStreamRecorder(runtime)
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    golden = lcg_reference(values, 25 * 9)
    for sink in sinks:
        assert [t.value for t in sink.received] == golden
    return fingerprint_streams(dict(rec.streams))


def test_synthetic_1000_actor_fingerprints_identical_across_tiers():
    """The headline 1000-actor fabric produces a byte-identical push
    stream no matter which execution tier runs the Filter-C bodies."""
    prints = {tier: _synthetic_fingerprint(tier) for tier in ("auto", "slow")}
    assert prints["auto"] == prints["slow"]
