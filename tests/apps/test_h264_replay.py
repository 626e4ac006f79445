"""Acceptance: a full replay of a 40-macroblock H.264 decode reproduces
the live run's token-seq stream exactly (the ISSUE's determinism bar)."""

from repro.apps.h264 import build_decoder, make_macroblocks
from repro.core import DataflowSession
from repro.dbg import Debugger, StopKind


def test_replay_reproduces_40_macroblock_decode():
    mbs = make_macroblocks(40)

    def fresh():
        sched, platform, runtime, source, sink, _ = build_decoder(mbs=mbs)
        return DataflowSession(Debugger(sched, runtime))

    session = fresh()
    session.replay.register_builder(fresh)
    mgr = session.replay
    mgr.record_on(interval=128)

    ev = session.dbg.run()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = session.dbg.cont()
    assert ev.kind == StopKind.EXITED

    live_stream = mgr.master.token_stream()
    live_decoded = session.dbg.runtime.sinks[0].values
    assert len(live_decoded) == 40
    assert len(live_stream) > 40
    assert mgr.master.checkpoints, "decode too short to cross a checkpoint boundary"

    ev = mgr.replay_to("end")
    assert ev.kind == StopKind.REPLAY
    rec = mgr.recorder
    assert rec.divergence is None
    # the replayed token-seq stream is exactly the recorded one
    assert rec.journal.token_stream() == live_stream
    # and the self-check verified every event and en-route checkpoint
    assert rec.events_compared == mgr.master.total_events
    assert rec.checkpoints_verified > 0
