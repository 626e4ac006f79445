"""Scale sanity: full capture over a long run stays consistent."""

from repro.apps.h264.app import build_decoder
from repro.apps.h264.golden import decode_golden
from repro.core import DataflowSession
from repro.dbg import Debugger, StopKind


def test_long_run_under_full_capture_stays_consistent():
    sched, platform, runtime, source, sink, mbs = build_decoder(n_mbs=200)
    dbg = Debugger(sched, runtime)
    session = DataflowSession(dbg)
    ev = dbg.run()
    assert ev.kind == StopKind.EXITED
    assert sink.values == [g.decoded for g in decode_golden(mbs)]
    # model/runtime agreement holds after tens of thousands of events
    for link in session.model.links:
        assert link.occupancy == 0
        assert link.total_pushed == link.total_popped
    # capture saw every movement: 21 pushes per macroblock
    # (5 stream words + hdr + 4 resid + mbtype + hwcfg + rsum + 2 red +
    #  2 pipe + 2 ipred + 1 mc + 1 ipf ... = count them from the links)
    total_pushes = sum(l.total_pushed for l in session.model.links)
    assert session.capture.data_events_processed == 2 * total_pushes
