"""Live-collected vs. replay-derived telemetry must be byte-identical.

The ReplayJournal stores the EventRecord the live event tap built for
every framework event; the span builder is restricted to those fields
by design, so deriving telemetry from the journal of a recorded run
must reproduce the live collection exactly — same metrics report, same
exported Chrome trace, byte for byte.
"""

import pytest

from repro.apps.amodule import build_demo
from repro.apps.rle import build_rle_pipeline
from repro.core import DataflowSession
from repro.dbg import Debugger, StopKind
from repro.obs import derive_telemetry, to_chrome_trace


def run_to_exit(dbg):
    ev = dbg.run()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


def rle_build():
    sched, runtime, sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    return DataflowSession(Debugger(sched, runtime))


def amodule_build():
    sched, platform, runtime, source, sink = build_demo()
    return DataflowSession(Debugger(sched, runtime))


@pytest.mark.parametrize("build", [rle_build, amodule_build], ids=["rle", "amodule"])
def test_live_and_derived_telemetry_are_byte_identical(build):
    session = build()
    session.replay.record_on()
    session.telemetry.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED

    tel = session.telemetry
    # the builder is not on the tap: the run fed it nothing, and the
    # first read advances it through the journal
    assert tel.builder.events_fed == 0
    assert tel.sink.dropped == 0
    assert tel.builder.events_fed > 0

    derived = derive_telemetry(session.replay.master)
    assert derived.events_fed == tel.builder.events_fed

    # spans: identical sequence, field for field
    assert derived.sink.snapshot() == tel.sink.snapshot()
    # metrics: identical deterministic report
    assert derived.metrics.render() == tel.metrics.render()
    # export: byte-identical Chrome trace JSON
    live_json = to_chrome_trace(tel.sink.snapshot().spans, "app")
    derived_json = to_chrome_trace(derived.sink.snapshot().spans, "app")
    assert live_json == derived_json


def test_derivation_alone_profiles_a_plain_recorded_run():
    """A run recorded *without* live telemetry is still profilable."""
    session = rle_build()
    session.replay.record_on()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    assert not session.telemetry.enabled

    derived = derive_telemetry(session.replay.master)
    assert len(derived.sink) > 0
    # link attribution came from the journal's side table
    assert derived.metrics.links
    for lm in derived.metrics.links.values():
        assert lm.pushes > 0 and lm.pops > 0
    # filters fired; token counters line up with the fingerprint stream
    produced = sum(m.produced for m in derived.metrics.actors.values())
    assert produced == len(session.replay.master.token_stream())
