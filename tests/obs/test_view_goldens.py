"""Telemetry, the flight recorder and the event tail are views of the
session's history: computed when read, identical to live collection.

The digests below were captured from live per-event collection (every
event fed to the span builder as it happened).  Each scenario runs a
command script on the rle demo; at every ``READ`` it digests the spans,
the metrics render, ``trace status``, the flight ring, the per-stop
deltas, the whole flight bundle and the event tail.  The views must
reproduce every digest byte for byte, and the last one must not depend
on whether the earlier reads happened.
"""

import hashlib
import json

import pytest

from repro.errors import DataflowDebugError
from repro.serve.builders import build_program_cli

#: 20 runs of two, so every scenario stops at pack.c:7 before the exit
SHORT = [(i // 2) % 4 for i in range(40)]
#: several thousand events, so an unrecorded run's buffer drains mid-run
LONG = [(i * 7) % 5 for i in range(400)]

SCENARIOS = {
    "recorded": (SHORT, [
        "record on", "trace on", "dataflow events on", "break pack.c:7", "run", "continue",
        "READ", "continue", "continue", "READ", "delete", "continue", "READ",
    ]),
    "mid_run_trace_on": (SHORT, [
        "record on", "break pack.c:7", "run", "continue", "continue", "trace on",
        "continue", "continue", "READ", "delete", "continue", "READ",
    ]),
    "off_on_gap": (SHORT, [
        "record on", "trace on", "break pack.c:7", "run", "continue", "continue", "trace off",
        "continue", "continue", "READ", "trace on", "continue", "READ", "delete", "continue",
        "READ",
    ]),
    "limit_ring": (SHORT, [
        "record on", "trace on limit 5 ring", "break pack.c:7", "run", "continue", "continue",
        "READ", "delete", "continue", "READ",
    ]),
    "limit_cap": (SHORT, [
        "record on", "trace on limit 8", "break pack.c:7", "run", "continue", "continue",
        "READ", "delete", "continue", "READ",
    ]),
    "trace_clear": (SHORT, [
        "record on", "trace on", "break pack.c:7", "run", "continue", "continue", "READ",
        "trace clear", "continue", "READ", "delete", "continue", "READ",
    ]),
    "segments": (LONG, [
        "record on segments {tmp} window 64", "trace on", "break pack.c:7", "run",
        "continue*40", "READ", "trace off", "continue*40", "trace on", "continue*40", "READ",
        "delete", "continue", "READ",
    ]),
    "unrecorded": (LONG, [
        "trace on", "dataflow events on", "break pack.c:7", "run", "continue*30", "READ",
        "continue*60", "READ", "trace off", "continue*30", "trace on", "continue*30", "READ",
        "delete", "continue", "READ",
    ]),
    "record_off_mid_run": (LONG, [
        "record on", "trace on", "dataflow events on", "break pack.c:7", "run", "continue*20",
        "READ", "record off", "continue*140", "READ", "delete", "continue", "READ",
    ]),
    "unrecorded_ring": (LONG, [
        "trace on limit 40 ring", "break pack.c:7", "run", "continue*90", "READ", "delete",
        "continue", "READ",
    ]),
}

GOLDEN = {
    "limit_cap": ["84f30a726e1a69cf", "f1d779edbebc3356"],
    "limit_ring": ["a2741e816ca6175b", "22b6e693cf43afd2"],
    "mid_run_trace_on": ["21a8ecba68073e44", "765a319fe8f768db"],
    "off_on_gap": ["57bab8ea4ca70fe5", "6de7525ad9b104d4", "ee885f91f42a705b"],
    "record_off_mid_run": ["2892d0a1281c7e32", "78a5eb255899e2d9", "aaa150fdea27fec3"],
    "recorded": ["9a337a1c40effea8", "ff726d81318aa03c", "ad9eb7f9042c9c53"],
    "segments": ["a93f893661fb749e", "db2a32d4b3b6efb1", "cea57ffc7426b26f"],
    "trace_clear": ["4b7310bdbb0ea5a2", "75196a0cb1886cc2", "b518f003c1f40e0a"],
    "unrecorded": ["5a868997c407e4b1", "538ad9c9e9dbcb5a", "f615cfbd50b2c77b", "7056d00ed8a59e49"],
    "unrecorded_ring": ["2d9f13284211254c", "abb5072952521e43"],
}

#: ``trace status`` plus the spans and metrics of a live run stopped at
#: event 5 of the rle demo (record on, trace on, run)
LIVE_AT_EVENT_5 = "7ad35da205077aa6"


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def telemetry_state(session):
    tel = session.telemetry
    sink, metrics = tel.sink, tel.metrics
    return {
        "status": tel.status_lines(),
        "spans": None if sink is None else [s.describe() for s in sink.spans],
        "span_counts": None if sink is None else sorted(sink.name_counts.items()),
        "dropped": None if sink is None else sink.dropped,
        "metrics": None if metrics is None else metrics.render(),
    }


def read(session) -> str:
    flight = session.flight
    state = telemetry_state(session)
    state["ring"] = [s.describe() for s in flight.sink.spans]
    state["ring_dropped"] = flight.sink.dropped
    state["deltas"] = list(flight.deltas)
    state["bundle"] = flight.bundle("golden")
    try:
        state["tail"] = session.journal_tail(0)
    except DataflowDebugError:
        state["tail"] = None
    return _digest(state)


def run_scenario(name, tmp_path, reads=True):
    values, script = SCENARIOS[name]
    cli, _sink = build_program_cli("rle", values=values)
    digests = []
    for line in script:
        if line == "READ":
            if reads:
                digests.append(read(cli.dataflow_handler.session))
            continue
        command, _, times = line.partition("*")
        for _ in range(int(times or 1)):
            out = cli.execute(command.format(tmp=tmp_path))
            assert not any(o.startswith("error:") for o in out), (command, out)
    final = read(cli.dataflow_handler.session)
    return (digests[:-1] if reads else []) + [final], cli


def live_at_event_5():
    cli, _sink = build_program_cli("rle")
    session = cli.dataflow_handler.session
    cli.execute("record on")
    cli.execute("trace on")
    session.replay.recorder.target_index = 5
    cli.execute("run")
    return _digest(telemetry_state(session))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_views_reproduce_live_collection(name, tmp_path):
    digests, _cli = run_scenario(name, tmp_path)
    assert digests == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_unread_view_reaches_the_same_state(name, tmp_path):
    """Reading is not a side effect: the final state is the same whether
    or not anything read the views before it."""
    digests, _cli = run_scenario(name, tmp_path, reads=False)
    assert digests == GOLDEN[name][-1:]


def test_live_run_stopped_at_event_5():
    assert live_at_event_5() == LIVE_AT_EVENT_5


def test_hop_carries_telemetry_onto_the_landed_machine():
    """``replay to event 5`` after ``trace on`` and ``run``: telemetry is
    still on, and its spans and metrics are those of a live run stopped
    at event 5.  The event tail follows too."""
    cli, _sink = build_program_cli("rle")
    for command in ("record on", "trace on", "dataflow events on", "run", "replay to event 5"):
        out = cli.execute(command)
        assert not any(o.startswith("error:") for o in out), (command, out)
    assert cli.execute("trace status")[0] == "telemetry: on"
    session = cli.dataflow_handler.session
    assert _digest(telemetry_state(session)) == LIVE_AT_EVENT_5
    master = session.replay.master
    assert cli.execute("dataflow events 3") == [master.record_at(i).describe() for i in (3, 4, 5)]


def test_unread_observed_decode_feeds_the_builder_nothing():
    """The observed decode (capture off, telemetry, the event tail,
    recording and one check armed) leaves the span builder off the
    per-event path: nothing is fed until a read, which then feeds
    exactly the recorded run."""
    from repro.apps.h264.app import build_decoder
    from repro.apps.h264.bitstream import make_macroblocks
    from repro.core import DataflowSession
    from repro.dbg import Debugger, StopKind
    from repro.obs import derive_telemetry

    sched, _plat, runtime, _src, _sink, _mbs = build_decoder(mbs=make_macroblocks(4, seed=1))
    session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
    session.set_data_capture("none")
    session.telemetry.enable()
    session.enable_event_journal()
    session.replay.record_on()
    ev = session.dbg.run()
    session.checks.add("occupancy pipe::Pipe_ipf_out->ipf::Pipe_cfg_in <= 20", action="log")
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = session.dbg.cont()
    assert ev.kind == StopKind.EXITED
    assert session.tap.consumers == (session.checks.feed,)
    assert session.telemetry.builder.events_fed == 0
    master = session.replay.master
    derived = derive_telemetry(master)
    assert session.telemetry.metrics.render() == derived.metrics.render()
    assert session.telemetry.builder.events_fed == derived.events_fed == master.total_events


def test_backward_hop_then_continue_matches_the_live_run():
    """Back to the position of the 4th ``pack.c:7`` hit, then on to the
    5th: the landing (just after that event) first runs into the 4th hit
    again, with no event in between.  At every stop the carried
    telemetry (mid-run ``trace on`` included) equals the live run's at
    the same stop."""
    script = ["record on", "break pack.c:7", "run", "continue", "trace on", "continue*3"]

    def start():
        cli, _sink = build_program_cli("rle", values=SHORT)
        for line in script:
            command, _, times = line.partition("*")
            for _ in range(int(times or 1)):
                cli.execute(command)
        return cli

    live = start()
    position = live.dataflow_handler.session.tap.position
    expected = [_digest(telemetry_state(live.dataflow_handler.session))]
    live.execute("continue")
    expected.append(_digest(telemetry_state(live.dataflow_handler.session)))

    hop = start()
    hop.execute("continue")
    hop.execute("continue")
    out = hop.execute(f"replay to event {position}")
    assert out[0].startswith("Replay stop"), out
    got = [_digest(telemetry_state(hop.dataflow_handler.session))]
    for _ in range(2):
        assert hop.execute("continue")[0].startswith("Breakpoint 1")
        got.append(_digest(telemetry_state(hop.dataflow_handler.session)))
    assert got == [expected[0], expected[0], expected[1]]
