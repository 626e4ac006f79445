"""The always-on flight recorder: bounded rings, stop history, and the
automatic post-mortem bundle on violation stops.
"""

import json

import pytest

from repro.apps.rle import build_rle_pipeline
from repro.core import DataflowSession
from repro.dbg import CommandCli, Debugger, StopKind
from repro.obs import derive_telemetry
from repro.obs.flight import AUTO_DUMP_KINDS, FlightRecorder


def rle_session(**kw):
    sched, runtime, _sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    return DataflowSession(dbg, cli=cli, **kw), cli


def run_to_exit(dbg):
    ev = dbg.run()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


def test_recorder_is_armed_from_construction():
    session, _ = rle_session()
    assert isinstance(session.flight, FlightRecorder)
    assert session.flight.auto_dump
    assert "armed (always on)" in session.flight.status_lines()[0]


def test_ring_bounds_span_capture():
    session, _ = rle_session()
    session.flight.sink.limit = 8  # shrink before anything is collected
    session.telemetry.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    snapshot = session.flight.sink.snapshot()
    assert len(snapshot.spans) <= 8
    assert session.flight.sink.dropped > 0  # ring evicted, never grew
    # the full telemetry sink kept everything — the ring is a copy tap
    assert len(session.telemetry.sink) > 8


def test_stop_history_and_deltas_accumulate():
    session, _ = rle_session()
    session.telemetry.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    kinds = [s["kind"] for s in session.flight.stops]
    assert kinds[-1] == "exited"
    assert len(session.flight.deltas) == len(session.flight.stops)
    # counters moved between init and exit, so the exit delta is non-empty
    assert session.flight.deltas[-1]["actors"]


def test_auto_dump_on_violation(tmp_path):
    session, cli = rle_session(stop_on_init=True)
    session.flight.dump_dir = str(tmp_path)
    session.telemetry.enable()
    session.dbg.run()  # stop after init
    session.checks.add("occupancy pack::o->expand::i <= 0")
    ev = session.dbg.cont()
    assert ev.kind == StopKind.VIOLATION
    assert StopKind.VIOLATION in AUTO_DUMP_KINDS
    dumps = list(tmp_path.glob("flight_violation_t*.json"))
    assert len(dumps) == 1
    bundle = json.loads(dumps[0].read_text())
    assert bundle["flight"]["reason"] == "auto:violation"
    assert bundle["stops"][-1]["kind"] == "violation"
    assert bundle["flight"]["telemetry_observed"] is True
    # the CLI stop banner surfaces the dump exactly once
    notice = session.flight.take_notice()
    assert notice is not None and str(dumps[0]) in notice
    assert session.flight.take_notice() is None


def test_auto_dump_can_be_disabled(tmp_path):
    session, cli = rle_session(stop_on_init=True)
    session.flight.dump_dir = str(tmp_path)
    assert cli.execute("flight auto off") == ["flight auto-dump off"]
    session.dbg.run()
    session.checks.add("occupancy pack::o->expand::i <= 0")
    assert session.dbg.cont().kind == StopKind.VIOLATION
    assert list(tmp_path.glob("*.json")) == []
    # the stop itself is still remembered
    assert session.flight.stops[-1]["kind"] == "violation"


def test_manual_dump_via_cli(tmp_path):
    session, cli = rle_session()
    session.telemetry.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    target = tmp_path / "deep" / "bundle.json"
    out = cli.execute(f"flight dump {target}")
    assert out == [f"flight bundle written to {target}"]
    bundle = json.loads(target.read_text())
    assert bundle["flight"]["reason"] == "manual"
    assert bundle["config"] == {"time": bundle["config"]["time"]}
    assert bundle["spans"] and bundle["metrics"]
    # a second dump to the same explicit path needs force
    out = cli.execute(f"flight dump {target}")
    assert out and out[0].startswith("error:")
    assert cli.execute(f"flight dump {target} force")[0].startswith(
        "flight bundle written"
    )


def test_bundle_without_telemetry_says_so(tmp_path):
    session, _ = rle_session()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    bundle = session.flight.bundle("manual")
    assert bundle["flight"]["telemetry_observed"] is False
    assert bundle["spans"] == []
    assert bundle["stops"]  # the stop log is always there


def test_bundle_carries_recorded_token_content():
    session, cli = rle_session(stop_on_init=True)
    session.dbg.run()
    cli.execute("iface pack::o record")
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    tokens = session.flight.bundle("manual")["tokens"]
    assert tokens is not None
    assert any("iface pack::o" in line for line in tokens)
    # paper-style content lines ("#1 (U16) 5") ride along
    assert any(line.strip().startswith("#") for line in tokens)


def test_bundle_carries_journal_refs():
    session, _ = rle_session()
    session.replay.record_on()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    refs = session.flight.bundle("manual")["journal"]
    assert refs is not None and refs["total_events"] > 0


# ------------------------------------------- the flight/telemetry contract


def test_ring_is_the_tail_of_the_telemetry_span_stream():
    """One builder feeds both stores: the ring holds exactly the newest
    spans of an unbounded telemetry sink, and the bundle's metrics are
    the telemetry registry's."""
    session, _ = rle_session()
    session.flight.sink.limit = 8
    session.telemetry.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    ring = session.flight.sink.spans
    full = session.telemetry.sink.spans
    assert len(ring) == 8 and len(full) > 8
    assert ring == full[-8:]
    assert session.flight.sink.total("push") == session.telemetry.sink.total("push")
    bundle = session.flight.bundle("manual")
    assert bundle["metrics"] == session.telemetry.metrics.render()
    assert bundle["config"]["time"] == session.telemetry.metrics.last_time


def test_ring_keeps_newest_spans_when_telemetry_caps():
    """``trace on limit N`` drops the newest spans from the telemetry
    sink; the ring keeps its own policy and still ends at the run's
    last span (the full stream is derived from the recorded journal)."""
    session, cli = rle_session()
    session.replay.record_on()
    cli.execute("trace on limit 8")
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    capped = session.telemetry.sink
    assert len(capped) == 8 and capped.dropped > 0
    full = derive_telemetry(session.replay.master).sink.spans
    ring = session.flight.sink.spans
    assert len(ring) == min(len(full), session.flight.sink.limit)
    assert ring == full[-len(ring):]
    assert capped.spans == full[:8]


def test_trace_clear_keeps_the_ring_and_restarts_deltas(tmp_path):
    session, cli = rle_session(stop_on_init=True)
    cli.execute("trace on")
    session.dbg.run()  # init stop
    cli.execute("break pack.c:7")
    for _ in range(3):  # let the old registry's counters grow
        assert session.dbg.cont().kind == StopKind.BREAKPOINT
    old_registry = session.telemetry.metrics
    ring_before = session.flight.sink.spans
    assert ring_before
    assert cli.execute("trace clear") == ["telemetry data cleared"]
    assert session.flight.sink.spans == ring_before  # the ring is not telemetry's to clear
    assert session.telemetry.metrics is not old_registry
    assert session.dbg.cont().kind == StopKind.BREAKPOINT
    # the delta at the first stop after the clear counts from the fresh
    # registry's zero, so it equals that registry's counters
    delta = session.flight.deltas[-1]["actors"]
    fresh = session.telemetry.metrics.actors
    assert delta
    for name, diff in delta.items():
        assert all(value > 0 for value in diff.values()), (name, diff)
        counters = fresh[name]
        assert all(getattr(counters, field) == value for field, value in diff.items())
    assert len(session.flight.sink.spans) > len(ring_before)
    target = tmp_path / "after_clear.json"
    assert cli.execute(f"flight dump {target}") == [f"flight bundle written to {target}"]
    bundle = json.loads(target.read_text())
    assert bundle["flight"]["telemetry_observed"] is True
    assert bundle["spans"] == [s.describe() for s in session.flight.sink.spans]
    assert bundle["metrics"] == session.telemetry.metrics.render()


def test_info_flight_is_the_status_report():
    session, cli = rle_session()
    assert cli.execute("info flight") == session.flight.status_lines()
    session.telemetry.enable()
    run_to_exit(session.dbg)
    status = cli.execute("flight status")
    assert status[0] == "flight recorder: armed (always on)"
    assert cli.execute("info flight") == status
