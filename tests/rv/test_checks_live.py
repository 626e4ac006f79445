"""Live check behaviour: violation stops, actions, arming, disarm mid-run."""

import pytest

from repro.apps.h264.bugs import build_dropped_token, build_rate_mismatch
from repro.apps.rle import build_rle_pipeline
from repro.core import DataflowSession
from repro.dbg import CommandCli, Debugger, StopKind


def rle_session(**kw):
    sched, runtime, sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    return DataflowSession(Debugger(sched, runtime), stop_on_init=True, **kw)


def run_to_end(dbg):
    ev = dbg.cont()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


def test_violation_raises_structured_stop():
    session = rle_session()
    session.dbg.run()  # stop after init
    session.checks.add("occupancy pack::o->expand::i <= 0")
    ev = session.dbg.cont()
    assert ev.kind == StopKind.VIOLATION
    v = ev.payload
    assert v is not None and v.kind == "occupancy"
    assert v.links == ("pack::o->expand::i",)
    assert v.actors == ("codec.pack", "codec.expand")
    assert ev.actor == "codec.pack"
    assert ev.message == v.headline()
    # the stop renders the full verdict, GDB-style
    text = "\n".join(ev.describe())
    assert "Check violated:" in text and "witness:" in text
    # ... and the program is resumable past the (one-shot) check
    assert run_to_end(session.dbg).kind == StopKind.EXITED


def test_log_action_keeps_running():
    session = rle_session()
    session.dbg.run()
    session.checks.add("occupancy pack::o->expand::i <= 0", action="log")
    assert run_to_end(session.dbg).kind == StopKind.EXITED
    assert len(session.checks.verdicts) == 1
    assert session.checks.marks == []


def test_mark_action_records_replay_position():
    session = rle_session()
    session.replay.record_on()
    session.dbg.run()
    session.checks.add("occupancy pack::o->expand::i <= 0", action="mark")
    assert run_to_end(session.dbg).kind == StopKind.EXITED
    assert len(session.checks.marks) == 1
    index, verdict = session.checks.marks[0]
    assert index == verdict.index > 0
    # the marked position is addressable by the time-travel machinery
    assert index <= session.replay.master.total_events


def test_arming_follows_enabled_checks():
    session = rle_session()
    session.dbg.run()
    tap = session.tap
    assert not session.checks.armed and session.checks.feed not in tap.consumers
    check = session.checks.add("occupancy pack::o->expand::i <= 4", action="log")
    assert session.checks.armed and session.checks.feed in tap.consumers
    session.checks.set_enabled(check.id, False)
    assert not session.checks.armed and session.checks.feed not in tap.consumers
    session.checks.set_enabled(check.id, True)
    assert session.checks.armed
    session.checks.remove(check.id)
    assert not session.checks.armed and session.checks.feed not in tap.consumers


def test_disarm_mid_run_stops_judging():
    session = rle_session()
    session.dbg.run()
    check = session.checks.add("occupancy pack::o->expand::i <= 0")
    ev = session.dbg.cont()
    assert ev.kind == StopKind.VIOLATION
    # a tripped one-shot check never re-fires; disabling it disarms the tap
    session.checks.set_enabled(check.id, False)
    assert session.checks.feed not in session.tap.consumers
    assert run_to_end(session.dbg).kind == StopKind.EXITED
    assert len(session.checks.verdicts) == 1


def test_rate_property_holds_on_healthy_rle():
    session = rle_session()
    session.dbg.run()
    session.checks.add("rate expand::o == 1 * pack::i tol 6", action="log")
    assert run_to_end(session.dbg).kind == StopKind.EXITED
    assert session.checks.verdicts == []


def test_occupancy_check_catches_seeded_rate_mismatch_bug():
    """The h264 rate-mismatch bug (ipf never pops its cfg tokens) is
    caught by a plain occupancy bound, well before the link fills."""
    sched, platform, runtime, source, sink, mbs = build_rate_mismatch(n_mbs=24)
    session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
    session.dbg.run()
    session.checks.add("occupancy pipe::Pipe_ipf_out->ipf::Pipe_cfg_in <= 16")
    ev = session.dbg.cont()
    assert ev.kind == StopKind.VIOLATION
    assert ev.payload.links == ("pipe::Pipe_ipf_out->ipf::Pipe_cfg_in",)
    assert ev.payload.actors == ("pred.pipe", "pred.ipf")


def test_deadlock_free_check_diagnoses_dropped_token_bug():
    sched, platform, runtime, source, sink, mbs = build_dropped_token(n_mbs=6)
    session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
    session.dbg.run()
    session.checks.add("deadlock-free", action="log")
    ev = run_to_end(session.dbg)
    assert ev.kind == StopKind.DEADLOCK
    (verdict,) = session.checks.verdicts
    assert "starvation root(s)" in verdict.message
    assert "pred.ipred" in verdict.actors and "front.hwcfg" in verdict.actors
    assert verdict.links == ("hwcfg::HwCfg_out->ipred::Hwcfg_in",)


def test_check_command_round_trip():
    sched, runtime, sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    DataflowSession(dbg, stop_on_init=True, cli=cli)
    out = cli.execute_script([
        "run",
        "check add log occupancy pack::o->expand::i <= 0",
        "check list",
        "continue",
        "info checks",
        "info verdict",
    ])
    text = "\n".join(out)
    assert "armed check 1" in text
    assert "tripped" in text
    assert "occupancy of pack::o->expand::i reached 1" in text
    assert "witness:" in text


def test_check_completion_offers_verbs_then_graph_names():
    sched, runtime, sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    DataflowSession(dbg, stop_on_init=True, cli=cli)
    dbg.run()
    handler = cli.dataflow_handler
    assert handler.complete_check("ad") == ["add"]
    assert "occupancy" in handler.complete_check("add occ")[:1] or \
        handler.complete_check("add occ") == ["occupancy"]
    names = handler.complete_check("add occupancy pack")
    assert "pack" in names and "pack::o" in names


def test_deferred_checks_arm_at_first_post_init_stop():
    session = rle_session()
    session.checks.add_deferred("occupancy pack::o->expand::i <= 0", "stop")
    assert session.checks.pending and not session.checks.armed
    session.dbg.run()  # init stop compiles + arms the queued check
    assert not session.checks.pending and session.checks.armed
    ev = session.dbg.cont()
    assert ev.kind == StopKind.VIOLATION
