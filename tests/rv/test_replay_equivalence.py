"""Live verdicts vs. journal-derived re-verification: byte-identical.

Monitors consume only journal-derivable event fields, and live checks
index verdicts by the recorder's journal position, so re-running the
same properties over the recorded journal (``rv.derive``) must
reproduce the live verdict stream exactly — same Verdict objects, same
rendered bytes — for healthy runs, seeded bugs and deadlocks alike.
"""

import pytest

from repro.apps.amodule import build_demo
from repro.apps.h264.bugs import build_dropped_token, build_rate_mismatch
from repro.apps.rle import build_rle_pipeline
from repro.core import DataflowSession
from repro.dbg import Debugger, StopKind
from repro.rv import GraphView, derive_verdicts, parse_property


def rle_session():
    sched, runtime, sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    return DataflowSession(Debugger(sched, runtime), stop_on_init=True)


def amodule_session():
    sched, platform, runtime, source, sink = build_demo()
    return DataflowSession(Debugger(sched, runtime), stop_on_init=True)


# properties chosen so each app trips at least one check (occupancy 0 is
# violated by the very first token) and holds at least one other
APP_CHECKS = {
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

BUILDERS = {"rle": rle_session, "amodule": amodule_session}


def run_to_end(dbg):
    ev = dbg.cont()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


def rendered(verdicts):
    return "\n".join(line for v in verdicts for line in v.render())


@pytest.mark.parametrize("app", ["rle", "amodule"])
def test_live_and_derived_verdicts_byte_identical(app):
    session = BUILDERS[app]()
    session.replay.record_on()
    session.dbg.run()  # stop after framework init: graph reconstructed
    for text, action in APP_CHECKS[app]:
        session.checks.add(text, action=action)
    assert run_to_end(session.dbg).kind == StopKind.EXITED

    live = session.checks.verdicts
    assert live, "expected at least one violation in the chosen properties"
    derived = session.checks.derive()
    assert derived == live  # frozen dataclasses: field-for-field equality
    assert rendered(derived) == rendered(live)  # and byte-identical reports


def test_derivation_alone_judges_a_plain_recorded_run():
    """A run recorded *without* live checks is still verifiable post-hoc."""
    session = rle_session()
    session.replay.record_on()
    session.dbg.run()
    assert run_to_end(session.dbg).kind == StopKind.EXITED
    assert not session.checks.armed and session.checks.verdicts == []

    props = [parse_property("occupancy pack::o->expand::i <= 0")]
    verdicts = derive_verdicts(session.replay.master, props, GraphView(session.model))
    assert len(verdicts) == 1
    assert verdicts[0].kind == "occupancy"
    assert verdicts[0].links == ("pack::o->expand::i",)
    assert 0 < verdicts[0].index <= session.replay.master.total_events


def test_h264_rate_mismatch_verdict_identity_and_relocalization():
    """The seeded h264 rate bug: the live ``mark`` verdict, the derived
    verdict, and the ``replay to event N`` landing must all agree."""
    sched, platform, runtime, source, sink, mbs = build_rate_mismatch(n_mbs=24)
    session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
    session.replay.record_on()
    session.dbg.run()
    session.checks.add(
        "occupancy pipe::Pipe_ipf_out->ipf::Pipe_cfg_in <= 16", action="mark"
    )
    run_to_end(session.dbg)

    (live,) = session.checks.verdicts
    ((mark_index, mark_verdict),) = session.checks.marks
    assert mark_index == live.index
    (derived,) = session.checks.derive()
    assert derived == live
    assert derived.render() == live.render()

    # the verdict's event position is addressable by the time-travel
    # machinery: replaying to it re-localizes the violation
    mgr = session.replay

    def fresh():
        s2, p2, r2, *_ = build_rate_mismatch(n_mbs=24)
        return DataflowSession(Debugger(s2, r2))

    mgr.builder = fresh
    ev = mgr.replay_to(f"event {live.index}")
    assert ev.kind == StopKind.REPLAY
    assert mgr.recorder.divergence is None


def test_dropped_token_deadlock_verdict_identity():
    """Deadlock stop analysis reconstructs identical wait-for verdicts
    live (stop callback) and from the journal's stop records."""
    sched, platform, runtime, source, sink, mbs = build_dropped_token(n_mbs=6)
    session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
    session.replay.record_on()
    session.dbg.run()
    session.checks.add("deadlock-free", action="log")
    assert run_to_end(session.dbg).kind == StopKind.DEADLOCK

    (live,) = session.checks.verdicts
    assert live.kind == "deadlock"
    assert "starvation root(s)" in live.message
    (derived,) = session.checks.derive()
    assert derived == live
    assert derived.render() == live.render()
