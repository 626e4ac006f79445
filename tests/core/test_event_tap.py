"""The session's event plane: one bus tap, every consumer riding it.

Recording, telemetry, runtime verification and the event-journal tail
all observe framework events through one ``"*"`` bus subscription owned
by the session: the recorder and RV per event, telemetry and the tail
as views that read the tap's history when they are read.  The subscription exists exactly while at least one of
them is armed, so with everything off the §V elision fast path keeps
framework calls event-free; and arming them all at once changes nothing
any of them would have seen alone.
"""

from itertools import permutations

import pytest

from repro.apps.amodule import build_demo
from repro.apps.rle import build_rle_pipeline
from repro.core import DataflowSession
from repro.dbg import Debugger, StopKind
from repro.obs import aggregate_journal, derive_telemetry, to_chrome_trace
from repro.pedf import api

ALL_SYMBOLS = [getattr(api, name) for name in dir(api) if name.startswith("SYM_")]

CHECKS = {
    "rle": ["occupancy pack::o->expand::i <= 0", "progress pack every 64"],
    "amodule": [
        "occupancy filter_1::an_output->filter_2::an_input <= 0",
        "order stim::out before capture::in",
    ],
}


def rle_session():
    sched, runtime, _sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    return DataflowSession(Debugger(sched, runtime), stop_on_init=True)


def amodule_session():
    sched, _platform, runtime, _source, _sink = build_demo()
    return DataflowSession(Debugger(sched, runtime), stop_on_init=True)


BUILDERS = {"rle": rle_session, "amodule": amodule_session}


def star_subscriptions(session):
    return list(session.dbg.runtime.bus._listeners.get("*", ()))


def run_to_end(dbg):
    ev = dbg.cont()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


def arm_everything(session, app="rle"):
    """Record, trace, journal-tail and (after graph init) check."""
    session.replay.record_on()
    session.telemetry.enable()
    session.enable_event_journal()
    session.dbg.run()  # stop after framework init: graph reconstructed
    return [session.checks.add(text, action="log") for text in CHECKS[app]]


def test_all_consumers_share_one_star_subscription():
    session = rle_session()
    assert star_subscriptions(session) == []
    checks = arm_everything(session)
    assert session.replay.recording and session.telemetry.enabled
    assert session.checks.armed and session.journal is not None
    assert len(checks) == 2
    (sub,) = star_subscriptions(session)
    assert sub.listener == session.tap._on_event
    assert run_to_end(session.dbg).kind == StopKind.EXITED
    assert len(star_subscriptions(session)) == 1
    assert session.journal_tail(3)


DISARM = {
    "telemetry": lambda s: s.telemetry.disable(),
    "rv": lambda s: [s.checks.remove(cid) for cid in list(s.checks.checks)],
    "record": lambda s: s.replay.record_off(),
    "journal": lambda s: s.disable_event_journal(),
}


@pytest.mark.parametrize(
    "order", list(permutations(DISARM)), ids=lambda order: "-".join(order)
)
def test_disarming_in_any_order_releases_the_bus(order):
    session = rle_session()
    arm_everything(session)
    session.set_data_capture("none")
    for consumer in order:
        assert len(star_subscriptions(session)) == 1, f"lost the tap before {consumer}"
        DISARM[consumer](session)
    assert star_subscriptions(session) == []
    dbg = session.dbg
    assert not session.telemetry.enabled and not session.checks.armed
    assert session.tap.consumers == ()
    bus = dbg.runtime.bus
    unobserved = [sym for sym in ALL_SYMBOLS if sym not in bus._listeners]
    assert unobserved, "capture narrowing left no symbol unobserved"
    assert not any(bus.wants(sym) for sym in unobserved)
    # the machine still runs to completion with the tap gone
    assert run_to_end(dbg).kind == StopKind.EXITED


@pytest.mark.parametrize("app", ["rle", "amodule"])
def test_all_consumers_armed_live_equals_derived(app):
    session = BUILDERS[app]()
    arm_everything(session, app)
    assert run_to_end(session.dbg).kind == StopKind.EXITED
    master = session.replay.master

    tel = session.telemetry
    # the builder is not on the tap: the run fed it nothing, a read does
    assert tel.builder.events_fed == 0
    derived = derive_telemetry(master)
    assert derived.sink.snapshot() == tel.sink.snapshot()
    assert derived.events_fed == tel.builder.events_fed
    assert derived.metrics.render() == tel.metrics.render()
    assert to_chrome_trace(derived.sink.snapshot().spans, "app") == to_chrome_trace(
        tel.sink.snapshot().spans, "app"
    )

    live = session.checks.verdicts
    assert live, "expected at least one violation in the chosen properties"
    assert session.checks.derive() == live

    # the journal tail holds the newest records of the recorded stream
    kept = list(session.journal)
    assert len(kept) == min(master.total_events, session.journal.maxlen)
    first = master.total_events - len(kept) + 1
    recorded = [master.record_at(i) for i in range(first, master.total_events + 1)]
    assert kept == recorded
    assert session.journal_tail(0) == [ev.describe() for ev in kept]

    # arming every consumer at once does not perturb the recorded run
    plain = BUILDERS[app]()
    plain.replay.record_on()
    plain.dbg.run()
    assert run_to_end(plain.dbg).kind == StopKind.EXITED
    assert plain.replay.master.total_events == master.total_events
    assert (
        aggregate_journal(master).canonical_lines()
        == aggregate_journal(plain.replay.master).canonical_lines()
    )


def test_records_of_one_actor_share_one_name_string():
    """Actor names are built once: every journal record of an actor (a
    replay resident keeps thousands) holds the same ``actor`` string
    object, as do the actor's interfaces."""
    session = amodule_session()
    session.replay.record_on()
    session.dbg.run()
    run_to_end(session.dbg)
    by_name = {}
    for rec in session.replay.master.events:
        if rec.actor:
            assert rec.actor is by_name.setdefault(rec.actor, rec.actor)
    actor = session.dbg.runtime.find_actor("AModule.filter_1")
    assert by_name["AModule.filter_1"] is actor.qualname
    iface = actor.ifaces["an_output"]
    assert iface.qualname is iface.qualname  # built once, not per access
    assert iface.full_qualname == "AModule.filter_1::an_output"
    assert session.model.find_connection("filter_1::an_output").qualname == "filter_1::an_output"
