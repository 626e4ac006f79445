"""One restore rule: where a hop starts never shows in where it lands.

Every ``replay to`` / ``reverse-continue`` hop starts from the highest
machine at or below its target — a parked resident, the current
replayed machine, or a fresh build — and re-executes the tail.  The same
seeded hop script must therefore give, whether the resident pool is off,
small or at its default size, the landings, stop messages, replayed
token streams and machine states a fresh build driven to each target
gives; only ``last_restore`` (the cost) may differ.
"""

import random

import pytest

from repro.apps.amodule import build_demo
from repro.apps.h264 import build_decoder
from repro.apps.rle import build_rle_pipeline
from repro.core import DataflowSession
from repro.core.replay import ReplayManager
from repro.dbg import Debugger, StopKind
from repro.sim.snapshot import capture_machine_state

RLE_VALUES = [5, 5, 5, 2, 7, 7, 1, 2, 3, 4, 9, 9] * 4

#: app -> (machine factory, the interface whose pushes are the dataflow
#: stops ``reverse-continue`` walks back over)
APPS = {
    "rle": (lambda: build_rle_pipeline(RLE_VALUES)[:2], "pack::o"),
    "amodule": (lambda: build_demo(list(range(1, 13)), 1)[0:3:2], "filter_1::an_output"),
    "h264": (lambda: build_decoder(n_mbs=8)[0:3:2], "ipf::decoded_out"),
}


def record(app):
    """A recorded run of ``app`` with a dataflow stop at every push on
    its catch interface; returns the replay manager."""
    factory, catch = APPS[app]

    def fresh():
        sched, runtime = factory()
        return DataflowSession(Debugger(sched, runtime))

    sched, runtime = factory()
    session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
    session.replay.register_builder(fresh)
    session.replay.record_on(interval=16)
    session.dbg.run()
    session.catch_iface(catch)
    ev = session.dbg.cont()
    while ev.kind == StopKind.DATAFLOW:
        ev = session.dbg.cont()
    assert ev.kind == StopKind.EXITED
    return session.replay


def hop_script(mgr, seed=7, hops=24):
    """Seeded ``("to", K)`` / ``("rc", None)`` hops; every fifth repeats
    the previous ``replay to`` target (an exact hit on the current
    machine), every other such repeat after a ``next`` has moved the
    machine past its landing."""
    rng = random.Random(seed)
    total = mgr.master.total_events
    script, last = [], None
    for i in range(hops):
        if i % 5 == 4 and last is not None:
            if i % 10 == 9:
                script.append(("next", None))
            script.append(("to", last))
        elif i % 3 == 2:
            script.append(("rc", None))
        else:
            last = rng.randint(1, total)
            script.append(("to", last))
    return script


def landing(mgr, ev):
    """What a hop observably did: where it landed, its stop, the replayed
    token stream and the machine state there."""
    dbg = mgr.session.dbg
    assert mgr.recorder.divergence is None
    return (
        mgr.position,
        ev.kind,
        ev.describe(),
        mgr.recorder.journal.token_stream(),
        capture_machine_state(dbg.scheduler, dbg.runtime, include_frames=True),
    )


def step_off_landing(mgr):
    """``next`` in the actor the current machine landed in, if it runs
    C code there; returns whether the machine moved."""
    dbg = mgr.session.dbg
    name = dbg.last_stop.actor
    interp = getattr(dbg.select_actor(name), "interp", None) if name else None
    if interp is None or interp.frame is None:
        return False
    dbg.next_()
    return True


def fresh_landing(mgr, target):
    """The landing at ``target`` of a new manager over the same journal,
    pool off: a fresh build driven from the start."""
    ref = ReplayManager(mgr.builder())
    ref.register_builder(mgr.builder)
    ref.master = mgr.master
    ref.set_pool_limit(0)
    ev = ref.replay_to(f"event {target}")
    assert ref.last_restore == (0, target, target)
    return landing(ref, ev)


def walk(app, pool):
    """Run the hop script at pool size ``pool``; returns each hop's
    landing, each target's fresh landing and the total re-executed tail."""
    mgr = record(app)
    if pool is not None:
        mgr.set_pool_limit(pool)
    landings, fresh, tails = [], [], 0
    for op, target in hop_script(mgr):
        if op == "next":
            step_off_landing(mgr)
            continue
        if op == "rc":
            earlier = [
                s for s in mgr.master.stops
                if s.kind == StopKind.DATAFLOW.value and s.index < (mgr.position or 0)
            ]
            if not earlier:
                continue
            ev = mgr.reverse_continue()
        else:
            ev = mgr.replay_to(f"event {target}")
        landings.append(landing(mgr, ev))
        fresh.append(fresh_landing(mgr, mgr.position))
        tails += mgr.last_restore[2]
    return landings, fresh, tails


@pytest.mark.parametrize("app", sorted(APPS))
def test_restore_source_is_invisible(app):
    tails = {}
    for pool in (0, 4, None):
        landings, fresh, tails[pool] = walk(app, pool)
        assert len(landings) > 10
        assert landings == fresh
    # only the cost differs: more residents never re-execute more
    assert tails[None] <= tails[4] < tails[0]


@pytest.mark.parametrize("app", sorted(APPS))
def test_replay_to_after_next_lands_where_a_fresh_build_does(app):
    """``replay to K``, ``next``, ``replay to K``: the machine moved off
    its landing without moving its event position, so the second hop
    must not take it — current or parked — as an exact hit."""
    mgr = record(app)
    target = mgr.master.total_events // 2
    while True:  # a landing in C code whose next line makes no API call
        mgr.replay_to(f"event {target}")
        if step_off_landing(mgr) and mgr.position == target:
            break
        target += 1
    again = mgr.replay_to(f"event {target}")
    assert mgr.last_restore[0] < target
    assert landing(mgr, again) == fresh_landing(mgr, target)
    # parked after a next, the machine is no exact hit either
    assert step_off_landing(mgr) and mgr.position == target
    mgr.replay_to(f"event {target - 1}")
    assert [r.landed for r in mgr.pool if r.position == target] == [False]
    again = mgr.replay_to(f"event {target}")
    assert mgr.last_restore[0] < target
    assert landing(mgr, again) == fresh_landing(mgr, target)


def test_second_replay_to_the_same_event_reexecutes_nothing():
    mgr = record("h264")
    first = mgr.replay_to("event 500")
    assert mgr.last_restore[1] == 500
    again = mgr.replay_to("event 500")
    assert mgr.last_restore == (500, 500, 0)
    assert mgr.position == 500
    assert again.describe() == first.describe()
    assert mgr.session.dbg.last_stop is again
    info = "\n".join(mgr.info())
    assert (
        "last hop: to event #500, drove current machine from event #500, "
        "0 event(s) re-executed"
    ) in info


def _continue_to_next_stop(mgr):
    """``continue`` the current replayed machine to its next dataflow
    stop; returns the event position it stands at."""
    mgr.session.catch_iface(APPS["rle"][1])
    assert mgr.session.dbg.cont().kind == StopKind.DATAFLOW
    return mgr.recorder.journal.total_events


def test_current_machine_serves_hops_from_where_it_really_stands():
    """A replayed machine the user continued is past its landing: a hop
    to a target it already passed must not start from it, and a hop
    beyond it re-executes only from where it stands."""
    mgr = record("rle")
    stops = [s.index for s in mgr.master.stops if s.kind == StopKind.DATAFLOW.value]
    mgr.replay_to(f"event {stops[2] - 3}")
    assert _continue_to_next_stop(mgr) == stops[2]
    # behind the machine: another source, exact landing
    mgr.replay_to(f"event {stops[2] - 1}")
    assert mgr.position == stops[2] - 1
    assert mgr.last_restore[0] < stops[2] - 3
    assert mgr.recorder.divergence is None
    # ahead of the machine: driven from where it stands
    here = _continue_to_next_stop(mgr)
    assert here == stops[2]
    mgr.replay_to(f"event {here + 5}")
    assert mgr.last_restore == (here, here + 5, 5)
    assert mgr.position == here + 5
    assert mgr.recorder.divergence is None


def test_pool_off_parks_nothing():
    """``replay snapshots off``: a hop behind the current machine rebuilds,
    and the abandoned machine is not parked; the current machine still
    serves hops ahead of it and exact hits."""
    mgr = record("rle")
    mgr.set_pool_limit(0)
    mgr.replay_to("event 300")
    mgr.replay_to("event 400")
    assert mgr.last_restore == (300, 400, 100)
    mgr.replay_to("event 400")
    assert mgr.last_restore == (400, 400, 0)
    mgr.replay_to("event 350")
    assert mgr.last_restore == (0, 350, 350)
    assert mgr.pool == []


def test_reverse_continue_starts_from_where_the_machine_stands():
    """``position`` follows the current machine, so after continuing over
    two dataflow stops, ``reverse-continue`` goes back to the first."""
    mgr = record("rle")
    stops = [s.index for s in mgr.master.stops if s.kind == StopKind.DATAFLOW.value]
    mgr.replay_to(f"event {stops[1] + 1}")
    assert _continue_to_next_stop(mgr) == stops[2]
    assert mgr.session.dbg.cont().kind == StopKind.DATAFLOW
    assert mgr.position == stops[3]
    assert f"position: event #{stops[3]} of" in "\n".join(mgr.info())
    mgr.reverse_continue()
    assert mgr.position == stops[2]
    assert mgr.recorder.divergence is None
