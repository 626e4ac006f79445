"""Monitor unit tests over synthetic event streams."""

from repro.pedf.api import (
    SYM_ACTOR_START,
    SYM_ACTOR_SYNC,
    SYM_POP,
    SYM_PUSH,
    SYM_STEP_BEGIN,
    SYM_WAIT_SYNC,
    SYM_WORK_ENTER,
)
from repro.rv.monitors import (
    DeadlockMonitor,
    OccupancyMonitor,
    OrderMonitor,
    ProgressMonitor,
    RateMonitor,
)
from repro.sim.replay import EventRecord

L = "a::o->b::i"


def push(t, actor="m.a", link=L, phase="exit", seq=None):
    return EventRecord(t, phase, SYM_PUSH, actor, seq, link, None)


def pop(t, actor="m.b", link=L, phase="exit", seq=None):
    return EventRecord(t, phase, SYM_POP, actor, seq, link, None)


def step(t, ctl="m.ctl"):
    return EventRecord(t, "entry", SYM_STEP_BEGIN, ctl, None, None, None)


def work(t, actor, phase="entry"):
    return EventRecord(t, phase, SYM_WORK_ENTER, actor, None, None, None)


# ------------------------------------------------------------- occupancy


def test_occupancy_counts_only_exits_on_its_link():
    mon = OccupancyMonitor(1, "p", L, "<=", 1, "m.a", "m.b")
    assert mon.feed(push(1), 1) is None
    assert mon.feed(push(2, phase="entry"), 2) is None  # entries don't count
    assert mon.feed(push(3, link="x::o->y::i"), 3) is None  # other link
    assert mon.occupancy == 1
    v = mon.feed(push(4, seq=9), 4)
    assert v is not None and mon.tripped
    assert v.message == "occupancy of a::o->b::i reached 2 (bound: <= 1)"
    assert v.actors == ("m.a", "m.b") and v.links == (L,)
    assert v.witness == ("t=4 pedf_rt_push:exit [m.a] link=a::o->b::i seq=9",)
    # one-shot: further violations produce no new verdicts
    assert mon.feed(push(5), 5) is None


def test_occupancy_lower_bound():
    mon = OccupancyMonitor(1, "p", L, ">=", 0, "m.a", "m.b")
    assert mon.feed(push(1), 1) is None
    assert mon.feed(pop(2), 2) is None  # back to 0, still >= 0
    v = mon.feed(pop(3), 3)
    assert v is not None and "reached -1" in v.message


# ------------------------------------------------------------------ rate


def test_rate_with_fraction_and_tolerance():
    # produced == (1/2) * consumed, tol 1
    mon = RateMonitor(1, "p", "pl", SYM_PUSH, "cl", SYM_POP, 1, 2, 1, ("m.f", "m.g"))
    for t in range(4):  # trips at the 3rd consume: |0*2 - 1*3| = 3 > tol*den = 2
        v = mon.feed(pop(t, link="cl"), t)
        if v is not None:
            break
    assert v is not None
    assert mon.consumed == 3 and mon.produced == 0
    assert "invariant: produced == 1/2 * consumed, tol 1" in v.message


def test_rate_holds_within_tolerance():
    mon = RateMonitor(1, "p", "pl", SYM_PUSH, "cl", SYM_POP, 1, 1, 1, ("m.f", "m.g"))
    for t in range(50):
        assert mon.feed(pop(2 * t, link="cl"), 2 * t) is None
        assert mon.feed(push(2 * t + 1, link="pl"), 2 * t + 1) is None
    assert not mon.tripped


# ----------------------------------------------------------------- order


def test_order_trips_when_after_overtakes_before():
    mon = OrderMonitor(1, "p", "bl", SYM_PUSH, "al", SYM_PUSH, ("m.a", "m.b"))
    assert mon.feed(push(1, link="bl"), 1) is None
    assert mon.feed(push(2, link="al"), 2) is None  # 1 <= 1, fine
    v = mon.feed(push(3, link="al"), 3)
    assert v is not None
    assert "event #2 on al has only 1 preceding event(s) on bl" in v.message


# -------------------------------------------------------------- progress


def test_progress_trips_after_n_silent_steps():
    mon = ProgressMonitor(1, "p", "m.f", 2)
    assert mon.feed(work(1, "m.f"), 1) is None
    assert mon.feed(step(2), 2) is None
    assert mon.feed(step(3), 3) is None
    v = mon.feed(step(4), 4)
    assert v is not None
    assert "m.f has not fired for 3 controller step(s)" in v.message
    assert v.actors == ("m.f", "m.ctl")


def test_progress_resets_on_fire():
    mon = ProgressMonitor(1, "p", "m.f", 2)
    for t in range(12):
        assert mon.feed(step(3 * t), 3 * t) is None
        assert mon.feed(work(3 * t + 1, "m.f"), 3 * t + 1) is None
    assert not mon.tripped


# -------------------------------------------------------------- deadlock


def deadlock_monitor():
    link_ends = {
        "a::o->b::i": ("m.a", "m.b"),
        "b::o->a::i": ("m.b", "m.a"),
        "c::o->a::i2": ("m.c", "m.a"),
    }
    return DeadlockMonitor(1, "deadlock-free", link_ends, {"m.ctl": ("m.a", "m.b")})


def test_deadlock_finds_wait_for_cycle():
    mon = deadlock_monitor()
    # a inside a blocked push to b; b inside a blocked push back to a
    mon.feed(push(1, actor="m.a", phase="entry"), 1)
    mon.feed(push(2, actor="m.b", link="b::o->a::i", phase="entry"), 2)
    v = mon.at_stop("deadlock", 10, 99)
    assert v is not None
    assert v.message == (
        "wait-for cycle: m.a -[push via a::o->b::i]-> m.b; "
        "m.b -[push via b::o->a::i]-> m.a"
    )
    assert v.actors == ("m.a", "m.b")
    assert v.links == ("a::o->b::i", "b::o->a::i")
    assert v.index == 99 and v.time == 10


def test_deadlock_reports_starvation_root_when_no_cycle():
    mon = deadlock_monitor()
    # a blocked popping from c, but c is not blocked (it just never pushes)
    mon.feed(pop(1, actor="m.a", link="c::o->a::i2", phase="entry"), 1)
    v = mon.at_stop("deadlock", 5, 7)
    assert v is not None
    assert v.message == (
        "no wait-for cycle; starvation root(s): m.a blocked in pop "
        "c::o->a::i2, waiting on m.c (not blocked)"
    )
    assert v.actors == ("m.a", "m.c")


def test_deadlock_sees_through_matched_calls():
    mon = deadlock_monitor()
    # a's push completes (entry+exit): not blocked, no verdict material
    mon.feed(push(1, actor="m.a", phase="entry"), 1)
    mon.feed(push(2, actor="m.a", phase="exit"), 2)
    v = mon.at_stop("deadlock", 3, 3)
    assert v is not None  # platform said deadlock; nothing blocked on IO
    assert "no actor inside a blocking framework call" in v.message


def test_deadlock_wait_sync_edge():
    mon = deadlock_monitor()
    start = EventRecord(1, "exit", SYM_ACTOR_START, "m.ctl", None, None, "m.a")
    mon.feed(start, 1)  # ctl started a once
    sync = EventRecord(2, "exit", SYM_ACTOR_SYNC, "m.ctl", None, None, "m.a")
    mon.feed(sync, 2)  # ctl requested sync-up to a's 1 start
    wait = EventRecord(3, "entry", SYM_WAIT_SYNC, "m.ctl", None, None, None)
    mon.feed(wait, 3)  # ctl now waits; a has 0 of 1 works done
    mon.feed(pop(4, actor="m.a", link="c::o->a::i2", phase="entry"), 4)
    v = mon.at_stop("deadlock", 5, 5)
    assert v is not None
    # ctl waits on a, a waits on unblocked c: a is the starvation root
    assert "m.a blocked in pop c::o->a::i2, waiting on m.c (not blocked)" in v.message


def test_deadlock_only_trips_on_deadlock_stops():
    mon = deadlock_monitor()
    mon.feed(push(1, actor="m.a", phase="entry"), 1)
    assert mon.at_stop("breakpoint", 2, 2) is None
    assert not mon.tripped
