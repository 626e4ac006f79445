"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.errors import DeadlockError
from repro.sim import (
    Delay,
    Event,
    Process,
    ProcessState,
    Scheduler,
    StopKind,
    Suspend,
    WaitEvent,
    Yield,
)


def test_single_process_runs_to_completion():
    sched = Scheduler()
    log = []

    def proc():
        log.append(("start", sched.now))
        yield Delay(5)
        log.append(("after", sched.now))

    sched.spawn(proc(), "p")
    stop = sched.run()
    assert stop.kind == StopKind.EXHAUSTED
    assert log == [("start", 0), ("after", 5)]
    assert sched.now == 5


def test_process_return_value_captured():
    sched = Scheduler()

    def proc():
        yield Delay(1)
        return 42

    p = sched.spawn(proc(), "p")
    sched.run()
    assert p.state == ProcessState.TERMINATED
    assert p.result == 42


def test_two_processes_interleave_deterministically():
    sched = Scheduler()
    log = []

    def proc(tag, d):
        for _ in range(3):
            log.append((tag, sched.now))
            yield Delay(d)

    sched.spawn(proc("a", 2), "a")
    sched.spawn(proc("b", 3), "b")
    stop = sched.run()
    assert stop.kind == StopKind.EXHAUSTED
    assert log == [
        ("a", 0), ("b", 0), ("a", 2), ("b", 3), ("a", 4), ("b", 6),
    ]


def test_delay_zero_requeues_fifo():
    sched = Scheduler()
    log = []

    def proc(tag):
        for _ in range(2):
            log.append(tag)
            yield Delay(0)

    sched.spawn(proc("a"), "a")
    sched.spawn(proc("b"), "b")
    sched.run()
    assert log == ["a", "b", "a", "b"]
    assert sched.now == 0


def test_yield_equivalent_to_delay_zero():
    sched = Scheduler()
    log = []

    def proc(tag):
        log.append(tag)
        yield Yield()
        log.append(tag)

    sched.spawn(proc("a"), "a")
    sched.spawn(proc("b"), "b")
    sched.run()
    assert log == ["a", "b", "a", "b"]


def test_event_wait_and_notify():
    sched = Scheduler()
    ev = sched.event("go")
    log = []

    def waiter():
        yield WaitEvent(ev)
        log.append(("woken", sched.now))

    def notifier():
        yield Delay(10)
        ev.notify()

    sched.spawn(waiter(), "w")
    sched.spawn(notifier(), "n")
    stop = sched.run()
    assert stop.kind == StopKind.EXHAUSTED
    assert log == [("woken", 10)]


def test_event_broadcast_wakes_all_waiters():
    sched = Scheduler()
    ev = sched.event()
    woken = []

    def waiter(tag):
        yield WaitEvent(ev)
        woken.append(tag)

    for tag in "abc":
        sched.spawn(waiter(tag), tag)

    def notifier():
        yield Delay(1)
        assert ev.notify() == 3

    sched.spawn(notifier(), "n")
    sched.run()
    assert woken == ["a", "b", "c"]


def test_deadlock_detected_and_reported():
    sched = Scheduler()
    ev = sched.event("never")

    def waiter():
        yield WaitEvent(ev)

    sched.spawn(waiter(), "stuck1")
    sched.spawn(waiter(), "stuck2")
    stop = sched.run()
    assert stop.kind == StopKind.DEADLOCK
    assert sorted(stop.payload) == ["stuck1", "stuck2"]


def test_deadlock_raises_when_requested():
    sched = Scheduler()
    ev = sched.event()

    def waiter():
        yield WaitEvent(ev)

    sched.spawn(waiter(), "stuck")
    with pytest.raises(DeadlockError) as exc:
        sched.run(raise_on_deadlock=True)
    assert exc.value.blocked == ["stuck"]


def test_deadlock_untied_by_external_notify():
    """The debugger can notify an event from outside to untie a deadlock."""
    sched = Scheduler()
    ev = sched.event()
    log = []

    def waiter():
        yield WaitEvent(ev)
        log.append("resumed")

    sched.spawn(waiter(), "w")
    stop = sched.run()
    assert stop.kind == StopKind.DEADLOCK
    ev.notify()  # external (debugger-style) intervention
    stop = sched.run()
    assert stop.kind == StopKind.EXHAUSTED
    assert log == ["resumed"]


def test_suspend_pauses_and_resumes_in_place():
    sched = Scheduler()
    log = []

    def proc():
        log.append("a")
        yield Suspend("bp-hit")
        log.append("b")
        yield Delay(1)
        log.append("c")

    sched.spawn(proc(), "p")
    stop = sched.run()
    assert stop.kind == StopKind.SUSPENDED
    assert stop.payload == "bp-hit"
    assert log == ["a"]
    stop = sched.run()
    assert stop.kind == StopKind.EXHAUSTED
    assert log == ["a", "b", "c"]


def test_suspended_process_resumes_before_others():
    sched = Scheduler()
    log = []

    def susp():
        log.append("s1")
        yield Suspend("x")
        log.append("s2")

    def other():
        log.append("o1")
        yield Delay(0)
        log.append("o2")

    sched.spawn(other(), "o")
    sched.spawn(susp(), "s")
    sched.run()  # stops at suspend; "o1" ran first (spawned first)
    assert log == ["o1", "s1"]
    sched.run()
    assert log[2] == "s2"  # suspended process gets the CPU back first


def test_until_horizon_stops_run():
    sched = Scheduler()

    def proc():
        while True:
            yield Delay(10)

    sched.spawn(proc(), "p")
    stop = sched.run(until=35)
    assert stop.kind == StopKind.MAX_TIME
    assert sched.now == 35
    # resuming past the horizon works
    stop = sched.run(until=50)
    assert stop.kind == StopKind.MAX_TIME
    assert sched.now == 50


def test_max_dispatches_budget():
    sched = Scheduler()

    def proc():
        while True:
            yield Delay(1)

    sched.spawn(proc(), "p")
    stop = sched.run(max_dispatches=7)
    assert stop.kind == StopKind.MAX_DISPATCHES
    # budget exhausted but simulation is resumable
    stop = sched.run(max_dispatches=3)
    assert stop.kind == StopKind.MAX_DISPATCHES


def test_process_error_surfaces():
    sched = Scheduler()

    def bad():
        yield Delay(1)
        raise ValueError("boom")

    p = sched.spawn(bad(), "bad")
    stop = sched.run()
    assert stop.kind == StopKind.PROCESS_ERROR
    assert p.state == ProcessState.FAILED
    assert isinstance(stop.payload, ValueError)


def test_invalid_request_is_a_process_error():
    sched = Scheduler()

    def bad():
        yield "nonsense"

    sched.spawn(bad(), "bad")
    stop = sched.run()
    assert stop.kind == StopKind.PROCESS_ERROR


def test_kill_removes_process():
    sched = Scheduler()
    ev = sched.event()
    log = []

    def waiter():
        yield WaitEvent(ev)
        log.append("never")

    def killer(victim_box):
        yield Delay(1)
        sched.kill(victim_box[0])

    box = []
    box.append(sched.spawn(waiter(), "victim"))
    sched.spawn(killer(box), "killer")
    stop = sched.run()
    assert stop.kind == StopKind.EXHAUSTED
    assert log == []
    assert not box[0].alive
    assert ev.waiters == ()


def test_nested_generators_forward_requests():
    sched = Scheduler()
    log = []

    def helper():
        yield Delay(3)
        return "inner"

    def proc():
        value = yield from helper()
        log.append((value, sched.now))

    sched.spawn(proc(), "p")
    sched.run()
    assert log == [("inner", 3)]


def test_pre_dispatch_hook_can_force_suspend():
    sched = Scheduler()
    log = []

    def proc():
        log.append("x")
        yield Delay(1)
        log.append("y")

    sched.spawn(proc(), "p")
    hits = []

    def hook(p):
        hits.append(p.name)
        if len(hits) == 2:
            return Suspend("forced")
        return None

    sched.pre_dispatch_hook = hook
    stop = sched.run()
    assert stop.kind == StopKind.SUSPENDED
    assert stop.payload == "forced"
    assert log == ["x"]
    sched.pre_dispatch_hook = None
    stop = sched.run()
    assert stop.kind == StopKind.EXHAUSTED
    assert log == ["x", "y"]
