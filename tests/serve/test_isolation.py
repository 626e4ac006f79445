"""Concurrent-session isolation: two sessions over identical graphs
must share *nothing* — not the breakpoint registry, not the RV monitors,
not the tap consumers, not the profile sink, not the journal."""

import pytest

from repro.serve.sessions import SessionRegistry


@pytest.fixture
def pair():
    registry = SessionRegistry()
    a = registry.create("rle")
    b = registry.create("rle")
    yield a, b
    registry.close_all()


def test_distinct_machines(pair):
    a, b = pair
    assert a.id != b.id
    assert a.session is not b.session
    assert a.service.dbg is not b.service.dbg
    assert a.service.dbg.breakpoints is not b.service.dbg.breakpoints


def test_breakpoint_numbering_is_per_session(pair):
    a, b = pair
    a.execute("break pack.c:7")
    a.execute("break ExpandFilter_work_function")
    b.execute("break PackFilter_work_function")
    # each registry numbers from 1; arming two in A must not shift B
    assert [bp["id"] for bp in a.service.breakpoints()] == [1, 2]
    b_bps = b.service.breakpoints()
    assert [bp["id"] for bp in b_bps] == [1]
    assert b_bps[0]["what"] == "PackFilter_work_function"


def test_capability_bits_do_not_leak(pair):
    a, b = pair
    base_a = a.service.dbg.hook.capabilities
    base_b = b.service.dbg.hook.capabilities
    assert base_a == base_b  # identical graphs start identical
    # arm RV in A only (the graph model exists after framework init)
    a.execute("run")
    b.execute("run")
    result = a.execute("check add log occupancy pack::o->expand::i <= 64")
    assert result.ok, result.error
    assert a.session.checks.armed and not b.session.checks.armed
    # arm telemetry in B only
    assert b.execute("trace on").ok
    assert b.session.telemetry.enabled and not a.session.telemetry.enabled
    assert a.session.tap.consumers == (a.session.checks.feed,)
    # the span builder is not on the tap: telemetry reads B's history
    assert b.session.tap.consumers == ()
    assert b.session.telemetry.armed and not a.session.telemetry.armed
    # and the profiler in A only
    assert a.execute("prof on").ok
    assert a.service.dbg.hook.profile_sink is not None
    assert b.service.dbg.hook.profile_sink is None
    # none of them raises a mask bit in either session
    assert a.service.dbg.hook.capabilities == base_a
    assert b.service.dbg.hook.capabilities == base_b


def test_stops_and_journals_are_independent(pair):
    a, b = pair
    a.execute("record on")
    a.execute("break pack.c:7")
    a.execute("run")
    hit = a.execute("continue")
    assert hit.stop["kind"] == "breakpoint"
    # B never moved and never recorded
    state_b = b.service.state()
    assert state_b["events_processed"] == 0
    assert state_b["journal"] is None
    assert state_b["last_stop"] is None
    # B's run is unaffected by A being parked at a breakpoint
    assert b.execute("run").ok


def test_errors_do_not_cross_sessions(pair):
    a, b = pair
    bad = a.execute("continue")  # not running: a library-level error
    assert not bad.ok
    assert a.service.errors == 1
    assert b.service.errors == 0
    assert b.execute("run").ok


def test_subscribers_are_per_session(pair):
    a, b = pair
    seen_a, seen_b = [], []
    a.service.subscribe(seen_a.append)
    b.service.subscribe(seen_b.append)
    a.execute("run")
    assert [e["type"] for e in seen_a] == ["stop"]
    assert seen_b == []


def test_wire_isolation(daemon):
    with daemon.connect() as ca, daemon.connect() as cb:
        sa = ca.create("rle")["session"]
        sb = cb.create("rle")["session"]
        assert sa != sb
        ca.execute(sa, "break pack.c:7")
        ca.execute(sa, "run")
        ca.execute(sa, "continue")
        # A is parked at its breakpoint; B is untouched at elaboration
        assert ca.state(sa)["last_stop"]["kind"] == "breakpoint"
        state_b = cb.state(sb)
        assert state_b["last_stop"] is None
        assert state_b["events_processed"] == 0
        assert cb.breakpoints(sb) == []
        # B's first breakpoint still gets id 1
        cb.execute(sb, "break pack.c:7")
        assert cb.breakpoints(sb)[0]["id"] == 1


@pytest.mark.parametrize("commands", [
    ("run", "break pack.c:7", "continue"),
    ("record on", "trace on", "run", "break pack.c:7", "continue", "continue",
     "replay to event 5", "trace status"),
], ids=["plain", "recorded-hop"])
def test_destroy_frees_the_session_without_the_collector(commands):
    """A destroyed session sits on no reference cycle: with the cyclic
    collector off, dropping the handle frees the DataflowSession."""
    import gc
    import weakref

    registry = SessionRegistry()
    handle = registry.create("rle")
    for command in commands:
        assert handle.execute(command).ok, command
    session = weakref.ref(handle.session)
    gc.collect()
    gc.disable()
    try:
        registry.destroy(handle.id)
        handle.worker.shutdown(wait=True)  # the close job has run
        del handle
        assert session() is None
    finally:
        gc.enable()
