"""CommandService: structured results, CLI parity, stop delivery,
replay-adoption survival.  No daemon involved — this is the layer the
daemon multiplexes connections onto."""

import pytest

from repro.serve.builders import build_program_cli


@pytest.fixture
def svc():
    cli, _sink = build_program_cli("rle")
    return cli.service


def test_execute_returns_structured_result(svc):
    result = svc.execute("break PackFilter_work_function")
    assert result.ok
    assert result.command == "break PackFilter_work_function"
    assert result.lines == ["Breakpoint 1 at PackFilter_work_function"]
    assert result.error is None
    assert result.stop is None  # placing a breakpoint stops nothing
    assert result.elapsed_ms >= 0.0
    d = result.to_dict()
    assert d["ok"] and d["lines"] and d["stop"] is None


def test_run_then_breakpoint_stop_dict(svc):
    svc.execute("break pack.c:7")
    first = svc.execute("run")
    assert first.ok
    assert first.stop is not None
    assert first.stop["kind"] == "dataflow"  # stop_on_init parks at init
    hit = svc.execute("continue")
    assert hit.stop["kind"] == "breakpoint"
    assert hit.stop["filename"] == "pack.c"
    assert hit.stop["line"] == 7
    assert hit.stop["actor"] == "codec.pack"
    assert hit.stop["bp_id"] == 1
    assert isinstance(hit.stop["banner"], list) and hit.stop["banner"]


def test_error_semantics_match_cli(svc):
    # library-level error: reported GDB-style, not raised
    result = svc.execute("continue")
    assert not result.ok
    assert "not running" in result.error
    assert result.lines == [f"error: {result.error}"]
    assert svc.errors == 1
    # blank lines and comments are no-ops that still succeed
    assert svc.execute("").ok
    assert svc.execute("# a comment").ok
    assert svc.commands_run == 1  # only the real command was dispatched


def test_cli_execute_is_thin_client(svc):
    # the interactive path and the service path are the same dispatch
    lines = svc.cli.execute("info breakpoints")
    assert lines == svc.execute("info breakpoints").lines


def test_stop_subscription_fires_once_per_stop(svc):
    seen = []
    handle = svc.subscribe(seen.append)
    svc.execute("break pack.c:7")
    svc.execute("run")
    svc.execute("continue")
    kinds = [ev["data"]["kind"] for ev in seen]
    assert kinds.count("breakpoint") == 1
    svc.unsubscribe(handle)
    svc.execute("continue")
    assert len(seen) == len(kinds)  # unsubscribed: no further delivery


def test_subscriber_exception_is_swallowed(svc):
    def bad(ev):
        raise RuntimeError("observer bug")

    svc.subscribe(bad)
    svc.execute("run")  # must not unwind despite the broken observer
    assert svc.state()["last_stop"] is not None


def test_structured_inspection_at_a_stop(svc):
    svc.execute("break pack.c:7")
    svc.execute("run")
    svc.execute("continue")
    actors = svc.actors()
    assert {a["qualname"] for a in actors} >= {"codec.pack", "codec.expand"}
    assert sum(a["selected"] for a in actors) == 1
    frames = svc.frames("codec.pack")
    assert frames[0]["name"] == "PackFilter_work_function"
    assert frames[0]["filename"] == "pack.c"
    names = {v["name"] for v in svc.variables("codec.pack", 0)}
    assert "value" in names
    result = svc.evaluate("value")
    assert result["ok"] and result["type"] == "U32"
    assert svc.evaluate("no_such_symbol +")["ok"] is False
    bps = svc.breakpoints()
    assert bps[0]["id"] == 1 and bps[0]["hits"] == 1


def test_state_snapshot(svc):
    state = svc.state()
    assert state["sharded"] is False
    assert state["finished"] is False
    svc.execute("record on")
    svc.execute("run")
    state = svc.state()
    assert state["program"] == "rle"
    assert state["actors"] == 5
    assert state["events_processed"] > 0
    assert state["journal"]["total_events"] > 0
    assert state["last_stop"]["kind"] == "dataflow"
    assert state["commands_run"] == 2
    assert state["wall_ms"] > 0


def test_isolate_turns_crashes_into_results(svc):
    svc.cli.commands["explode"] = type(svc.cli.commands["run"])(
        "explode", lambda rest: 1 / 0, "explode — crash on purpose"
    )
    result = svc.execute("explode", isolate=True)
    assert not result.ok
    assert "ZeroDivisionError" in result.error
    with pytest.raises(ZeroDivisionError):
        svc.execute("explode")  # default: CLI failure modes unchanged


def test_replay_adoption_survives(svc):
    seen = []
    svc.subscribe(seen.append)
    svc.execute("record on")
    svc.execute("break pack.c:7")
    svc.execute("run")
    svc.execute("continue")
    old_dbg = svc.dbg
    result = svc.execute("replay to event 5")
    assert result.ok
    assert result.stop["kind"] == "replay"
    # adoption swapped the debugger; the service followed it
    assert svc.dbg is not old_dbg
    assert "event #5" in result.stop["message"]
    # the replay stop was delivered exactly once despite the swap
    assert [ev["data"]["kind"] for ev in seen].count("replay") == 1
    # and the rebuilt machine still takes commands
    assert svc.execute("continue").ok


def test_interrupt_parks_a_running_continue(svc_factory=None):
    import threading

    cli, _sink = build_program_cli("rle", values=[1 + (i % 9) for i in range(20000)])
    svc = cli.service
    svc.execute("run")
    timer = threading.Timer(0.05, svc.interrupt)
    timer.start()
    try:
        result = svc.execute("continue")
    finally:
        timer.cancel()
    assert result.ok
    assert result.stop["kind"] == "paused"
    assert not svc.state()["finished"]
    # the pause trap is one-shot: the machine resumes afterwards
    assert svc.execute("continue").ok


# ---------------------------------------------------------------------------
# the client event stream: one event per stopping command, equal to its
# result.stop; one flight-dump event per bundle-writing command


def _travel(svc):
    """RLE, recording, a breakpoint armed, parked at its first hit."""
    seen = []
    svc.subscribe(seen.append)
    for line in ("record on", "break pack.c:7", "run", "continue"):
        assert svc.execute(line).ok
    return seen


def _hop(svc, seen, line):
    seen.clear()
    result = svc.execute(line)
    assert result.ok, result.error
    return result


def _last_hop(svc):
    lines = svc.execute("info replay").lines
    return next(line for line in lines if "last hop:" in line)


def test_exact_resident_hit_pushes_its_replay_stop(svc):
    seen = _travel(svc)
    _hop(svc, seen, "replay to event 5")  # rebuild
    _hop(svc, seen, "replay to event 40")  # forward drive
    _hop(svc, seen, "replay to event 5")  # parks the machine at #40
    result = _hop(svc, seen, "replay to event 40")
    assert "restored resident @event 40, 0 event(s) re-executed" in _last_hop(svc)
    assert result.stop["kind"] == "replay"
    assert "event #40" in result.stop["message"]
    assert seen == [{"type": "stop", "data": result.stop}]
    assert seen[0]["data"] is result.stop  # built once


def test_forward_hop_pushes_only_the_replay_stop(svc):
    seen = _travel(svc)
    _hop(svc, seen, "replay to event 5")
    result = _hop(svc, seen, "replay to event 40")
    assert "drove current machine from event #5" in _last_hop(svc)
    # the drive crosses the init catchpoint; the driver consumes that stop
    assert result.stop["kind"] == "replay"
    assert seen == [{"type": "stop", "data": result.stop}]


def test_flight_dump_after_adoption_is_pushed(svc, tmp_path):
    seen = _travel(svc)
    _hop(svc, seen, "replay to event 5")
    target = tmp_path / "after-adoption.json"
    result = _hop(svc, seen, f"flight dump {target}")
    assert result.stop is None
    assert seen == [
        {"type": "flight-dump", "data": {"path": str(target), "reason": "manual"}}
    ]
    assert target.exists()


def test_adopting_a_resident_does_not_repush_its_old_dump(svc, tmp_path):
    seen = _travel(svc)
    _hop(svc, seen, "replay to event 5")
    _hop(svc, seen, "replay to event 40")
    _hop(svc, seen, f"flight dump {tmp_path / 'at-40.json'}")
    _hop(svc, seen, "replay to event 5")
    result = _hop(svc, seen, "replay to event 40")
    # the resident parked at #40 wrote a bundle in an earlier command
    assert "restored resident @event 40" in _last_hop(svc)
    assert svc.session.flight.dumps_written == 1
    assert seen == [{"type": "stop", "data": result.stop}]


def test_sharded_run_pushes_one_event_per_coordinator_stop():
    from repro.serve.sessions import SessionHandle, SessionQuota
    from repro.serve.builders import build_sharded_cli

    cli, run = build_sharded_cli("rle")
    handle = SessionHandle("s1", "rle", cli, SessionQuota(), sharded_run=run)
    seen = []
    handle.service.subscribe(seen.append)
    assert handle.execute("break pack.c:7").ok
    kinds = []
    while True:
        stop = handle.run_sharded()
        kinds.append(stop["kind"])
        if stop["kind"] != "suspended":
            break
    assert kinds == ["suspended"] * 6 + ["exited"]
    assert [(e["type"], e["data"]["kind"]) for e in seen] == (
        [("stop", "breakpoint")] * 6 + [("stop", "exited")]
    )
    seen.clear()
    handle.close()
    assert seen == [{"type": "closed", "data": {"session": "s1"}}]
    assert handle.service.events_pushed == 8


def test_subscribe_does_not_wait_behind_a_running_command(svc):
    import threading

    entered, release = threading.Event(), threading.Event()

    def block(rest):
        entered.set()
        release.wait(10)
        return []

    svc.cli.commands["block"] = type(svc.cli.commands["run"])(
        "block", block, "block — hold the service lock"
    )
    worker = threading.Thread(target=svc.execute, args=("block",))
    worker.start()
    try:
        assert entered.wait(10)
        handles = []
        subscriber = threading.Thread(
            target=lambda: handles.append(svc.subscribe(lambda event: None))
        )
        subscriber.start()
        subscriber.join(timeout=1.0)
        assert handles, "subscribe blocked behind the running command"
        svc.unsubscribe(handles[0])
    finally:
        release.set()
        worker.join(10)
