"""End-to-end JSON-RPC over a real socket: lifecycle, events, errors,
metrics, flight bundles, reaping, graceful drain."""

import json
import socket
import time

import pytest

from repro.obs.openmetrics import parse_openmetrics
from repro.serve.client import DebugClient, RpcError, scrape_metrics

from .conftest import DaemonThread


def test_ping_and_empty_sessions(client):
    pong = client.ping()
    assert pong["pong"] is True
    assert pong["sessions"] == 0
    assert client.sessions() == []


def test_create_execute_inspect_destroy(client):
    created = client.create("rle")
    sid = created["session"]
    assert created["program"] == "rle"
    assert created["quota"] == {
        "max_events": None, "max_journal_bytes": None, "max_wall_ms": None,
    }
    assert client.execute(sid, "break pack.c:7")["ok"]
    assert client.execute(sid, "run")["stop"]["kind"] == "dataflow"
    hit = client.execute(sid, "continue")
    assert hit["stop"]["kind"] == "breakpoint"
    assert hit["stop"]["actor"] == "codec.pack"
    frames = client.frames(sid, "codec.pack")
    assert frames[0]["name"] == "PackFilter_work_function"
    names = {v["name"] for v in client.variables(sid, "codec.pack")}
    assert "value" in names
    assert client.evaluate(sid, "value")["ok"]
    assert client.breakpoints(sid)[0]["id"] == 1
    state = client.state(sid)
    assert state["program"] == "rle"
    assert state["serve"]["id"] == sid
    client.destroy(sid)
    with pytest.raises(RpcError) as exc:
        client.state(sid)
    assert exc.value.code == 1001


def test_breakpoints_follow_a_replay_hop(client):
    sid = client.create("rle")["session"]
    for line in ("record on", "break pack.c:7", "run", "continue"):
        assert client.execute(sid, line)["ok"]
    assert client.execute(sid, "replay to event 5")["stop"]["kind"] == "replay"
    assert client.breakpoints(sid) == [
        {"id": 1, "kind": "source", "enabled": True, "what": "pack.c:7", "hits": 1}
    ]


def test_script_runs_commands_in_order(client):
    sid = client.create("rle")["session"]
    results = client.script(sid, ["break pack.c:7", "run", "continue"])
    assert [r["ok"] for r in results] == [True, True, True]
    assert results[2]["stop"]["kind"] == "breakpoint"


def test_subscribed_events_are_pushed(client):
    sid = client.create("rle")["session"]
    sub = client.subscribe(sid)
    assert sub == {"subscribed": sid, "events": "all"}
    client.execute(sid, "break pack.c:7")
    client.execute(sid, "run")
    client.execute(sid, "continue")
    kinds = [e["type"] for e in client.drain_events()]
    assert "stop" in kinds
    for event in client.drain_events():
        assert event["session"] == sid


def test_event_filter(client):
    sid = client.create("rle")["session"]
    assert client.subscribe(sid, events=["flight-dump"])["events"] == ["flight-dump"]
    client.execute(sid, "run")
    assert client.drain_events() == []  # the stop was filtered out


def test_unsubscribe_stops_only_this_connections_events(client, daemon):
    sid = client.create("rle")["session"]
    with daemon.connect() as other:
        client.subscribe(sid)
        other.subscribe(sid)
        client.execute(sid, "break pack.c:7")
        client.execute(sid, "run")
        client.drain_events()
        assert other.next_event(timeout=10)["type"] == "stop"

        assert client.unsubscribe(sid) == {"unsubscribed": sid}
        assert client.execute(sid, "continue")["stop"]["kind"] == "breakpoint"
        client.ping()  # anything pushed to this connection arrives first
        assert client.drain_events() == []
        event = other.next_event(timeout=10)
        assert event["type"] == "stop" and event["session"] == sid
        assert event["data"]["kind"] == "breakpoint"


def test_flight_dump_event_and_bundle(client, tmp_path):
    sid = client.create("rle")["session"]
    client.subscribe(sid)
    client.execute(sid, "run")
    dump = client.execute(sid, f"flight dump {tmp_path}/bundle.json")
    assert dump["ok"]
    events = {e["type"]: e for e in client.drain_events()}
    assert "flight-dump" in events
    assert events["flight-dump"]["data"]["path"].endswith("bundle.json")
    bundle = client.flight(sid)
    assert bundle["flight"]["version"] == 1
    assert bundle["flight"]["reason"] == "rpc"
    assert bundle["stops"]


def test_error_codes(client):
    # unknown session
    with pytest.raises(RpcError) as exc:
        client.execute("s999", "run")
    assert exc.value.code == 1001
    # unknown method
    with pytest.raises(RpcError) as exc:
        client.call("frobnicate")
    assert exc.value.code == -32601
    # invalid params
    with pytest.raises(RpcError) as exc:
        client.call("create")
    assert exc.value.code == -32602
    # session-level ReproError (unknown program) — daemon survives
    with pytest.raises(RpcError) as exc:
        client.create("doom")
    assert exc.value.code == 1003
    assert client.ping()["pong"]


@pytest.mark.parametrize(
    "method, params, named",
    [
        ("create", {"program": "rle", "sharded": "false"}, "sharded"),
        ("create", {"program": "rle", "shards": "x"}, "shards"),
        ("create", {"program": "rle", "shards": True}, "shards"),
        ("create", {"program": "rle", "name": 5}, "name"),
        ("create", {"program": "h264", "bug": ["rate-mismatch"]}, "bug"),
        ("create", {"program": "rle", "values": "1,2"}, "values"),
        ("create", {"program": "rle", "quota": 100}, "quota"),
        ("variables", {"frame": "x"}, "frame"),
        ("variables", {"actor": 3}, "actor"),
        ("frames", {"actor": ["codec.pack"]}, "actor"),
    ],
)
def test_mistyped_params_are_invalid_params(client, method, params, named):
    if method != "create":
        params = {"session": client.create("rle")["session"], **params}
    with pytest.raises(RpcError) as exc:
        client.call(method, **params)
    assert exc.value.code == -32602
    assert named in exc.value.message
    # nothing was built from a rejected create
    assert len(client.sessions()) == (0 if method == "create" else 1)


def test_session_failure_is_isolated(client):
    sid = client.create("rle")["session"]
    result = client.execute(sid, "continue")  # not running yet
    assert not result["ok"]
    assert "not running" in result["error"]
    # the session and its siblings keep working
    other = client.create("rle")["session"]
    assert client.execute(other, "run")["ok"]
    assert client.execute(sid, "run")["ok"]


def test_parse_error_and_notifications(daemon):
    with socket.create_connection(("127.0.0.1", daemon.port), timeout=10) as sock:
        f = sock.makefile("rb")
        sock.sendall(b"{this is not json\n")
        reply = json.loads(f.readline())
        assert reply["error"]["code"] == -32700
        assert reply["id"] is None
        # a notification (no id) gets no reply; the next request's reply
        # is the next line on the wire
        sock.sendall(b'{"jsonrpc":"2.0","method":"ping"}\n')
        sock.sendall(b'{"jsonrpc":"2.0","id":9,"method":"ping"}\n')
        assert json.loads(f.readline())["id"] == 9


def test_openmetrics_rpc_and_http_scrape(client, daemon):
    sid = client.create("rle")["session"]
    client.execute(sid, "trace on")
    client.execute(sid, "run")
    text = client.metrics(sid)
    assert parse_openmetrics(text) == []
    assert f'repro_serve_session_commands_total{{session="{sid}"}}' in text
    # same exposition over plain HTTP
    scraped = scrape_metrics("127.0.0.1", daemon.port, f"/sessions/{sid}/metrics")
    assert parse_openmetrics(scraped) == []
    daemon_text = scrape_metrics("127.0.0.1", daemon.port, "/metrics")
    assert parse_openmetrics(daemon_text) == []
    assert "repro_serve_sessions 1" in daemon_text
    with pytest.raises(ConnectionError):
        scrape_metrics("127.0.0.1", daemon.port, "/nope")


def test_metrics_work_with_telemetry_off(client):
    sid = client.create("rle")["session"]
    text = client.metrics(sid)  # zero-cost default: no telemetry armed
    assert parse_openmetrics(text) == []
    assert "repro_serve_session_wall_ms" in text


def test_attach_detach_and_reaping():
    d = DaemonThread(idle_timeout=0.2)
    try:
        with d.connect() as c:
            abandoned = c.create("rle")["session"]
            held = c.create("rle")["session"]
            c.attach(held)
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                ids = {s["id"] for s in c.sessions()}
                if abandoned not in ids:
                    break
                time.sleep(0.1)
            ids = {s["id"] for s in c.sessions()}
            assert abandoned not in ids  # idle and unattached: reaped
            assert held in ids  # attached sessions are exempt
            c.detach(held)
    finally:
        d.stop()


def test_graceful_drain():
    d = DaemonThread()
    try:
        with d.connect() as c:
            sid = c.create("rle")["session"]
            c.subscribe(sid)
            assert c.shutdown() == {"draining": True}
            # the drain notice reaches subscribers before sockets close
            event = c.next_event(timeout=10)
            assert event["type"] == "shutting-down"
        d.thread.join(20)
        assert not d.thread.is_alive()
        assert len(d.daemon.registry) == 0
        # new connections are refused once drained
        with pytest.raises(OSError):
            DebugClient("127.0.0.1", d.port, timeout=2)
    finally:
        d.stop()


def test_sharded_session_over_the_wire(client):
    created = client.create("rle", sharded=True, shards=2)
    sid = created["session"]
    assert created["sharded"] is True
    stop = client.run_sharded(sid)
    assert stop["kind"] in ("exited", "suspended", "deadlock")
    # the coordinator view still answers inspection commands
    info = client.execute(sid, "info shards")
    assert info["ok"]
    # a non-sharded session refuses the sharded entry point
    plain = client.create("rle")["session"]
    with pytest.raises(RpcError) as exc:
        client.run_sharded(plain)
    assert exc.value.code == 1003


def test_sharded_amodule_session_stops_the_fabric_at_a_breakpoint(client):
    created = client.create("amodule", sharded=True, shards=2)
    sid = created["session"]
    assert (created["program"], created["sharded"]) == ("amodule", True)
    assert client.execute(sid, "break the_source.c:6")["ok"]
    stop = client.run_sharded(sid)
    assert stop["kind"] == "suspended" and stop["shard"] == 0, stop
    assert stop["event"]["kind"] == "breakpoint"
    assert (stop["event"]["actor"], stop["event"]["line"]) == ("AModule.filter_1", 6)
    lines = client.execute(sid, "info shards")["lines"]
    assert lines[:2] == ["shard 0: AModule", "shard 1: capture, stim"]


def test_flight_dump_on_a_sharded_session_bundles_the_channels(client, tmp_path):
    sid = client.create("amodule", sharded=True, shards=2)["session"]
    assert client.execute(sid, "break the_source.c:6")["ok"]
    client.run_sharded(sid)
    bundle = tmp_path / "sharded.json"
    assert client.execute(sid, f"flight dump {bundle}")["ok"]
    sharding = json.loads(bundle.read_text())["sharding"]
    channels = [line for line in sharding if line.startswith("channel ")]
    # one line per cross-shard link, in link-name order, with its route
    assert [c.split(" [")[0] for c in channels] == [
        "channel filter_2::an_output->capture::in",
        "channel stim::out->filter_1::an_input",
    ]
    assert "[1->0]: forwarded=" in channels[1]


def test_wire_interrupt_pauses_a_running_sharded_session(daemon):
    values = [1 + (i % 9) for i in range(20000)]
    with daemon.connect() as a, daemon.connect() as b:
        sid = a.create("rle", sharded=True, shards=2, values=values)["session"]
        import threading

        timer = threading.Timer(0.15, b.interrupt, args=(sid,))
        timer.start()
        stop = a.run_sharded(sid)
        timer.join(10)
        # the whole fabric parks at a consistent barrier, mid-run
        assert stop["kind"] == "suspended", stop
        assert stop["event"]["kind"] == "paused", stop
        assert a.state(sid)["finished"] is False


def test_wire_interrupt_parks_a_continue(daemon):
    with daemon.connect() as a, daemon.connect() as b:
        sid = a.create("rle", values=[1 + (i % 9) for i in range(20000)])["session"]
        a.execute(sid, "run")
        # second connection fires the async-safe pause mid-continue;
        # client `a` stays blocked in its own round trip meanwhile
        import threading

        def pause_soon():
            time.sleep(0.15)
            b.interrupt(sid)

        t = threading.Thread(target=pause_soon)
        t.start()
        result = a.execute(sid, "continue")
        t.join(10)
        assert result["ok"]
        assert result["stop"]["kind"] == "paused"
        assert a.state(sid)["finished"] is False


def test_a_request_line_up_to_the_documented_limit_is_served(client):
    """A 30,000-value create is a ~117 KB line: above asyncio's 64 KiB
    stream default, well inside ``MAX_LINE_BYTES`` (1 MiB)."""
    values = [1 + (i % 9) for i in range(30_000)]
    assert len(json.dumps({"values": values})) > 1 << 16
    sid = client.create("rle", values=values)["session"]
    assert client.execute(sid, "run")["ok"]
    client.destroy(sid)


def test_an_overlong_line_is_a_parse_error_and_the_connection_survives(daemon):
    from repro.serve.protocol import MAX_LINE_BYTES

    pad = "x" * (MAX_LINE_BYTES + 10)
    with socket.create_connection(("127.0.0.1", daemon.port), timeout=10) as sock:
        f = sock.makefile("rb")
        sock.sendall(b'{"jsonrpc":"2.0","id":1,"method":"ping","params":{"pad":"')
        sock.sendall(pad.encode() + b'"}}\n')
        sock.sendall(b'{"jsonrpc":"2.0","id":2,"method":"ping"}\n')
        reply = json.loads(f.readline())
        assert reply["id"] is None
        assert reply["error"]["code"] == -32700
        assert str(MAX_LINE_BYTES) in reply["error"]["message"]
        # the rest of the long line was skipped; the next request is served
        pong = json.loads(f.readline())
        assert pong["id"] == 2 and pong["result"]["pong"] is True
