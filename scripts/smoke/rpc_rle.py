"""Scripted JSON-RPC session on the RLE demo: break, continue, replay to
an event, dump the flight bundle, and scrape-validate the OpenMetrics
exposition.

    PYTHONPATH=src python scripts/smoke/rpc_rle.py
"""

import os
import tempfile

from repro.obs import parse_openmetrics
from repro.serve import DaemonThread
from repro.serve.client import RpcError, scrape_metrics

with DaemonThread() as d:
    c = d.connect()
    sid = c.create("rle")["session"]
    c.subscribe(sid)
    assert c.execute(sid, "record on")["ok"]
    assert c.execute(sid, "break pack.c:7")["ok"]
    assert c.execute(sid, "run")["stop"]["kind"] == "dataflow"
    hit = c.execute(sid, "continue")["stop"]
    assert hit["kind"] == "breakpoint" and hit["actor"] == "codec.pack", hit
    frames = c.frames(sid, "codec.pack")
    assert frames[0]["name"] == "PackFilter_work_function", frames
    assert c.evaluate(sid, "value")["ok"]
    back = c.execute(sid, "replay to event 5")
    assert back["ok"] and back["stop"]["kind"] == "replay", back
    # the breakpoint followed the hop onto the rebuilt machine
    bps = c.breakpoints(sid)
    assert bps == [{"id": 1, "kind": "source", "enabled": True, "what": "pack.c:7",
                    "hits": 1}], bps
    # one event per stopping command: run, continue, replay to
    kinds = [e["type"] for e in c.drain_events()]
    assert kinds == ["stop", "stop", "stop"], kinds
    bundle = os.path.join(tempfile.mkdtemp(), "after-replay.json")
    assert c.execute(sid, f"flight dump {bundle}")["ok"]
    dumps = c.drain_events()
    assert [e["type"] for e in dumps] == ["flight-dump"], dumps
    assert dumps[0]["data"]["path"] == bundle, dumps
    # a mistyped param is invalid params (-32602), and builds nothing
    try:
        c.call("create", program="rle", sharded="false")
        raise AssertionError("create with sharded='false' was accepted")
    except RpcError as exc:
        assert exc.code == -32602 and "sharded" in exc.message, exc

    text = scrape_metrics("127.0.0.1", d.port, f"/sessions/{sid}/metrics")
    problems = parse_openmetrics(text)
    assert not problems, problems
    assert f'session="{sid}"' in text
    daemon_text = scrape_metrics("127.0.0.1", d.port, "/metrics")
    assert not parse_openmetrics(daemon_text)
    assert "repro_serve_sessions 1" in daemon_text

    # the rest of the wire surface, one round trip each
    assert c.ping()["pong"] and c.ping()["sessions"] == 1
    assert [s["id"] for s in c.sessions()] == [sid]
    assert c.attach(sid)["attached"] == 1
    assert c.state(sid)["last_stop"]["kind"] == "replay"
    assert "codec.pack" in {a["qualname"] for a in c.actors(sid)}
    assert f'session="{sid}"' in c.metrics(sid)
    assert "stops" in c.flight(sid)
    results = c.script(sid, ["break pack.c:10", "replay to end"])
    assert [r["ok"] for r in results] == [True, True], results
    assert c.next_event(timeout=30)["data"]["kind"] == "replay"
    # neither breakpoint stopped the drive to the end, and both are kept
    assert [b["what"] for b in c.breakpoints(sid)] == ["pack.c:7", "pack.c:10"]
    assert c.unsubscribe(sid) == {"unsubscribed": sid}
    assert c.detach(sid) == {"detached": True}
    # a session that outgrows its quota is refused (code 1002)
    small = c.create("rle", quota={"max_events": 5})["session"]
    assert c.execute(small, "run")["ok"]
    try:
        c.execute(small, "continue")
        raise AssertionError("the max_events quota was not enforced")
    except RpcError as exc:
        assert exc.code == 1002 and exc.data["quota"] == "max_events", exc
    assert c.shutdown() == {"draining": True}
    c.close()
print("serve smoke OK: breakpoint, time travel and scrape all served")
