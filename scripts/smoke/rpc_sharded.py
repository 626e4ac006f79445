"""Scripted JSON-RPC session on a sharded amodule fabric: a breakpoint
parks every shard, then info shards, flight dump, the stitched view and
an interrupt of a running fabric.

    PYTHONPATH=src python scripts/smoke/rpc_sharded.py
"""

import json
import os
import tempfile
import threading

from repro.serve import DaemonThread

with DaemonThread() as d:
    c = d.connect()
    created = c.create("amodule", sharded=True, shards=2)
    sid = created["session"]
    assert created["sharded"] is True, created
    c.subscribe(sid)
    assert c.execute(sid, "break the_source.c:6")["ok"]
    # a breakpoint in one shard parks the whole fabric
    stop = c.run_sharded(sid)
    assert stop["kind"] == "suspended", stop
    assert stop["event"]["kind"] == "breakpoint", stop
    lines = c.execute(sid, "info shards")["lines"]
    assert any("coordination rounds" in l for l in lines), lines
    bundle = os.path.join(tempfile.mkdtemp(), "sharded.json")
    assert c.execute(sid, f"flight dump {bundle}")["ok"]
    sharding = json.load(open(bundle))["sharding"]
    assert any(l.startswith("channel ") for l in sharding), sharding
    kinds = [e["type"] for e in c.drain_events()]
    assert kinds == ["stop", "flight-dump"], kinds
    # run to the end: the stitched view sees all 8 cross-shard tokens
    assert c.execute(sid, "delete 1")["ok"]
    assert c.run_sharded(sid)["kind"] == "exited"
    lines = c.execute(sid, "info aggregate")["lines"]
    assert "cross-shard edges: 8 over 2 cut link(s)" in lines[2], lines
    # a second connection pauses a long sharded run mid-flight
    values = [1 + i % 9 for i in range(20000)]
    long = c.create("rle", sharded=True, shards=2, values=values)["session"]
    with d.connect() as other:
        timer = threading.Timer(0.3, other.interrupt, args=(long,))
        timer.start()
        stop = c.run_sharded(long)
        timer.join()
    assert stop["kind"] == "suspended", stop
    assert stop["event"]["kind"] == "paused", stop
    c.close()
print("sharded serve smoke OK: fabric-wide breakpoint, bundle and pause")
