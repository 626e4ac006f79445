"""SERVE: wire-protocol costs of the debug-server daemon.

Measures, against a live daemon on a loopback socket (the exact path a
wire client takes — framing, event loop, per-session worker, machine):

- *session create/attach throughput* — full machine elaboration per
  create, bookkeeping-only attach;
- *command round-trip latency* — one JSON-RPC request through dispatch,
  worker hop, command table and back, for a cheap inspection command
  and for a stateful breakpoint command;
- *fan-out cost per subscribed client* — the same breakpoint stop pushed
  to 1 / 8 / 32 subscribed connections, so the per-subscriber cost of
  the event plane is the slope across the three rows;
- *loop hops per request* (a plain test, no timing) — the exact number
  of worker submissions, cross-thread wake-ups, Tasks and futures one
  session-bound request costs.

The session-end hook in ``conftest.py`` writes ``BENCH_serve.json``.
Every bench is also an assertion: results are checked for correctness
each round, so a daemon that answers quickly but wrongly still fails.
"""

import asyncio
import concurrent.futures
from collections import Counter

import pytest

from repro.serve.embed import DaemonThread

ROUNDS = 30
HOPS_RPCS = 200
FANOUT_FEED = [1 + (i % 9) for i in range(6000)]  # thousands of bp hits


@pytest.fixture(scope="module")
def daemon():
    with DaemonThread() as d:
        yield d


@pytest.fixture(scope="module")
def client(daemon):
    with daemon.connect(timeout=120) as c:
        yield c


def test_session_create_throughput(benchmark, client):
    """One full create (machine elaboration) + destroy round trip."""

    def create_destroy():
        created = client.create("rle")
        assert created["program"] == "rle"
        client.destroy(created["session"])

    benchmark.pedantic(create_destroy, rounds=ROUNDS, iterations=1)


def test_session_attach_throughput(benchmark, client):
    """Attach/detach on an existing session: bookkeeping only."""
    sid = client.create("rle")["session"]

    def attach_detach():
        assert client.attach(sid)["id"] == sid
        client.detach(sid)

    benchmark.pedantic(attach_detach, rounds=ROUNDS, iterations=5)
    client.destroy(sid)


def test_command_round_trip_inspection(benchmark, client):
    """The cheapest real command: wire + dispatch + executor + table."""
    sid = client.create("rle")["session"]

    def round_trip():
        assert client.execute(sid, "info breakpoints")["ok"]

    benchmark.pedantic(round_trip, rounds=ROUNDS, iterations=5)
    client.destroy(sid)


def test_command_round_trip_breakpoint(benchmark, client):
    """A stateful command pair: place and delete a breakpoint."""
    sid = client.create("rle")["session"]

    def place_delete():
        placed = client.execute(sid, "break pack.c:7")
        assert placed["ok"]
        bp_id = client.breakpoints(sid)[0]["id"]
        assert client.execute(sid, f"delete {bp_id}")["ok"]

    benchmark.pedantic(place_delete, rounds=ROUNDS, iterations=1)
    client.destroy(sid)


@pytest.mark.parametrize("subscribers", [1, 8, 32])
def test_stop_fanout_cost(benchmark, daemon, subscribers):
    """One continue-to-breakpoint, its stop pushed to N subscribers.

    The driving client is *not* subscribed, so the measured time is the
    machine advance plus the fan-out to the N listener connections; the
    per-subscriber cost of the event plane is the slope across rows.
    """
    driver = daemon.connect(timeout=120)
    sid = driver.create("rle", values=FANOUT_FEED)["session"]
    listeners = [daemon.connect(timeout=120) for _ in range(subscribers)]
    for listener in listeners:
        listener.subscribe(sid, events=["stop"])
    driver.execute(sid, "break pack.c:7")
    assert driver.execute(sid, "run")["ok"]

    continues = 0

    def continue_to_break():
        nonlocal continues
        hit = driver.execute(sid, "continue")
        assert hit["stop"]["kind"] == "breakpoint"
        continues += 1

    benchmark.pedantic(continue_to_break, rounds=ROUNDS, iterations=1)
    # under --benchmark-disable pedantic calls once: drive the rest so
    # the listeners are checked against ROUNDS stops in both modes
    while continues < ROUNDS:
        continue_to_break()

    # every listener saw every pushed stop (none were dropped)
    for listener in listeners:
        stops = 0
        while stops < continues:
            try:
                event = listener.next_event(timeout=5)
            except (TimeoutError, OSError):
                break
            if event["type"] == "stop":
                stops += 1
        assert stops >= ROUNDS, f"listener saw only {stops} stops"

    for listener in listeners:
        listener.close()
    driver.destroy(sid)
    driver.close()


def test_frames_rpc_loop_hops(daemon):
    """Exact-count gate on the wire path: N ``frames`` RPCs make N
    worker submissions, N ``call_soon_threadsafe`` wake-ups (the reply
    handed back to the loop), no asyncio Task and no
    ``concurrent.futures.Future`` — one loop callback in, one out."""
    client = daemon.connect(timeout=120)
    sid = client.create("rle")["session"]
    client.execute(sid, "break pack.c:7")
    client.execute(sid, "run")
    assert client.execute(sid, "continue")["stop"]["kind"] == "breakpoint"
    loop = daemon.loop
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def task_factory(loop, coro, **kwargs):
        counts["tasks"] += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    future_init = concurrent.futures.Future.__init__
    worker = daemon.daemon.registry.get(sid).worker
    worker.submit = counted("submit", worker.submit)
    loop.call_soon_threadsafe = counted("wakeups", loop.call_soon_threadsafe)
    loop.set_task_factory(task_factory)
    concurrent.futures.Future.__init__ = counted("futures", future_init)
    try:
        for _ in range(HOPS_RPCS):
            frames = client.frames(sid, "codec.pack")
            assert frames[0]["name"] == "PackFilter_work_function"
    finally:
        concurrent.futures.Future.__init__ = future_init
        loop.set_task_factory(None)
        del loop.call_soon_threadsafe
        del worker.submit
    assert counts == {"submit": HOPS_RPCS, "wakeups": HOPS_RPCS}, counts
    client.destroy(sid)
    client.close()
