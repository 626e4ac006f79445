"""SERVE: wire-protocol costs of the debug-server daemon.

Measures, against a live daemon on a loopback socket (the exact path a
wire client takes — framing, event loop, per-session executor, machine):

- *session create/attach throughput* — full machine elaboration per
  create, bookkeeping-only attach;
- *command round-trip latency* — one JSON-RPC request through dispatch,
  executor hop, command table and back, for a cheap inspection command
  and for a stateful breakpoint command;
- *fan-out cost per subscribed client* — the same breakpoint stop pushed
  to 1 / 8 / 32 subscribed connections, so the per-subscriber cost of
  the event plane is the slope across the three rows.

The session-end hook in ``conftest.py`` writes ``BENCH_serve.json``.
Every bench is also an assertion: results are checked for correctness
each round, so a daemon that answers quickly but wrongly still fails.
"""

import pytest

from repro.serve.embed import DaemonThread

ROUNDS = 30
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
