"""The debugger keeps only live token state; the journal owns history.

Live state is each link's ``in_flight`` list and each actor's last
in/out token.  An older token is shown by hopping to its push
(``replay to seq N``) when the run was recorded, and is otherwise
reported as not retained.
"""

import gc
import random
import tracemalloc

from repro.serve.builders import build_program_cli

from .util import make_session

#: traced-memory growth allowed over 1,000 round trips after warm-up.
#: Measured 1.20 MB on Python 3.11: the sink's received list (the
#: program's output) and the source's run-ahead on its unbounded link.
#: A debugger that keeps every token it saw grew 3.37 MB.
ROUND_TRIP_GROWTH_BOUND = 2_000_000


def _rle_feed(seed=1, runs=2000):
    """Runs of 1-4 equal values, neighbours distinct: one ``pack`` firing,
    so one ``pack.c:7`` stop, per run."""
    rng = random.Random(seed)
    values, prev = [], None
    for _ in range(runs + 8):
        value = rng.randrange(1, 100)
        while value == prev:
            value = rng.randrange(1, 100)
        values.extend([value] * rng.randint(1, 4))
        prev = value
    return values


def test_round_trip_memory_is_bounded():
    cli, _sink = build_program_cli("rle", values=_rle_feed())
    service = cli.service
    service.execute("break pack.c:7")
    service.execute("run")

    def round_trip():
        stop = service.execute("continue").stop
        assert (stop["filename"], stop["line"]) == ("pack.c", 7)
        service.frames()
        service.variables()
        assert service.evaluate("have")["ok"]

    for _ in range(500):
        round_trip()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(1000):
            round_trip()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert grown <= ROUND_TRIP_GROWTH_BOUND, f"{grown} bytes over 1,000 round trips"


def test_sink_keeps_no_consumed_list():
    session, cli, dbg, runtime, sink = make_session([1, 2, 3, 4, 5, 6])
    assert dbg.run().kind.value == "exited"
    sinks = [a for a in session.model.actors.values() if not a.outbound]
    assert sinks and all(a.last_token_in is not None for a in sinks)
    assert all(a.consumed_this_work == [] for a in sinks)


def test_token_lookup_in_flight_and_last():
    session, cli, dbg, runtime, sink = make_session([5, 6], stop_on_init=True)
    dbg.run()
    session.catch_iface("filter_1::an_output", event="push", temporary=True)
    dbg.cont()
    pushed = session.model.find_actor("filter_1").last_token_out
    in_flight = [t for link in session.model.links for t in link.in_flight]
    assert pushed in in_flight
    assert cli.execute("dataflow tokens") == [str(t) for t in sorted(in_flight, key=lambda t: t.seq)]
    out = cli.execute(f"dataflow token {pushed.seq}")
    assert out[0] == str(pushed)
    assert "  still in flight" in out
    assert f"tokens in flight: {len(in_flight)}" in cli.execute("dataflow info")

    consumed = session.model.find_actor("filter_1").last_token_in
    assert consumed not in in_flight
    out = cli.execute(f"dataflow token {consumed.seq}")
    assert out[0] == str(consumed)
    assert "  consumed by filter_1 at t=" in out[3]


def test_consumed_token_is_one_hop_away_when_recorded():
    session, cli, dbg, runtime, sink = make_session(
        [1, 2, 3, 4], register_builder=True, stop_on_init=True
    )
    cli.execute("record on")
    cli.execute("run")
    assert "Program exited" in cli.execute("continue")[0]
    first = session.replay.master.token_stream()[0]
    out = cli.execute(f"dataflow token {first}")
    assert out == [f"error: token {first} is not retained; `replay to seq {first}` shows it"]
    assert "Replayed to event" in cli.execute(f"replay to seq {first}")[0]
    out = cli.execute(f"dataflow token {first}")
    assert out[0].startswith(f"#{first} ")
    assert "  still in flight" in out


def test_consumed_token_is_not_retained_without_recording():
    session, cli, dbg, runtime, sink = make_session([1, 2, 3, 4], stop_on_init=True)
    dbg.run()
    assert dbg.cont().kind.value == "exited"
    retained = {t.seq for link in session.model.links for t in link.in_flight}
    for actor in session.model.actors.values():
        retained |= {t.seq for t in (actor.last_token_in, actor.last_token_out) if t is not None}
    seq = min(set(range(1, 21)) - retained)
    assert cli.execute(f"dataflow token {seq}") == [
        f"error: token {seq} is not retained (in-flight and last tokens only; "
        "`record on` keeps the history)"
    ]
