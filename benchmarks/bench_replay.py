"""REPLAY: journaling overhead and time-travel speed.

Records a 40-macroblock decode with the replay journal on, and measures
(a) what the always-on event journal costs next to a plain debugged run,
(b) how fast the driver can re-execute to a recorded position from
scratch (the O(run-length) baseline, resident snapshots disabled), and
(c) how fast a hop lands when it restores the nearest resident snapshot
and re-executes only the tail.  The snapshot rows gate O(tail)
*deterministically* — ``last_restore`` event counts, not wall clocks —
so a regression to full re-execution fails the bench even on a fast
machine.  Every round re-checks the determinism bar: the replayed
token-seq stream equals the recorded one.  (d) The pool-size row gates
the resident pool's reach the same way: the tail events a fixed 100-hop
script re-executes at the default pool, against a 4-machine pool.
"""

import itertools
import random

import pytest

from repro.apps.h264.app import build_decoder
from repro.core import DataflowSession
from repro.dbg import Debugger, StopKind

N_MBS = 40
INTERVAL = 128


def _run_to_exit(dbg):
    ev = dbg.run()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


def _decode(record):
    sched, platform, runtime, source, sink, mbs = build_decoder(n_mbs=N_MBS)
    dbg = Debugger(sched, runtime)
    session = DataflowSession(dbg)
    if record:
        session.replay.record_on(interval=INTERVAL)
    _run_to_exit(dbg)
    assert len(sink.values) == N_MBS
    return session


def test_replay_decode_baseline(benchmark):
    session = benchmark(_decode, False)
    assert session.replay.master is None


def test_replay_decode_recording(benchmark):
    session = benchmark(_decode, True)
    master = session.replay.master
    assert master.total_events > 0
    assert len(master.token_stream()) > N_MBS


def _fresh():
    sched, platform, runtime, source, sink, mbs = build_decoder(n_mbs=N_MBS)
    return DataflowSession(Debugger(sched, runtime))


@pytest.fixture(scope="module")
def recorded():
    session = _fresh()
    session.replay.register_builder(_fresh)
    mgr = session.replay
    mgr.record_on(interval=INTERVAL)
    _run_to_exit(session.dbg)
    return mgr


def test_replay_to_end_speed(benchmark, recorded):
    # resident snapshots off: this row is the full re-execution baseline
    recorded.set_pool_limit(0)
    live_stream = recorded.master.token_stream()
    total = recorded.master.total_events

    def travel():
        ev = recorded.replay_to("end")
        assert ev.kind == StopKind.REPLAY
        assert recorded.last_restore == (0, total, total)  # rebuilt from start
        assert recorded.recorder.journal.token_stream() == live_stream
        return ev

    benchmark(travel)


def test_replay_to_midpoint_speed(benchmark, recorded):
    recorded.set_pool_limit(0)
    mid = recorded.master.total_events // 2

    def travel():
        ev = recorded.replay_to(f"event {mid}")
        assert ev.kind == StopKind.REPLAY
        assert recorded.position == mid
        assert recorded.last_restore == (0, mid, mid)
        return ev

    benchmark(travel)


@pytest.fixture()
def seeded():
    """A recorded run whose first sweep already parked anchor machines."""
    session = _fresh()
    session.replay.register_builder(_fresh)
    mgr = session.replay
    mgr.record_on(interval=INTERVAL)
    _run_to_exit(session.dbg)
    ev = mgr.replay_to("end")  # seeds geometric anchors en route
    assert ev.kind == StopKind.REPLAY
    assert mgr.pool, "anchor seeding produced no resident snapshots"
    return mgr


def test_replay_snapshot_hop_is_o_tail(benchmark, seeded):
    """Back-and-forth hops across the run land on resident snapshots:
    every landing must re-execute at most a short tail, never the run."""
    mgr = seeded
    total = mgr.master.total_events
    mid = total // 2
    targets = itertools.cycle([mid + 32, total])

    def hop():
        ev = mgr.replay_to(f"event {next(targets)}")
        assert ev.kind == StopKind.REPLAY
        src, _target, tail = mgr.last_restore
        assert src > 0, "hop fell back to a full rebuild"
        assert tail <= 32, f"re-executed {tail} of {total} events, not O(tail)"
        return ev

    benchmark(hop)


#: tail events the 100-hop script below re-executes at the default pool
#: (16 machines) measured 102,687 against 154,033 with 4 machines
DEFAULT_POOL_TAIL_BOUND = 105_000


def _hop_tails(pool_limit):
    """Sum of ``last_restore`` tails over a fixed seeded script of 100
    hops (every fourth a ``reverse-continue``) on the recorded decode."""
    sched, platform, runtime, source, sink, mbs = build_decoder(n_mbs=N_MBS)
    session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
    session.replay.register_builder(_fresh)
    mgr = session.replay
    mgr.record_on()
    session.dbg.run()
    session.catch_iface("ipf::decoded_out")  # one dataflow stop per macroblock
    ev = session.dbg.cont()
    while ev.kind == StopKind.DATAFLOW:
        ev = session.dbg.cont()
    assert ev.kind == StopKind.EXITED
    if pool_limit is not None:
        mgr.set_pool_limit(pool_limit)
    total = mgr.master.total_events
    rng = random.Random(1)
    tails = 0
    for i in range(100):
        earlier = any(
            s.kind == StopKind.DATAFLOW.value and s.index < (mgr.position or 0)
            for s in mgr.master.stops
        )
        if i % 4 == 3 and earlier:
            mgr.reverse_continue()
        else:
            mgr.replay_to(f"event {rng.randint(1, total)}")
        assert mgr.recorder.divergence is None
        tails += mgr.last_restore[2]
    return tails


def test_replay_default_pool_tail_count():
    """The default pool covers the journal: the same hops re-execute
    fewer tail events than with 4 residents (exact counts, no clocks)."""
    small = _hop_tails(4)
    default = _hop_tails(None)
    assert default < small
    assert default <= DEFAULT_POOL_TAIL_BOUND, f"{default} tail events re-executed"
