"""Unit tests of the replay journal substrate (event log, checkpoints,
position queries) independent of the debugger driver."""

from repro.sim.replay import Checkpoint, ReplayJournal
from repro.sim.trace import EventRecord


def push(time, actor, seq):
    return EventRecord(time, "exit", "pedf_rt_push", actor, seq, "l", None)


def step(time):
    return EventRecord(time, "entry", "pedf_rt_step", "ctl", None, None, None)


def fill(journal, n=10, t0=0):
    """n alternating push-exit / step-entry events; pushes carry seqs 1.."""
    seq = 0
    for i in range(n):
        if i % 2 == 0:
            seq += 1
            journal.add_event(push(t0 + i, f"actor{i % 3}", seq))
        else:
            journal.add_event(step(t0 + i))
    return seq


def test_positions_are_one_based_and_counted():
    j = ReplayJournal()
    assert j.total_events == 0
    assert j.add_event(push(0, "a", 1)) == 1
    assert j.add_event(step(5)) == 2
    assert j.total_events == 2
    assert j.record_at(1).seq == 1
    assert j.record_at(1) == push(0, "a", 1)  # the stored record, as appended
    assert j.record_at(2).seq is None
    assert j.record_at(0) is None and j.record_at(3) is None


def test_token_stream_and_seq_lookup():
    j = ReplayJournal()
    fill(j, 10)
    assert j.token_stream() == [1, 2, 3, 4, 5]
    assert j.index_for_seq(1) == 1
    assert j.index_for_seq(3) == 5  # pushes sit at odd positions 1,3,5,...
    assert j.index_for_seq(99) is None


def test_index_for_time_finds_first_event_at_or_after():
    j = ReplayJournal()
    fill(j, 6, t0=100)  # events at t=100..105
    assert j.index_for_time(100) == 1
    assert j.index_for_time(103) == 4
    assert j.index_for_time(999) is None


def test_nearest_checkpoint_and_dispatch_lookup():
    j = ReplayJournal()
    cp1 = Checkpoint(index=10, dispatch=64, time=5, next_seq=3, occupancy=())
    cp2 = Checkpoint(index=30, dispatch=128, time=9, next_seq=7, occupancy=())
    j.add_checkpoint(cp1)
    j.add_checkpoint(cp2)
    assert j.nearest_checkpoint(9) is None
    assert j.nearest_checkpoint(10) is cp1
    assert j.nearest_checkpoint(29) is cp1
    assert j.nearest_checkpoint(31) is cp2
    assert j.checkpoint_at_dispatch(128) is cp2
    assert j.checkpoint_at_dispatch(100) is None
    assert "dispatch 64" in cp1.describe()
