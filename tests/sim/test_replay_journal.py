"""Unit tests of the replay journal substrate (event log, checkpoints,
position queries) independent of the debugger driver."""

import itertools

import pytest

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


@pytest.mark.parametrize("segmented", [False, True])
def test_shared_prefix_reads_through_to_the_base(segmented, tmp_path):
    """A journal sharing its first positions with a base answers every
    query as a plain journal holding the same records does."""
    base = ReplayJournal(segment_dir=str(tmp_path) if segmented else None, window=4)
    fill(base, 20)
    for pos in range(1, 21, 2):
        base.note_event_value(pos, f"v{pos}")
    mine = ReplayJournal(base=base)
    plain = ReplayJournal()
    for pos in range(1, 13):
        assert mine.share_event()
        plain.add_event(base.record_at(pos))
        if pos % 2:
            plain.note_event_value(pos, f"v{pos}")
    fill(mine, 6, t0=50)
    assert not mine.share_event()  # a stored event ends the shared prefix
    fill(plain, 6, t0=50)
    assert (mine.total_events, mine.shared, len(mine.events)) == (18, 12, 6)
    assert list(mine.iter_indexed()) == list(plain.iter_indexed())
    for start in (0, 1, 7, 12, 13, 18, 19):
        assert list(itertools.islice(mine.cursor(start), 8)) == [
            plain.record_at(i) for i in range(start, start + 8)
        ]
    assert [mine.value_for_event(i) for i in range(20)] == [
        plain.value_for_event(i) for i in range(20)
    ]
    assert mine.token_stream() == plain.token_stream()
    assert mine.index_for_seq(6) == plain.index_for_seq(6) == 11
    assert mine.index_for_time(51) == plain.index_for_time(51) == 14
    assert mine.link_value_streams() == plain.link_value_streams()


def test_share_event_needs_a_base():
    assert not ReplayJournal().share_event()
