"""Journal segment rotation: bounded memory, nothing lost.

A segment-rotating ReplayJournal must behave observably identically to
an unbounded one — same positions, same records, same payload texts,
same streams — while keeping only the configured window in memory.
"""

import pytest

from repro.sim.replay import ReplayJournal
from repro.sim.segments import SegmentStore
from repro.sim.trace import EventRecord


def fill(journal, n, start_seq=1):
    """Record n push exits (seq start_seq.., with link and payload text),
    each followed by an actor_start (with target)."""
    for k in range(n):
        seq = start_seq + k
        push = EventRecord(k * 10, "exit", "pedf_rt_push", f"actor{k % 3}", seq, f"link{k % 4}", None)
        journal.note_event_value(journal.add_event(push), str(seq * 7))
        journal.add_event(
            EventRecord(k * 10, "exit", "pedf_rt_actor_start", "ctl", None, None, f"actor{k % 3}")
        )


# ------------------------------------------------------------- SegmentStore


def test_segment_store_round_trip_and_lookup(tmp_path):
    store = SegmentStore(str(tmp_path))
    recs = [EventRecord(i, "exit", "k", "p", i, f"l{i}", None) for i in range(20)]
    store.rotate(1, recs[:10], {3: "v"})
    store.rotate(11, recs[10:], {})
    assert store.total_stored == 20
    assert store.segment_for(1).first == 1
    assert store.segment_for(10).last == 10
    assert store.segment_for(11).first == 11
    assert store.segment_for(21) is None and store.segment_for(0) is None
    data = store.load(store.segment_for(5))
    assert data.record_at(5) == recs[4] and type(data.record_at(5)) is EventRecord
    assert data.event_values == {3: "v"}
    assert [d for _, d in store.iter_records()] == recs
    assert [i for i, _ in store.iter_records()] == list(range(1, 21))
    assert "2 segment(s)" in store.describe()
    with pytest.raises(ValueError):
        store.rotate(21, [], {})


# ------------------------------------------------- rotation transparency


def test_segmented_journal_equals_unbounded(tmp_path):
    plain = ReplayJournal()
    seg = ReplayJournal(segment_dir=str(tmp_path), window=32)
    fill(plain, 200)
    fill(seg, 200)

    assert seg.total_events == plain.total_events == 400
    assert len(seg.events) < 64  # in-memory window stayed bounded
    assert len(seg.segments.segments) > 0

    # every record reachable at its position, memory or disk
    for idx in (1, 2, 33, 199, 400):
        assert seg.record_at(idx) == plain.record_at(idx)
    # whole records (links and targets included) and the payload-text
    # side table fall back to segments
    for idx in range(1, 401):
        assert seg.record_at(idx) == plain.record_at(idx)
        assert seg.value_for_event(idx) == plain.event_values.get(idx)
    # the link of a minting push event rotated with it
    assert seg.record_at(1).link == "link0"
    assert seg.record_at(plain.index_for_seq(200)).link == "link3"
    assert seg.index_for_seq(9999) is None

    # streamed views are byte-identical to the unbounded journal
    assert list(seg.iter_indexed()) == [(i + 1, r) for i, r in enumerate(plain.events)]
    assert seg.token_stream() == plain.token_stream()
    assert seg.link_value_streams() == plain.link_value_streams()
    assert seg.index_for_seq(150) == plain.index_for_seq(150)
    assert seg.index_for_time(1500) == plain.index_for_time(1500)
