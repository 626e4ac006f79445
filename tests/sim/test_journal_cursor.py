"""ReplayJournal.cursor: the sequential twin of record_at.

The replay self-check reads the reference journal in position order
through a cursor instead of calling record_at per event.  Whatever the
storage policy — unbounded in memory, or rotating into on-disk
segments — a cursor started at any position must yield exactly
record_at(i) for every later i (None past the end), and it must stay
exact when the journal grows or rotates between reads.
"""

import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.replay import ReplayJournal
from repro.sim.trace import EventRecord

MODES = ("memory", "segments")


def make_journal(mode, bound, seg_dir):
    if mode == "segments":
        return ReplayJournal(segment_dir=seg_dir, window=bound)
    return ReplayJournal()


def add(journal, k):
    """Append event number k (distinct time/actor/kind/seq per k)."""
    if k % 3:
        journal.add_event(EventRecord(k, "exit", "pedf_rt_push", f"actor{k % 5}", k, "l", None))
    else:
        journal.add_event(EventRecord(k, "entry", "pedf_rt_actor_start", "ctl", None, None, "t"))


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(MODES),
    bound=st.integers(min_value=2, max_value=12),
    n=st.integers(min_value=0, max_value=70),
    start=st.integers(min_value=0, max_value=75),
)
def test_cursor_yields_record_at_from_any_start(mode, bound, n, start):
    with tempfile.TemporaryDirectory() as seg_dir:
        journal = make_journal(mode, bound, seg_dir)
        for k in range(n):
            add(journal, k)
        if mode == "segments" and n >= 3 * bound:
            assert len(journal.segments.segments) >= 2
        cursor = journal.cursor(start)
        for i in range(start, n + 4):
            assert next(cursor) == journal.record_at(i), (mode, bound, n, start, i)


@settings(max_examples=80, deadline=None)
@given(
    mode=st.sampled_from(MODES),
    bound=st.integers(min_value=2, max_value=12),
    start=st.integers(min_value=1, max_value=20),
    steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9)),
        min_size=1,
        max_size=25,
    ),
)
# the cursor has read into the in-memory window when appends rotate the
# positions it reads next into a segment
@example(mode="segments", bound=4, start=1, steps=[(4, 1), (9, 2)])
def test_cursor_stays_exact_while_the_journal_grows(mode, bound, start, steps):
    """Interleave appends (which rotate segments) with reads: every
    read equals record_at at that moment, also for positions appended
    or rotated since the cursor opened, and for positions not yet
    recorded (None)."""
    with tempfile.TemporaryDirectory() as seg_dir:
        journal = make_journal(mode, bound, seg_dir)
        k = 0
        cursor = journal.cursor(start)
        position = start
        for appends, reads in steps:
            for _ in range(appends):
                add(journal, k)
                k += 1
            for _ in range(reads):
                assert next(cursor) == journal.record_at(position), (mode, position)
                position += 1
