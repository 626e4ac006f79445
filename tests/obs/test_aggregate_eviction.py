"""A capped journal cannot yield complete link value streams, and the
single-kernel aggregate view must say so instead of silently reporting
empty streams."""

import pytest

from repro.apps.rle import build_rle_pipeline
from repro.core import DataflowSession
from repro.dbg import Debugger, StopKind
from repro.errors import ReplayError
from repro.obs import aggregate_journal

VALUES = (1, 1, 2, 3, 3, 3, 3, 9, 9, 4)


def _capped_rle_journal(limit):
    sched, runtime, _sink = build_rle_pipeline(VALUES)
    session = DataflowSession(Debugger(sched, runtime))
    session.replay.record_on(limit=limit)
    ev = session.dbg.run()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = session.dbg.cont()
    assert ev.kind == StopKind.EXITED
    return session.replay.master


def test_aggregate_journal_warns_when_eviction_empties_the_streams():
    journal = _capped_rle_journal(limit=20)
    assert journal.evicted_events > 0
    with pytest.raises(ReplayError) as err:
        journal.link_value_streams()

    agg = aggregate_journal(journal)
    assert not agg.complete
    assert agg.streams == {}
    assert agg.warnings == [f"warning: {err.value}"]
    assert f"evicted {journal.evicted_events} of {journal.total_events}" in agg.warnings[0]
    assert f"  warning: {err.value}" in agg.render()


def test_aggregate_journal_of_a_complete_journal_has_no_warnings():
    journal = _capped_rle_journal(limit=None)
    assert journal.evicted_events == 0
    agg = aggregate_journal(journal)
    assert agg.complete and agg.warnings == []
    assert agg.streams == journal.link_value_streams()
