"""Replay-side re-verification: judge a recorded run post-hoc.

:func:`~repro.sim.replay.replay_into` replays the journal's stored
:class:`~repro.sim.trace.EventRecord` stream — the records the live
event tap fed the monitors — so freshly compiled monitors reproduce the *same*
verdicts a live run would have raised, byte for byte; journaled
deadlock stops re-trigger the wait-for analysis at the same event
position.  A segment-rotating journal is streamed one segment at a
time.

This is how a violation found in a long live run is re-localized: derive
the verdict from the journal, then ``replay to event <verdict.index>``
lands the rebuilt machine on the exact violating event.
"""

from __future__ import annotations

from typing import List, Sequence

from ..sim.replay import ReplayJournal, replay_into
from .compile import GraphView, compile_property
from .monitors import Monitor, Verdict


def derive_verdicts(
    journal: ReplayJournal,
    properties: Sequence,
    graph: GraphView,
) -> List[Verdict]:
    """Re-evaluate properties against a recorded run.

    ``properties`` is a sequence of :class:`Property` objects or
    ``(check_id, Property)`` pairs — pass the ids of the live checks to
    get byte-identical verdicts for a run that was monitored live.
    """
    monitors: List[Monitor] = []
    next_id = 1
    for item in properties:
        if isinstance(item, tuple):
            check_id, prop = item
        else:
            check_id, prop = next_id, item
        next_id = max(next_id, check_id) + 1
        monitors.append(compile_property(prop, graph, check_id))
    return replay_into(journal, *monitors)
