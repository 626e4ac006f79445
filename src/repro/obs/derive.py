"""Replay-side telemetry derivation: profile a recorded run post-hoc.

:func:`~repro.sim.replay.replay_into` replays the journal's stored
:class:`~repro.sim.trace.EventRecord` stream — the records the live
event tap fed the builder — so a fresh builder reconstructs the *same* spans and
metrics a live run would have collected, byte-for-byte (the builder
never looks at live-only data by design; see :mod:`repro.obs.builder`).

The journal is streamed — a segment-rotating journal is walked one
decompressed segment at a time, so profiling an arbitrarily long run
stays within the in-memory window.  A journal keeps every event, so
the derivation always covers the whole run.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..sim.replay import ReplayJournal, replay_into
from .builder import TelemetryBuilder
from .metrics import MetricsRegistry
from .spans import SpanSink


class DerivedTelemetry(NamedTuple):
    sink: SpanSink
    metrics: MetricsRegistry
    events_fed: int


def derive_telemetry(
    journal: ReplayJournal,
    limit: Optional[int] = None,
    ring: bool = False,
) -> DerivedTelemetry:
    """Reconstruct spans + metrics from a recorded run's journal."""
    sink = SpanSink(limit=limit, ring=ring)
    metrics = MetricsRegistry()
    builder = TelemetryBuilder(sink, metrics)
    replay_into(journal, builder)
    return DerivedTelemetry(sink, metrics, builder.events_fed)
