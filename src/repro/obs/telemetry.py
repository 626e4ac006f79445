"""The session-facing telemetry facade: arm, query, export.

Telemetry is a read-side view of the session's event history (a
:class:`~repro.core.tap.HistoryView`): ``trace on`` opens a covered
position range, ``trace off`` closes it, and nothing is built while the
program runs.  Every reader — ``trace status``, ``info spans``, ``info
metrics``, ``trace export``, the OpenMetrics scrape, ``graph_dot``
annotations and the flight recorder — first advances the span builder
from the view's cursor to the current position, reading the recorder's
journal while recording and the tap's bounded buffer otherwise.  So
collection is paid at read time, the builder sees exactly the records
live per-event feeding would have given it, and the spans and metrics
are byte-identical to it.

Arming raises no bit in the debugger's hook mask and never touches an
interpreter, so every execution tier runs exactly as it does with
telemetry off.  Busy time comes from span timestamps; the attributed
profiler (:mod:`repro.obs.prof`) is the independent count of flushed
cycles it is checked against.

The session has one span builder, owned here.  It adds each span it
closes to the telemetry sink and to the flight recorder's bounded ring,
and as it passes each stop the flight recorder logged it lets the
recorder snapshot the counters for that stop's delta.  A replay hop
carries the covered ranges, the armed state and the sink bound to the
machine it lands on, which re-reads its own journal (it shares the
recording's prefix).

The same spans/metrics are reproducible from a whole ReplayJournal via
:func:`repro.obs.derive.derive_telemetry`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..core.tap import HistoryView
from ..errors import CommandError, DataflowDebugError

from .builder import TelemetryBuilder
from .export import to_chrome_trace
from .metrics import MetricsRegistry
from .spans import SpanSink


class Telemetry(HistoryView):
    """Per-session telemetry view (off until :meth:`enable`)."""

    def __init__(self, session) -> None:
        super().__init__(session.tap)
        self.session = session
        #: the span builder, advanced only by this view
        self.builder: Optional[TelemetryBuilder] = None
        self._sink: Optional[SpanSink] = None
        self._metrics: Optional[MetricsRegistry] = None

    @property
    def enabled(self) -> bool:
        return self.armed

    @property
    def sink(self) -> Optional[SpanSink]:
        """The span sink, brought up to the current position."""
        self.advance()
        return self._sink

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The metrics registry, brought up to the current position."""
        self.advance()
        return self._metrics

    # ------------------------------------------------------------- arming

    @property
    def bound(self) -> Tuple[Optional[int], bool]:
        """The ``(limit, ring)`` bound the span sink was built with
        (unbounded when nothing is collected yet)."""
        sink = self._sink
        return (None, False) if sink is None else (sink.limit, sink.ring)

    def enable(self, limit: Optional[int] = None, ring: bool = False) -> None:
        """Start covering events (idempotent).  ``limit``/``ring`` bound
        the span sink: cap mode keeps the first ``limit`` spans, ring mode
        the last (see :class:`~repro.obs.spans.SpanSink`).  An existing
        sink keeps its bound, so asking for another one is an error."""
        if self.builder is None:
            # stops logged while nothing was collected read no counters
            self.advance()
            self._build(limit, ring)
        elif (limit, ring) != self.bound:
            raise CommandError(
                f"trace: the span sink is already built ({_bound_text(*self.bound)}); "
                "`trace off` then `trace clear` to collect with another bound"
            )
        self.open()

    def _build(self, limit: Optional[int], ring: bool) -> None:
        self._sink = SpanSink(limit=limit, ring=ring)
        self._metrics = MetricsRegistry()
        self.builder = TelemetryBuilder(self._sink, self._metrics, ring=self.session.flight.ring)

    def disable(self) -> None:
        """Stop covering events; what was covered stays queryable."""
        self.close()

    def clear(self) -> None:
        """Drop collected data (a fresh builder arms on next enable)."""
        self.close()
        self._sink = None
        self._metrics = None
        self.builder = None
        self.ranges = []

    # -------------------------------------------------------------- reading

    def advance(self, to: Optional[int] = None) -> None:
        """Feed the builder through ``to`` (default: the current
        position), snapshotting the flight recorder's counters at each
        stop position it passes."""
        to = self.tap.position if to is None else to
        flight = self.session.flight
        while flight.pending and flight.pending[0][0] <= to:
            position, time, kind = flight.pending.popleft()
            super().advance(position)
            flight.settle(time, kind, self._metrics)
        super().advance(to)

    def consume(self, records) -> None:
        feed = self.builder.feed
        for ev in records:
            feed(ev)

    def _lift(self) -> Any:
        state = (self.builder, self._sink, self._metrics)
        self.builder = self._sink = self._metrics = None
        return state

    def _land(self, own: Any, restore: bool) -> None:
        _builder, sink, _metrics = own
        if restore:
            self.builder, self._sink, self._metrics = own
        elif sink is not None:
            # re-read from the landed journal into a fresh builder
            self.session.flight.restart()
            self._build(sink.limit, sink.ring)

    # ------------------------------------------------------------ queries

    def drop_warning(self) -> Optional[str]:
        """One-line data-loss warning, or None when nothing was dropped."""
        sink = self.sink
        if sink is not None and sink.dropped > 0:
            kept = len(sink)
            policy = "ring evicted oldest" if sink.ring else "cap dropped newest"
            return (
                f"warning: span sink dropped {sink.dropped} span(s) "
                f"({policy}; {kept} kept) — data below is incomplete"
            )
        return None

    def status_lines(self) -> List[str]:
        lines = [f"telemetry: {'on' if self.enabled else 'off'}"]
        sink = self.sink
        if sink is None:
            lines.append("  (nothing collected; use `trace on`)")
            return lines
        lines.append(
            f"  spans: {len(sink)} stored ({_bound_text(*self.bound)}), {sink.dropped} dropped"
        )
        if self.builder is not None:
            lines.append(f"  events fed: {self.builder.events_fed}")
        warn = self.drop_warning()
        if warn:
            lines.append(f"  {warn}")
        return lines

    # ------------------------------------------------------------- export

    def export_json(self, process_name: str = "repro") -> str:
        if self.sink is None:
            raise DataflowDebugError("no telemetry collected (use `trace on` first)")
        return to_chrome_trace(self.sink.snapshot().spans, process_name)

    def export_file(
        self, path: str, process_name: str = "repro", force: bool = False
    ) -> "tuple[int, int]":
        """Write the Chrome trace JSON to ``path``, creating parent
        directories and refusing to silently overwrite unless ``force``.
        Returns ``(span count, bytes written)``."""
        from .export import write_artifact

        text = self.export_json(process_name)
        nbytes = write_artifact(path, text, force=force)
        return len(self.sink), nbytes


def _bound_text(limit: Optional[int], ring: bool) -> str:
    return "unbounded" if limit is None else f"{'ring' if ring else 'cap'} limit={limit}"
