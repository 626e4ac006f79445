"""The session-facing telemetry facade: arm, collect, query, export.

Arming does one reversible thing: it arms the span builder's ``feed``
on the session's event tap, so :meth:`FrameworkAPI.call` materialises
events again (when telemetry is off and nothing else listens, the §V
elision fast path keeps framework calls event-free).  Telemetry is a
pure tap consumer: it raises no bit in the debugger's hook mask and
never touches an interpreter, so every execution tier runs exactly as
it does with telemetry off.  Busy time comes from span timestamps; the
attributed profiler (:mod:`repro.obs.prof`) is the independent count of
flushed cycles it is checked against.

The session has one span builder, owned here.  It adds each span it
closes to the telemetry sink and to the flight recorder's bounded ring,
so the flight recorder builds nothing of its own and reads its metrics
from this facade's registry.

Collection itself is live-only sugar: the same spans/metrics are
reproducible after the fact from a ReplayJournal via
:func:`repro.obs.derive.derive_telemetry`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import CommandError, DataflowDebugError

from .builder import TelemetryBuilder
from .export import to_chrome_trace
from .metrics import MetricsRegistry
from .spans import SpanSink


class Telemetry:
    """Per-session telemetry state (off until :meth:`enable`)."""

    def __init__(self, session) -> None:
        self.session = session
        self.enabled = False
        self.sink: Optional[SpanSink] = None
        self.metrics: Optional[MetricsRegistry] = None
        self.builder: Optional[TelemetryBuilder] = None

    # ------------------------------------------------------------- arming

    @property
    def bound(self) -> Tuple[Optional[int], bool]:
        """The ``(limit, ring)`` bound the span sink was built with
        (unbounded when nothing is collected yet)."""
        sink = self.sink
        return (None, False) if sink is None else (sink.limit, sink.ring)

    def enable(self, limit: Optional[int] = None, ring: bool = False) -> None:
        """Start collecting (idempotent).  ``limit``/``ring`` bound the
        span sink: cap mode keeps the first ``limit`` spans, ring mode
        the last (see :class:`~repro.obs.spans.SpanSink`).  An existing
        sink keeps its bound, so asking for another one is an error."""
        if self.builder is None:
            self.sink = SpanSink(limit=limit, ring=ring)
            self.metrics = MetricsRegistry()
            self.builder = TelemetryBuilder(self.sink, self.metrics, ring=self.session.flight.sink)
        elif (limit, ring) != self.bound:
            raise CommandError(
                f"trace: the span sink is already built ({_bound_text(*self.bound)}); "
                "`trace off` then `trace clear` to collect with another bound"
            )
        if self.enabled:
            return
        self.session.tap.arm(self.builder.feed)
        self.enabled = True

    def disable(self) -> None:
        """Stop collecting; the data gathered so far stays queryable."""
        if not self.enabled:
            return
        self.session.tap.disarm(self.builder.feed)
        self.enabled = False

    def clear(self) -> None:
        """Drop collected data (a fresh builder arms on next enable)."""
        self.sink = None
        self.metrics = None
        self.builder = None

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
