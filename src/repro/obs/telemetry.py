"""The session-facing telemetry facade: arm, collect, query, export.

Arming does two things, both reversible:

- arms the span builder's ``feed`` on the session's event tap (so
  :meth:`FrameworkAPI.call` materialises events again — when telemetry
  is off and nothing else listens, the §V elision fast path keeps
  framework calls event-free);
- raises ``CAP_TELEMETRY`` in the debugger's hook-capability mask so
  interpreters count the cycles they flush.  The bit is ignored by tier
  selection, so the VM tier keeps running bytecode — the
  only new work on the hot path is one predicted branch per cost flush
  (one per ~batch_cycles statements).

The session has one span builder, owned here.  It adds each span it
closes to the telemetry sink and to the flight recorder's bounded ring,
so the flight recorder builds nothing of its own and reads its metrics
from this facade's registry.

Collection itself is live-only sugar: the same spans/metrics are
reproducible after the fact from a ReplayJournal via
:func:`repro.obs.derive.derive_telemetry`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

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

    def enable(self, limit: Optional[int] = None, ring: bool = False) -> None:
        """Start collecting (idempotent).  ``limit``/``ring`` bound the
        span sink: cap mode keeps the first ``limit`` spans, ring mode
        the last (see :class:`~repro.obs.spans.SpanSink`)."""
        if self.enabled:
            return
        if self.builder is None:
            self.sink = SpanSink(limit=limit, ring=ring)
            self.metrics = MetricsRegistry()
            self.builder = TelemetryBuilder(self.sink, self.metrics, ring=self.session.flight.sink)
        self.session.tap.arm(self.builder.feed)
        dbg = self.session.dbg
        dbg.telemetry_armed = True
        dbg._recompute_capabilities()
        self.enabled = True

    def disable(self) -> None:
        """Stop collecting; the data gathered so far stays queryable."""
        if not self.enabled:
            return
        self.session.tap.disarm(self.builder.feed)
        dbg = self.session.dbg
        dbg.telemetry_armed = False
        dbg._recompute_capabilities()
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
        bound = "unbounded" if sink.limit is None else (
            f"{'ring' if sink.ring else 'cap'} limit={sink.limit}"
        )
        lines.append(f"  spans: {len(sink)} stored ({bound}), {sink.dropped} dropped")
        if self.builder is not None:
            lines.append(f"  events fed: {self.builder.events_fed}")
        warn = self.drop_warning()
        if warn:
            lines.append(f"  {warn}")
        return lines

    def interp_cycles(self) -> Dict[str, int]:
        """Per-actor ``cycles_flushed`` from the live interpreters — the
        ground truth the span builder's busy times are checked against."""
        cycles: Dict[str, int] = {}
        for actor in self.session.dbg.runtime.all_actors():
            interp = getattr(actor, "interp", None)
            if interp is not None:
                cycles[actor.qualname] = interp.cycles_flushed
        return cycles

    def opcode_cycles(self) -> Dict[str, int]:
        """Aggregated per-opcode cycle counts from every live bytecode-tier
        interpreter, keyed by mnemonic.  Counted only while telemetry (or
        the profiler) is armed: either bit flips the VM into its
        instrumented prelude, which attributes each instruction's ISA
        cost to its opcode."""
        from ..cminus.vm.telemetry import aggregate_opcode_cycles

        interps = [
            interp
            for actor in self.session.dbg.runtime.all_actors()
            if (interp := getattr(actor, "interp", None)) is not None
        ]
        return aggregate_opcode_cycles(interps)

    # ------------------------------------------------------------- export

    def export_json(self, process_name: str = "repro") -> str:
        if self.sink is None:
            from ..errors import DataflowDebugError

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
