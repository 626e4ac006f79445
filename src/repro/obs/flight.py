"""Always-on bounded flight recorder: the last moments, always at hand.

Inspired by inline hardware trace buffers (and avionics flight
recorders): a small ring that is *always armed* so the moment something
goes wrong — an RV property violation, a program error, a deadlock —
a self-contained post-mortem bundle of the recent past can be written
without anyone having thought to enable tracing first.

Zero-cost discipline (§V) still holds: the recorder itself allocates a
few bounded buffers and one stop callback, which logs the stop and its
event position in O(1) and reads no metrics.  It builds no spans and
keeps no metrics of its own: the ring is filled, and each stop's counter
delta computed, when the session's telemetry view advances — which
every reader of this recorder (a bundle, ``flight status``) makes it do
first.  As the view's span builder passes a logged stop position it
lets the recorder snapshot the counters there, so the deltas are the
ones live per-stop snapshots would have taken.  When telemetry never
ran, the bundle says so and still carries the stop log, journal tail
refs and shard/channel state — always-on means "armed", not "observing
for free".

The bundle is deterministic (simulated time only, sorted keys) and
self-contained JSON: stop history, recent spans, metrics, per-stop
counter deltas, journal tail references, and cross-shard channel state
when the run is sharded.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Any, Dict, List, Optional

from ..dbg.stop import StopEvent, StopKind
from .metrics import MetricsRegistry
from .spans import SpanSink

#: stop kinds that trigger an automatic post-mortem dump
AUTO_DUMP_KINDS = (StopKind.VIOLATION, StopKind.ERROR, StopKind.DEADLOCK)

SPAN_LIMIT = 256
DELTA_LIMIT = 64
STOP_LIMIT = 32


class FlightRecorder:
    """Per-session flight recorder; constructed armed, never off."""

    #: where automatic dumps land — a *class* attribute so embedders
    #: (and the test suite) can redirect every recorder at once;
    #: assigning on an instance still overrides per-session
    dump_dir = "."

    def __init__(
        self,
        session,
        span_limit: int = SPAN_LIMIT,
        delta_limit: int = DELTA_LIMIT,
    ) -> None:
        self.session = session
        #: the newest spans the telemetry builder closed (it adds each
        #: span here as well as to the telemetry sink)
        self.ring = SpanSink(limit=span_limit, ring=True)
        #: per-stop counter deltas, oldest evicted first
        self._deltas: deque = deque(maxlen=delta_limit)
        self.stops: deque = deque(maxlen=STOP_LIMIT)
        #: ``(position, time, kind)`` of the stops whose delta the
        #: telemetry view has not reached yet, oldest first
        self.pending: deque = deque()
        self._last_counts: Dict[str, tuple] = {}
        #: the registry ``_last_counts`` was read from (``trace clear``
        #: swaps in a fresh one, whose counts start again from zero)
        self._counts_source: Optional[MetricsRegistry] = None
        self.auto_dump = True
        self.last_dump: Optional[str] = None
        self.last_dump_reason: Optional[str] = None
        #: host ``perf_counter`` reading when the last bundle was written:
        #: the command service reports a dump written during a command
        #: even when replay adoption swapped recorders mid-command
        self.last_dump_at = float("-inf")
        self.dumps_written = 0
        self._notice: Optional[str] = None
        session.dbg.stop_callbacks.append(self._on_stop)

    # ------------------------------------------------------------ capture

    @property
    def sink(self) -> SpanSink:
        """The ring, brought up to the current position."""
        self.session.telemetry.advance()
        return self.ring

    @property
    def deltas(self) -> deque:
        """The per-stop counter deltas, every logged stop's included."""
        self.session.telemetry.advance()
        return self._deltas

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The telemetry registry (None until telemetry first arms)."""
        return self.session.telemetry.metrics

    @property
    def telemetry_observed(self) -> bool:
        """Whether the ring ever received a span."""
        return bool(self.sink.name_counts)

    def _counter_snapshot(self, metrics: Optional[MetricsRegistry]) -> Dict[str, tuple]:
        if metrics is None:
            return {}
        return {
            name: (m.firings, m.steps, m.produced, m.consumed, m.busy, m.blocked)
            for name, m in metrics.actors.items()
        }

    def _on_stop(self, ev: StopEvent) -> None:
        self.stops.append(
            {
                "time": ev.time,
                "kind": ev.kind.value,
                "actor": ev.actor or "",
                "message": ev.message,
            }
        )
        self.pending.append((self.session.tap.position, ev.time, ev.kind.value))
        if len(self.pending) > self._deltas.maxlen:
            self.session.telemetry.advance()  # keeps the log bounded
        if self.auto_dump and ev.kind in AUTO_DUMP_KINDS:
            try:
                path = self.dump(reason=f"auto:{ev.kind.value}")
            except OSError as exc:  # pragma: no cover - disk trouble
                self._notice = f"flight recorder: dump failed: {exc}"
            else:
                self._notice = f"flight recorder: post-mortem bundle written to {path}"

    def settle(self, time: int, kind: str, metrics: Optional[MetricsRegistry]) -> None:
        """Record a logged stop's counter delta; the telemetry view calls
        this with its registry standing at the stop's position."""
        if metrics is not self._counts_source:
            self._last_counts = {}
            self._counts_source = metrics
        now = self._counter_snapshot(metrics)
        changed: Dict[str, Dict[str, int]] = {}
        fields = ("firings", "steps", "produced", "consumed", "busy", "blocked")
        for name, counts in now.items():
            before = self._last_counts.get(name, (0,) * len(fields))
            diff = {
                field: after - prev
                for field, after, prev in zip(fields, counts, before)
                if after != prev
            }
            if diff:
                changed[name] = diff
        self._last_counts = now
        self._deltas.append({"time": time, "kind": kind, "actors": changed})

    def restart(self) -> None:
        """Empty the ring and restart the deltas' counts: the telemetry
        view re-reads a landed machine's history from its start."""
        self.ring = SpanSink(limit=self.ring.limit, ring=True)
        self._last_counts = {}
        self._counts_source = None

    def take_notice(self) -> Optional[str]:
        """One-shot CLI notice about an automatic dump (rendered by the
        stop banner, so library code never prints)."""
        notice, self._notice = self._notice, None
        return notice

    # ------------------------------------------------------------- bundle

    def _journal_refs(self) -> Optional[Dict[str, Any]]:
        master = self.session.replay.master
        if master is None:
            return None
        return {"total_events": master.total_events}

    def _shard_state(self) -> Optional[List[str]]:
        sharding = self.session.sharding
        if sharding is None:
            return None
        lines = list(sharding.info_lines())
        # bounded per-channel forward logs: the last few cross-shard
        # tokens in FIFO-ordinal terms, straight from the channels
        for stats in sharding.engine.channel_stats():
            recent = ",".join(f"#{n}@t{t}" for n, t in stats["recent"])
            lines.append(
                f"channel {stats['link']} [{stats['route']}]: "
                f"forwarded={stats['forwarded']} high_water={stats['high_water']} "
                f"recent=[{recent}]"
            )
        return lines

    def _token_state(self) -> Optional[List[str]]:
        records = getattr(self.session, "records", None)
        if records is None or not records.buffers:
            return None
        return records.status_lines()

    def bundle(self, reason: str) -> Dict[str, Any]:
        """The self-contained post-mortem dict (JSON-serialisable,
        deterministic: simulated time only, no wall clock)."""
        snapshot = self.sink.snapshot()
        metrics = self.metrics
        return {
            "flight": {
                "version": 1,
                "reason": reason,
                "spans_stored": len(snapshot.spans),
                "spans_evicted": self.ring.dropped,
                "telemetry_observed": self.telemetry_observed,
            },
            "stops": list(self.stops),
            "spans": [s.describe() for s in snapshot.spans],
            "metrics": metrics.render() if metrics is not None and metrics.actors else [],
            "deltas": list(self.deltas),
            "journal": self._journal_refs(),
            "sharding": self._shard_state(),
            "tokens": self._token_state(),
            "config": {
                "time": metrics.last_time if metrics is not None else 0,
                "interp_tier": getattr(
                    self.session.dbg.runtime.config, "interp_tier", "auto"
                ),
            },
        }

    def dump(
        self,
        path: Optional[str] = None,
        reason: str = "manual",
        force: bool = True,
    ) -> str:
        """Write the bundle; returns the path.  Auto-dumps pick a
        deterministic name from the stop kind and simulated time."""
        from .export import write_artifact

        if path is None:
            stamp = self.stops[-1] if self.stops else {"time": 0, "kind": "manual"}
            name = f"flight_{stamp['kind'].replace(' ', '_')}_t{stamp['time']}.json"
            base = self.dump_dir.rstrip("/")
            path = f"{base}/{name}" if base not in ("", ".") else name
        text = json.dumps(self.bundle(reason), sort_keys=True, indent=2) + "\n"
        write_artifact(path, text, force=force)
        self.last_dump = path
        self.last_dump_reason = reason
        self.last_dump_at = time.perf_counter()
        self.dumps_written += 1
        return path

    # ------------------------------------------------------------- status

    def status_lines(self) -> List[str]:
        snapshot = self.sink.snapshot()
        lines = [
            "flight recorder: armed (always on)",
            f"  spans: {len(snapshot.spans)} in ring "
            f"(limit {self.ring.limit}), {self.ring.dropped} evicted",
            f"  stops: {len(self.stops)} remembered, "
            f"{len(self.deltas)} delta snapshot(s)",
            f"  auto-dump: {'on' if self.auto_dump else 'off'} "
            f"({', '.join(k.value for k in AUTO_DUMP_KINDS)})",
        ]
        if not self.telemetry_observed:
            lines.append(
                "  (no telemetry observed — enable `trace on` for span capture)"
            )
        if self.last_dump:
            lines.append(f"  last dump: {self.last_dump} ({self.dumps_written} written)")
        return lines
