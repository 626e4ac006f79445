"""Span records and the bounded span sink.

A :class:`Span` is one closed interval of simulated time on one *track*
(an actor's qualified name, or ``pedf.init`` for elaboration-time
events): a controller step, a filter firing, the Filter-C body inside
it, or a leaf framework call (push/pop/wait/...).  Spans are immutable
tuples and carry only journal-derivable fields, so the live collector
and the replay-side deriver produce byte-identical streams.  The
session's one span builder closes each span once and adds it to the
telemetry sink and to the flight recorder's ring.

:class:`SpanSink` is the bounded store with two O(1) policies: cap mode
keeps the first ``limit`` spans and drops the newest, ring mode keeps
the last ``limit`` and evicts the oldest.  Either way ``dropped`` counts
what the bound discarded and a lifetime per-name counter survives, so
``info spans`` can report totals even after eviction and warn when
``dropped > 0``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterator, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    """One closed simulated-time interval on one track."""

    track: str  # actor qualname, or "pedf.init" for elaboration
    name: str  # "firing", "work", "step", "run", "push", "pop", ...
    cat: str  # "firing" | "filterc" | "step" | "io" | "wait" | "control" | "init"
    begin: int  # simulated time
    end: int  # simulated time (>= begin)
    #: sorted (key, value) pairs — a tuple, not a dict, so spans are
    #: hashable and the export serialisation is deterministic
    args: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration(self) -> int:
        return self.end - self.begin

    def describe(self) -> str:
        extra = "".join(f" {k}={v}" for k, v in self.args)
        return f"[{self.begin}..{self.end}] {self.track} {self.name} ({self.cat}){extra}"


class SpanSnapshot(NamedTuple):
    """Atomic copy of a sink's state: stored spans, lifetime per-name
    counts and the drop count, all taken at the same moment."""

    spans: List[Span]
    name_counts: Dict[str, int]
    dropped: int


class SpanSink:
    """Bounded span store; cheap enough to leave armed for a whole run."""

    __slots__ = ("limit", "ring", "dropped", "name_counts", "_spans")

    def __init__(self, limit: Optional[int] = None, ring: bool = False):
        self.limit = limit
        self.ring = ring
        self.dropped = 0
        #: lifetime spans seen per name (including dropped/evicted ones)
        self.name_counts: Dict[str, int] = {}
        self._spans: Deque[Span] = deque()

    @property
    def spans(self) -> List[Span]:
        """Stored spans, in close order (a child closes before its parent)."""
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def add(self, span: Span) -> None:
        counts = self.name_counts
        counts[span.name] = counts.get(span.name, 0) + 1
        limit = self.limit
        if limit is not None and len(self._spans) >= limit:
            if not self.ring or limit <= 0:
                # cap mode drops the newest; a zero-capacity ring drops too
                self.dropped += 1
                return
            self._spans.popleft()
            self.dropped += 1
        self._spans.append(span)

    def total(self, name: str) -> int:
        """Lifetime spans of one name, including dropped/evicted."""
        return self.name_counts.get(name, 0)

    def snapshot(self) -> SpanSnapshot:
        """Atomically copy (spans, name_counts, dropped)."""
        return SpanSnapshot(list(self._spans), dict(self.name_counts), self.dropped)

    def clear(self) -> None:
        self._spans.clear()
        self.name_counts.clear()
        self.dropped = 0
