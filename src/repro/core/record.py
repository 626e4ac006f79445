"""Token content recording (paper §VI-D).

"Our debugger can also record and display the *content* of the tokens.
This feature may require a significant quantity of memory, thus it has to
be explicitly enabled."  Buffers are bounded; overflow drops the oldest
entries and counts them, because "a communication-intensive filter may
quickly generate a large number of tokens, impossible to record
efficiently".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from ..errors import DataflowDebugError
from .model import DbgConnection, DbgToken

DEFAULT_CAPACITY = 256


@dataclass
class RecordBuffer:
    conn_qual: str
    capacity: int
    entries: Deque[DbgToken] = field(default_factory=deque)
    recorded: int = 0
    dropped: int = 0

    def append(self, token: DbgToken) -> None:
        self.recorded += 1
        if self.capacity and len(self.entries) >= self.capacity:
            self.entries.popleft()
            self.dropped += 1
        self.entries.append(token)

    def resize(self, capacity: int) -> None:
        """Change the buffer bound in place, trimming oldest entries into
        ``dropped`` when shrinking — recorded history is never silently
        discarded."""
        self.capacity = capacity
        while self.capacity and len(self.entries) > self.capacity:
            self.entries.popleft()
            self.dropped += 1

    def format_lines(self) -> List[str]:
        """The paper's display::

            #1 (U16) 5
            #2 (U16) 10
        """
        lines = []
        for i, token in enumerate(self.entries, start=self.dropped + 1):
            lines.append(f"#{i} ({token.ctype_name}) {token.format_payload()}")
        if self.dropped:
            lines.append(f"({self.dropped} older token(s) dropped; buffer capacity {self.capacity})")
        return lines


class TokenRecorder:
    def __init__(self) -> None:
        self.buffers: Dict[str, RecordBuffer] = {}

    def enable(self, conn_qual: str, capacity: Optional[int] = None) -> RecordBuffer:
        """Start (or keep) recording an interface.

        Re-enabling is idempotent: an existing buffer keeps its entries and
        its ``recorded``/``dropped`` counters.  Passing a new capacity
        resizes the existing buffer (shrinking trims oldest entries into
        ``dropped``) instead of silently discarding everything recorded.
        """
        buf = self.buffers.get(conn_qual)
        if buf is None:
            buf = RecordBuffer(conn_qual, capacity if capacity is not None else DEFAULT_CAPACITY)
            self.buffers[conn_qual] = buf
        elif capacity is not None and capacity != buf.capacity:
            buf.resize(capacity)
        return buf

    def get(self, conn_qual: str) -> RecordBuffer:
        buf = self.buffers.get(conn_qual)
        if buf is None:
            raise DataflowDebugError(
                f"interface {conn_qual!r} is not being recorded (use 'iface {conn_qual} record')"
            )
        return buf

    def status_lines(self) -> List[str]:
        """One block per recorded interface: counters first, then the
        paper-style content listing.  The flight recorder folds these
        into its post-mortem bundle so token content recorded up to a
        violation survives in the dump."""
        lines: List[str] = []
        for qual in sorted(self.buffers):
            buf = self.buffers[qual]
            lines.append(
                f"iface {qual}: {len(buf.entries)} stored "
                f"(recorded={buf.recorded}, dropped={buf.dropped}, "
                f"capacity={buf.capacity})"
            )
            lines.extend(f"  {line}" for line in buf.format_lines())
        return lines

    def on_push(self, conn: DbgConnection, token: DbgToken) -> None:
        buf = self.buffers.get(conn.qualname)
        if buf is not None:
            buf.append(token)

    def on_pop(self, conn: DbgConnection, token: DbgToken) -> None:
        buf = self.buffers.get(conn.qualname)
        if buf is not None:
            buf.append(token)
