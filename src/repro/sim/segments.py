"""Compressed on-disk journal segments: bounded memory, unbounded runs.

A :class:`~repro.sim.replay.ReplayJournal` recorded with ``segment_dir``
keeps only a sliding in-memory window of the event log; once the window
fills, the oldest half rotates into a **segment** — one zlib-compressed
pickle holding the rotated :class:`~repro.sim.trace.EventRecord` fields
*and* the matching slice of the journal's one side table, the pushed
payload texts (``event_values``).  Loading a segment rebuilds the very
records the journal stored, so readers cannot tell memory from disk.
Nothing is lost: positions stay 1-based and contiguous, queries fall
back to segments transparently, and the derivers stream segment by
segment so a profile or verdict over a multi-million-event run never
materialises the whole journal in memory.

Segments are immutable once written and named by their position range
(``seg-<first>-<last>.bin``), so a directory doubles as a durable,
order-reconstructible record of the run.  A tiny LRU (default: the two
most recently touched segments) keeps sequential streaming — the common
access pattern of ``rv.derive`` / ``derive_telemetry`` — at one
decompression per segment.
"""

from __future__ import annotations

import os
import pickle
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .trace import EventRecord

#: in-memory event-log window before rotation kicks in
DEFAULT_SEGMENT_WINDOW = 4096

_FORMAT = 2

_new_tuple = tuple.__new__


@dataclass(frozen=True)
class SegmentInfo:
    """One rotated chunk of the event log (positions ``first..last``)."""

    first: int  # 1-based position of the oldest record in the segment
    last: int  # 1-based position of the newest record
    path: str
    compressed_bytes: int

    @property
    def count(self) -> int:
        return self.last - self.first + 1


class SegmentData:
    """A decompressed segment: records + their ``event_values`` slice."""

    __slots__ = ("first", "last", "records", "event_values")

    def __init__(self, payload: Dict[str, Any]):
        self.first: int = payload["first"]
        self.last: int = payload["last"]
        self.records: List[EventRecord] = [
            _new_tuple(EventRecord, fields) for fields in payload["records"]
        ]
        self.event_values: Dict[int, str] = payload["event_values"]

    def record_at(self, index: int) -> EventRecord:
        return self.records[index - self.first]


class SegmentStore:
    """Writes, indexes and lazily re-loads a journal's rotated segments."""

    def __init__(self, directory: str, cache_size: int = 2):
        self.directory = directory
        self.segments: List[SegmentInfo] = []
        self._cache: "OrderedDict[str, SegmentData]" = OrderedDict()
        self._cache_size = max(1, cache_size)
        os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------- writing

    def rotate(
        self,
        first: int,
        records: List[EventRecord],
        event_values: Dict[int, str],
    ) -> SegmentInfo:
        """Persist ``records`` (positions ``first..first+len-1``) plus the
        ``event_values`` entries belonging to them.  The caller owns
        deleting the rotated entries from its in-memory window."""
        if not records:
            raise ValueError("refusing to write an empty segment")
        last = first + len(records) - 1
        payload = {
            "format": _FORMAT,
            "first": first,
            "last": last,
            # plain tuples: unpickling them skips the class lookup
            "records": [tuple(r) for r in records],
            "event_values": event_values,
        }
        blob = zlib.compress(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        path = os.path.join(self.directory, f"seg-{first:012d}-{last:012d}.bin")
        with open(path, "wb") as fh:
            fh.write(blob)
        info = SegmentInfo(first=first, last=last, path=path, compressed_bytes=len(blob))
        self.segments.append(info)
        return info

    # ------------------------------------------------------------- reading

    @property
    def total_stored(self) -> int:
        return sum(seg.count for seg in self.segments)

    @property
    def total_bytes(self) -> int:
        return sum(seg.compressed_bytes for seg in self.segments)

    def segment_for(self, index: int) -> Optional[SegmentInfo]:
        """The segment holding position ``index``, if any (binary search:
        segments are appended in position order and never overlap)."""
        lo, hi = 0, len(self.segments) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            seg = self.segments[mid]
            if index < seg.first:
                hi = mid - 1
            elif index > seg.last:
                lo = mid + 1
            else:
                return seg
        return None

    def load(self, seg: SegmentInfo) -> SegmentData:
        """Decompress a segment (LRU-cached)."""
        cached = self._cache.get(seg.path)
        if cached is not None:
            self._cache.move_to_end(seg.path)
            return cached
        with open(seg.path, "rb") as fh:
            payload = pickle.loads(zlib.decompress(fh.read()))
        data = SegmentData(payload)
        self._cache[seg.path] = data
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return data

    def iter_records(self) -> Iterator[Tuple[int, EventRecord]]:
        """Stream ``(position, record)`` over every segment, oldest first,
        one decompressed segment resident at a time."""
        for seg in self.segments:
            data = self.load(seg)
            for offset, rec in enumerate(data.records):
                yield seg.first + offset, rec

    def describe(self) -> str:
        if not self.segments:
            return "0 segment(s)"
        return (
            f"{len(self.segments)} segment(s), events "
            f"{self.segments[0].first}..{self.segments[-1].last}, "
            f"{self.total_bytes} compressed byte(s) in {self.directory}"
        )
