"""Deterministic record/replay journal.

Dataflow programs have deterministic communication semantics, and the
kernel dispatches deterministically (FIFO ready queue, monotone tie-break
in the timed heap) — so a run is fully reproduced by re-executing it from
the start, *provided nothing external perturbs it*.  The journal records
everything needed to (a) navigate a finished or stopped execution by
position and (b) prove the re-execution really is identical:

- the **event log** — one :class:`~repro.sim.trace.EventRecord` per
  framework event (entry/exit of ``pedf_rt_*``), stored exactly as the
  session's event tap built it: simulated time, phase, symbol, acting
  actor, the token seq of data-exchange exits, the link of push/pop
  events and the target filter of scheduling events.  The log doubles
  as a fingerprint stream: replaying compares each event, whole,
  against the recorded one (the determinism self-check).  Its one side
  table, ``event_values``, holds the payload text of each push exit.
- periodic **checkpoints** — digests taken every N completed dispatches:
  simulated time, next token seq, per-link occupancy as token-seq
  tuples.  A replay that matches every digest en route has provably
  rebuilt the same machine.
- sparse **deep state snapshots** — full :class:`~repro.sim.snapshot.
  MachineState` captures (kernel clock/heap/ready queue, link queues
  with payload texts, per-actor scheduling state) taken at checkpoint
  boundaries.  Replays verify them en route (a much stronger self-check
  than the digest), and the :class:`~repro.core.replay.ReplayManager`
  pairs them with *resident* replayed machines so ``replay to`` restores
  the nearest snapshot and re-executes only the tail.
- the **stop log** — where the user stopped, as event-log positions, so
  ``reverse-continue`` can land on the previous dataflow stop.
- the **alteration log** — debugger-side mutations (token insert / drop /
  poke, predicate overrides) with the event position they were applied
  at, re-applied at the same positions during replay.

Positions are *event indices* (1-based count of emitted framework
events), not dispatch counts or timestamps: the event stream is invariant
under interactive stops, and an index names an exact mid-dispatch machine
state (the moment just after that event's listeners ran).

A journal keeps every event: the whole run is the journal, so every
reader (the self-check, derived telemetry and verdicts, the sharded
projection) sees the complete stream.  Storage is a plain deque of
records.  With ``segment_dir`` set, the journal keeps a sliding
in-memory window and rotates older records — with their
``event_values`` entries — into compressed on-disk :mod:`segments
<repro.sim.segments>`; every query and the streaming
:meth:`ReplayJournal.iter_indexed` fall back to segments transparently,
so memory stays bounded on unbounded runs.  The journal of a replay
stores no event its self-check verified: its verified prefix is the
``base`` journal's (see :meth:`ReplayJournal.share_event`), so a
replayed machine's journal holds only what its run added past the
recording.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from .segments import DEFAULT_SEGMENT_WINDOW, SegmentStore
from .trace import EventRecord

#: symbol of a token production; its exit events carry the minted seq
#: (the determinism fingerprint stream, see ReplayJournal.token_stream)
_PUSH_SYMBOL = "pedf_rt_push"

DEFAULT_CHECKPOINT_INTERVAL = 64


@dataclass(frozen=True)
class Checkpoint:
    """Digest of the machine at a dispatch boundary."""

    index: int  # event-log position when taken
    dispatch: int  # kernel dispatch count when taken
    time: int  # simulated time
    next_seq: int  # runtime token-seq counter state
    #: (link name, (queued token seqs, oldest first)) for every link
    occupancy: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def describe(self) -> str:
        held = sum(len(seqs) for _, seqs in self.occupancy)
        return (
            f"checkpoint @event {self.index} (dispatch {self.dispatch}, t={self.time}, "
            f"next seq {self.next_seq}, {held} token(s) in flight)"
        )


@dataclass(frozen=True)
class StopRecord:
    """One debugger stop, positioned on the event log."""

    index: int  # event-log position when the stop was recorded
    kind: str  # StopKind.value ("dataflow", "breakpoint", ...)
    message: str
    bp_id: Optional[int]
    time: int


@dataclass(frozen=True)
class AlterationRecord:
    """One execution alteration, positioned on the event log."""

    index: int  # event-log position when the alteration was applied
    kind: str  # "insert" | "drop" | "poke" | "set_pred"
    conn_spec: str  # "actor::iface" (or "module.pred" for set_pred)
    value_text: Optional[str]
    arg_index: Optional[int]


class ReplayJournal:
    """The recorded run: event log + checkpoints + stop/alteration logs."""

    def __init__(
        self,
        segment_dir: Optional[str] = None,
        window: int = DEFAULT_SEGMENT_WINDOW,
        base: Optional["ReplayJournal"] = None,
    ):
        #: the journal a replay of it verifies against: positions
        #: 1..shared are its records, stored there only
        self.base = base
        self.shared = 0
        #: the in-memory event log, oldest first: positions shared+1..len,
        #: or the newest window when rotating into segments
        self.events: Deque[EventRecord] = deque()
        self.segments: Optional[SegmentStore] = (
            SegmentStore(segment_dir) if segment_dir is not None else None
        )
        self.window = max(2, window)
        self.checkpoints: List[Checkpoint] = []
        self.stops: List[StopRecord] = []
        self.alterations: List[AlterationRecord] = []
        #: event position -> canonical payload text, noted at push exits.
        #: The raw material of the *sharded* determinism contract:
        #: per-link ordered value streams are invariant under scheduling
        #: (Kahn), so they — unlike global seqs or timestamps — can be
        #: compared between a single-kernel run and a merge of per-shard
        #: journals.  Keyed by event position, not token seq: each shard
        #: numbers its own tokens, so seqs collide across journals while
        #: positions cannot.
        self.event_values: Dict[int, str] = {}
        #: dispatch count -> deep MachineState snapshot (sparse; see
        #: :mod:`repro.sim.snapshot`).  Small next to the event log, so
        #: kept in memory even when the log itself rotates.
        self.state_snapshots: Dict[int, Any] = {}
        self._snapshot_order: List[int] = []
        self._total = 0
        self._cp_by_dispatch: Dict[int, Checkpoint] = {}
        #: (total_events, (position, seq) of every production) — the
        #: token stream, kept while the journal does not grow
        self._seqs: Optional[Tuple[int, List[Tuple[int, int]]]] = None

    # ------------------------------------------------------------ recording

    @property
    def total_events(self) -> int:
        """Lifetime event count (positions run 1..total_events)."""
        return self._total

    def share_event(self) -> bool:
        """Count the next position as ``base``'s record there — the caller
        verified its event equal to it — if every earlier position is
        shared too; False, counting nothing, otherwise."""
        if self.base is None or self.shared != self._total:
            return False
        self._total += 1
        self.shared += 1
        return True

    def add_event(self, ev: EventRecord) -> int:
        """Append one framework event; returns its 1-based position."""
        self._total += 1
        events = self.events
        events.append(ev)
        if self.segments is not None and len(events) >= self.window:
            self._rotate()
        return self._total

    def _rotate(self) -> None:
        """Move the oldest half-window of the in-memory log (and its
        ``event_values`` entries) into a compressed on-disk segment."""
        events = self.events
        first = self._total - len(events) + 1
        records = [events.popleft() for _ in range(len(events) // 2)]
        values: Dict[int, str] = {}
        for pos in range(first, first + len(records)):
            value = self.event_values.pop(pos, None)
            if value is not None:
                values[pos] = value
        self.segments.rotate(first, records, values)

    def note_event_value(self, index: int, value_text: Optional[str]) -> None:
        """Remember the canonical payload text pushed by the event at
        position ``index``.  Side table only — not fingerprint-compared."""
        if value_text is not None:
            self.event_values[index] = value_text

    def add_checkpoint(self, cp: Checkpoint) -> None:
        self.checkpoints.append(cp)
        self._cp_by_dispatch[cp.dispatch] = cp

    def add_state_snapshot(self, dispatch: int, state: Any) -> None:
        """Attach a deep MachineState snapshot to a dispatch boundary."""
        if dispatch not in self.state_snapshots:
            self._snapshot_order.append(dispatch)
        self.state_snapshots[dispatch] = state

    def state_snapshot_at(self, dispatch: int) -> Optional[Any]:
        return self.state_snapshots.get(dispatch)

    def add_stop(self, record: StopRecord) -> None:
        self.stops.append(record)

    def add_alteration(self, record: AlterationRecord) -> None:
        self.alterations.append(record)

    # -------------------------------------------------------------- queries

    def record_at(self, index: int) -> Optional[EventRecord]:
        """The event at 1-based ``index``; None past the end.  Falls back
        to on-disk segments when the journal rotates."""
        if not 1 <= index <= self._total:
            return None
        if index <= self.shared:
            return self.base.record_at(index)
        offset = index - self._stored_base() - 1
        if offset >= 0:
            return self.events[offset]
        # below the in-memory window: the position rotated into a segment
        seg = self.segments.segment_for(index)
        return self.segments.load(seg).record_at(index) if seg is not None else None

    def cursor(self, start: int = 1) -> Iterator[Optional[EventRecord]]:
        """Forward reader over the event log: its n-th item is exactly
        ``record_at(start + n)``, None past the end.

        The sequential twin of :meth:`record_at`, for readers that walk
        positions in order (the replay self-check).  Rotated positions
        come straight from one decoded segment at a time — segments are
        immutable, so holding one across reads is safe.  Positions in
        the in-memory window go through :meth:`record_at` one by one
        (never a held deque iterator), so the cursor stays correct when
        the journal grows or rotates between reads."""
        index = start
        if 1 <= index <= self.shared:
            shared = self.shared
            for rec in self.base.cursor(index):
                yield rec
                index += 1
                if index > shared:
                    break
        segments = self.segments
        while True:
            if segments is not None and 1 <= index <= self._total - len(self.events):
                seg = segments.segment_for(index)
                if seg is not None:
                    records = segments.load(seg).records
                    for rec in records[index - seg.first :]:
                        yield rec
                    index = seg.last + 1
                    continue
            yield self.record_at(index)
            index += 1

    def records(self, first: int, last: int) -> Iterator[EventRecord]:
        """The records at positions ``first..last`` (inclusive, clipped to
        the journal), in order — the batch reader of the session's
        history views.  The shared prefix comes from ``base``, rotated
        positions one decoded segment at a time, the in-memory window by
        one slice; the journal must not grow while this is read."""
        index, last = max(first, 1), min(last, self._total)
        if index <= min(last, self.shared):
            yield from self.base.records(index, min(last, self.shared))
            index = self.shared + 1
        stored = self._stored_base()
        while index <= min(last, stored):
            seg = self.segments.segment_for(index)
            end = min(last, seg.last)
            yield from self.segments.load(seg).records[index - seg.first : end - seg.first + 1]
            index = end + 1
        if index <= last:
            yield from islice(self.events, index - stored - 1, last - stored)

    def value_for_event(self, index: int) -> Optional[str]:
        """``event_values`` lookup that falls back to segments (and to
        ``base`` on the shared prefix)."""
        if 1 <= index <= self.shared:
            return self.base.value_for_event(index)
        value = self.event_values.get(index)
        if value is None and self.segments is not None:
            seg = self.segments.segment_for(index)
            if seg is not None:
                return self.segments.load(seg).event_values.get(index)
        return value

    def checkpoint_at_dispatch(self, dispatch: int) -> Optional[Checkpoint]:
        return self._cp_by_dispatch.get(dispatch)

    def nearest_checkpoint(self, index: int) -> Optional[Checkpoint]:
        """The last checkpoint taken at or before event position ``index``."""
        best: Optional[Checkpoint] = None
        for cp in self.checkpoints:
            if cp.index <= index:
                best = cp
            else:
                break
        return best

    def iter_indexed(self) -> Iterator[Tuple[int, EventRecord]]:
        """Stream ``(position, record)`` over the whole run — the shared
        prefix from ``base``, on-disk segments (one resident at a time),
        then the in-memory window — without materialising the whole
        journal."""
        if self.shared:
            for pos, rec in self.base.iter_indexed():
                if pos > self.shared:
                    break
                yield pos, rec
        yield from self._iter_own()

    def _iter_own(self) -> Iterator[Tuple[int, EventRecord]]:
        """``iter_indexed`` past the shared prefix."""
        if self.segments is not None:
            yield from self.segments.iter_records()
        base = self._stored_base()
        for offset, rec in enumerate(self.events):
            yield base + offset + 1, rec

    def _productions(self, records=None) -> Iterator[Tuple[int, EventRecord]]:
        """Token productions (push exits) among ``records`` (default:
        ``iter_indexed``)."""
        for pos, rec in self.iter_indexed() if records is None else records:
            if rec.seq is not None and rec.symbol == _PUSH_SYMBOL and rec.phase == "exit":
                yield pos, rec

    def _production_seqs(self) -> List[Tuple[int, int]]:
        """``(position, seq)`` of every production, oldest first; the
        shared prefix comes from ``base``'s list, so a replay's journal
        reads no segment of its base."""
        if self._seqs is not None and self._seqs[0] == self._total:
            return self._seqs[1]
        seqs: List[Tuple[int, int]] = []
        if self.shared:
            prefix = self.base._production_seqs()
            seqs = prefix[: bisect_right(prefix, (self.shared, float("inf")))]
        seqs.extend((pos, rec.seq) for pos, rec in self._productions(self._iter_own()))
        if self.base is None:
            # a replay's list is rebuilt per call: kept, it would grow
            # with every parked machine's position
            self._seqs = (self._total, seqs)
        return seqs

    def token_stream(self) -> List[int]:
        """Global seq numbers of every recorded token production, in
        order — the run's determinism fingerprint."""
        return [seq for _, seq in self._production_seqs()]

    def link_value_streams(self) -> Dict[str, List[str]]:
        """Per-link ordered token payload streams (canonical texts).

        Reads each production's link from its record and its payload
        text from ``event_values`` (populated by
        :class:`~repro.core.replay.RunRecorder`).  This is the
        shard-invariant projection of the journal: merging each shard's
        streams reproduces the single-kernel streams exactly."""
        streams: Dict[str, List[str]] = {}
        for i, rec in self._productions():
            value = self.value_for_event(i)
            if rec.link is None or value is None:
                continue
            streams.setdefault(rec.link, []).append(value)
        return streams

    def _stored_base(self) -> int:
        """Position of the oldest in-memory event, minus one."""
        return self._total - len(self.events)

    def index_for_seq(self, seq: int) -> Optional[int]:
        """Event position at which token ``seq`` was produced, or None if
        no such token was recorded."""
        for i, produced in self._production_seqs():
            if produced == seq:
                return i
        return None

    def index_for_time(self, time: int) -> Optional[int]:
        """First event position at simulated time >= ``time``, or None if
        the run never reached ``time``."""
        for i, rec in self.iter_indexed():
            if rec.time >= time:
                return i
        return None


def replay_into(journal: ReplayJournal, *consumers) -> List[Any]:
    """Stream a recorded run into ``consumers`` — the one replay path.

    One pass over :meth:`ReplayJournal.iter_indexed` (a segment-rotating
    journal is walked one decompressed segment at a time) calls
    ``feed(ev, position)`` on every consumer with each stored
    :class:`~repro.sim.trace.EventRecord`, unchanged — exactly what the
    live event tap fed them.  Journaled deadlock stops are replayed at their recorded
    positions, after that position's event, through
    ``at_stop("deadlock", time, position)`` on the consumers that define
    it.  Returns the non-None results of those calls in stream order
    (monitor verdicts, for instance)."""
    results: List[Any] = []
    stoppers = [c for c in consumers if hasattr(c, "at_stop")]
    stops = deque(
        sorted((s for s in journal.stops if s.kind == "deadlock"), key=lambda s: s.index)
        if stoppers
        else ()
    )
    for index, ev in journal.iter_indexed():
        for consumer in consumers:
            out = consumer.feed(ev, index)
            if out is not None:
                results.append(out)
        while stops and stops[0].index <= index:
            _replay_stop(stops.popleft(), stoppers, results)
    while stops:
        _replay_stop(stops.popleft(), stoppers, results)
    return results


def _replay_stop(stop: StopRecord, stoppers: List[Any], results: List[Any]) -> None:
    for consumer in stoppers:
        out = consumer.at_stop("deadlock", stop.time, stop.index)
        if out is not None:
            results.append(out)
