"""Deterministic record/replay journal.

Dataflow programs have deterministic communication semantics, and the
kernel dispatches deterministically (FIFO ready queue, monotone tie-break
in the timed heap) — so a run is fully reproduced by re-executing it from
the start, *provided nothing external perturbs it*.  The journal records
everything needed to (a) navigate a finished or stopped execution by
position and (b) prove the re-execution really is identical:

- a compact **event log** — one entry per framework event (entry/exit of
  ``pedf_rt_*``), carrying the simulated time, the acting actor and, for
  data-exchange exits, the token's global sequence number.  The log
  doubles as a fingerprint stream: replaying compares each event against
  the recorded one (the determinism self-check).
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

Storage reuses :class:`~repro.sim.trace.TraceRecorder` (same dual
cap/ring policies, same O(1) per-kind indexing).  With ``segment_dir``
set, the journal instead keeps a sliding in-memory window and rotates
older events — side tables included — into compressed on-disk
:mod:`segments <repro.sim.segments>`; every query and the streaming
:meth:`ReplayJournal.iter_indexed` fall back to segments transparently,
so nothing is ever lost and memory stays bounded on unbounded runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..errors import ReplayError
from .segments import DEFAULT_SEGMENT_WINDOW, SegmentStore
from .trace import TraceRecord, TraceRecorder

#: event-log kind of a completed token production — the determinism
#: fingerprint stream ("symbol:phase", see ReplayJournal.add_event)
TOKEN_EVENT_KIND = "pedf_rt_push:exit"

DEFAULT_CHECKPOINT_INTERVAL = 64


class EventRecord(NamedTuple):
    """One framework event, reduced to its journal-derivable fields.

    The single normalised event every consumer sees, live (the
    session's event tap) and post hoc (:func:`replay_into`): simulated
    time, phase, symbol and acting actor from the event log, the token
    seq of data-exchange exits, and from the side tables the link of
    every push/pop event and the target filter of every
    ``actor_start``/``actor_sync`` event.  Nothing live-only (argument
    dicts, object identities, wall-clock anything) fits in it, so live
    and replay-derived consumer output match byte for byte."""

    time: int
    phase: str  # "entry" | "exit"
    symbol: str
    actor: str  # qualified acting actor, or "" (elaboration)
    seq: Optional[int]  # token seq (push/pop exits only)
    link: Optional[str]  # link name (push/pop only)
    target: Optional[str]  # target filter (actor_start/actor_sync only)

    def describe(self) -> str:
        """Deterministic one-line rendering."""
        extra = ""
        if self.link is not None:
            extra += f" link={self.link}"
        if self.seq is not None:
            extra += f" seq={self.seq}"
        if self.target is not None:
            extra += f" target={self.target}"
        who = f" [{self.actor}]" if self.actor else ""
        return f"t={self.time} {self.symbol}:{self.phase}{who}{extra}"


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
        limit: Optional[int] = None,
        ring: bool = False,
        segment_dir: Optional[str] = None,
        window: int = DEFAULT_SEGMENT_WINDOW,
    ):
        if segment_dir is not None:
            # segment rotation bounds memory without losing anything, so
            # the lossy cap/ring policies are mutually exclusive with it
            limit, ring = None, False
        self.events = TraceRecorder(limit=limit, ring=ring)
        self.segments: Optional[SegmentStore] = (
            SegmentStore(segment_dir) if segment_dir is not None else None
        )
        self.window = max(2, window)
        self.checkpoints: List[Checkpoint] = []
        self.stops: List[StopRecord] = []
        self.alterations: List[AlterationRecord] = []
        #: token seq -> link name, noted at push/pop exits.  Not part of
        #: the fingerprint stream; it lets a post-hoc consumer attribute
        #: recorded token events to links.  Rotates into segments with
        #: the push event that minted the seq (see ``token_link``).
        self.token_links: Dict[int, str] = {}
        #: event position -> link name for *every* push/pop event (both
        #: phases).  Entries matter to the runtime-verification deriver:
        #: a push/pop entry with no matching exit is an actor blocked on
        #: that link, the raw material of the wait-for deadlock analysis.
        self.event_links: Dict[int, str] = {}
        #: event position -> target filter qualname for actor_start /
        #: actor_sync events, so scheduling counters (starts issued, sync
        #: targets) are reconstructible from the journal.
        self.event_targets: Dict[int, str] = {}
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
        self._max_seq: Optional[int] = None
        self._cp_by_dispatch: Dict[int, Checkpoint] = {}

    # ------------------------------------------------------------ recording

    @property
    def total_events(self) -> int:
        """Lifetime event count (positions run 1..total_events)."""
        return self._total

    @property
    def max_seq_recorded(self) -> Optional[int]:
        """Largest token seq the event log ever carried (even if the
        carrying record was later evicted); None if no token yet."""
        return self._max_seq

    @property
    def evicted_events(self) -> int:
        """Events irrecoverably discarded by a cap/ring bound.  Always 0
        for segment-rotating journals — rotation is not loss."""
        return self.events.dropped

    def add_event(
        self, time: int, phase: str, symbol: str, actor: Optional[str], seq: Optional[int]
    ) -> int:
        """Append one framework event; returns its 1-based position."""
        self._total += 1
        if seq is not None and (self._max_seq is None or seq > self._max_seq):
            self._max_seq = seq
        self.events.record(time, actor or "", f"{symbol}:{phase}", seq)
        if self.segments is not None and len(self.events) >= self.window:
            self._rotate()
        return self._total

    def _rotate(self) -> None:
        """Move the oldest half-window of the in-memory log (and its side
        table entries) into a compressed on-disk segment."""
        n = len(self.events) // 2
        first = self._total - len(self.events) + 1
        records = self.events.drain_oldest(n)
        last = first + len(records) - 1
        links: Dict[int, str] = {}
        targets: Dict[int, str] = {}
        values: Dict[int, str] = {}
        tokens: Dict[int, str] = {}
        for pos in range(first, last + 1):
            link = self.event_links.pop(pos, None)
            if link is not None:
                links[pos] = link
            target = self.event_targets.pop(pos, None)
            if target is not None:
                targets[pos] = target
            value = self.event_values.pop(pos, None)
            if value is not None:
                values[pos] = value
        for rec in records:
            # a push exit mints its seq: the token->link note travels with it
            if rec.kind == TOKEN_EVENT_KIND and rec.detail is not None:
                link = self.token_links.pop(rec.detail, None)
                if link is not None:
                    tokens[rec.detail] = link
        self.segments.rotate(first, records, links, targets, values, tokens)

    def note_token_link(self, seq: Optional[int], link: Optional[str]) -> None:
        """Remember which link carried token ``seq`` (first note wins)."""
        if seq is not None and link:
            self.token_links.setdefault(seq, link)

    def note_event_value(self, index: int, value_text: Optional[str]) -> None:
        """Remember the canonical payload text pushed by the event at
        position ``index``.  Side table only — not fingerprint-compared."""
        if value_text is not None:
            self.event_values[index] = value_text

    def note_event_link(self, index: int, link: Optional[str]) -> None:
        """Remember which link a push/pop event (at position ``index``)
        operated on.  Side table only — not fingerprint-compared."""
        if link:
            self.event_links[index] = link

    def note_event_target(self, index: int, target: Optional[str]) -> None:
        """Remember the target filter of a scheduling event (actor_start
        / actor_sync) at position ``index``.  Side table only."""
        if target:
            self.event_targets[index] = target

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

    def record_at(self, index: int) -> Optional[TraceRecord]:
        """The stored event at 1-based ``index``; None if out of range or
        evicted by a cap/ring bound.  Falls back to on-disk segments when
        the journal rotates."""
        if not 1 <= index <= self._total:
            return None
        events = self.events
        stored = len(events)
        first = self._total - stored + 1  # oldest in-memory position
        if events.ring or self.segments is not None:
            if index >= first:
                return events.at(index - first)
            if self.segments is not None:
                seg = self.segments.segment_for(index)
                if seg is not None:
                    return self.segments.load(seg).record_at(index)
            return None
        if index > stored:
            return None
        return events.at(index - 1)

    def cursor(self, start: int = 1) -> Iterator[Optional[TraceRecord]]:
        """Forward reader over the event log: its n-th item is exactly
        ``record_at(start + n)``, None where out of range or evicted.

        The sequential twin of :meth:`record_at`, for readers that walk
        positions in order (the replay self-check).  Rotated positions
        come straight from one decoded segment at a time — segments are
        immutable, so holding one across reads is safe.  Positions in
        the in-memory window go through :meth:`record_at` one by one
        (never a held deque iterator), so the cursor stays correct when
        the journal grows, rotates or evicts between reads."""
        index = start
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

    def link_for_event(self, index: int) -> Optional[str]:
        """``event_links`` lookup that falls back to segments."""
        link = self.event_links.get(index)
        if link is None and self.segments is not None:
            seg = self.segments.segment_for(index)
            if seg is not None:
                return self.segments.load(seg).event_links.get(index)
        return link

    def target_for_event(self, index: int) -> Optional[str]:
        """``event_targets`` lookup that falls back to segments."""
        target = self.event_targets.get(index)
        if target is None and self.segments is not None:
            seg = self.segments.segment_for(index)
            if seg is not None:
                return self.segments.load(seg).event_targets.get(index)
        return target

    def value_for_event(self, index: int) -> Optional[str]:
        """``event_values`` lookup that falls back to segments."""
        value = self.event_values.get(index)
        if value is None and self.segments is not None:
            seg = self.segments.segment_for(index)
            if seg is not None:
                return self.segments.load(seg).event_values.get(index)
        return value

    def token_link(self, seq: int) -> Optional[str]:
        """``token_links`` lookup that falls back to segments (newest
        first — interactive lookups usually target recent tokens)."""
        link = self.token_links.get(seq)
        if link is None and self.segments is not None:
            for seg in reversed(self.segments.segments):
                link = self.segments.load(seg).token_links.get(seq)
                if link is not None:
                    return link
        return link

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

    def iter_indexed(self, kind: Optional[str] = None) -> Iterator[Tuple[int, TraceRecord]]:
        """Stream ``(position, record)`` over everything still available —
        on-disk segments first (one resident at a time), then the
        in-memory window — without materialising the whole journal."""
        if self.segments is not None:
            for pos, rec in self.segments.iter_records():
                if kind is None or rec.kind == kind:
                    yield pos, rec
        base = self._stored_base()
        for offset, rec in enumerate(self.events):
            if kind is None or rec.kind == kind:
                yield base + offset + 1, rec

    def token_stream(self, kind: str = TOKEN_EVENT_KIND) -> List[int]:
        """Global seq numbers of every recorded token production, in
        order — the run's determinism fingerprint."""
        if self.segments is None:
            return [rec.detail for rec in self.events.of_kind(kind) if rec.detail is not None]
        return [rec.detail for _, rec in self.iter_indexed(kind) if rec.detail is not None]

    def link_value_streams(
        self, kind: str = TOKEN_EVENT_KIND, partial: bool = False
    ) -> Dict[str, List[str]]:
        """Per-link ordered token payload streams (canonical texts).

        Requires the ``event_links`` / ``event_values`` side tables (both
        populated by :class:`~repro.core.replay.RunRecorder`).  This is
        the shard-invariant projection of the journal: merging each
        shard's streams reproduces the single-kernel streams exactly.

        A cap/ring-bounded journal that actually evicted events cannot
        produce complete streams; that raises unless ``partial=True``
        explicitly asks for the surviving window (a segment-rotating
        journal never evicts and always streams everything)."""
        if self.evicted_events and not partial:
            lo, hi = self.stored_range()
            raise ReplayError(
                f"link value streams are incomplete: the journal bound evicted "
                f"{self.evicted_events} of {self._total} event(s) (stored window "
                f"{lo}..{hi}); record with segment_dir=... to keep everything, "
                f"or pass partial=True for the surviving window"
            )
        streams: Dict[str, List[str]] = {}
        for i, rec in self.iter_indexed(kind):
            link = self.link_for_event(i)
            value = self.value_for_event(i)
            if link is None or value is None:
                continue
            streams.setdefault(link, []).append(value)
        return streams

    def _stored_base(self) -> int:
        """Position of the oldest in-memory event, minus one."""
        if self.events.ring or self.segments is not None:
            return self._total - len(self.events)
        return 0

    def stored_range(self) -> Tuple[int, int]:
        """The contiguous position range still *available* (in memory or
        in segments): positions outside it were irrecoverably evicted."""
        if self._total == 0:
            return (0, 0)
        if self.segments is not None:
            return (1, self._total)
        if self.events.ring:
            return (self._total - len(self.events) + 1, self._total)
        return (1, len(self.events))

    def index_for_seq(self, seq: int, kind: str = TOKEN_EVENT_KIND) -> Optional[int]:
        """Event position at which token ``seq`` was produced, or None if
        that position is not available (see :meth:`seq_status` for the
        evicted / never-recorded distinction)."""
        for i, rec in self.iter_indexed(kind):
            if rec.detail == seq:
                return i
        return None

    def seq_status(self, seq: int, kind: str = TOKEN_EVENT_KIND) -> Tuple[str, Optional[int]]:
        """Resolve a token seq to ``(status, index)``:

        - ``("found", index)`` — the production event is available;
        - ``("evicted", None)`` — it *was* recorded, but the journal
          bound discarded it (seq <= the largest seq ever logged and
          events were evicted);
        - ``("unknown", None)`` — no such token was ever recorded."""
        index = self.index_for_seq(seq, kind)
        if index is not None:
            return ("found", index)
        if (
            self.evicted_events
            and self._max_seq is not None
            and 0 <= seq <= self._max_seq
        ):
            return ("evicted", None)
        return ("unknown", None)

    def index_for_time(self, time: int) -> Optional[int]:
        """First available event position at simulated time >= ``time``."""
        for i, rec in self.iter_indexed():
            if rec.time >= time:
                return i
        return None

    def time_status(self, time: int) -> Tuple[str, Optional[int]]:
        """Resolve a timestamp to ``(status, index)``: ``found`` when the
        first event at/after ``time`` is provably available, ``evicted``
        when eviction makes the answer unknowable (sim time is monotone,
        so a ring journal is only trustworthy strictly *after* the oldest
        surviving record's time), ``unknown`` when the run never reached
        ``time``."""
        index = self.index_for_time(time)
        if self.evicted_events:
            if self.events.ring:
                lo, _ = self.stored_range()
                oldest = self.record_at(lo)
                # an evicted event may also match: times are nondecreasing,
                # so everything evicted happened at or before oldest.time
                if oldest is None or time <= oldest.time:
                    return ("evicted", None)
            elif index is None:
                # cap mode drops the *newest* events: no stored match says
                # nothing about the dropped tail
                return ("evicted", None)
        if index is None:
            return ("unknown", None)
        return ("found", index)

    @staticmethod
    def describe_record(rec: TraceRecord) -> str:
        seq = f" seq={rec.detail}" if rec.detail is not None else ""
        who = f" [{rec.process}]" if rec.process else ""
        return f"{rec.kind}{who} t={rec.time}{seq}"


def replay_into(journal: ReplayJournal, *consumers) -> List[Any]:
    """Stream a recorded run into ``consumers`` — the one replay path.

    One pass over :meth:`ReplayJournal.iter_indexed` (a segment-rotating
    journal is walked one decompressed segment at a time) rebuilds each
    :class:`EventRecord` from the log and its side tables and calls
    ``feed(ev, position)`` on every consumer, exactly as the live event
    tap does.  Journaled deadlock stops are replayed at their recorded
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
    for index, rec in journal.iter_indexed():
        symbol, _, phase = rec.kind.rpartition(":")
        ev = EventRecord(
            rec.time,
            phase,
            symbol,
            rec.process,
            rec.detail,
            journal.link_for_event(index),
            journal.target_for_event(index),
        )
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
