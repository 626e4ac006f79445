"""The session's event plane: one bus tap, one event history.

Journal recording, runtime verification, telemetry (with the flight
recorder's ring) and the event-journal tail all observe the same
framework events.  Rather than each holding its own ``"*"`` bus
subscription and normalising every event its own way, the session owns
one :class:`EventTap`.  Per bus event it:

1. normalises the event once, into the journal-shaped
   :class:`~repro.sim.trace.EventRecord`;
2. has the :class:`~repro.core.replay.RunRecorder` (when recording)
   journal it first — the recorder assigns the event position and may
   suspend (replay target reached, divergence); without a recording it
   counts the position itself and, while a view is armed, appends the
   record to one bounded in-memory buffer;
3. calls every armed live consumer (the RV monitors) as
   ``feed(ev, position)`` — position is the journal index while
   recording, else None;
4. returns the first Suspend requested, the same first-wins rule as
   :meth:`~repro.pedf.api.FrameworkEventBus.emit`.

Only the recorder and the RV monitors work per event, because only they
may stop the run.  Telemetry and the event tail are
:class:`HistoryView` s: each holds the position ranges it covers and a
cursor, and consumes the records past its cursor when it is read — from
the recorder's journal while recording, else from the buffer, which
drains into every view before it would drop a record a view has not
read.  So collection is paid at read time.  The ranges are a
:class:`Coverage`, which the RV checks keep too: a time-travel hop moves
them to the landed machine, and a view then re-reads that machine's
journal (see ``DataflowSession.hand_over``).

The bus subscription exists only while the recorder, a consumer or a
view is armed, so with everything off the §V elision in
``FrameworkEventBus.wants()`` keeps framework calls event-free.  The
post-hoc twin of this tap is :func:`~repro.sim.replay.replay_into`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, List, Optional, Tuple

from ..pedf.api import SYM_ACTOR_START, SYM_ACTOR_SYNC, SYM_POP, SYM_PUSH, FrameworkEvent
from ..sim.process import Suspend
from ..sim.trace import EventRecord

#: symbols whose events carry a link name (push/pop, both phases)
LINK_SYMBOLS = (SYM_PUSH, SYM_POP)
#: symbols whose events carry a scheduling target filter (both phases)
TARGET_SYMBOLS = (SYM_ACTOR_START, SYM_ACTOR_SYNC)

#: records the tap buffers for its views without a recording; a full
#: buffer drains into every view before it takes another record
BUFFER_LIMIT = 4096

Consumer = Callable[[EventRecord, Optional[int]], Any]

_new_tuple = tuple.__new__


class EventTap:
    """One ``"*"`` bus subscription per session, and its event history."""

    def __init__(self, session) -> None:
        self.session = session
        #: the active RunRecorder journaling this session, if any (fed first)
        self.recorder = None
        #: armed live ``feed(ev, position)`` callables, in arming order
        self.consumers: Tuple[Consumer, ...] = ()
        #: the read-side views over this tap's history
        self.views: Tuple["HistoryView", ...] = ()
        #: events seen so far: the journal position while recording
        self.position = 0
        #: records after ``_buffer_base``, kept for the armed views while
        #: nothing records (None when no view needs them)
        self._buffer: Optional[List[EventRecord]] = None
        self._buffer_base = 0
        self._sub = None

    def arm(self, consumer: Consumer, armed: bool = True) -> None:
        """Arm a live consumer (disarm it with ``armed=False``)."""
        if (consumer in self.consumers) != armed:
            others = tuple(c for c in self.consumers if c != consumer)
            self.consumers = others + (consumer,) if armed else others
            self._reconcile()

    def set_recorder(self, recorder) -> None:
        # the views' source changes with the recorder: let them read
        # everything the old source holds first
        self.drain()
        self.recorder = recorder
        self._reconcile()

    def _reconcile(self) -> None:
        viewed = any(view.armed for view in self.views)
        buffered = viewed and self.recorder is None
        if buffered and self._buffer is None:
            self._buffer, self._buffer_base = [], self.position
        elif not buffered and self._buffer is not None:
            self.drain()
            self._buffer = None
        want = self.recorder is not None or bool(self.consumers) or viewed
        if want and self._sub is None:
            self._sub = self.session.dbg.runtime.bus.subscribe("*", self._on_event)
        elif not want and self._sub is not None:
            self._sub.unsubscribe()
            self._sub = None

    # ------------------------------------------------------------- history

    def drain(self) -> None:
        """Bring every view up to the current position."""
        for view in self.views:
            view.advance()

    def records(self, first: int, last: int) -> Iterable[EventRecord]:
        """The records at positions ``first..last`` (inclusive): from the
        recorder's journal while recording, else from the buffer."""
        if self.recorder is not None:
            return self.recorder.journal.records(first, last)
        base = self._buffer_base
        return self._buffer[first - base - 1 : last - base]

    # --------------------------------------------------------------- event

    def _on_event(self, event: FrameworkEvent) -> Optional[Suspend]:
        symbol = event.symbol
        seq = link = target = None
        if symbol in LINK_SYMBOLS:
            link = event.args.get("link")
            if event.phase == "exit":
                seq = getattr(event.retval, "seq", None)
        elif symbol in TARGET_SYMBOLS:
            target = event.args.get("actor")
        # tuple.__new__ skips the NamedTuple constructor's Python frame:
        # this runs once per framework event while anything is armed
        ev = _new_tuple(EventRecord, (event.time, event.phase, symbol, event.actor or "", seq, link, target))
        if self.recorder is not None:
            position, suspend = self.recorder.journal_event(ev, event.retval)
            self.position = position
        else:
            position = suspend = None
            buffer = self._buffer
            if buffer is not None:
                if len(buffer) >= BUFFER_LIMIT:
                    self.drain()
                    self._buffer_base = self.position
                    buffer.clear()
                buffer.append(ev)
            self.position += 1
        for feed in self.consumers:
            req = feed(ev, position)
            if req is not None and suspend is None:
                suspend = req
        return suspend


class Coverage:
    """The position ranges of a tap's history that something covers.

    ``ranges`` holds ``[first, last]`` ranges, oldest first: ``open``
    starts one after the current position, ``close`` ends it there, and
    the last range is open (``last`` None) while armed.  A time-travel
    hop moves them to the landed machine with :meth:`land`.
    """

    def __init__(self, tap: EventTap) -> None:
        self.tap = tap
        self.ranges: List[List[Optional[int]]] = []

    @property
    def armed(self) -> bool:
        return bool(self.ranges) and self.ranges[-1][1] is None

    def open(self) -> None:
        if not self.armed:
            self.ranges.append([self.tap.position + 1, None])
            self.tap._reconcile()

    def close(self) -> None:
        if self.armed:
            self.ranges[-1][1] = self.tap.position
            self.tap._reconcile()

    def covers(self, position: int) -> bool:
        return any(first <= position and (last is None or position <= last)
                   for first, last in self.ranges)

    def land(self, source: "Coverage") -> None:
        """Cover what ``source``, on the machine a hop leaves, covered up
        to this tap's position (the landing), and from there on if
        ``source`` is armed; ``source`` is left covering nothing."""
        landed = self.tap.position
        self.ranges = [[first, last if last is None else min(last, landed)]
                       for first, last in source.ranges if first <= landed]
        if source.armed and not self.armed:
            self.ranges.append([landed + 1, None])
        source.ranges = []
        source.tap._reconcile()
        self.tap._reconcile()


class HistoryView(Coverage):
    """A read-side view over a tap's event history.

    Besides its covered ranges the view keeps a cursor, the last
    position it consumed.  :meth:`advance` hands the subclass's
    ``consume(records)`` the covered records between the cursor and a
    position; every reader advances first, so what a reader sees is what
    live per-event feeding would have built, and nothing is built that
    no one reads.  Landed on another machine, a view re-reads that
    machine's history from the start.
    """

    def __init__(self, tap: EventTap) -> None:
        super().__init__(tap)
        self.cursor = 0
        tap.views += (self,)

    def close(self) -> None:
        if self.armed:
            self.advance()
            super().close()

    def advance(self, to: Optional[int] = None) -> None:
        """Consume the covered records after the cursor, through ``to``
        (default: the tap's position)."""
        to = self.tap.position if to is None else to
        cursor = self.cursor
        if to <= cursor:
            return
        for first, last in self.ranges:
            last = to if last is None else min(last, to)
            first = max(first, cursor + 1)
            if first <= last:
                self.consume(self.tap.records(first, last))
        self.cursor = to

    def land(self, source: "HistoryView") -> None:
        super().land(source)
        self.cursor = source.cursor = 0


class EventTail(HistoryView):
    """The ``dataflow events`` tail: the newest covered records, up to
    ``limit``, read on demand.  Turning it on again starts a new tail."""

    def __init__(self, tap: EventTap) -> None:
        super().__init__(tap)
        #: the newest records read so far (None until first enabled)
        self.kept: Optional[deque] = None

    def enable(self, limit: int) -> None:
        if self.armed:
            return
        self.kept = deque(maxlen=limit)
        self.ranges = []
        self.cursor = self.tap.position
        self.open()

    def read(self) -> Optional[deque]:
        self.advance()
        return self.kept

    def advance(self, to: Optional[int] = None) -> None:
        to = self.tap.position if to is None else to
        if self.kept is not None and self.ranges:
            # one range (enabling starts a new tail): only its newest
            # ``maxlen`` records can stay, so the rest are never read
            last = self.ranges[-1][1]
            end = to if last is None else min(last, to)
            self.cursor = max(self.cursor, end - self.kept.maxlen)
        super().advance(to)

    def consume(self, records: Iterable[EventRecord]) -> None:
        self.kept.extend(records)

    def land(self, source: "EventTail") -> None:
        super().land(source)
        kept, source.kept = source.kept, None
        self.kept = None if kept is None else deque(maxlen=kept.maxlen)
