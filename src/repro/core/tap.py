"""The session's event plane: one bus tap feeding every event consumer.

Journal recording, telemetry's span builder (which also fills the
flight recorder's ring), runtime verification and the event-journal
tail all observe the same framework events.  Rather than each holding
its own ``"*"`` bus subscription and normalising every event its own
way, the session owns one :class:`EventTap`.  Per bus event it:

1. normalises the event once, into the journal-shaped
   :class:`~repro.sim.trace.EventRecord`;
2. has the :class:`~repro.core.replay.RunRecorder` (when recording)
   journal it first — the recorder assigns the event position and may
   suspend (replay target reached, divergence);
3. calls every armed consumer as ``feed(ev, position)`` — position is
   the journal index while recording, else None;
4. returns the first Suspend requested, the same first-wins rule as
   :meth:`~repro.pedf.api.FrameworkEventBus.emit`.

The bus subscription exists only while the recorder or at least one
consumer is armed, so with everything off the §V elision in
``FrameworkEventBus.wants()`` keeps framework calls event-free.  The
post-hoc twin of this tap is :func:`~repro.sim.replay.replay_into`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from ..pedf.api import SYM_ACTOR_START, SYM_ACTOR_SYNC, SYM_POP, SYM_PUSH, FrameworkEvent
from ..sim.process import Suspend
from ..sim.trace import EventRecord

#: symbols whose events carry a link name (push/pop, both phases)
LINK_SYMBOLS = (SYM_PUSH, SYM_POP)
#: symbols whose events carry a scheduling target filter (both phases)
TARGET_SYMBOLS = (SYM_ACTOR_START, SYM_ACTOR_SYNC)

Consumer = Callable[[EventRecord, Optional[int]], Any]

_new_tuple = tuple.__new__


class EventTap:
    """One ``"*"`` bus subscription per session, shared by every consumer."""

    def __init__(self, session) -> None:
        self.session = session
        #: the active RunRecorder journaling this session, if any (fed first)
        self.recorder = None
        #: armed ``feed(ev, position)`` callables, in arming order
        self.consumers: Tuple[Consumer, ...] = ()
        self._sub = None

    def arm(self, consumer: Consumer) -> None:
        if consumer not in self.consumers:
            self.consumers += (consumer,)
            self._reconcile()

    def disarm(self, consumer: Consumer) -> None:
        if consumer in self.consumers:
            self.consumers = tuple(c for c in self.consumers if c != consumer)
            self._reconcile()

    def set_recorder(self, recorder) -> None:
        self.recorder = recorder
        self._reconcile()

    def _reconcile(self) -> None:
        want = self.recorder is not None or bool(self.consumers)
        if want and self._sub is None:
            self._sub = self.session.dbg.runtime.bus.subscribe("*", self._on_event)
        elif not want and self._sub is not None:
            self._sub.unsubscribe()
            self._sub = None

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
        position = suspend = None
        if self.recorder is not None:
            position, suspend = self.recorder.journal_event(ev, event.retval)
        for feed in self.consumers:
            req = feed(ev, position)
            if req is not None and suspend is None:
                suspend = req
        return suspend
