"""The span builder: normalised framework events -> spans + metrics.

Byte-identity between live collection and replay derivation is achieved
*by construction*: both feed the same :class:`TelemetryBuilder` with
:class:`~repro.sim.trace.EventRecord` tuples, restricted to what a
:class:`~repro.sim.replay.ReplayJournal` stores.  The builder reads
simulated time, phase, symbol, acting actor and — on data-exchange
exits that carry a token seq, and only there — the seq plus the link
name.

Span hierarchy per track (one track per actor; elaboration events with
no actor land on ``pedf.init``)::

    step (controller)                  firing (filter)
    └── run   [filterc]                └── work  [filterc]
        ├── actor_start [control]          ├── pop  [io]
        ├── wait_actor_sync [wait]         └── push [io]
        └── ...

- ``WORK_ENTER`` entry opens *firing*; its exit opens *work* (the
  Filter-C body).  ``WORK_EXIT`` entry closes *work*, its exit closes
  *firing*.  ``STEP_BEGIN``/``STEP_END`` do the same with *step*/*run*.
- Every other symbol is a leaf span (entry opens, exit closes).
- Closing a leaf adds its duration to the enclosing span's child total;
  closing a ``filterc`` span splits its duration into **busy** (own
  time: exactly the interpreter-charged statement/call cycles, because
  every other sim-time advance inside a WORK body happens inside a
  nested framework call) and **blocked** (the child total).

The builder is tolerant of a mid-run start: an exit with no matching
open is dropped rather than corrupting the stack.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..pedf.api import (
    SYM_POP,
    SYM_PUSH,
    SYM_STEP_BEGIN,
    SYM_STEP_END,
    SYM_WORK_ENTER,
    SYM_WORK_EXIT,
)
from ..sim.trace import EventRecord
from .metrics import MetricsRegistry
from .spans import Span, SpanSink

#: track for elaboration-time events that carry no acting actor
INIT_TRACK = "pedf.init"

_SYMBOL_PREFIX = "pedf_rt_"

#: leaf-span category by symbol suffix (after stripping ``pedf_rt_``)
_LEAF_CATS = {
    "push": "io",
    "pop": "io",
    "wait_actor_init": "wait",
    "wait_actor_sync": "wait",
    "actor_start": "control",
    "actor_sync": "control",
    "set_pred": "control",
    "register_program": "init",
    "register_module": "init",
    "register_actor": "init",
    "register_iface": "init",
    "bind": "init",
}


class _Open:
    """A span under construction (mutable; frozen into Span on close)."""

    __slots__ = ("name", "cat", "begin", "args", "child_total")

    def __init__(self, name: str, cat: str, begin: int, args: Tuple[Tuple[str, Any], ...]):
        self.name = name
        self.cat = cat
        self.begin = begin
        self.args = args
        self.child_total = 0


class TelemetryBuilder:
    """Feeds :class:`EventRecord` tuples; emits spans, updates metrics."""

    def __init__(self, sink: SpanSink, metrics: MetricsRegistry):
        self.sink = sink
        self.metrics = metrics
        self.events_fed = 0
        self._stacks: Dict[str, List[_Open]] = {}

    # ------------------------------------------------------------ plumbing

    def _stack(self, track: str) -> List[_Open]:
        stack = self._stacks.get(track)
        if stack is None:
            stack = self._stacks[track] = []
        return stack

    def _open(self, track: str, name: str, cat: str, begin: int,
              args: Tuple[Tuple[str, Any], ...] = ()) -> None:
        self._stack(track).append(_Open(name, cat, begin, args))

    def _close(self, track: str, name: str, end: int) -> Optional[Span]:
        """Close the top span if it matches ``name``; None otherwise
        (tolerates telemetry being enabled mid-run)."""
        stack = self._stacks.get(track)
        if not stack or stack[-1].name != name:
            return None
        top = stack.pop()
        span = Span(track, top.name, top.cat, top.begin, end, top.args)
        if stack:
            stack[-1].child_total += span.duration
        if top.cat == "filterc":
            m = self.metrics.actor(track)
            m.busy += span.duration - top.child_total
            m.blocked += top.child_total
        self.sink.add(span)
        return span

    def open_depth(self, track: str) -> int:
        stack = self._stacks.get(track)
        return len(stack) if stack else 0

    # ---------------------------------------------------------------- feed

    def feed(self, te: EventRecord, position: Optional[int] = None) -> None:
        self.events_fed += 1
        metrics = self.metrics
        metrics.note_time(te.time)
        track = te.actor or INIT_TRACK
        symbol, phase, t = te.symbol, te.phase, te.time
        if symbol == SYM_WORK_ENTER:
            if phase == "entry":
                m = metrics.actor(track)
                m.firings += 1
                self._open(track, "firing", "firing", t, (("invocation", m.firings),))
            else:
                self._open(track, "work", "filterc", t)
        elif symbol == SYM_WORK_EXIT:
            if phase == "entry":
                self._close(track, "work", t)
            else:
                self._close(track, "firing", t)
        elif symbol == SYM_STEP_BEGIN:
            if phase == "entry":
                m = metrics.actor(track)
                m.steps += 1
                self._open(track, "step", "step", t, (("step", m.steps),))
            else:
                self._open(track, "run", "filterc", t)
        elif symbol == SYM_STEP_END:
            if phase == "entry":
                self._close(track, "run", t)
            else:
                self._close(track, "step", t)
        else:
            name = symbol[len(_SYMBOL_PREFIX):] if symbol.startswith(_SYMBOL_PREFIX) else symbol
            if phase == "entry":
                self._open(track, name, _LEAF_CATS.get(name, "other"), t)
            else:
                # a link counts only on exits carrying a seq: the rule
                # that keeps live and derived telemetry byte-equal
                link = None
                args: Tuple[Tuple[str, Any], ...] = ()
                if te.seq is not None:
                    link = te.link
                    args = (("link", link or "?"), ("seq", te.seq))
                stack = self._stacks.get(track)
                if stack and stack[-1].name == name:
                    stack[-1].args = args
                span = self._close(track, name, t)
                duration = span.duration if span is not None else 0
                if symbol == SYM_PUSH:
                    if te.actor:
                        metrics.actor(track).produced += 1
                    if link:
                        metrics.link(link).on_push(t, duration)
                elif symbol == SYM_POP:
                    if te.actor:
                        metrics.actor(track).consumed += 1
                    if link:
                        metrics.link(link).on_pop(t, duration)
