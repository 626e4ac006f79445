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

A session has one builder, fed only by its telemetry view when the
view is read (:mod:`repro.obs.telemetry`); it adds each span it closes
to the telemetry sink and to the flight recorder's ring.  The post-hoc
deriver runs the same builder with no ring.
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


class _LeafTable(dict):
    """symbol -> (leaf span name, category), each entry built on first
    sight of its symbol and then only looked up."""

    def __missing__(self, symbol: str) -> Tuple[str, str]:
        name = symbol[len(_SYMBOL_PREFIX):] if symbol.startswith(_SYMBOL_PREFIX) else symbol
        leaf = self[symbol] = (name, _LEAF_CATS.get(name, "other"))
        return leaf


_new_span = tuple.__new__

#: an open span is a list ``[name, cat, begin, args, child_total]``;
#: closing a child adds its duration to the parent's child_total
_CHILD_TOTAL = 4


class TelemetryBuilder:
    """Feeds :class:`EventRecord` tuples; emits spans, updates metrics.

    Each closed span goes to ``sink`` and, when given, to ``ring`` too:
    the session's telemetry passes the flight recorder's ring, so one
    builder serves both and each store keeps its own cap/ring policy.
    """

    def __init__(self, sink: SpanSink, metrics: MetricsRegistry, ring: Optional[SpanSink] = None):
        self.sink = sink
        self.metrics = metrics
        self.ring = ring
        self.events_fed = 0
        self._stacks: Dict[str, List[list]] = {}
        self._leaves = _LeafTable()

    def _close(self, stack: List[list], track: str, name: str, end: int,
               args: Optional[Tuple[Tuple[str, Any], ...]] = None) -> int:
        """Close the top span if it matches ``name`` and return its
        duration; 0 when nothing matches (tolerates telemetry being
        enabled mid-run).  ``args``, when given, replaces the open
        span's args."""
        if not stack or stack[-1][0] != name:
            return 0
        _name, cat, begin, open_args, child_total = stack.pop()
        duration = end - begin
        # tuple.__new__ skips the NamedTuple constructor's Python frame
        span = _new_span(Span, (track, name, cat, begin, end, open_args if args is None else args))
        if stack:
            stack[-1][_CHILD_TOTAL] += duration
        if cat == "filterc":
            m = self.metrics.actor(track)
            m.busy += duration - child_total
            m.blocked += child_total
        self.sink.add(span)
        if self.ring is not None:
            self.ring.add(span)
        return duration

    def open_depth(self, track: str) -> int:
        stack = self._stacks.get(track)
        return len(stack) if stack else 0

    # ---------------------------------------------------------------- feed

    def feed(self, te: EventRecord, position: Optional[int] = None) -> None:
        self.events_fed += 1
        t, phase, symbol, actor, seq, link, _target = te
        metrics = self.metrics
        if t > metrics.last_time:
            metrics.last_time = t
        track = actor or INIT_TRACK
        stack = self._stacks.get(track)
        if stack is None:
            stack = self._stacks[track] = []
        entry = phase == "entry"
        if symbol == SYM_WORK_ENTER:
            if entry:
                m = metrics.actor(track)
                m.firings += 1
                stack.append(["firing", "firing", t, (("invocation", m.firings),), 0])
            else:
                stack.append(["work", "filterc", t, (), 0])
        elif symbol == SYM_WORK_EXIT:
            self._close(stack, track, "work" if entry else "firing", t)
        elif symbol == SYM_STEP_BEGIN:
            if entry:
                m = metrics.actor(track)
                m.steps += 1
                stack.append(["step", "step", t, (("step", m.steps),), 0])
            else:
                stack.append(["run", "filterc", t, (), 0])
        elif symbol == SYM_STEP_END:
            self._close(stack, track, "run" if entry else "step", t)
        elif entry:
            name, cat = self._leaves[symbol]
            stack.append([name, cat, t, (), 0])
        else:
            # a link counts only on exits carrying a seq: the rule
            # that keeps live and derived telemetry byte-equal
            if seq is None:
                link = None
                args: Tuple[Tuple[str, Any], ...] = ()
            else:
                args = (("link", link or "?"), ("seq", seq))
            duration = self._close(stack, track, self._leaves[symbol][0], t, args)
            if symbol == SYM_PUSH:
                if actor:
                    metrics.actor(track).produced += 1
                if link:
                    metrics.link(link).on_push(t, duration)
            elif symbol == SYM_POP:
                if actor:
                    metrics.actor(track).consumed += 1
                if link:
                    metrics.link(link).on_pop(t, duration)
