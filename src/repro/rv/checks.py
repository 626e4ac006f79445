"""The session-facing runtime-verification facade: arm, judge, stop.

Arming checks mirrors the telemetry facade, and is just as reversible:

- arms :meth:`Checks.feed` on the session's event tap (so
  :meth:`FrameworkAPI.call` materialises events — when no checks and no
  other consumer listen, the §V elision fast path keeps framework calls
  event-free);
- raises ``CAP_RV`` in the debugger's hook-capability mask.  The bit is
  outside ``CAP_ALL`` and ignored by tier selection, so the Filter-C VM
  tier keeps running bytecode — with monitors off, the only
  statement-path cost is a predicted branch.

A violation freezes the check into its :class:`~repro.rv.monitors.Verdict`
and performs the check's on-violation action:

``stop``  suspend the platform with a ``StopKind.VIOLATION`` stop event
          whose payload is the structured verdict;
``log``   record the verdict and keep running;
``mark``  record the verdict *and* its journal position so the violation
          can be re-localized later with ``replay to event N``.

Deadlock-free checks evaluate on the platform's DEADLOCK stop (via the
debugger's stop callbacks) instead of suspending again.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..dbg.stop import StopEvent, StopKind
from ..errors import RvError
from .compile import GraphView, compile_property
from .monitors import DeadlockMonitor, Monitor, Verdict
from .props import Property, parse_property

ACTIONS = ("stop", "log", "mark")


class Check:
    """One armed property: the property, its monitor, its action."""

    def __init__(self, check_id: int, prop: Property, monitor: Monitor, action: str):
        self.id = check_id
        self.prop = prop
        self.text = prop.text()
        self.monitor = monitor
        self.action = action
        self.enabled = True

    @property
    def tripped(self) -> bool:
        return self.monitor.tripped

    def status(self) -> str:
        state = "tripped" if self.tripped else ("enabled" if self.enabled else "disabled")
        return f"check {self.id}: {self.text}  [on-violation: {self.action}; {state}]"


class Checks:
    """Per-session check registry (off until the first ``add``)."""

    def __init__(self, session) -> None:
        self.session = session
        self.checks: Dict[int, Check] = {}
        self._next_id = 1
        self.verdicts: List[Verdict] = []
        #: (journal event position, verdict) pairs from ``mark`` checks
        self.marks: List[Tuple[int, Verdict]] = []
        self.armed = False
        #: the enabled checks in id order (``checks`` is insertion-ordered
        #: and ids only grow), rebuilt by ``_rearm``
        self._enabled: Tuple[Check, ...] = ()
        self._events_seen = 0
        #: properties queued before the graph exists (``--check`` flag);
        #: compiled at the first stop after the init phase completes
        self.pending: List[Tuple[str, str]] = []
        session.dbg.stop_callbacks.append(self._on_stop)

    # ------------------------------------------------------------ registry

    def graph(self) -> GraphView:
        return GraphView(self.session.model)

    def add(self, prop: Union[Property, str], action: str = "stop") -> Check:
        """Compile and arm one property (text form or builder object)."""
        if action not in ACTIONS:
            raise RvError(f"unknown on-violation action {action!r} (stop/log/mark)")
        if isinstance(prop, str):
            prop = parse_property(prop)
        check_id = self._next_id
        monitor = compile_property(prop, self.graph(), check_id)
        self._next_id += 1
        check = Check(check_id, prop, monitor, action)
        self.checks[check_id] = check
        self._rearm()
        return check

    def add_deferred(self, text: str, action: str = "stop") -> None:
        """Queue a text-form property to be armed once the graph has been
        reconstructed (used by the ``--check`` command-line flag, which
        runs before the framework init phase)."""
        if action not in ACTIONS:
            raise RvError(f"unknown on-violation action {action!r} (stop/log/mark)")
        parse_property(text)  # validate the syntax eagerly
        self.pending.append((text, action))

    def _get(self, check_id: int) -> Check:
        check = self.checks.get(check_id)
        if check is None:
            known = ", ".join(str(i) for i in sorted(self.checks)) or "none"
            raise RvError(f"no check {check_id} (known: {known})")
        return check

    def remove(self, check_id: int) -> Check:
        check = self._get(check_id)
        del self.checks[check_id]
        self._rearm()
        return check

    def set_enabled(self, check_id: int, enabled: bool) -> Check:
        check = self._get(check_id)
        check.enabled = enabled
        self._rearm()
        return check

    # -------------------------------------------------------------- arming

    def _rearm(self) -> None:
        """Reconcile the tap slot + CAP_RV bit with the registry."""
        self._enabled = tuple(c for c in self.checks.values() if c.enabled)
        want = bool(self._enabled)
        if want != self.armed:
            if want:
                self.session.tap.arm(self.feed)
            else:
                self.session.tap.disarm(self.feed)
            dbg = self.session.dbg
            dbg.rv_armed = self.armed = want
            dbg._recompute_capabilities()

    # ------------------------------------------------------------- judging

    def _position(self) -> int:
        """Current event position: the journal index when recording (so
        verdicts are ``replay to``-addressable), else a private count."""
        recorder = self.session.tap.recorder
        if recorder is not None:
            return recorder.journal.total_events
        return self._events_seen

    def feed(self, ev, position: Optional[int]):
        """Judge one normalised event at ``position`` (the journal index
        while recording; None falls back to the private count)."""
        self._events_seen += 1
        index = self._events_seen if position is None else position
        suspend = None
        for check in self._enabled:
            if check.tripped:
                continue
            verdict = check.monitor.feed(ev, index)
            if verdict is None:
                continue
            suspend = suspend or self._handle_violation(check, verdict)
        return suspend

    def _handle_violation(self, check: Check, verdict: Verdict):
        self.verdicts.append(verdict)
        if check.action == "mark":
            self.marks.append((verdict.index, verdict))
        if check.action != "stop":
            return None
        ev = StopEvent(
            StopKind.VIOLATION,
            message=verdict.headline(),
            actor=verdict.actors[0] if verdict.actors else None,
            payload=verdict,
            time=verdict.time,
        )
        return self.session.dbg.external_suspend(ev)

    def _on_stop(self, ev: StopEvent) -> None:
        # arm --check properties queued from before the graph existed
        if self.pending and self.session.model.initialized:
            pending, self.pending = self.pending, []
            for text, action in pending:
                self.add(text, action)
        if ev.kind != StopKind.DEADLOCK:
            return
        index = self._position()
        for check in self._enabled:
            if check.tripped:
                continue
            if not isinstance(check.monitor, DeadlockMonitor):
                continue
            verdict = check.monitor.at_stop("deadlock", ev.time, index)
            if verdict is not None:
                self.verdicts.append(verdict)
                if check.action == "mark":
                    self.marks.append((verdict.index, verdict))

    # ------------------------------------------------------------ replaying

    def derive(self, journal=None) -> List[Verdict]:
        """Re-evaluate this session's checks from a recorded journal
        (default: the replay master).  With recording armed before the
        checks, the result is byte-identical to :attr:`verdicts`."""
        from .derive import derive_verdicts

        if journal is None:
            journal = getattr(self.session.replay, "master", None)
        if journal is None or journal.total_events == 0:
            raise RvError("nothing recorded yet (use 'record on' before running)")
        props = [(c.id, c.prop) for c in sorted(self.checks.values(), key=lambda c: c.id)]
        if not props:
            raise RvError("no checks to derive (use 'check add' first)")
        return derive_verdicts(journal, props, self.graph())

    # -------------------------------------------------------------- queries

    def status_lines(self) -> List[str]:
        lines = [
            f"checks: {'armed' if self.armed else 'off'} "
            f"({len(self.checks)} defined, {len(self.verdicts)} verdict(s))"
        ]
        for check in sorted(self.checks.values(), key=lambda c: c.id):
            lines.append(f"  {check.status()}")
        for text, action in self.pending:
            lines.append(f"  (pending until graph init) {text}  [on-violation: {action}]")
        if not self.checks and not self.pending:
            lines.append("  (none defined; use `check add PROPERTY`)")
        return lines

    def verdict_lines(self, which: Optional[int] = None) -> List[str]:
        if not self.verdicts:
            return ["no verdicts (all armed checks hold so far)"]
        if which is not None:
            for verdict in self.verdicts:
                if verdict.check_id == which:
                    return verdict.render()
            raise RvError(f"no verdict for check {which}")
        lines: List[str] = []
        for verdict in self.verdicts:
            lines.extend(verdict.render())
        if self.marks:
            lines.append(
                "marked for replay: "
                + ", ".join(f"event #{idx}" for idx, _ in self.marks)
                + "  (use `replay to event N`)"
            )
        return lines
