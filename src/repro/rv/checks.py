"""The session-facing runtime-verification facade: arm, judge, stop.

Arming checks is reversible: it arms :meth:`Checks.feed` on the
session's event tap, so :meth:`FrameworkAPI.call` materialises events
(when nothing else listens, the §V elision fast path keeps framework
calls event-free).  With the recorder, the monitors are the tap's only
per-event work, because a violation must be able to stop the run.  That is all it does: checks raise no bit in the
debugger's hook mask and never touch an interpreter.

A violation freezes the check into its :class:`~repro.rv.monitors.Verdict`
and performs the check's on-violation action:

``stop``  suspend the platform with a ``StopKind.VIOLATION`` stop event
          whose payload is the structured verdict;
``log``   record the verdict and keep running;
``mark``  record the verdict *and* its journal position so the violation
          can be re-localized later with ``replay to event N``.

Deadlock-free checks evaluate on the platform's DEADLOCK stop (via the
debugger's stop callbacks) instead of suspending again.

Each check keeps the position ranges it covered while enabled (a
:class:`~repro.core.tap.Coverage`).  A time-travel hop hands the checks
to the landed machine (:meth:`Checks.land`) with their ids, actions and
enabled state; their monitor state, verdicts and marks are re-derived
from that machine's journal through
:func:`~repro.sim.replay.replay_into`, the path ``check derive`` runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..core.tap import Coverage
from ..dbg.stop import StopEvent, StopKind
from ..errors import RvError
from ..sim.replay import replay_into
from .compile import GraphView, compile_property
from .monitors import Monitor, Verdict
from .props import Property, parse_property

ACTIONS = ("stop", "log", "mark")


class Check(Coverage):
    """One property: its monitor, its action, and the positions it judges
    (it is enabled while it covers the run)."""

    def __init__(self, tap, check_id: int, prop: Property, monitor: Optional[Monitor], action: str):
        super().__init__(tap)
        self.id = check_id
        self.prop = prop
        self.text = prop.text()
        #: None while a landed check waits for the graph
        self.monitor = monitor
        self.action = action

    @property
    def tripped(self) -> bool:
        return self.monitor is not None and self.monitor.tripped

    def feed(self, ev, index: int) -> Optional[Verdict]:
        """A ``replay_into`` consumer: the monitor, fed what this check covered."""
        return self.monitor.feed(ev, index) if self.covers(index) else None

    def status(self) -> str:
        state = "tripped" if self.tripped else ("enabled" if self.armed else "disabled")
        return f"check {self.id}: {self.text}  [on-violation: {self.action}; {state}]"


class Checks:
    """Per-session check registry (off until the first ``add``)."""

    def __init__(self, session) -> None:
        self.session = session
        self.checks: Dict[int, Check] = {}
        #: removed checks, kept for the verdicts they raised while defined
        self.removed: List[Check] = []
        self._next_id = 1
        self.verdicts: List[Verdict] = []
        self.armed = False
        #: the enabled checks in id order (``checks`` is insertion-ordered
        #: and ids only grow), rebuilt by ``_rearm``
        self._enabled: Tuple[Check, ...] = ()
        self._events_seen = 0
        #: properties queued before the graph exists (``--check`` flag);
        #: compiled at the first stop after the init phase completes
        self.pending: List[Tuple[str, str]] = []
        #: landed checks wait for the graph (see :meth:`_derive`)
        self._waiting = False
        session.dbg.stop_callbacks.append(self._on_stop)

    @property
    def marks(self) -> List[Tuple[int, Verdict]]:
        """(journal event position, verdict) pairs of the ``mark`` checks."""
        marking = {c.id for c in (*self.checks.values(), *self.removed) if c.action == "mark"}
        return [(v.index, v) for v in self.verdicts if v.check_id in marking]

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
        check = Check(self.session.tap, check_id, prop, monitor, action)
        check.open()
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
        check.close()
        self.removed.append(check)
        self._rearm()
        return check

    def set_enabled(self, check_id: int, enabled: bool) -> Check:
        check = self._get(check_id)
        if enabled:
            check.open()
        else:
            check.close()
        self._rearm()
        return check

    # -------------------------------------------------------------- arming

    def _rearm(self) -> None:
        """Reconcile the tap slot with the registry."""
        enabled = [c for c in self.checks.values() if c.armed]
        self._enabled = tuple(c for c in enabled if c.monitor is not None)
        self.armed = bool(enabled)
        self.session.tap.arm(self.feed, self.armed)

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
        if self._waiting:
            self._derive()
        # arm --check properties queued from before the graph existed
        if self.pending and self.session.model.initialized:
            pending, self.pending = self.pending, []
            for text, action in pending:
                self.add(text, action)
        if ev.kind != StopKind.DEADLOCK:
            return
        index = self._position()
        for check in self._enabled:
            verdict = check.monitor.at_stop("deadlock", ev.time, index)
            if verdict is not None:
                self.verdicts.append(verdict)

    # ----------------------------------------------------------- time travel

    def land(self, source: "Checks") -> None:
        """Take the checks of ``source``, on the machine a hop leaves, with
        their ids, actions, enabled state and covered ranges."""
        def landed(old: Check) -> Check:
            check = Check(self.session.tap, old.id, old.prop, None, old.action)
            check.land(old)
            return check

        self.checks = {check_id: landed(old) for check_id, old in source.checks.items()}
        self.removed = [landed(old) for old in source.removed]
        self._next_id, self.pending = source._next_id, source.pending
        source.checks, source.removed, source.pending = {}, [], []
        source.verdicts, source._waiting = [], False
        source._rearm()
        if self.checks or self.removed:
            self._derive()

    def _derive(self) -> None:
        """Rebuild the monitors, verdicts and marks from this machine's
        journal, each check fed the records it covered, raising no stop (a
        deadlock ends a run, so no landing has one behind it to judge).
        Before the graph exists, wait for the first stop after init, as
        ``--check`` does."""
        self._waiting = not self.session.model.initialized
        if not self._waiting:
            ordered = sorted([*self.checks.values(), *self.removed], key=lambda c: c.id)
            graph = self.graph()
            for check in ordered:
                check.monitor = compile_property(check.prop, graph, check.id)
            recorder = self.session.tap.recorder
            self.verdicts = [] if recorder is None else replay_into(recorder.journal, *ordered)
        self._rearm()

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
