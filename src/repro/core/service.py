"""The command service: machine-readable, reentrant command dispatch.

The interactive CLI renders text for a human; every other client — the
socket-served daemon (:mod:`repro.serve`), the DAP bridge, scripted
tests, benches — needs *structured* results: did the command succeed,
what did it print, did the platform stop and where.  ``CommandService``
is that surface:

- :meth:`execute` dispatches one command line through the same command
  table the CLI uses and returns a :class:`CommandResult` (lines +
  ok/error + the structured stop event, if the command stopped the
  platform) instead of printed text;
- structured inspection (:meth:`actors`, :meth:`frames`,
  :meth:`variables`, :meth:`breakpoints`, :meth:`evaluate`,
  :meth:`state`) returns plain dicts, which is what a Debug Adapter
  Protocol bridge serialises directly;
- the client event stream: a command that stops the platform publishes
  exactly one ``stop``/``violation`` event, equal to its
  ``result.stop``; a command that writes a flight bundle publishes one
  ``flight-dump`` event.  :meth:`subscribe` hooks receive the wire-shaped
  ``{"type", "data"}`` dict.  Both are read off the machine *after* the
  command body, so replay adoption (which swaps the debugger out from
  under the session) needs no re-binding;
- it is reentrant (RLock) and single-writer: one service serialises all
  command execution against its machine, which is exactly the unit a
  daemon session multiplexes connections onto.

The interactive ``CommandCli.execute`` is a thin client of this class
when the dataflow extension is installed: it runs the service and prints
``result.lines`` — no second dispatch path, no behaviour change.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..dbg.eval import EvalError, format_typed
from ..dbg.stop import StopEvent, StopKind
from ..errors import ReproError


def stop_to_dict(ev: StopEvent) -> Dict[str, Any]:
    """The wire shape of a stop event (JSON-serialisable, no payload
    objects — the human banner rides along for clients that just print)."""
    return {
        "kind": ev.kind.value,
        "message": ev.message,
        "actor": ev.actor,
        "filename": ev.filename,
        "line": ev.line,
        "bp_id": ev.bp_id,
        "time": ev.time,
        "banner": ev.describe(),
    }


@dataclass
class CommandResult:
    """One executed command, machine-readable."""

    command: str
    ok: bool
    lines: List[str] = field(default_factory=list)
    error: Optional[str] = None
    #: structured stop event if this command stopped the platform
    stop: Optional[Dict[str, Any]] = None
    elapsed_ms: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "command": self.command,
            "ok": self.ok,
            "lines": self.lines,
            "error": self.error,
            "stop": self.stop,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


class CommandService:
    """Reentrant structured command dispatch over one debug session."""

    def __init__(self, cli, session=None):
        self.cli = cli
        self._session = session
        self._lock = threading.RLock()
        #: subscriber handle -> hook, replaced wholesale on every change
        #: (copy-on-write), so publishing iterates without a lock and a
        #: subscribe never waits behind a running command
        self._subscribers: Dict[int, Callable[[Dict[str, Any]], None]] = {}
        self._registry_lock = threading.Lock()
        self._sub_ids = itertools.count(1)
        self.commands_run = 0
        self.errors = 0
        #: events handed to subscribers (hooks that raised not counted)
        self.events_pushed = 0
        #: cumulative wall-clock spent executing commands (quota input)
        self.wall_ms = 0.0

    # ----------------------------------------------------------- liveness

    @property
    def session(self):
        """The live DataflowSession — re-read through the CLI's dataflow
        handler because replay adoption swaps it."""
        handler = getattr(self.cli, "dataflow_handler", None)
        if handler is not None:
            return handler.session
        return self._session

    @property
    def dbg(self):
        return self.cli.dbg

    # ------------------------------------------------------- event stream

    def subscribe(self, fn: Callable[[Dict[str, Any]], None]) -> int:
        """Register an event hook; returns an unsubscribe handle.  Hooks
        run on the publishing thread (for a command, the one executing
        it); exceptions are swallowed (one observer can never break the
        session)."""
        with self._registry_lock:
            handle = next(self._sub_ids)
            self._subscribers = {**self._subscribers, handle: fn}
        return handle

    def unsubscribe(self, handle: int) -> None:
        with self._registry_lock:
            self._subscribers = {
                h: fn for h, fn in self._subscribers.items() if h != handle
            }

    def unsubscribe_all(self) -> None:
        with self._registry_lock:
            self._subscribers = {}

    def publish(self, kind: str, data: Dict[str, Any]) -> None:
        """Hand one ``{"type": kind, "data": data}`` event to every
        subscriber."""
        event = {"type": kind, "data": data}
        for fn in self._subscribers.values():
            try:
                fn(event)
                self.events_pushed += 1
            except Exception:
                pass

    def publish_stop(self, before: Optional[StopEvent]) -> Optional[Dict[str, Any]]:
        """Publish the current debugger's last stop unless it is
        ``before``; returns its wire dict (None when nothing stopped)."""
        cur = self.dbg.last_stop
        if cur is None or cur is before:
            return None
        data = stop_to_dict(cur)
        self.publish("violation" if cur.kind is StopKind.VIOLATION else "stop", data)
        return data

    # ----------------------------------------------------------- dispatch

    def execute(self, line: str, isolate: bool = False) -> CommandResult:
        """Run one command line; never raises for library-level errors.

        With ``isolate=True`` (wire sessions) *any* exception becomes a
        structured error result — a broken command must not take the
        daemon's session worker down.  The default re-raises unexpected
        exceptions exactly like the interactive CLI, so test failure
        modes are unchanged.
        """
        with self._lock:
            start = time.perf_counter()
            text = line.strip()
            result = CommandResult(command=text, ok=True)
            if text and not text.startswith("#"):
                prev_stop = self.dbg.last_stop
                name, _, rest = text.partition(" ")
                self.commands_run += 1
                try:
                    cmd = self.cli.resolve(name)
                    result.lines = cmd.handler(rest.strip())
                except ReproError as exc:
                    # library-level failure: report GDB-style instead of
                    # unwinding the session
                    result.ok = False
                    result.error = str(exc)
                    result.lines = [f"error: {exc}"]
                    self.errors += 1
                except Exception as exc:
                    self.errors += 1
                    if not isolate:
                        raise
                    result.ok = False
                    result.error = f"{type(exc).__name__}: {exc}"
                    result.lines = [f"internal error: {result.error}"]
                # read after the body: adoption may have swapped the
                # debugger and the flight recorder mid-command
                result.stop = self.publish_stop(prev_stop)
                flight = getattr(self.session, "flight", None)
                if flight is not None and flight.last_dump_at >= start:
                    self.publish(
                        "flight-dump",
                        {"path": flight.last_dump, "reason": flight.last_dump_reason},
                    )
            result.elapsed_ms = (time.perf_counter() - start) * 1000.0
            self.wall_ms += result.elapsed_ms
            return result

    # ------------------------------------------------------ run control

    def interrupt(self) -> None:
        """Async-safe: ask the kernel to pause before the next dispatch.
        Deliberately lock-free — it is called *while* another thread is
        blocked inside :meth:`execute` running ``continue``."""
        session = self.session
        sharding = getattr(session, "sharding", None) if session is not None else None
        if sharding is not None:
            sharding.request_pause()
        else:
            self.dbg.request_pause()

    # ------------------------------------------------- structured queries

    def actors(self) -> List[Dict[str, Any]]:
        with self._lock:
            out = []
            for a in self.dbg.actors():
                line = a.current_line()
                state = getattr(a, "state", None)
                out.append(
                    {
                        "name": a.name,
                        "qualname": a.qualname,
                        "kind": a.kind,
                        "resource": a.resource.name,
                        "line": line,
                        "state": state.value if state is not None else None,
                        "blocked": bool(a.blocked),
                        "selected": a is self.dbg.selected_actor,
                    }
                )
            return out

    def frames(self, actor: Optional[str] = None) -> List[Dict[str, Any]]:
        with self._lock:
            dbg = self.dbg
            if actor is not None:
                inst = dbg.runtime.find_actor(actor)
            else:
                inst = dbg.selected_actor
            if inst is None or getattr(inst, "interp", None) is None:
                return []
            return [
                {
                    "index": i,
                    "name": f.name,
                    "filename": f.filename,
                    "line": f.line,
                    "depth": f.depth,
                }
                for i, f in enumerate(inst.interp.backtrace())
            ]

    def variables(
        self, actor: Optional[str] = None, frame_index: int = 0
    ) -> List[Dict[str, Any]]:
        with self._lock:
            dbg = self.dbg
            inst = dbg.runtime.find_actor(actor) if actor is not None else dbg.selected_actor
            if inst is None or getattr(inst, "interp", None) is None:
                return []
            frames = inst.interp.backtrace()
            if not 0 <= frame_index < len(frames):
                return []
            frame = frames[frame_index]
            out = []
            for name, slot in sorted(frame.variables().items()):
                out.append(
                    {
                        "name": name,
                        "type": getattr(slot.ctype, "name", str(slot.ctype)),
                        "value": format_typed(slot.ctype, slot.data),
                    }
                )
            return out

    def evaluate(self, expr: str) -> Dict[str, Any]:
        with self._lock:
            try:
                ctype, raw = self.dbg.eval_expr(expr)
            except (ReproError, EvalError) as exc:
                return {"ok": False, "error": str(exc)}
            return {
                "ok": True,
                "type": getattr(ctype, "name", str(ctype)),
                "value": format_typed(ctype, raw),
            }

    def breakpoints(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                {
                    "id": bp.id,
                    "kind": bp.kind,
                    "enabled": bp.enabled,
                    "what": bp.what(),
                    "hits": bp.hit_count,
                }
                for bp in self.dbg.breakpoints.visible()
            ]

    def state(self) -> Dict[str, Any]:
        with self._lock:
            session = self.session
            dbg = self.dbg
            model = getattr(session, "model", None)
            last = dbg.last_stop
            journal = None
            replay = getattr(session, "replay", None)
            if replay is not None and replay.master is not None:
                master = replay.master
                journal = {
                    "total_events": master.total_events,
                    "checkpoints": len(master.checkpoints),
                    "stops": len(master.stops),
                }
            return {
                "program": model.program_name if model is not None else None,
                "actors": len(model.actors) if model is not None else 0,
                "links": len(model.links) if model is not None else 0,
                "time": dbg.scheduler.now,
                "dispatches": dbg.scheduler.dispatch_count,
                "events_processed": session.capture.events_processed
                if session is not None
                else 0,
                "finished": dbg.finished,
                "sharded": getattr(session, "sharding", None) is not None,
                "last_stop": stop_to_dict(last) if last is not None else None,
                "journal": journal,
                "commands_run": self.commands_run,
                "errors": self.errors,
                "wall_ms": round(self.wall_ms, 3),
            }
