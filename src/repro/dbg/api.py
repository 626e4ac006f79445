"""A GDB-Python-flavoured extension API.

The paper built its extension on GDB's Python bindings: subclassable
``gdb.Breakpoint`` / ``gdb.FinishBreakpoint`` with a ``stop()`` method,
``gdb.parse_and_eval``, ``gdb.events.stop`` — this module provides the
same shape over :class:`~repro.dbg.debugger.Debugger`, so third-party
model-aware extensions (like :mod:`repro.core`, or one for a different
dataflow framework) can be written in the familiar style::

    api = ExtensionAPI(debugger)

    class WorkLogger(api.Breakpoint):
        def stop(self, frame):            # return False = don't stop
            print("fired", frame.name)
            return False

    WorkLogger(symbol="IpfFilter_work_function", internal=True)
    api.events.stop.connect(lambda ev: print("stopped:", ev))
    api.execute("continue")
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..errors import DebuggerError
from .breakpoints import ApiBreakpoint as _ApiBp
from .debugger import Debugger
from .eval import format_typed
from .stop import StopEvent


class EventRegistry:
    """``api.events.stop.connect(fn)`` — mirrors gdb.events."""

    def __init__(self) -> None:
        self._callbacks: List[Callable] = []

    def connect(self, fn: Callable) -> None:
        if fn not in self._callbacks:
            self._callbacks.append(fn)

    def emit(self, *args) -> None:
        for fn in list(self._callbacks):
            fn(*args)


class _Events:
    def __init__(self) -> None:
        self.stop = EventRegistry()
        self.exited = EventRegistry()


class ExtensionAPI:
    """One extension surface bound to one debugger."""

    def __init__(self, debugger: Debugger, cli=None):
        self.dbg = debugger
        self.cli = cli
        self.events = _Events()
        debugger.stop_callbacks.append(self._dispatch_stop)
        self.Breakpoint = self._make_breakpoint_class()
        self.FinishBreakpoint = self._make_finish_class()

    # ------------------------------------------------------------ dispatch

    def _dispatch_stop(self, ev: StopEvent) -> None:
        from .stop import StopKind

        if ev.kind == StopKind.EXITED:
            self.events.exited.emit(ev)
        else:
            self.events.stop.emit(ev)

    # ----------------------------------------------------------- gdb verbs

    def execute(self, command: str) -> List[str]:
        """Run a CLI command (requires a CLI to be attached)."""
        if self.cli is None:
            raise DebuggerError("no CLI attached to this ExtensionAPI")
        return self.cli.execute(command)

    def parse_and_eval(self, text: str):
        """Evaluate in the selected frame; returns ``(ctype, raw)``."""
        return self.dbg.eval_expr(text)

    def format_value(self, ctype, raw) -> str:
        return format_typed(ctype, raw)

    def selected_frame(self):
        return self.dbg.current_frame()

    def selected_actor(self):
        return self.dbg.selected_actor

    def lookup_symbol(self, name: str):
        return self.dbg.debug_info.lookup_function(name)

    # --------------------------------------------------- breakpoint classes

    def _make_breakpoint_class(self):
        api = self

        class Breakpoint:
            """Subclassable breakpoint, gdb.Breakpoint style.

            Exactly one location kind must be given:

            - ``spec``  — source location ``file.c:42`` or a function
              symbol (classic breakpoint);
            - ``symbol`` — a Filter-C function symbol (explicit);
            - ``api_symbol`` — a framework API symbol (the paper's
              *function breakpoint*; ``phase='exit'`` makes it a finish
              breakpoint on that function).
            """

            def __init__(
                self,
                spec: Optional[str] = None,
                symbol: Optional[str] = None,
                api_symbol: Optional[str] = None,
                phase: str = "entry",
                actor: Optional[str] = None,
                condition: Optional[str] = None,
                arg_filters: Optional[Dict[str, Any]] = None,
                temporary: bool = False,
                internal: bool = False,
            ):
                given = [x for x in (spec, symbol, api_symbol) if x is not None]
                if len(given) != 1:
                    raise DebuggerError(
                        "Breakpoint needs exactly one of spec/symbol/api_symbol"
                    )
                kwargs = dict(
                    temporary=temporary, internal=internal, condition=condition, actor=actor
                )
                if api_symbol is not None:
                    kwargs.pop("condition")
                    self._bp = api.dbg.break_api(
                        api_symbol,
                        phase=phase,
                        arg_filters=arg_filters,
                        stop_fn=self.stop,
                        **kwargs,
                    )
                elif symbol is not None:
                    self._bp = api.dbg.break_function(symbol, **kwargs)
                    self._bp.stop = self.stop  # type: ignore[method-assign]
                else:
                    self._bp = api.dbg.break_source(spec, **kwargs)
                    self._bp.stop = self.stop  # type: ignore[method-assign]

            # -- overridable ----------------------------------------------
            def stop(self, context) -> bool:
                return True

            # -- management -----------------------------------------------
            @property
            def number(self) -> int:
                return self._bp.id

            @property
            def enabled(self) -> bool:
                return self._bp.enabled

            @enabled.setter
            def enabled(self, value: bool) -> None:
                self._bp.enabled = bool(value)

            @property
            def hit_count(self) -> int:
                return self._bp.hit_count

            @property
            def is_valid(self) -> bool:
                return not self._bp.deleted

            def delete(self) -> None:
                if not self._bp.deleted:
                    api.dbg.delete(self._bp.id)

        return Breakpoint

    def _make_finish_class(self):
        api = self

        class FinishBreakpoint:
            """Fires when the selected (or given) frame returns —
            the concept the paper introduced into GDB's Python API."""

            def __init__(self, frame=None, internal: bool = True):
                self._bp = api.dbg.finish_breakpoint(frame, internal=internal)
                self._bp.stop = self._on_return  # type: ignore[method-assign]

            def _on_return(self, value) -> bool:
                self.return_value = value
                return self.stop(value)

            def stop(self, value) -> bool:
                return True

            @property
            def number(self) -> int:
                return self._bp.id

            @property
            def is_valid(self) -> bool:
                return not self._bp.deleted

        return FinishBreakpoint
