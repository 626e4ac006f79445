"""The base interactive debugger — our GDB.

The paper extends GDB through its Python API; since no real GDB can attach
to a simulated platform, this package provides the equivalent host
debugger over :mod:`repro.sim` / :mod:`repro.pedf`:

- :class:`Debugger` — run control (run / continue / step / next / finish /
  stepi), stop events, actor ("thread") and frame selection;
- :mod:`breakpoints` — source breakpoints, function breakpoints on
  (mangled) Filter-C symbols, **framework function breakpoints** on PEDF
  API symbols (entry *and* exit — the paper's finish breakpoints),
  watchpoints, and :class:`FinishBreakpoint`; all with enable/disable,
  temporary, ignore counts and conditions;
- :mod:`eval` — GDB-style expression evaluation against a stopped frame,
  with ``$N`` value history;
- :mod:`cli` — the command-line front end with abbreviations and
  completion;
- :mod:`api` — the extension API mirroring ``import gdb``: subclassable
  ``Breakpoint`` / ``FinishBreakpoint`` with a ``stop()`` method, and stop
  /continue event registries.  The dataflow extension (:mod:`repro.core`)
  is built exclusively on this API, like the paper's extension on GDB's.

Two-level debugging (paper §VI-E) falls out of the design: all of these
commands remain available while the dataflow extension is loaded.
"""

from ..cminus.interp import DebugHook
from .stop import StopEvent, StopKind
from .breakpoints import (
    ApiBreakpoint,
    BreakpointBase,
    FinishBreakpoint,
    FunctionBreakpoint,
    SourceBreakpoint,
    Watchpoint,
)
from .debugger import Debugger
from .eval import EvalError, Evaluator, format_typed
from .cli import CommandCli
from .api import ExtensionAPI

#: The capability constants are defined in exactly one place —
#: :class:`repro.cminus.interp.DebugHook` — and re-exported here so
#: debugger-side code has a single import path for the whole mask
#: vocabulary.  CAP_ALL covers only the tier-selection/observation bits;
#: CAP_TELEMETRY and CAP_RV ride the same mask but stay outside it so
#: arming them never deoptimizes the Filter-C VM tier.
CAP_STATEMENTS = DebugHook.CAP_STATEMENTS
CAP_CALLS = DebugHook.CAP_CALLS
CAP_RETURNS = DebugHook.CAP_RETURNS
CAP_DATA = DebugHook.CAP_DATA
CAP_ALL = DebugHook.CAP_ALL
CAP_TELEMETRY = DebugHook.CAP_TELEMETRY
CAP_RV = DebugHook.CAP_RV

__all__ = [
    "CAP_ALL",
    "CAP_CALLS",
    "CAP_DATA",
    "CAP_RETURNS",
    "CAP_RV",
    "CAP_STATEMENTS",
    "CAP_TELEMETRY",
    "DebugHook",
    "StopEvent",
    "StopKind",
    "ApiBreakpoint",
    "BreakpointBase",
    "FinishBreakpoint",
    "FunctionBreakpoint",
    "SourceBreakpoint",
    "Watchpoint",
    "Debugger",
    "EvalError",
    "Evaluator",
    "format_typed",
    "CommandCli",
    "ExtensionAPI",
]
