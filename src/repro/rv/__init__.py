"""Runtime verification: declarative dataflow properties, online monitors.

The paper's deterministic token/scheduling instrumentation yields a
complete, ordered framework-event stream; this package attaches *judges*
to it.  Properties are declared once (builder API or compact text form),
compiled into per-event counter/automaton monitors against the
reconstructed graph, and driven from the same event bus the dataflow
extension uses — a violation becomes a first-class interactive stop
event carrying a structured verdict (property, witness events,
implicated actors and links).

Monitors are restricted by construction to the journal-derivable event
fields, so :func:`derive_verdicts` re-evaluates the same properties from
a :class:`~repro.sim.replay.ReplayJournal` and produces verdicts
byte-identical to the live run (the telemetry subsystem's identity trick,
applied to correctness instead of cost).

Monitors are pure consumers of the session's event tap: arming them
raises no bit in the debugger's hook mask and touches no interpreter,
so the Filter-C VM tier runs exactly as it does with monitors off.
"""

from .props import (
    DeadlockFreeProp,
    OccupancyProp,
    OrderProp,
    ProgressProp,
    Property,
    RateProp,
    bounded,
    deadlock_free,
    ordered,
    parse_property,
    progress,
    rate,
)
from .monitors import Verdict
from .compile import GraphView, compile_property
from .checks import Check, Checks
from .derive import derive_verdicts

__all__ = [
    "Check",
    "Checks",
    "DeadlockFreeProp",
    "GraphView",
    "OccupancyProp",
    "OrderProp",
    "ProgressProp",
    "Property",
    "RateProp",
    "Verdict",
    "bounded",
    "compile_property",
    "deadlock_free",
    "derive_verdicts",
    "ordered",
    "parse_property",
    "progress",
    "rate",
]
