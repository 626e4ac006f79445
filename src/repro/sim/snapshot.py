"""Deep machine-state snapshots: the restorable half of time travel.

A :class:`MachineState` is a full, deterministic, pickle-shaped capture
of everything that defines a dataflow machine at a dispatch boundary:

- the **kernel**: simulated clock, dispatch count, ready-queue order and
  the timed heap's ``(wake time, tie-break seq, process)`` entries
  (:meth:`~repro.sim.kernel.Scheduler.capture_state`);
- the **runtime**: token-seq counter, every link's queued tokens as
  ``(seq, canonical payload text)`` pairs, every actor's scheduling
  state / work counters / data store, every module's predicate values
  (:meth:`~repro.pedf.runtime.PedfRuntime.capture_state`);
- optionally the **interpreter frames** of each busy actor
  (:meth:`~repro.cminus.interp.Interpreter.capture_frames`).  Frames
  summarise an execution position, which no snapshot can restore, so
  they stay out of journal-recorded snapshots and only fingerprint a
  specific live machine, e.g. a parked resident snapshot.

Two machines with equal ``MachineState`` are observationally identical
to the debugger: re-executing either from this boundary produces the
same event stream.  That is what makes a *resident* machine (a live
replayed session parked by the :class:`~repro.core.replay.ReplayManager`)
a restorable snapshot — actor coroutines cannot be pickled, but a parked
machine whose captured state still matches can be adopted and driven
forward, paying only the tail.

Everything here is duck-typed against the scheduler/runtime capture
methods so the sharded coordinator (sim layer) and the replay manager
(core layer) can both use it without import cycles.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Tuple

#: deep snapshot every N checkpoints (so every N * checkpoint-interval
#: completed dispatches with the defaults)
DEFAULT_SNAPSHOT_EVERY = 4


@dataclass(frozen=True)
class MachineState:
    """Deterministic deep capture of one machine at a dispatch boundary."""

    time: int
    dispatch: int
    next_seq: int
    #: ready-queue process names, dispatch order
    ready: Tuple[str, ...]
    #: sorted (wake_time, tie_seq, process name) entries of the timed heap
    timed: Tuple[Tuple[int, int, str], ...]
    #: (link name, ((token seq, canonical payload text), ...)) per link
    links: Tuple[Tuple[str, Tuple[Tuple[int, str], ...]], ...]
    #: (qualname, state, works_begun, works_done, step_no) per actor
    actors: Tuple[Tuple[str, str, int, int, int], ...]
    #: (qualname, ((var name, canonical value text), ...)) per actor
    data: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...]
    #: (module name, ((predicate name, value), ...)) per module
    predicates: Tuple[Tuple[str, Tuple[Tuple[str, bool], ...]], ...]
    #: (qualname, ((function name, current line), ...)) per busy actor —
    #: empty unless captured with ``include_frames``
    frames: Tuple[Tuple[str, Tuple[Tuple[str, int], ...]], ...] = field(default=())

    @property
    def tokens_in_flight(self) -> int:
        return sum(len(q) for _, q in self.links)

    def digest(self) -> str:
        """Short stable fingerprint for display and logs."""
        return hashlib.sha1(repr(self).encode()).hexdigest()[:12]

    def describe(self) -> str:
        """One line for the replay's snapshot-divergence report."""
        return (
            f"snapshot @dispatch {self.dispatch} (t={self.time}, "
            f"next seq {self.next_seq}, {self.tokens_in_flight} token(s) in flight, "
            f"{len(self.ready)} ready, digest {self.digest()})"
        )


def capture_machine_state(
    scheduler: Any, runtime: Any, include_frames: bool = False
) -> MachineState:
    """Capture one machine's deep state (see the module docstring for
    what ``include_frames`` adds)."""
    kern = scheduler.capture_state()
    rt = runtime.capture_state(include_frames=include_frames)
    return MachineState(
        time=kern["time"],
        dispatch=kern["dispatch"],
        ready=kern["ready"],
        timed=kern["timed"],
        next_seq=rt["next_seq"],
        links=rt["links"],
        actors=rt["actors"],
        data=rt["data"],
        predicates=rt["predicates"],
        frames=rt["frames"],
    )
