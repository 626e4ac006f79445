"""The discrete-event scheduler.

Dispatch model
--------------

The kernel keeps two structures:

- a *ready deque* of processes runnable at the current simulated time, and
- a *timed heap* of ``(wake_time, seq, process)`` entries.

``run()`` repeatedly pops the next ready process and resumes its generator,
handling the request it yields.  When the ready deque drains, time advances
to the earliest timed entry.  When both are empty the run terminates:
either every process finished (``EXHAUSTED``) or some are still blocked on
events that nobody can ever notify (``DEADLOCK`` — surfaced, not raised, so
an attached debugger can inspect and even *untie* the deadlock by injecting
tokens).

Determinism
-----------

Dispatch order is fully deterministic: FIFO among ready processes, and
ties in the timed heap break on a monotone sequence number.  This mirrors
the deterministic communication property of dataflow programs the paper
relies on ("the execution semantic is not altered by the slowdown"
debuggers introduce).

Batched delays
--------------

The Filter-C VM *batches* per-statement costs: instead of one
``Delay(stmt_cost)`` per statement, an interpreter accumulates cost and
yields a single aggregated ``Delay`` at structural flush points (batch
threshold, blocking io/intrinsics, function exit).  Flush points depend
only on program structure — never on whether a debugger, breakpoint, or
stop interleaved — so the kernel-request stream, and therefore
``dispatch_count``, is *stop-invariant*: the replay journal can address a
moment as "dispatch N" and reach the very same machine state whether or
not the original run paused there.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from ..errors import DeadlockError, SimulationError
from .events import Event
from .process import Delay, Process, ProcessState, Suspend, WaitEvent, Yield


class StopKind(enum.Enum):
    """Why ``Scheduler.run`` returned."""

    EXHAUSTED = "exhausted"  # every process terminated
    DEADLOCK = "deadlock"  # live processes remain, none can run
    SUSPENDED = "suspended"  # a process yielded Suspend (debugger stop)
    MAX_TIME = "max-time"  # until= horizon reached
    MAX_DISPATCHES = "max-dispatches"  # dispatch budget exhausted
    PROCESS_ERROR = "process-error"  # a process raised


@dataclass
class StopReason:
    """Result of a ``Scheduler.run`` call."""

    kind: StopKind
    time: int
    process: Optional[Process] = None  # suspending / failing process
    payload: Any = None  # Suspend.reason, exception, or blocked list

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extra = f" proc={self.process.name}" if self.process else ""
        return f"<StopReason {self.kind.value} t={self.time}{extra}>"


class Scheduler:
    """Event-driven kernel with simulated cycle time."""

    def __init__(self):
        self.now: int = 0
        self._ready: Deque[Process] = deque()
        self._timed: List[Tuple[int, int, Process]] = []
        self._seq = 0
        self._next_pid = 0
        self.processes: List[Process] = []
        self._dispatch_count = 0
        # Hook invoked before each process resume; may return a Suspend to
        # force a stop (used by debugger features that must preempt a
        # process externally, e.g. interrupt).  The hook only runs while
        # *armed*: assigning a hook arms it (back-compat), and an attached
        # debugger disarms it until a stop is actually pending so the
        # dispatch loop pays nothing for an idle debugger.
        self._pre_dispatch_hook: Optional[Callable[[Process], Optional[Suspend]]] = None
        self._pre_dispatch_armed = False
        # Hook invoked after each *completed* dispatch with the dispatch
        # count — the record/replay checkpoint tap.  Same arm/disarm
        # pattern: nothing is paid per dispatch while no journal is open.
        self._post_dispatch_hook: Optional[Callable[[int], None]] = None
        self._post_dispatch_armed = False

    @property
    def pre_dispatch_hook(self) -> Optional[Callable[[Process], Optional[Suspend]]]:
        return self._pre_dispatch_hook

    @pre_dispatch_hook.setter
    def pre_dispatch_hook(self, hook: Optional[Callable[[Process], Optional[Suspend]]]) -> None:
        self._pre_dispatch_hook = hook
        self._pre_dispatch_armed = hook is not None

    def set_pre_dispatch_armed(self, armed: bool) -> None:
        """Arm/disarm the pre-dispatch hook without detaching it."""
        self._pre_dispatch_armed = bool(armed) and self._pre_dispatch_hook is not None

    @property
    def post_dispatch_hook(self) -> Optional[Callable[[int], None]]:
        return self._post_dispatch_hook

    @post_dispatch_hook.setter
    def post_dispatch_hook(self, hook: Optional[Callable[[int], None]]) -> None:
        self._post_dispatch_hook = hook
        self._post_dispatch_armed = hook is not None

    @property
    def dispatch_count(self) -> int:
        """Completed logical dispatches so far.

        Debugger suspensions do not inflate this count: a process stretch
        that a mid-dispatch ``Suspend`` splits into several resumes counts
        as ONE dispatch (the one that finally reaches a real kernel
        request).  That makes the count identical between a debugged run
        full of interactive stops and a free run of the same program —
        the invariant record/replay checkpoints are keyed on.
        """
        return self._dispatch_count

    # ---------------------------------------------------------------- spawn

    def spawn(self, gen: Generator, name: str = "", owner: Any = None) -> Process:
        """Register a new process, runnable at the current time."""
        proc = Process(name=name or f"proc{self._next_pid}", gen=gen, owner=owner)
        proc.pid = self._next_pid
        self._next_pid += 1
        self.processes.append(proc)
        self._make_ready(proc)
        return proc

    def event(self, name: str = "") -> Event:
        """Create an event bound to this scheduler."""
        return Event(self, name)

    def freeze(self, proc: Process) -> None:
        """Withhold a process from dispatch until :meth:`thaw`.

        A READY process is pulled out of the queue immediately; TIMED and
        WAITING processes are intercepted when they would become ready.
        """
        if not proc.alive or proc.frozen:
            return
        proc.frozen = True
        if proc.state == ProcessState.READY:
            try:
                self._ready.remove(proc)
            except ValueError:
                pass
            proc.state = ProcessState.FROZEN

    def thaw(self, proc: Process) -> None:
        """Release a frozen process back into the scheduler."""
        if not proc.frozen:
            return
        proc.frozen = False
        if proc.state == ProcessState.FROZEN:
            self._make_ready(proc)

    def kill(self, proc: Process) -> None:
        """Terminate a process immediately (it never runs again)."""
        if not proc.alive:
            return
        if proc.state == ProcessState.WAITING and proc.waiting_on is not None:
            proc.waiting_on.remove_waiter(proc)
        proc.state = ProcessState.TERMINATED
        proc.gen.close()

    # -------------------------------------------------------------- queries

    @property
    def blocked_processes(self) -> List[Process]:
        return [p for p in self.processes if p.state == ProcessState.WAITING]

    @property
    def frozen_processes(self) -> List[Process]:
        return [p for p in self.processes if p.state == ProcessState.FROZEN]

    def next_event_time(self) -> Optional[int]:
        """Earliest live timed-heap entry; None if nothing is scheduled.

        Used by the sharded coordinator to compute the lookahead promise a
        shard can extend to its peers after draining a quantum."""
        return min((t for t, _, p in self._timed if p.alive), default=None)

    def capture_state(self) -> Dict[str, Any]:
        """Deterministic kernel-side deep-state capture (the kernel's
        contribution to a :class:`~repro.sim.snapshot.MachineState`).

        Taken at a dispatch boundary this is stop-invariant: the ready
        queue, the sorted live timed-heap entries and the clock are pure
        functions of the dispatch count (interactive suspends re-queue
        the interrupted process at the front and do not count the
        dispatch, so no interleaving is observable)."""
        return {
            "time": self.now,
            "dispatch": self._dispatch_count,
            "ready": tuple(p.name for p in self._ready if p.alive),
            "timed": tuple(sorted((t, s, p.name) for t, s, p in self._timed if p.alive)),
        }

    # ------------------------------------------------------------- internal

    def _make_ready(self, proc: Process) -> None:
        proc.waiting_on = None
        if proc.frozen:
            # became runnable while frozen: park it until thawed
            proc.state = ProcessState.FROZEN
            return
        proc.state = ProcessState.READY
        self._ready.append(proc)

    def _make_ready_front(self, proc: Process) -> None:
        proc.waiting_on = None
        if proc.frozen:
            proc.state = ProcessState.FROZEN
            return
        proc.state = ProcessState.READY
        self._ready.appendleft(proc)

    def _wake(self, proc: Process) -> None:
        """Move a WAITING process back to the ready deque (event notified)."""
        if proc.state != ProcessState.WAITING:
            raise SimulationError(f"cannot wake {proc}: not waiting")
        self._make_ready(proc)

    def _schedule_at(self, time: int, proc: Process) -> None:
        proc.state = ProcessState.TIMED
        self._seq += 1
        heapq.heappush(self._timed, (time, self._seq, proc))

    # ------------------------------------------------------------------ run

    def run(
        self,
        until: Optional[int] = None,
        max_dispatches: Optional[int] = None,
        raise_on_deadlock: bool = False,
    ) -> StopReason:
        """Dispatch processes until nothing can run or a stop is requested.

        ``until``          — absolute simulated-time horizon (inclusive).
        ``max_dispatches`` — budget of process resumptions for this call.
        ``raise_on_deadlock`` — raise :class:`DeadlockError` instead of
        returning a ``DEADLOCK`` stop reason.
        """
        budget = max_dispatches
        while True:
            if not self._ready:
                if not self._advance_time(until):
                    return self._final_stop(until, raise_on_deadlock)
                continue

            proc = self._ready.popleft()
            if not proc.alive:  # killed while queued: no hook, no budget
                continue

            # pinned ordering: alive-check -> hook -> budget -> dispatch
            # (a hook-forced stop must not consume dispatch budget)
            if self._pre_dispatch_armed:
                forced = self._pre_dispatch_hook(proc)
                if forced is not None:
                    self._make_ready_front(proc)
                    return StopReason(StopKind.SUSPENDED, self.now, proc, forced.reason)

            if budget is not None:
                if budget <= 0:
                    self._make_ready_front(proc)
                    return StopReason(StopKind.MAX_DISPATCHES, self.now, proc)
                budget -= 1

            stop = self._dispatch(proc)
            if stop is not None:
                return stop

    def _advance_time(self, until: Optional[int]) -> bool:
        """Pop the timed heap into the ready deque.  False if heap empty."""
        while self._timed:
            time, _, proc = self._timed[0]
            if not proc.alive:
                heapq.heappop(self._timed)
                continue
            if until is not None and time > until:
                return False
            heapq.heappop(self._timed)
            self.now = max(self.now, time)
            self._make_ready(proc)
            # drain every entry at the same timestamp for FIFO fairness
            while self._timed and self._timed[0][0] == time:
                _, _, nxt = heapq.heappop(self._timed)
                if nxt.alive:
                    self._make_ready(nxt)
            return True
        return False

    def _final_stop(self, until: Optional[int], raise_on_deadlock: bool) -> StopReason:
        if self._timed and until is not None:
            # stopped by the time horizon, not by starvation
            self.now = until
            return StopReason(StopKind.MAX_TIME, self.now)
        blocked = self.blocked_processes
        frozen = self.frozen_processes
        if blocked or frozen:
            names = [p.name for p in blocked] + [f"{p.name} (frozen)" for p in frozen]
            if raise_on_deadlock:
                raise DeadlockError(names)
            return StopReason(StopKind.DEADLOCK, self.now, payload=names)
        return StopReason(StopKind.EXHAUSTED, self.now)

    def _dispatch(self, proc: Process) -> Optional[StopReason]:
        """Resume one process and apply the request it yields."""
        self._dispatch_count += 1
        send_value, proc._send_value = proc._send_value, None
        try:
            request = proc.gen.send(send_value)
        except StopIteration as stop:
            proc.state = ProcessState.TERMINATED
            proc.result = stop.value
            if self._post_dispatch_armed:
                self._post_dispatch_hook(self._dispatch_count)
            return None
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            proc.state = ProcessState.FAILED
            proc.exception = exc
            return StopReason(StopKind.PROCESS_ERROR, self.now, proc, exc)

        if isinstance(request, Delay):
            if request.cycles == 0:
                self._make_ready(proc)
            else:
                self._schedule_at(self.now + request.cycles, proc)
        elif isinstance(request, Yield):
            self._make_ready(proc)
        elif isinstance(request, WaitEvent):
            proc.state = ProcessState.WAITING
            proc.waiting_on = request.event
            request.event.add_waiter(proc)
        elif isinstance(request, Suspend):
            # A mid-dispatch debugger stop splits one logical dispatch into
            # several generator resumes; undo the increment so the count
            # stays invariant under interactive stops (see dispatch_count).
            self._dispatch_count -= 1
            self._make_ready_front(proc)
            return StopReason(StopKind.SUSPENDED, self.now, proc, request.reason)
        else:
            proc.state = ProcessState.FAILED
            err = SimulationError(f"process {proc.name} yielded invalid request {request!r}")
            proc.exception = err
            return StopReason(StopKind.PROCESS_ERROR, self.now, proc, err)
        if self._post_dispatch_armed:
            self._post_dispatch_hook(self._dispatch_count)
        return None
