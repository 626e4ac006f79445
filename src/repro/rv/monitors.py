"""Compiled per-event monitors and their structured verdicts.

A monitor is the lowered form of one property: a small counter machine
(occupancy, rate, order, progress) or a wait-for-graph tracker
(deadlock-free) fed every normalised framework event.  Monitors are
**one-shot**: the first violation freezes the monitor into its verdict —
the run may continue (``log``/``mark`` actions) without producing a
verdict flood, and live/derived verdict streams stay identical.

Determinism contract: a monitor's state is a pure function of the
:class:`~repro.sim.trace.EventRecord` stream plus compile-time graph tables
(link endpoints, module membership) — never of live runtime objects.
Feeding the same journal through freshly compiled monitors therefore
reproduces the live verdicts byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..pedf.api import (
    SYM_ACTOR_START,
    SYM_ACTOR_SYNC,
    SYM_POP,
    SYM_PUSH,
    SYM_STEP_BEGIN,
    SYM_WAIT_INIT,
    SYM_WAIT_SYNC,
    SYM_WORK_ENTER,
    SYM_WORK_EXIT,
)
from ..sim.trace import EventRecord


@dataclass(frozen=True)
class Verdict:
    """A structured violation report: what failed, where, on whose watch."""

    check_id: int
    prop: str  # canonical property text
    kind: str  # property family ("occupancy", "rate", ...)
    time: int  # simulated time of the violation
    index: int  # event position (journal index when recording)
    message: str  # one-line diagnosis
    actors: Tuple[str, ...] = ()
    links: Tuple[str, ...] = ()
    witness: Tuple[str, ...] = ()  # rendered witness events, oldest first

    def headline(self) -> str:
        return f"check {self.check_id} ({self.prop}) violated: {self.message}"

    def render(self) -> List[str]:
        """Deterministic multi-line report (byte-compared in tests)."""
        lines = [self.headline()]
        lines.append(f"  at event #{self.index}, t={self.time}")
        if self.actors:
            lines.append(f"  actors: {', '.join(self.actors)}")
        if self.links:
            lines.append(f"  links: {', '.join(self.links)}")
        for w in self.witness:
            lines.append(f"  witness: {w}")
        return lines


class Monitor:
    """Base monitor: feed events until the first verdict, then freeze."""

    #: property family, mirrored into the verdict
    kind = "monitor"

    def __init__(self, check_id: int, prop_text: str):
        self.check_id = check_id
        self.prop_text = prop_text
        self.verdict: Optional[Verdict] = None

    @property
    def tripped(self) -> bool:
        return self.verdict is not None

    def feed(self, ev: EventRecord, index: int) -> Optional[Verdict]:
        if self.verdict is not None:
            return None
        verdict = self._feed(ev, index)
        if verdict is not None:
            self.verdict = verdict
        return verdict

    def at_stop(self, stop_kind: str, time: int, index: int) -> Optional[Verdict]:
        """Hook for stop-triggered evaluation (deadlock analysis)."""
        return None

    def _feed(self, ev: EventRecord, index: int) -> Optional[Verdict]:  # pragma: no cover
        raise NotImplementedError

    def _verdict(
        self, ev: EventRecord, index: int, message: str, actors=(), links=(), witness=()
    ):
        return Verdict(
            check_id=self.check_id,
            prop=self.prop_text,
            kind=self.kind,
            time=ev.time,
            index=index,
            message=message,
            actors=tuple(actors),
            links=tuple(links),
            witness=tuple(witness),
        )


class OccupancyMonitor(Monitor):
    """Counts push/pop exits on one link; trips when the occupancy
    leaves the declared bound."""

    kind = "occupancy"

    def __init__(self, check_id, prop_text, link: str, op: str, bound: int,
                 src_actor: str, dst_actor: str):
        super().__init__(check_id, prop_text)
        self.link = link
        self.op = op
        self.bound = bound
        self.src_actor = src_actor
        self.dst_actor = dst_actor
        self.occupancy = 0

    def _feed(self, ev: EventRecord, index: int) -> Optional[Verdict]:
        if ev.phase != "exit" or ev.link != self.link:
            return None
        if ev.symbol == SYM_PUSH:
            self.occupancy += 1
        elif ev.symbol == SYM_POP:
            self.occupancy -= 1
        else:
            return None
        ok = self.occupancy <= self.bound if self.op == "<=" else self.occupancy >= self.bound
        if ok:
            return None
        return self._verdict(
            ev, index,
            f"occupancy of {self.link} reached {self.occupancy} "
            f"(bound: {self.op} {self.bound})",
            actors=(self.src_actor, self.dst_actor),
            links=(self.link,),
            witness=(ev.describe(),),
        )


class RateMonitor(Monitor):
    """``produced == (num/den) * consumed`` within ±tol, checked after
    every token event on either link."""

    kind = "rate"

    def __init__(self, check_id, prop_text, produced_link: str, produced_sym: str,
                 consumed_link: str, consumed_sym: str, num: int, den: int, tol: int,
                 actors: Tuple[str, ...]):
        super().__init__(check_id, prop_text)
        self.produced_link = produced_link
        self.produced_sym = produced_sym  # SYM_PUSH or SYM_POP
        self.consumed_link = consumed_link
        self.consumed_sym = consumed_sym
        self.num = num
        self.den = den
        self.tol = tol
        self.actors = actors
        self.produced = 0
        self.consumed = 0

    def _feed(self, ev: EventRecord, index: int) -> Optional[Verdict]:
        if ev.phase != "exit":
            return None
        counted = False
        if ev.link == self.produced_link and ev.symbol == self.produced_sym:
            self.produced += 1
            counted = True
        if ev.link == self.consumed_link and ev.symbol == self.consumed_sym:
            self.consumed += 1
            counted = True
        if not counted:
            return None
        # |produced - (num/den)*consumed| <= tol, kept in integers
        lhs = self.produced * self.den
        rhs = self.num * self.consumed
        if abs(lhs - rhs) <= self.tol * self.den:
            return None
        k = f"{self.num}" if self.den == 1 else f"{self.num}/{self.den}"
        return self._verdict(
            ev, index,
            f"produced {self.produced} on {self.produced_link} vs consumed "
            f"{self.consumed} on {self.consumed_link} (invariant: produced "
            f"== {k} * consumed, tol {self.tol})",
            actors=self.actors,
            links=(self.produced_link, self.consumed_link),
            witness=(ev.describe(),),
        )


class OrderMonitor(Monitor):
    """Causality: the Nth token event on ``after`` must be preceded by at
    least N token events on ``before``."""

    kind = "order"

    def __init__(self, check_id, prop_text, before_link: str, before_sym: str,
                 after_link: str, after_sym: str, actors: Tuple[str, ...]):
        super().__init__(check_id, prop_text)
        self.before_link = before_link
        self.before_sym = before_sym
        self.after_link = after_link
        self.after_sym = after_sym
        self.actors = actors
        self.before_count = 0
        self.after_count = 0

    def _feed(self, ev: EventRecord, index: int) -> Optional[Verdict]:
        if ev.phase != "exit":
            return None
        if ev.link == self.before_link and ev.symbol == self.before_sym:
            self.before_count += 1
        if ev.link == self.after_link and ev.symbol == self.after_sym:
            self.after_count += 1
            if self.after_count > self.before_count:
                return self._verdict(
                    ev, index,
                    f"event #{self.after_count} on {self.after_link} has only "
                    f"{self.before_count} preceding event(s) on {self.before_link}",
                    actors=self.actors,
                    links=(self.before_link, self.after_link),
                    witness=(ev.describe(),),
                )
        return None


class ProgressMonitor(Monitor):
    """Starvation: the actor enters WORK at least once every N controller
    steps (counted over all controllers' STEP_BEGIN entries)."""

    kind = "progress"

    def __init__(self, check_id, prop_text, actor: str, every: int):
        super().__init__(check_id, prop_text)
        self.actor = actor
        self.every = every
        self.steps_since_fire = 0

    def _feed(self, ev: EventRecord, index: int) -> Optional[Verdict]:
        if ev.phase != "entry":
            return None
        if ev.symbol == SYM_WORK_ENTER and ev.actor == self.actor:
            self.steps_since_fire = 0
            return None
        if ev.symbol != SYM_STEP_BEGIN:
            return None
        self.steps_since_fire += 1
        if self.steps_since_fire <= self.every:
            return None
        return self._verdict(
            ev, index,
            f"{self.actor} has not fired for {self.steps_since_fire} controller "
            f"step(s) (required: at least once every {self.every})",
            actors=(self.actor, ev.actor),
            witness=(ev.describe(),),
        )


@dataclass
class _WaitState:
    """Per-actor blocked-call tracking, reconstructed from the stream."""

    #: actor -> ("push"|"pop", link) while inside an unmatched push/pop
    pending_io: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: controller -> "wait-init"|"wait-sync" while inside an unmatched wait
    pending_wait: Dict[str, str] = field(default_factory=dict)
    #: per-filter scheduling counters (from actor_start/work_* events)
    starts: Dict[str, int] = field(default_factory=dict)
    begun: Dict[str, int] = field(default_factory=dict)
    done: Dict[str, int] = field(default_factory=dict)
    sync_target: Dict[str, int] = field(default_factory=dict)


class DeadlockMonitor(Monitor):
    """Wait-for-cycle / starvation analysis over blocked push, pop and
    ``WAIT_FOR_*`` states, evaluated when the platform deadlocks.

    The wait-for graph is rebuilt from the event stream alone (an entry
    without its exit is a call the actor is still inside), using two
    compile-time tables: link endpoints and controller module membership.
    That keeps live evaluation (triggered by the DEADLOCK stop) and
    journal-derived evaluation byte-identical.
    """

    kind = "deadlock"

    def __init__(self, check_id, prop_text,
                 link_ends: Dict[str, Tuple[str, str]],
                 module_filters: Dict[str, Tuple[str, ...]]):
        super().__init__(check_id, prop_text)
        self.link_ends = link_ends  # link name -> (src actor, dst actor)
        self.module_filters = module_filters  # controller -> filters
        self.state = _WaitState()
        self._last_time = 0

    # ------------------------------------------------------------- feeding

    def _feed(self, ev: EventRecord, index: int) -> Optional[Verdict]:
        st = self.state
        self._last_time = ev.time
        if ev.symbol in (SYM_PUSH, SYM_POP):
            if ev.phase == "entry" and ev.link is not None:
                st.pending_io[ev.actor] = ("push" if ev.symbol == SYM_PUSH else "pop", ev.link)
            elif ev.phase == "exit":
                st.pending_io.pop(ev.actor, None)
        elif ev.symbol in (SYM_WAIT_INIT, SYM_WAIT_SYNC):
            if ev.phase == "entry":
                st.pending_wait[ev.actor] = (
                    "wait-init" if ev.symbol == SYM_WAIT_INIT else "wait-sync"
                )
            else:
                st.pending_wait.pop(ev.actor, None)
        elif ev.phase == "exit" and ev.symbol == SYM_ACTOR_START and ev.target:
            st.starts[ev.target] = st.starts.get(ev.target, 0) + 1
        elif ev.phase == "exit" and ev.symbol == SYM_ACTOR_SYNC and ev.target:
            st.sync_target[ev.target] = st.starts.get(ev.target, 0)
        elif ev.phase == "exit" and ev.symbol == SYM_WORK_ENTER:
            st.begun[ev.actor] = st.begun.get(ev.actor, 0) + 1
        elif ev.phase == "exit" and ev.symbol == SYM_WORK_EXIT:
            st.done[ev.actor] = st.done.get(ev.actor, 0) + 1
        return None  # only trips at a deadlock stop

    # ------------------------------------------------------ stop evaluation

    def waits_of(self, actor: str) -> List[Tuple[str, str, str]]:
        """Outgoing wait-for edges of one blocked actor, as
        ``(reason, detail, waited-on actor)`` triples, deterministic order."""
        st = self.state
        edges: List[Tuple[str, str, str]] = []
        io = st.pending_io.get(actor)
        if io is not None:
            op, link = io
            src, dst = self.link_ends.get(link, ("", ""))
            # a blocked push waits on the consumer to pop; a blocked pop
            # waits on the producer to push
            other = dst if op == "push" else src
            if other:
                edges.append((op, link, other))
        wait = st.pending_wait.get(actor)
        if wait is not None:
            for filt in self.module_filters.get(actor, ()):
                if wait == "wait-init":
                    behind = st.begun.get(filt, 0) < st.starts.get(filt, 0)
                else:
                    target = st.sync_target.get(filt)
                    behind = target is not None and st.done.get(filt, 0) < target
                if behind:
                    edges.append((wait, "", filt))
        return edges

    def at_stop(self, stop_kind: str, time: int, index: int) -> Optional[Verdict]:
        if self.verdict is not None or stop_kind != "deadlock":
            return None
        st = self.state
        blocked = sorted(set(st.pending_io) | set(st.pending_wait))
        edges = {a: self.waits_of(a) for a in blocked}
        if not blocked:
            fake = EventRecord(time, "exit", "deadlock", "", None, None, None)
            self.verdict = self._verdict(
                fake, index,
                "platform deadlocked with no actor inside a blocking framework "
                "call (all actors starved of schedule)",
            )
            return self.verdict

        cycle = self._find_cycle(blocked, edges)
        actors: List[str] = []
        links: List[str] = []
        witness: List[str] = []
        if cycle is not None:
            hops = []
            for i, actor in enumerate(cycle):
                nxt = cycle[(i + 1) % len(cycle)]
                reason, detail, _ = next(e for e in edges[actor] if e[2] == nxt)
                via = f" via {detail}" if detail else ""
                hops.append(f"{actor} -[{reason}{via}]-> {nxt}")
                actors.append(actor)
                if detail:
                    links.append(detail)
            message = f"wait-for cycle: {'; '.join(hops)}"
            witness = hops
        else:
            # no cycle: report starvation roots — blocked actors all of
            # whose waited-on actors are themselves unblocked
            roots = [a for a in blocked
                     if edges[a] and all(tgt not in blocked for _, _, tgt in edges[a])]
            if not roots:
                roots = [a for a in blocked if edges[a]] or blocked
            parts = []
            for a in roots:
                for reason, detail, tgt in edges.get(a, ()):
                    via = f" {detail}" if detail else ""
                    parts.append(f"{a} blocked in {reason}{via}, waiting on {tgt} (not blocked)")
                    actors.extend((a, tgt))
                    if detail:
                        links.append(detail)
                if not edges.get(a):
                    parts.append(f"{a} blocked with no identifiable wait target")
                    actors.append(a)
            message = f"no wait-for cycle; starvation root(s): {'; '.join(parts)}"
            witness = parts
        # implicated-entity lists: deterministic, deduplicated, first-seen order
        actors = list(dict.fromkeys(actors))
        links = list(dict.fromkeys(links))
        fake = EventRecord(time, "exit", "deadlock", "", None, None, None)
        self.verdict = self._verdict(fake, index, message, actors, links, witness)
        return self.verdict

    @staticmethod
    def _find_cycle(blocked, edges) -> Optional[List[str]]:
        """First wait-for cycle among blocked actors, in deterministic
        (sorted start, DFS) order; rotated to start at its smallest actor."""
        WHITE, GREY, BLACK = 0, 1, 2
        color = {a: WHITE for a in blocked}
        for start in blocked:
            if color[start] != WHITE:
                continue
            stack = [(start, iter(sorted(t for _, _, t in edges[start] if t in color)))]
            path = [start]
            color[start] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == GREY:
                        cycle = path[path.index(nxt):]
                        pivot = cycle.index(min(cycle))
                        return cycle[pivot:] + cycle[:pivot]
                    if color[nxt] == WHITE:
                        color[nxt] = GREY
                        path.append(nxt)
                        stack.append(
                            (nxt, iter(sorted(t for _, _, t in edges[nxt] if t in color)))
                        )
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
                    path.pop()
        return None
