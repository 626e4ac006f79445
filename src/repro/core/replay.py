"""Record/replay driver: time-travel stops for dataflow debugging.

The recording side (:class:`RunRecorder`) taps three existing mechanisms:

- the session's :class:`~repro.core.tap.EventTap` (its one ``"*"`` bus
  subscription) hands it every framework event first, so it assigns the
  event position every other consumer sees (and, via ``wants()``, event
  materialisation is forced regardless of the §V capture narrowing —
  journals are always complete);
- the kernel's post-dispatch hook takes a checkpoint digest every N
  completed dispatches, and a sparse deep
  :class:`~repro.sim.snapshot.MachineState` snapshot every M checkpoints;
- the debugger's stop callbacks position each stop on the event log.

Actor coroutines cannot be pickled, so a deep snapshot alone is not a
resumable machine — but a **live replayed machine parked at a known
position is**.  The :class:`ReplayManager` keeps a bounded pool of such
*resident snapshots*: every machine abandoned by a hop is parked (with a
frame-level ``MachineState`` fingerprint) instead of discarded, and the
first full-journal sweep seeds geometric anchor machines en route.
Every ``replay to`` / ``reverse-continue`` hop follows one rule: start
from the highest machine at or below the target — a parked resident, the
current replayed machine, or a fresh build from a registered
zero-argument **builder** (position 0) — and re-execute only the tail:
O(tail), not O(run length).  A restored
machine is validated against its park-time fingerprint before adoption,
and the riding :class:`RunRecorder` still compares every event
fingerprint, checkpoint digest and deep snapshot on the tail against the
reference journal — the determinism self-check — while re-applying
journaled alterations at their recorded positions (so a deadlock the
user untied by inserting a token unties itself again).  On arrival on
another machine the debugging session is handed over to it
(:meth:`~repro.core.session.DataflowSession.hand_over`, the one list of
what a hop carries), and the manager keeps the master journal so the
user can hop forward and backward repeatedly.

A new alteration made in a replayed past **forks the timeline**: the
master journal switches to the current (replayed) journal, recording
continues live from there, and the resident pool is invalidated (parked
machines verified against the abandoned future no longer apply).

Known limitation: ``freeze``/``thaw`` are not journaled; a recorded run
that used them replays without them and the divergence self-check will
report the first mismatch instead of silently rebuilding a different run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Sequence, Tuple

from ..dbg.stop import StopEvent, StopKind
from ..errors import ReplayDivergenceError, ReplayError
from ..pedf.api import SYM_PUSH
from ..sim.process import Suspend
from ..sim.replay import (
    DEFAULT_CHECKPOINT_INTERVAL,
    AlterationRecord,
    Checkpoint,
    ReplayJournal,
    StopRecord,
)
from ..sim.segments import DEFAULT_SEGMENT_WINDOW
from ..sim.sharding.merge import stable_value_text
from ..sim.snapshot import DEFAULT_SNAPSHOT_EVERY, MachineState, capture_machine_state
from ..sim.trace import EventRecord

if TYPE_CHECKING:  # pragma: no cover
    from .session import DataflowSession

#: Safety bound on continue-iterations while driving a replay forward.
_MAX_DRIVE_STOPS = 100_000

#: Resident snapshots the manager keeps parked (plus whatever is current).
#: Machines only move forward and each restore consumes its source, so
#: the pool must cover the journal: on a 100-hop script over a
#: 6,594-event journal, 16 residents re-execute a third fewer tail events
#: than 4, and 32 barely fewer than 16 (EXPERIMENTS.md).
DEFAULT_POOL_LIMIT = 16


class RunRecorder:
    """Journals one execution; in replay mode also verifies and steers it."""

    def __init__(
        self,
        session: "DataflowSession",
        journal: ReplayJournal,
        interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        reference: Optional[ReplayJournal] = None,
        alterations: Sequence[AlterationRecord] = (),
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    ):
        self.session = session
        self.dbg = session.dbg
        self.journal = journal
        self.interval = max(1, interval)
        #: deep MachineState snapshot every N checkpoints (0 = off)
        self.snapshot_every = max(0, snapshot_every)
        #: reference journal to verify against (replay mode), or None (live)
        self.reference = reference
        #: event position to suspend at (replay mode), or None
        self.target_index: Optional[int] = None
        #: REPLAY StopEvent built when the target was reached
        self.landed: Optional[StopEvent] = None
        #: the newest journaled event (its record, at total_events)
        self.last_event: Optional[EventRecord] = None
        self.divergence: Optional[str] = None
        self.events_compared = 0
        self.checkpoints_verified = 0
        self.snapshots_verified = 0
        #: forward reader over the reference (see ReplayJournal.cursor)
        #: and the position it yields next; it lives on the recorder, so
        #: a parked resident resumes reading where it stopped
        self._cursor: Optional[Iterator[Optional[EventRecord]]] = None
        self._cursor_next = 0
        self.detached = False
        self._applying = False
        #: called when a user alteration forks a replayed timeline
        self.fork_hook: Optional[Callable[[], None]] = None
        self._pending = deque(sorted(alterations, key=lambda a: a.index))
        session.tap.set_recorder(self)
        self.dbg.scheduler.post_dispatch_hook = self._on_dispatch
        self.dbg.stop_callbacks.append(self._on_stop)

    # ------------------------------------------------------------ recording

    def journal_event(self, ev: EventRecord, retval) -> Tuple[int, Optional[Suspend]]:
        """Journal one normalised event (called first by the session's
        event tap); returns its position and any Suspend requested."""
        journal = self.journal
        index = journal.total_events + 1
        self.last_event = ev
        expected = None
        ref = self.reference
        if ref is not None and self.divergence is None and index <= ref.total_events:
            if index != self._cursor_next:
                # first compared event (or a gap): open the reference
                # cursor here; in step, it yields record_at(index)
                self._cursor = ref.cursor(index)
            self._cursor_next = index + 1
            expected = next(self._cursor)
        # the whole record — time, phase, symbol, actor, seq, link and
        # target — must match the recorded event; a journal built on the
        # reference keeps no copy of a verified one (nor of its payload)
        verified = expected is not None and ev == expected
        if not (verified and ref is journal.base and journal.share_event()):
            journal.add_event(ev)
            if retval is not None and ev.symbol == SYM_PUSH and ev.phase == "exit":
                journal.note_event_value(index, stable_value_text(retval.value))
        if verified:
            self.events_compared += 1
        elif expected is not None:
            self.divergence = (
                f"replay diverged at event #{index}: recorded "
                f"{expected.describe()}, replayed {ev.describe()}"
            )
            stop = StopEvent(StopKind.REPLAY, message=self.divergence, time=ev.time)
            return index, self.dbg.external_suspend(stop)

        # re-apply journaled alterations at their recorded positions, before
        # execution proceeds past this event (a deadlock-untying insert must
        # land before the consumer blocks for good)
        while self._pending and self._pending[0].index <= index:
            alt = self._pending.popleft()
            self._apply(alt)

        if self.target_index is not None and index >= self.target_index:
            self.target_index = None
            self.landed = StopEvent(
                StopKind.REPLAY,
                message=f"[Replayed to event #{index}, t={ev.time}]",
                actor=ev.actor or None,
                time=ev.time,
            )
            return index, self.dbg.external_suspend(self.landed)
        return index, None

    def _on_dispatch(self, count: int) -> None:
        if count % self.interval:
            return
        cp = self._take_checkpoint(count)
        ref = self.reference
        if ref is not None and self.divergence is None:
            expected = ref.checkpoint_at_dispatch(count)
            if expected is not None:
                if expected != cp:
                    self.divergence = (
                        f"replay diverged at dispatch {count}: recorded "
                        f"{expected.describe()}, replayed {cp.describe()}"
                    )
                else:
                    self.checkpoints_verified += 1
                    cp = expected  # one copy of a verified digest
        self.journal.add_checkpoint(cp)
        if self.snapshot_every and (count // self.interval) % self.snapshot_every == 0:
            self._take_snapshot(count)

    def _take_snapshot(self, count: int) -> None:
        # journal-recorded snapshots carry no interpreter frames: those
        # only fingerprint a parked resident machine, never a journal
        state = capture_machine_state(self.dbg.scheduler, self.dbg.runtime)
        ref = self.reference
        if ref is not None and self.divergence is None:
            expected = ref.state_snapshot_at(count)
            if expected is not None:
                if expected != state:
                    self.divergence = (
                        f"replay diverged at dispatch {count}: recorded "
                        f"{expected.describe()}, replayed {state.describe()}"
                    )
                else:
                    self.snapshots_verified += 1
                    state = expected
        self.journal.add_state_snapshot(count, state)

    def _take_checkpoint(self, dispatch: int) -> Checkpoint:
        runtime = self.dbg.runtime
        occupancy = tuple(
            (link.name, tuple(t.seq for t in link.tokens())) for link in runtime.links
        )
        return Checkpoint(
            index=self.journal.total_events,
            dispatch=dispatch,
            time=self.dbg.scheduler.now,
            next_seq=runtime.seq_state(),
            occupancy=occupancy,
        )

    def _on_stop(self, ev: StopEvent) -> None:
        if ev.kind == StopKind.REPLAY:
            return
        self.journal.add_stop(
            StopRecord(
                index=self.journal.total_events,
                kind=ev.kind.value,
                message=ev.message,
                bp_id=ev.bp_id,
                time=ev.time,
            )
        )

    # ---------------------------------------------------------- alterations

    def note_alteration(
        self, kind: str, conn_spec: str, value_text: Optional[str], arg_index: Optional[int]
    ) -> None:
        """Journal one alteration at the current event position."""
        self.journal.add_alteration(
            AlterationRecord(
                index=self.journal.total_events,
                kind=kind,
                conn_spec=conn_spec,
                value_text=value_text,
                arg_index=arg_index,
            )
        )
        if not self._applying and (self.reference is not None or self._pending):
            # a fresh user alteration inside a replayed past: the recorded
            # future no longer applies — fork the timeline
            self.reference = None
            self._pending.clear()
            if self.fork_hook is not None:
                self.fork_hook()

    def _apply(self, alt: AlterationRecord) -> None:
        self._applying = True
        try:
            if alt.kind == "insert":
                self.session.alter.insert(alt.conn_spec, alt.value_text or "", alt.arg_index)
            elif alt.kind == "drop":
                self.session.alter.drop(alt.conn_spec, alt.arg_index or 0)
            elif alt.kind == "poke":
                self.session.alter.poke(alt.conn_spec, alt.arg_index or 0, alt.value_text or "")
            elif alt.kind == "set_pred":
                module, _, name = alt.conn_spec.rpartition(".")
                self.session.set_predicate(module, name, alt.value_text == "true")
            else:  # pragma: no cover - future-proofing
                raise ReplayError(f"journal holds unknown alteration kind {alt.kind!r}")
        finally:
            self._applying = False

    # ------------------------------------------------------------- teardown

    def detach(self) -> None:
        if self.detached:
            return
        self.detached = True
        self.dbg.scheduler.post_dispatch_hook = None
        try:
            self.dbg.stop_callbacks.remove(self._on_stop)
        except ValueError:
            pass
        if self.session.tap.recorder is self:
            self.session.tap.set_recorder(None)


@dataclass
class ResidentSnapshot:
    """A live replayed machine parked at a known journal position.

    The closest thing to a restorable checkpoint a coroutine-based
    machine admits: instead of serialising un-picklable generators, the
    machine itself stays resident, fingerprinted by a frame-level
    :class:`MachineState` so adoption can prove nothing disturbed it
    while parked."""

    position: int  # event-log position the machine is suspended at
    session: "DataflowSession"
    recorder: RunRecorder
    state: MachineState  # park-time fingerprint (with interpreter frames)
    #: still where a hop landed it; a machine stepped on since is past
    #: its position's landing state, so it serves only later targets
    landed: bool = True

    def serves(self, target: int) -> bool:
        """True if a hop to ``target`` may start from this machine."""
        return self.position < target or (self.position == target and self.landed)

    def intact(self) -> bool:
        """True if the parked machine still matches its park-time state."""
        if self.recorder.detached or self.recorder.divergence is not None:
            return False
        dbg = self.session.dbg
        return capture_machine_state(dbg.scheduler, dbg.runtime, include_frames=True) == self.state


class ReplayManager:
    """Per-session facade: ``record on/off``, ``replay to``,
    ``reverse-continue``, ``info replay``."""

    def __init__(self, session: "DataflowSession"):
        self.session = session
        self.builder: Optional[Callable[[], "DataflowSession"]] = None
        self.recorder: Optional[RunRecorder] = None
        #: the reference journal time-travel navigates over
        self.master: Optional[ReplayJournal] = None
        self.mode = "off"  # "off" | "record" | "replay"
        self.interval = DEFAULT_CHECKPOINT_INTERVAL
        self.snapshot_every = DEFAULT_SNAPSHOT_EVERY
        #: parked resident snapshots, unordered (bounded by pool_limit)
        self.pool: List[ResidentSnapshot] = []
        self.pool_limit = DEFAULT_POOL_LIMIT
        #: (restored-from position, target, events re-executed) of the
        #: last hop; restored-from is 0 for a full rebuild
        self.last_restore: Optional[Tuple[int, int, int]] = None
        #: how the last hop got there: "resident" | "forward" | "rebuild"
        self._last_hop_kind: Optional[str] = None
        #: the current machine's state where the last hop landed it; an
        #: exact hit may reuse the machine only while it still matches
        self._landing: Optional[MachineState] = None
        self._seeded = False

    # ------------------------------------------------------------- plumbing

    def register_builder(self, builder: Callable[[], "DataflowSession"]) -> None:
        """Register the zero-argument factory replay rebuilds sessions
        with.  It must return a fresh, *unloaded* ``DataflowSession`` of
        the same program with the same sources/sinks attached."""
        self.builder = builder

    @property
    def recording(self) -> bool:
        return self.recorder is not None and not self.recorder.detached

    @property
    def position(self) -> Optional[int]:
        """The event position the current replayed machine stands at —
        where a hop landed it, or further on if it was continued since
        (None outside replay)."""
        if self.mode != "replay" or not self.recording:
            return None
        return self.recorder.journal.total_events

    def notify_alteration(
        self, kind: str, conn_spec: str, value_text: Optional[str], arg_index: Optional[int]
    ) -> None:
        rec = self.session.tap.recorder
        if rec is not None:
            rec.note_alteration(kind, conn_spec, value_text, arg_index)

    # ------------------------------------------------------------ recording

    def record_on(
        self,
        interval: Optional[int] = None,
        segment_dir: Optional[str] = None,
        window: Optional[int] = None,
        snapshot_every: Optional[int] = None,
    ) -> List[str]:
        if self.recording:
            return ["Recording is already on."]
        if self.session.dbg.runtime.loaded:
            raise ReplayError(
                "record on must precede the first run: replay re-executes "
                "from the beginning, so the journal has to cover the whole run"
            )
        if interval is not None:
            self.interval = max(1, interval)
        if snapshot_every is not None:
            self.snapshot_every = max(0, snapshot_every)
        journal = ReplayJournal(
            segment_dir=segment_dir,
            window=window if window is not None else DEFAULT_SEGMENT_WINDOW,
        )
        self.recorder = RunRecorder(
            self.session, journal, self.interval, snapshot_every=self.snapshot_every
        )
        self.master = journal
        self.mode = "record"
        self._clear_pool()
        self._seeded = False
        self.last_restore = None
        self._last_hop_kind = None
        bound = ""
        if segment_dir is not None:
            bound = f", segments in {segment_dir} (window {journal.window})"
        return [f"Recording on (checkpoint every {self.interval} dispatches{bound})."]

    def record_off(self) -> List[str]:
        if not self.recording:
            return ["Recording is not on."]
        self.recorder.detach()
        self.recorder = None
        if self.mode == "record":
            self.mode = "off"
        return ["Recording off (journal kept for replay)."]

    def close(self) -> None:
        """Detach the recorder and every parked machine (session teardown)."""
        if self.recorder is not None:
            self.recorder.detach()
            self.recorder = None
        self._clear_pool()

    # ------------------------------------------------------- snapshot pool

    def set_pool_limit(self, limit: int) -> List[str]:
        """``replay snapshots N|off`` — resize (or disable) the resident
        snapshot pool."""
        self.pool_limit = max(0, limit)
        while len(self.pool) > self.pool_limit:
            self._evict_one()
        if self.pool_limit == 0:
            return ["Resident snapshots off (every backward hop re-executes from the start)."]
        return [f"Resident snapshot pool: {self.pool_limit} machine(s)."]

    def _clear_pool(self) -> None:
        for res in self.pool:
            res.recorder.detach()
        self.pool.clear()

    def _evict_one(self) -> None:
        """Evict the resident whose removal hurts coverage least: the one
        closest to its predecessor in position order (position 0 — the
        free rebuild — counts as a virtual resident)."""
        if not self.pool:
            return
        ordered = sorted(self.pool, key=lambda r: r.position)
        prev = 0
        victim = ordered[0]
        best_gap = None
        for res in ordered:
            gap = res.position - prev
            if best_gap is None or gap < best_gap:
                best_gap = gap
                victim = res
            prev = res.position
        victim.recorder.detach()
        self.pool.remove(victim)

    def _park(
        self,
        session: "DataflowSession",
        recorder: RunRecorder,
        landing: Optional[MachineState] = None,
    ) -> None:
        """Park an abandoned replayed machine as a resident snapshot;
        ``landing`` is the state a hop left it in, if it may have run
        since."""
        if self.pool_limit <= 0 or recorder.detached or recorder.divergence is not None:
            recorder.detach()
            return
        state = self._machine_state(session)
        landed = landing is None or state == landing
        position = recorder.journal.total_events
        # one resident per position is plenty; a landed one serves more
        for res in list(self.pool):
            if res.position == position:
                if res.landed and not landed:
                    recorder.detach()
                    return
                res.recorder.detach()
                self.pool.remove(res)
        self.pool.append(ResidentSnapshot(position, session, recorder, state, landed))
        while len(self.pool) > self.pool_limit:
            self._evict_one()

    # --------------------------------------------------------------- replay

    def _require_master(self) -> ReplayJournal:
        if self.master is None or self.master.total_events == 0:
            raise ReplayError("nothing recorded yet (use 'record on' before running)")
        return self.master

    def _resolve_position(self, text: str) -> int:
        master = self._require_master()
        text = text.strip()
        if not text:
            raise ReplayError("replay to: missing position (seq N | time T | event K | end)")
        if text == "end":
            return master.total_events
        kind, _, value = text.partition(" ")
        value = value.strip()
        if kind == "seq" and value.isdigit():
            index = master.index_for_seq(int(value))
            if index is None:
                raise ReplayError(f"no recorded token with sequence number {value}")
            return index
        if kind == "time" and value.isdigit():
            index = master.index_for_time(int(value))
            if index is None:
                raise ReplayError(f"no recorded event at or after t={value}")
            return index
        if kind == "event" and value.isdigit():
            index = int(value)
        elif text.isdigit():
            index = int(text)
        else:
            raise ReplayError(f"bad replay position {text!r} (seq N | time T | event K | end)")
        if not 1 <= index <= master.total_events:
            raise ReplayError(
                f"event position {index} out of range (journal holds 1..{master.total_events})"
            )
        return index

    def replay_to(self, position_text: str) -> StopEvent:
        """Time-travel to a recorded position (``seq N`` / ``time T`` /
        ``event K`` / ``end``)."""
        return self._time_travel(self._resolve_position(position_text))

    def reverse_continue(self) -> StopEvent:
        """Stop at the previous recorded dataflow catchpoint hit."""
        master = self._require_master()
        current = self.position if self.mode == "replay" else master.total_events
        earlier = [
            s
            for s in master.stops
            if s.kind == StopKind.DATAFLOW.value and s.index < (current or 0)
        ]
        if not earlier:
            raise ReplayError("no earlier dataflow stop in the journal")
        return self._time_travel(earlier[-1].index)

    def _time_travel(self, target: int) -> StopEvent:
        """One restore rule for every hop: start from the highest machine
        at or below ``target`` — a parked resident, the current replayed
        machine, or a fresh build (position 0) — and re-execute the tail.
        A hop onto another machine hands the debugging session over to
        it (:meth:`DataflowSession.hand_over` lists what that carries); a
        hop that keeps the current machine leaves the session as it is."""
        master = self._require_master()
        if self.builder is None:
            raise ReplayError(
                "no replay builder registered — call "
                "session.replay.register_builder(fn) with a factory that "
                "rebuilds this program"
            )
        while True:
            current = self._current_position(target)
            resident = max(
                (r for r in self.pool if r.serves(target)),
                key=lambda r: r.position,
                default=None,
            )
            if resident is not None and (current is None or resident.position > current):
                self.pool.remove(resident)
                if resident.intact():
                    return self._arrive(
                        resident.session, resident.recorder, resident.position, target, "resident"
                    )
                resident.recorder.detach()  # perturbed while parked: discard
                continue
            if current is not None:
                return self._arrive(self.session, self.recorder, current, target, "forward")
            if self._seeded:
                break
            # first full sweep over this master: seed geometric anchor
            # machines en route so later backward hops are O(tail)
            self._seed_anchors(target)
        session = self._build_fresh()
        return self._arrive(session, self._replay_recorder(session, master), 0, target, "rebuild")

    def _current_position(self, target: int) -> Optional[int]:
        """The current machine's event position if it can serve a hop to
        ``target``: a replayed machine, recorder still attached, at or
        below the target.  For an exact hit it must also still stand
        where it landed — ``step``/``next``/``finish`` move a machine
        without moving its event position."""
        position = self.position
        if position is None or position > target or self.recorder.divergence is not None:
            return None
        if position == target and self._landing != self._machine_state(self.session):
            return None
        return position

    @staticmethod
    def _machine_state(session: "DataflowSession") -> MachineState:
        dbg = session.dbg
        return capture_machine_state(dbg.scheduler, dbg.runtime, include_frames=True)

    def _build_fresh(self) -> "DataflowSession":
        new_session = self.builder()
        if new_session.dbg.runtime.loaded:
            raise ReplayError("replay builder returned an already-running session")
        return new_session

    def _replay_recorder(
        self, session: "DataflowSession", master: ReplayJournal
    ) -> RunRecorder:
        return RunRecorder(
            session,
            ReplayJournal(base=master),
            self.interval,
            reference=master,
            alterations=master.alterations,
            snapshot_every=self.snapshot_every,
        )

    def _arrive(
        self,
        session: "DataflowSession",
        recorder: RunRecorder,
        source: int,
        target: int,
        how: str,
    ) -> StopEvent:
        """Drive ``session`` from event ``source`` to ``target`` and make
        it the debugging session's machine."""
        if target > source:
            recorder.target_index = target
            held = session.dbg.lift_user_state()  # so the drive stops at none of them
            try:
                ev = self._drive(session, recorder)
            finally:
                session.dbg.land_user_state(held)
        else:
            # exact hit: stop without driving (driving would overshoot —
            # the recorder can only stop on the *next* event), reporting
            # the landing event as a driven arrival would
            rec = recorder.last_event
            ev = StopEvent(
                StopKind.REPLAY,
                message=f"[Replayed to event #{target}, t={rec.time}]",
                actor=rec.actor or None,
                time=session.dbg.scheduler.now,
            )
            # the adopted machine's last stop is this command's stop
            session.dbg.last_stop = ev
        if session is not self.session:
            self._adopt(session, recorder)
        self._landing = self._machine_state(session)
        self.mode = "replay"
        self.last_restore = (source, target, recorder.journal.total_events - source)
        self._last_hop_kind = how
        return ev

    def _seed_anchors(self, target: int) -> None:
        """Drive and park anchor machines at ~1/2 and ~3/4 of ``target``
        during the first sweep.  Bounded extra cost (≤ 1.25× one sweep,
        paid once) that turns every later hop into a tail re-execution."""
        self._seeded = True
        if self.pool_limit <= 0:
            return
        master = self.master
        min_gap = max(2 * self.interval, 32)
        anchors = sorted({target // 2, (3 * target) // 4})
        anchors = [a for a in anchors if a >= min_gap and target - a >= min_gap]
        for anchor in anchors:
            session = self._build_fresh()
            recorder = self._replay_recorder(session, master)
            recorder.target_index = anchor
            self._drive(session, recorder)
            self._park(session, recorder)

    def _drive(self, session: "DataflowSession", recorder: RunRecorder) -> StopEvent:
        dbg = session.dbg
        for _ in range(_MAX_DRIVE_STOPS):
            ev = dbg.run() if not dbg.runtime.loaded else dbg.cont()
            if recorder.divergence is not None:
                raise ReplayDivergenceError(recorder.divergence)
            if recorder.landed is not None:
                ev, recorder.landed = recorder.landed, None
                return ev
            if ev.kind == StopKind.REPLAY:
                return ev
            if ev.kind in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
                raise ReplayError(
                    f"replay ended ({ev.kind.value}: {ev.message}) before "
                    f"reaching the target position"
                )
        raise ReplayError("replay exceeded the stop budget without reaching the target")

    def _adopt(self, new_session: "DataflowSession", recorder: RunRecorder) -> None:
        """Hand the debugging session over to the replayed machine,
        parking the abandoned one as a resident snapshot (the original
        live machine — whose journal *is* the master — just detaches)."""
        old = self.session
        old.hand_over(new_session)
        old_rec = old.tap.recorder
        if old_rec is not None and old_rec is not recorder:
            if old_rec.journal is self.master:
                old_rec.detach()
            else:
                self._park(old, old_rec, self._landing)
        self.session = new_session
        self.recorder = recorder
        recorder.fork_hook = self._on_fork

    def _on_fork(self) -> None:
        """A new alteration in a replayed past: the current journal becomes
        the master timeline and recording continues live.  Every parked
        resident was verified against the abandoned future — invalidate."""
        if self.recorder is not None:
            self.master = self.recorder.journal
        self.mode = "record"
        self._clear_pool()
        self._seeded = False
        self.last_restore = None
        self._last_hop_kind = None

    # ---------------------------------------------------------------- info

    def info(self) -> List[str]:
        lines = [f"record/replay: {self.mode}"]
        lines.append(f"  builder: {'registered' if self.builder else 'not registered'}")
        lines.append(f"  checkpoint interval: {self.interval} dispatches")
        master = self.master
        if master is None:
            lines.append("  journal: (none)")
            return lines
        df_stops = sum(1 for s in master.stops if s.kind == StopKind.DATAFLOW.value)
        lines.append(
            f"  journal: {master.total_events} event(s), "
            f"{len(master.checkpoints)} checkpoint(s), "
            f"{len(master.stops)} stop(s) ({df_stops} dataflow), "
            f"{len(master.alterations)} alteration(s)"
        )
        if master.segments is not None:
            lines.append(f"  segments: {master.segments.describe()}")
        if self.snapshot_every:
            lines.append(
                f"  deep snapshots: {len(master.state_snapshots)} recorded "
                f"(every {self.snapshot_every} checkpoint(s))"
            )
        else:
            lines.append("  deep snapshots: off")
        if self.pool_limit:
            parked = sorted(r.position for r in self.pool)
            at = f" @ event(s) {', '.join(str(p) for p in parked)}" if parked else ""
            lines.append(
                f"  resident snapshots: {len(self.pool)} of {self.pool_limit} parked{at}"
            )
        else:
            lines.append("  resident snapshots: off")
        if self.last_restore is not None:
            src, target, tail = self.last_restore
            if self._last_hop_kind == "resident":
                how = f"restored resident @event {src}"
            elif self._last_hop_kind == "forward":
                how = f"drove current machine from event #{src}"
            else:
                how = "rebuilt from start"
            lines.append(
                f"  last hop: to event #{target}, {how}, "
                f"{tail} event(s) re-executed"
            )
        lines.append(f"  tokens recorded: {len(master.token_stream())}")
        if self.position is not None:
            lines.append(f"  position: event #{self.position} of {master.total_events}")
            cp = master.nearest_checkpoint(self.position)
            if cp is not None:
                lines.append(f"  nearest {cp.describe()}")
        rec = self.recorder
        if rec is not None and not rec.detached and rec.reference is not None:
            lines.append(
                f"  self-check: {rec.events_compared} event(s), "
                f"{rec.checkpoints_verified} checkpoint(s) and "
                f"{rec.snapshots_verified} deep snapshot(s) verified identical"
            )
        return lines
