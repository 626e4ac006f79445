"""Runtime-information capture through function breakpoints (paper §V).

"Our runtime-information capture mechanism relies on internal function
breakpoints set at the entry and exit points of the programming-model
related functions exported by the dataflow framework. [...] Each time the
breakpoint is triggered, a specific action is executed to update the
internal representations."

Every subscription below is an *internal* :class:`ApiBreakpoint` whose
``stop`` action updates the :class:`~repro.core.model.DataflowModel` and
then consults the dataflow catchpoints; it returns ``False`` (keep
running) unless a catchpoint matches, in which case it returns a
paper-transcript-style :class:`StopEvent`.

Overhead control (§V): the *data-exchange* breakpoints (push/pop) are the
expensive ones.  ``set_data_mode`` switches between:

- ``"all"`` — capture every token movement (full fidelity);
- ``"control-only"`` — only controller-side pushes/pops remain hooked
  ("control tokens do not rely on the same breakpoints, so they can still
  be used");
- ``"none"`` — no data-exchange breakpoints at all;
- an explicit actor list — the *framework cooperation* optimisation: the
  framework exposes actor-specific locations, so only the actors of
  interest trap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Union

from ..dbg.stop import StopEvent, StopKind
from ..errors import DataflowDebugError
from ..pedf.api import (
    SYM_ACTOR_START,
    SYM_BIND,
    SYM_POP,
    SYM_PUSH,
    SYM_REGISTER_ACTOR,
    SYM_REGISTER_IFACE,
    SYM_REGISTER_MODULE,
    SYM_REGISTER_PROGRAM,
    SYM_SET_PRED,
    SYM_STEP_BEGIN,
    SYM_STEP_END,
    SYM_WORK_ENTER,
    SYM_WORK_EXIT,
    FrameworkEvent,
)
from .catchpoints import DataflowCatchpoint
from .model import DataflowModel, DbgActor, DbgConnection, DbgLink, DbgToken

if TYPE_CHECKING:  # pragma: no cover
    from .session import DataflowSession

DataMode = Union[str, Sequence[str]]


class EventCapture:
    def __init__(self, session: "DataflowSession"):
        self.session = session
        self.dbg = session.dbg
        self.model: DataflowModel = session.model
        self.data_mode: DataMode = "all"
        self._data_bps: List = []
        #: resolved actor qualnames of an explicit-list data mode
        self._mode_actors: set = set()
        self.events_processed = 0
        self.data_events_processed = 0

    # ------------------------------------------------------------- install

    def install(self) -> None:
        """Plant the always-on capture breakpoints + the data-mode ones."""
        bp = self.dbg.break_api
        # graph reconstruction (Contribution #1)
        bp(SYM_REGISTER_PROGRAM, phase="both", internal=True, stop_fn=self._on_register_program)
        bp(SYM_REGISTER_MODULE, phase="entry", internal=True, stop_fn=self._on_register_module)
        bp(SYM_REGISTER_ACTOR, phase="entry", internal=True, stop_fn=self._on_register_actor)
        bp(SYM_REGISTER_IFACE, phase="entry", internal=True, stop_fn=self._on_register_iface)
        bp(SYM_BIND, phase="entry", internal=True, stop_fn=self._on_bind)
        # scheduling monitoring (Contribution #2)
        bp(SYM_ACTOR_START, phase="entry", internal=True, stop_fn=self._on_actor_start)
        bp(SYM_STEP_BEGIN, phase="entry", internal=True, stop_fn=self._on_step_begin)
        bp(SYM_STEP_END, phase="exit", internal=True, stop_fn=self._on_step_end)
        bp(SYM_WORK_ENTER, phase="entry", internal=True, stop_fn=self._on_work_enter)
        bp(SYM_WORK_EXIT, phase="exit", internal=True, stop_fn=self._on_work_exit)
        bp(SYM_SET_PRED, phase="entry", internal=True, stop_fn=self._on_set_pred)
        # execution-flow monitoring (Contribution #3)
        self._install_data_bps()

    def _install_data_bps(self) -> None:
        mode = self.data_mode
        if mode == "none":
            return
        if mode == "all":
            self._add_data_bp(actor=None)
            return
        if mode == "control-only":
            for actor in self.model.actors.values():
                if actor.kind == "controller":
                    self._add_data_bp(actor=actor.qualname)
            if not self.model.actors:
                # before init, fall back to runtime knowledge of controllers
                for module in self.dbg.runtime.modules.values():
                    if module.controller is not None:
                        self._add_data_bp(actor=module.controller.qualname)
            return
        # explicit actor list — framework cooperation (§V option 2)
        for name in mode:
            qual = self.dbg.runtime.find_actor(name).qualname
            self._mode_actors.add(qual)
            self._add_data_bp(actor=qual)

    def _add_data_bp(self, actor: Optional[str]) -> None:
        self._data_bps.append(
            self.dbg.break_api(SYM_PUSH, phase="exit", actor=actor, internal=True,
                               stop_fn=self._on_push_exit)
        )
        self._data_bps.append(
            self.dbg.break_api(SYM_POP, phase="exit", actor=actor, internal=True,
                               stop_fn=self._on_pop_exit)
        )

    def set_data_mode(self, mode: DataMode) -> None:
        """Re-plant the data-exchange breakpoints for a new overhead mode."""
        if isinstance(mode, str) and mode not in ("all", "none", "control-only"):
            raise DataflowDebugError(
                f"bad data-capture mode {mode!r} (all/none/control-only or an actor list)"
            )
        for bp in self._data_bps:
            if not bp.deleted:
                self.dbg.breakpoints.remove(bp.id)
        self._data_bps = []
        self._mode_actors = set()
        self.data_mode = mode
        self._install_data_bps()

    def observes_actor(self, qualname: str) -> bool:
        """True when push/pop events of this actor are captured under the
        current data mode — the §V-narrowing test used by execution
        alteration to keep the model mirror honest."""
        mode = self.data_mode
        if mode == "all":
            return True
        if mode == "none":
            return False
        if mode == "control-only":
            actor = self.model.actors.get(qualname)
            if actor is not None:
                return actor.kind == "controller"
            try:
                return self.dbg.runtime.find_actor(qualname).kind == "controller"
            except Exception:
                return False
        return qualname in self._mode_actors

    # ---------------------------------------------------------- catch logic

    def _catchpoints(self) -> Iterable[DataflowCatchpoint]:
        # indexed by category: no scan over source/function/api breakpoints
        return self.dbg.breakpoints.catchpoints()

    def _stop_if(self, message: Optional[str], cp: DataflowCatchpoint,
                 event: FrameworkEvent) -> Union[bool, StopEvent]:
        if message is None:
            return False
        if not cp.register_hit():
            return False
        if cp.temporary:
            self.dbg.breakpoints.remove(cp.id)
        return StopEvent(
            StopKind.DATAFLOW, message=message, actor=event.actor, bp_id=cp.id, payload=event
        )

    # ------------------------------------------------- registration handlers

    def _on_register_program(self, event: FrameworkEvent) -> bool:
        self.events_processed += 1
        if event.phase == "entry":
            self.model.program_name = event.args["program"]
        else:
            self.model.initialized = True
            dbg = self.session.dbg
            if self.session.stop_on_init and not dbg.init_stop_taken:
                dbg.init_stop_taken = True
                return StopEvent(  # type: ignore[return-value]
                    StopKind.DATAFLOW,
                    message=f"[Dataflow graph of `{self.model.program_name}' reconstructed: "
                    f"{len(self.model.actors)} actors, {len(self.model.links)} links]",
                )
        return False

    def _on_register_module(self, event: FrameworkEvent) -> bool:
        self.events_processed += 1
        self.model.modules.append(event.args["module"])
        return False

    def _on_register_actor(self, event: FrameworkEvent) -> bool:
        self.events_processed += 1
        args = event.args
        qualname = f"{args['module']}.{args['name']}"
        self.model.add_actor(
            DbgActor(
                name=args["name"],
                qualname=qualname,
                module=args["module"],
                kind=args["kind"],
                resource=args.get("resource", ""),
                work_symbol=args.get("work_symbol", ""),
                source_file=args.get("source", ""),
            )
        )
        return False

    def _on_register_iface(self, event: FrameworkEvent) -> bool:
        self.events_processed += 1
        args = event.args
        actor = self.model.actors.get(args["actor"])
        if actor is None:
            return False
        conn = DbgConnection(
            actor=actor,
            name=args["iface"],
            direction=args["direction"],
            ctype_name=args.get("ctype", "?"),
        )
        if conn.direction == "input":
            actor.inbound[conn.name] = conn
        else:
            actor.outbound[conn.name] = conn
        return False

    def _on_bind(self, event: FrameworkEvent) -> bool:
        self.events_processed += 1
        args = event.args
        src_actor = self.model.actors.get(args["src_actor"])
        dst_actor = self.model.actors.get(args["dst_actor"])
        if src_actor is None or dst_actor is None:
            return False
        src = src_actor.outbound.get(args["src_iface"])
        dst = dst_actor.inbound.get(args["dst_iface"])
        if src is None or dst is None:
            return False
        self.model.add_link(
            DbgLink(
                src=src,
                dst=dst,
                kind=args.get("kind", "data"),
                capacity=args.get("capacity", 0),
                memory=args.get("memory", ""),
                dma=bool(args.get("dma", False)),
            )
        )
        return False

    # --------------------------------------------------- scheduling handlers

    def _on_actor_start(self, event: FrameworkEvent) -> Union[bool, StopEvent]:
        self.events_processed += 1
        target = self.model.actors.get(event.args["actor"])
        if target is None:
            return False
        target.starts_seen += 1
        if target.sched_state in ("not-scheduled", "finished"):
            target.sched_state = "scheduled"
        for cp in self._catchpoints():
            res = self._stop_if(cp.check_actor_start(target), cp, event)
            if res:
                return res
        return False

    def _on_step_begin(self, event: FrameworkEvent) -> Union[bool, StopEvent]:
        self.events_processed += 1
        controller = event.args["controller"]
        step = event.args["step"]
        self.model.steps[controller] = step
        for cp in self._catchpoints():
            res = self._stop_if(cp.check_step(controller, "begin", step), cp, event)
            if res:
                return res
        return False

    def _on_step_end(self, event: FrameworkEvent) -> Union[bool, StopEvent]:
        self.events_processed += 1
        controller = event.args["controller"]
        step = event.args["step"]
        for cp in self._catchpoints():
            res = self._stop_if(cp.check_step(controller, "end", step), cp, event)
            if res:
                return res
        return False

    def _on_work_enter(self, event: FrameworkEvent) -> Union[bool, StopEvent]:
        self.events_processed += 1
        actor = self.model.actors.get(event.args["actor"])
        if actor is None:
            return False
        actor.works_begun += 1
        actor.sched_state = "running"
        actor.consumed_this_work = []
        actor.produced_this_work = 0
        for cp in self._catchpoints():
            res = self._stop_if(cp.check_work_enter(actor), cp, event)
            if res:
                return res
        return False

    def _on_work_exit(self, event: FrameworkEvent) -> bool:
        self.events_processed += 1
        actor = self.model.actors.get(event.args["actor"])
        if actor is None:
            return False
        actor.works_done += 1
        actor.sched_state = "finished"
        return False

    def _on_set_pred(self, event: FrameworkEvent) -> Union[bool, StopEvent]:
        self.events_processed += 1
        args = event.args
        self.model.predicates.setdefault(args["module"], {})[args["name"]] = args["value"]
        for cp in self._catchpoints():
            res = self._stop_if(
                cp.check_pred(args["module"], args["name"], args["value"]), cp, event
            )
            if res:
                return res
        return False

    # --------------------------------------------------------- data handlers

    def _on_push_exit(self, event: FrameworkEvent) -> Union[bool, StopEvent]:
        self.events_processed += 1
        self.data_events_processed += 1
        rt_token = event.retval
        actor = self.model.actors.get(event.args["actor"])
        if actor is None or rt_token is None:
            return False
        conn = actor.outbound.get(event.args["iface"])
        if conn is None:
            return False
        token = DbgToken(
            seq=rt_token.seq,
            value=rt_token.value,
            ctype_name=str(rt_token.ctype),
            src_actor=actor.name,
            dst_actor=conn.link.dst.actor.name if conn.link else "?",
            src_iface=conn.qualname,
            dst_iface=conn.link.dst.qualname if conn.link else "?",
            pushed_at=event.time,
            parents=self._parents_for(actor),
            producer_state=self._state_snapshot(actor),
        )
        conn.pushed += 1
        actor.produced_this_work += 1
        actor.last_token_out = token
        if conn.link is not None:
            conn.link.in_flight.append(token)
            conn.link.total_pushed += 1
        self.session.records.on_push(conn, token)
        self.session.on_data_event()
        for cp in self._catchpoints():
            res = self._stop_if(cp.check_push(conn, token), cp, event)
            if res:
                return res
        return False

    def _on_pop_exit(self, event: FrameworkEvent) -> Union[bool, StopEvent]:
        self.events_processed += 1
        self.data_events_processed += 1
        rt_token = event.retval
        actor = self.model.actors.get(event.args["actor"])
        if actor is None or rt_token is None:
            return False
        conn = actor.inbound.get(event.args["iface"])
        if conn is None:
            return False
        token = None
        if conn.link is not None:
            conn.link.total_popped += 1
            for i, t in enumerate(conn.link.in_flight):
                if t.seq == rt_token.seq:
                    token = conn.link.in_flight.pop(i)
                    break
        if token is None:
            # pushed while data capture was narrowed, or injected by the
            # debugger: reconstruct what we can from the runtime token
            token = DbgToken(
                seq=rt_token.seq,
                value=rt_token.value,
                ctype_name=str(rt_token.ctype),
                src_actor=rt_token.src_iface.split("::", 1)[0],
                dst_actor=actor.name,
                src_iface=rt_token.src_iface,
                dst_iface=conn.qualname,
                pushed_at=rt_token.produced_at,
                injected=rt_token.src_iface == "<debugger>",
            )
        token.popped_at = event.time
        token.consumed_by = actor.name
        conn.popped += 1
        if actor.outbound:  # only _parents_for reads it, and a sink never enters WORK
            actor.consumed_this_work.append(token)
        actor.last_token_in = token
        self.session.records.on_pop(conn, token)
        self.session.on_data_event()
        for cp in self._catchpoints():
            res = self._stop_if(cp.check_pop(conn, token), cp, event)
            if res:
                return res
        return False

    def _state_snapshot(self, producer: DbgActor) -> Optional[dict]:
        """Snapshot the producer's private data + attributes at push time
        (only for filters with state recording enabled)."""
        if producer.qualname not in self.session.state_recorded:
            return None
        try:
            inst = self.dbg.runtime.find_actor(producer.qualname)
        except Exception:
            return None
        from ..cminus.values import format_value

        snap = {}
        for name, slot in getattr(inst, "data_store", {}).items():
            snap[f"data.{name}"] = format_value(slot.ctype, slot.data)
        for name, value in getattr(inst, "attributes", {}).items():
            snap[f"attribute.{name}"] = str(value)
        return snap

    def _parents_for(self, producer: DbgActor) -> List[DbgToken]:
        """Provenance by declared communication behaviour (§VI-D: the
        developer supplies it, e.g. ``filter red configure splitter``)."""
        consumed = producer.consumed_this_work
        if not consumed:
            return []
        behavior = producer.behavior
        if behavior == "splitter":
            return [consumed[0]]
        if behavior == "joiner":
            return list(consumed)
        if behavior == "map":
            idx = producer.produced_this_work
            return [consumed[idx] if idx < len(consumed) else consumed[-1]]
        return [consumed[-1]]
