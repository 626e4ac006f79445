"""The dataflow debugging session — the paper's contribution, assembled.

``DataflowSession`` attaches to a :class:`~repro.dbg.debugger.Debugger`,
plants the capture breakpoints, reconstructs the graph during the
framework's init phase, and exposes every §III functionality:

- stopping: ``catch_work`` / ``catch_tokens`` / ``catch_iface`` /
  ``catch_schedule`` / ``catch_step``;
- step-by-step over the graph: :meth:`step_both`;
- inspection: :meth:`graph_dot`, :meth:`token_path` (``info
  last_token``), :meth:`filter_state`, token recording;
- alteration: :attr:`alter` (insert / drop / poke);
- two-level: everything in :mod:`repro.dbg` remains available; and the
  CLI gains the dataflow commands (:mod:`repro.core.commands`).

Overhead control (§V) is :meth:`set_data_capture`; graph refresh policy
(§IV-A realtime-vs-on-stop) is :meth:`set_graph_update`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..cminus.typesys import CType, type_by_name
from ..dbg.debugger import Debugger
from ..dbg.eval import format_typed
from ..errors import DataflowDebugError
from .alteration import Alteration
from .capture import DataMode, EventCapture
from .catchpoints import (
    IfaceEventCatch,
    LinkFullCatch,
    PredCatch,
    ScheduleCatch,
    StepCatch,
    TokenCountCatch,
    WorkCatch,
)
from .dot import render_dot
from .model import DataflowModel, DbgActor, DbgConnection
from .record import TokenRecorder
from .replay import ReplayManager
from .tap import EventTail, EventTap

BEHAVIORS = ("default", "splitter", "joiner", "map")


class DataflowSession:
    def __init__(
        self,
        debugger: Debugger,
        stop_on_init: bool = False,
        graph_update: str = "on-stop",
        install_commands: bool = True,
        cli=None,
    ):
        self.dbg = debugger
        self.cli = cli
        self.model = DataflowModel()
        self.records = TokenRecorder()
        self.alter = Alteration(self)
        #: the session's one ``"*"`` bus subscription and event history:
        #: it feeds the recorder and RV, telemetry and the event-journal
        #: tail read from it
        self.tap = EventTap(self)
        #: the ``dataflow events`` tail (off until ``enable_event_journal``)
        self.event_tail = EventTail(self.tap)
        self.replay = ReplayManager(self)
        from ..obs.telemetry import Telemetry

        #: continuous observability (spans/metrics/trace export) — off
        #: until ``telemetry.enable()`` / the ``trace on`` command
        self.telemetry = Telemetry(self)
        from ..obs.flight import FlightRecorder

        #: always-on bounded flight recorder: rings of recent spans and
        #: per-stop metric deltas, auto-dumping a post-mortem bundle on
        #: violation/error/deadlock stops
        self.flight = FlightRecorder(self)
        from ..obs.prof import Profiler

        #: attributed profiler (cycles → actor/function/tier call tree)
        #: — off until ``prof.enable()`` / the ``prof on`` command
        self.prof = Profiler(self)
        from ..rv.checks import Checks

        #: runtime-verification checks (declarative dataflow properties
        #: with online monitors) — off until the first ``check add``
        self.checks = Checks(self)
        #: the ShardedRun coordinating this session, when execution is
        #: sharded (set by core.shards.ShardedRun); None otherwise
        self.sharding = None
        #: filters whose data/attribute state is snapshotted into every
        #: token they push (enabled via ``filter X record state``)
        self.state_recorded: set = set()
        self.stop_on_init = stop_on_init
        self.set_graph_update(graph_update)
        self.last_graph: str = ""
        self.graph_renders = 0
        self.capture = EventCapture(self)
        self.capture.install()
        if install_commands and cli is not None:
            from .commands import install_dataflow_commands

            install_dataflow_commands(cli, self)
        # re-render the graph on stops when in on-stop mode
        debugger.stop_callbacks.append(self._on_stop)

    # ----------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Let reference counting alone free this session: detach the
        recorder and the resident machines, and cut every reference back
        to it — its stop callback, each part's ``session`` and the CLI's
        dataflow handler (which the command service reads) — so it sits
        on no reference cycle."""
        self.replay.close()
        self.dbg.stop_callbacks.remove(self._on_stop)
        for part in list(vars(self).values()):
            if getattr(part, "session", None) is self:
                part.session = None
        handler = getattr(self.cli, "dataflow_handler", None)
        if handler is not None and handler.session is self:
            handler.session = None

    def _on_stop(self, ev) -> None:
        if self.graph_update == "on-stop" and self.model.initialized:
            self.refresh_graph()

    def _shard_plan(self):
        return self.sharding.plan if self.sharding is not None else None

    def refresh_graph(self) -> str:
        self.last_graph = render_dot(self.model, shard_plan=self._shard_plan())
        self.graph_renders += 1
        return self.last_graph

    def graph_dot(self, include_counts: bool = True) -> str:
        """Render the reconstructed graph (Fig. 2 / Fig. 4 artefact).

        When telemetry has collected anything, nodes and edges carry
        metric annotations (firings, busy/blocked, peak/avg occupancy);
        in a sharded run, actors are coloured by shard assignment and cut
        links are drawn dashed."""
        return render_dot(
            self.model,
            include_counts=include_counts,
            metrics=self.telemetry.metrics,
            shard_plan=self._shard_plan(),
        )

    def set_graph_update(self, mode: str) -> None:
        if mode not in ("realtime", "on-stop"):
            raise DataflowDebugError(
                f"bad graph update mode {mode!r} (use realtime or on-stop)"
            )
        self.graph_update = mode

    def on_data_event(self) -> None:
        """Called by capture on every token movement (realtime mode)."""
        if self.graph_update == "realtime":
            self.refresh_graph()

    # -------------------------------------------------------- event journal

    def enable_event_journal(self, limit: int = 2000) -> None:
        """Keep a chronological tail of framework events (the trace-tool
        complement to interactive stops), the newest ``limit`` of them.
        Off by default.  The tail is a view of the session's history:
        its records are read when it is, never appended per event."""
        self.event_tail.enable(limit)

    def disable_event_journal(self) -> None:
        self.event_tail.close()

    @property
    def journal(self):
        """The event tail's records, up to date (None until enabled)."""
        return self.event_tail.read()

    def journal_tail(self, count: int = 20) -> List[str]:
        journal = self.journal
        if journal is None:
            raise DataflowDebugError("event journal is off (dataflow events on)")
        items = list(journal)
        return [ev.describe() for ev in (items[-count:] if count else items)]

    # ------------------------------------------------------------ overhead

    def set_data_capture(self, mode: DataMode) -> None:
        """§V overhead mitigation: 'all' | 'none' | 'control-only' | [actors]."""
        self.capture.set_data_mode(mode)

    # ------------------------------------------------------- record/replay

    def notify_alteration(
        self,
        kind: str,
        conn_spec: str,
        value_text: Optional[str] = None,
        index: Optional[int] = None,
    ) -> None:
        """Journal an execution alteration so replay re-applies it at the
        same event position (no-op unless recording is on)."""
        self.replay.notify_alteration(kind, conn_spec, value_text, index)

    # --------------------------------------------------------- catchpoints

    def catch_work(self, filter_name: str, temporary: bool = False) -> WorkCatch:
        actor = self.model.find_actor(filter_name)
        cp = WorkCatch(actor.qualname, actor.name, temporary=temporary)
        self.dbg.breakpoints.add(cp)
        return cp

    def catch_tokens(
        self, filter_name: str, requirements: Dict[str, int], temporary: bool = False
    ) -> TokenCountCatch:
        """``filter X catch IF=N,IF2=M``; ``{"*": n}`` = all inbound
        interfaces (the paper's ``catch *in=1``)."""
        actor = self.model.find_actor(filter_name)
        resolved: Dict[str, int] = {}
        for iface, count in requirements.items():
            if iface in ("*", "*in"):
                if not actor.inbound:
                    raise DataflowDebugError(f"filter {actor.name!r} has no inbound interfaces")
                for name in actor.inbound:
                    resolved[name] = count
            else:
                conn = actor.connection(iface)
                if conn.direction != "input":
                    raise DataflowDebugError(
                        f"{conn.qualname} is an output interface; token-count catch needs inputs"
                    )
                resolved[iface] = count
        cp = TokenCountCatch(actor.qualname, actor.name, resolved, temporary=temporary)
        self.dbg.breakpoints.add(cp)
        return cp

    def catch_iface(
        self,
        conn_spec: str,
        event: Optional[str] = None,
        condition: Optional[str] = None,
        src_actor: Optional[str] = None,
        dst_actor: Optional[str] = None,
        temporary: bool = False,
    ) -> IfaceEventCatch:
        """Stop on a token passing a given interface, optionally filtered
        by a payload condition and/or the token's source/destination."""
        conn = self.model.find_connection(conn_spec)
        if event is None:
            event = "pop" if conn.direction == "input" else "push"
        if src_actor is not None:
            src_actor = self.model.find_actor(src_actor).name
        if dst_actor is not None:
            dst_actor = self.model.find_actor(dst_actor).name
        cp = IfaceEventCatch(
            conn.qualname, event, condition_text=condition,
            src_actor=src_actor, dst_actor=dst_actor, temporary=temporary,
        )
        self.dbg.breakpoints.add(cp)
        return cp

    def catch_schedule(self, filter_name: Optional[str] = None, temporary: bool = False) -> ScheduleCatch:
        if filter_name is None:
            cp = ScheduleCatch(None, temporary=temporary)
        else:
            actor = self.model.find_actor(filter_name)
            cp = ScheduleCatch(actor.qualname, actor.name, temporary=temporary)
        self.dbg.breakpoints.add(cp)
        return cp

    def catch_step(
        self, phase: str, controller: Optional[str] = None, temporary: bool = False
    ) -> StepCatch:
        qual = None
        if controller is not None:
            qual = self.model.find_actor(controller).qualname
        cp = StepCatch(phase, qual, temporary=temporary)
        self.dbg.breakpoints.add(cp)
        return cp

    def catch_link_full(self, conn_spec: str, temporary: bool = False) -> LinkFullCatch:
        """Stop the first time a bounded link fills up (rate-mismatch
        onset, before it snowballs into a deadlock)."""
        conn = self.model.find_connection(conn_spec)
        if conn.link is None:
            raise DataflowDebugError(f"{conn.qualname} is not bound to a link")
        if conn.link.capacity <= 0:
            raise DataflowDebugError(
                f"link of {conn.qualname} is unbounded; 'catch full' needs a capacity"
            )
        cp = LinkFullCatch(conn.qualname, temporary=temporary)
        self.dbg.breakpoints.add(cp)
        return cp

    def catch_pred(self, module: Optional[str] = None, temporary: bool = False) -> PredCatch:
        """Stop whenever a scheduling predicate changes."""
        cp = PredCatch(module, temporary=temporary)
        self.dbg.breakpoints.add(cp)
        return cp

    # ---------------------------------------------------------- step_both

    def step_both(self, iface: Optional[str] = None) -> List[str]:
        """§VI-C: at a dataflow assignment, break at *both ends* of the
        link, then continue.  Returns the insertion messages; the caller
        then inspects ``dbg.last_stop`` / issues ``continue`` for the
        second stop (their order is architecture-dependent)."""
        actor_inst = self.dbg.selected_actor
        if actor_inst is None:
            raise DataflowDebugError("step_both: no actor selected (stop inside a filter first)")
        actor = self.model.find_actor(actor_inst.qualname)
        if iface is None:
            iface = self._iface_on_current_line(actor_inst)
        conn = actor.connection(iface)
        if conn.direction != "output":
            raise DataflowDebugError(
                f"step_both: {conn.qualname} is not an output interface"
            )
        if conn.link is None:
            raise DataflowDebugError(f"step_both: {conn.qualname} is not bound")
        dst = conn.link.dst
        self.catch_iface(dst.qualname, event="pop", temporary=True)
        self.catch_iface(conn.qualname, event="push", temporary=True)
        return [
            f"[Temporary breakpoint inserted after input interface `{dst.qualname}']",
            f"[Temporary breakpoint inserted after output interface `{conn.qualname}`]",
        ]

    def _iface_on_current_line(self, actor_inst) -> str:
        """Find the ``pedf.io.<name>`` written on the current source line."""
        import re

        frame = actor_inst.interp.frame if actor_inst.interp else None
        if frame is None:
            raise DataflowDebugError("step_both: actor has no active frame")
        text = self.dbg.debug_info.source_line(frame.filename, frame.line) or ""
        m = re.search(r"pedf\.io\.([A-Za-z_][A-Za-z0-9_]*)\s*\[[^\]]*\]\s*=", text)
        if m is None:
            raise DataflowDebugError(
                f"step_both: no dataflow assignment found on {frame.filename}:{frame.line}; "
                "name the interface explicitly (step_both IFACE)"
            )
        return m.group(1)

    # ----------------------------------------------------- information flow

    def configure_behavior(self, filter_name: str, behavior: str) -> DbgActor:
        """``filter red configure splitter`` (§VI-D)."""
        if behavior not in BEHAVIORS:
            raise DataflowDebugError(
                f"unknown behaviour {behavior!r} (choose from {', '.join(BEHAVIORS)})"
            )
        actor = self.model.find_actor(filter_name)
        actor.behavior = behavior
        return actor

    def record_state(self, filter_name: str, enabled: bool = True) -> DbgActor:
        """§VI-D: also snapshot the producer's data/attribute state into
        every token it pushes, for richer provenance."""
        actor = self.model.find_actor(filter_name)
        if enabled:
            self.state_recorded.add(actor.qualname)
        else:
            self.state_recorded.discard(actor.qualname)
        return actor

    def token_path(self, filter_name: str, limit: int = 16) -> List[str]:
        """``filter pipe info last_token`` — walk the provenance chain::

            #1 red -> pipe (CbCrMB_t) {Add=0x145D,...}
            #2 bh -> red (U32) 127
        """
        actor = self.model.find_actor(filter_name)
        token = actor.last_token_in
        if token is None:
            raise DataflowDebugError(
                f"filter {actor.name!r} has not received any token yet "
                "(is data capture enabled for it?)"
            )
        lines: List[str] = []
        hop = 1
        while token is not None and hop <= limit:
            suffix = ""
            if len(token.parents) > 1:
                suffix = f"  (+{len(token.parents) - 1} more inputs)"
            lines.append(f"#{hop} {token.format_hop()}{suffix}")
            if token.producer_state:
                state = ", ".join(f"{k}={v}" for k, v in sorted(token.producer_state.items()))
                lines.append(f"     [{token.src_actor} state: {state}]")
            token = token.primary_parent
            hop += 1
        if token is not None:
            lines.append(f"... (provenance chain truncated at {limit} hops)")
        return lines

    def last_token_value(self, filter_name: Optional[str] = None) -> str:
        """``filter print last_token`` — records the payload into the
        value history so plain GDB `print $N` can dissect it (§VI-E)."""
        if filter_name is None:
            if self.dbg.selected_actor is None:
                raise DataflowDebugError("no actor selected")
            filter_name = self.dbg.selected_actor.qualname
        actor = self.model.find_actor(filter_name)
        token = actor.last_token_in
        if token is None:
            raise DataflowDebugError(f"filter {actor.name!r} has not received any token yet")
        ctype = self._resolve_ctype(token.ctype_name)
        index = self.dbg.history.record(ctype, token.value)
        return f"${index} = ({token.ctype_name}){token.format_payload()}"

    def _resolve_ctype(self, name: str) -> CType:
        builtin = type_by_name(name)
        if builtin is not None:
            return builtin
        struct = self.dbg.runtime.decl.structs.get(name) or self.dbg.debug_info.structs.get(name)
        if struct is not None:
            return struct
        from ..cminus.typesys import S32

        return S32

    # ----------------------------------------------------------- inspection

    def filter_state(self, filter_name: str) -> List[str]:
        """§III: per-actor state — scheduling state, current source line,
        whether it is blocked waiting for data."""
        actor = self.model.find_actor(filter_name)
        lines = [f"filter {actor.name} ({actor.qualname}) on {actor.resource}"]
        lines.append(
            f"  scheduling: {actor.sched_state} "
            f"(starts={actor.starts_seen}, begun={actor.works_begun}, done={actor.works_done})"
        )
        try:
            inst = self.dbg.runtime.find_actor(actor.qualname)
        except Exception:
            inst = None
        if inst is not None:
            line = inst.current_line()
            if line is not None and inst.interp is not None and inst.interp.frame is not None:
                lines.append(f"  executing: {inst.interp.frame.filename}:{line}")
            lines.append(f"  blocked waiting for data: {'yes' if inst.blocked else 'no'}")
        if actor.behavior != "default":
            lines.append(f"  behaviour: {actor.behavior}")
        ins = ", ".join(f"{c.name}({c.popped})" for c in actor.inbound.values()) or "-"
        outs = ", ".join(f"{c.name}({c.pushed})" for c in actor.outbound.values()) or "-"
        lines.append(f"  inbound: {ins}")
        lines.append(f"  outbound: {outs}")
        return lines

    def sched_status(self, module: Optional[str] = None) -> List[str]:
        """Contribution #2: which filters are ready / not scheduled /
        finished, plus controller step counters."""
        lines: List[str] = []
        for ctl, step in sorted(self.model.steps.items()):
            if module is not None and not ctl.startswith(module + "."):
                continue
            lines.append(f"controller {ctl}: step {step}")
        for actor in sorted(self.model.filters(module), key=lambda a: a.qualname):
            lines.append(
                f"  {actor.qualname}: {actor.sched_state} "
                f"(starts={actor.starts_seen}, done={actor.works_done})"
            )
        return lines or ["(no scheduling information captured yet)"]

    # ------------------------------------------------------------ predicates

    def predicates_report(self) -> List[str]:
        """Predicate values as captured from ``SET_PRED`` events, merged
        with the modules' initial values."""
        lines: List[str] = []
        for module in self.dbg.runtime.modules.values():
            current = dict(module.predicates)
            current.update(self.model.predicates.get(module.name, {}))
            for name, value in sorted(current.items()):
                lines.append(f"{module.name}.{name} = {'true' if value else 'false'}")
        return lines or ["(no scheduling predicates declared)"]

    def set_predicate(self, module: str, name: str, value: bool) -> None:
        """Debugger-side predicate override — altering the *scheduling*
        dimension of the execution (the predicated-execution counterpart
        of token injection)."""
        mod = self.dbg.runtime.modules.get(module)
        if mod is None:
            raise DataflowDebugError(f"no module {module!r}")
        mod.predicates[name] = bool(value)
        self.model.predicates.setdefault(module, {})[name] = bool(value)
        self.notify_alteration("set_pred", f"{module}.{name}", "true" if value else "false")

    def links_report(self) -> List[str]:
        lines = []
        for link in sorted(self.model.links, key=lambda l: l.name):
            flags = []
            if link.kind == "control":
                flags.append("ctrl")
            if link.dma:
                flags.append("dma")
            flag_text = f" [{','.join(flags)}]" if flags else ""
            dropped = f", dropped {link.total_dropped}" if link.total_dropped else ""
            lines.append(
                f"{link.name}{flag_text}: {link.occupancy} token(s) queued "
                f"(pushed {link.total_pushed}, popped {link.total_popped}{dropped})"
            )
        return lines or ["(no links reconstructed yet)"]

    def completion_names(self) -> List[str]:
        return self.model.completion_names()

    def demangle(self, symbol: str) -> str:
        """§VI-F: framework symbols are mangled (``IpfFilter_work_function``,
        ``_component_PredModule_anon_0_work``); map one back to the
        dataflow entity it belongs to."""
        for actor in self.model.actors.values():
            if not actor.work_symbol:
                continue
            if symbol == actor.work_symbol:
                return f"WORK method of {actor.kind} `{actor.qualname}'"
            prefix = actor.work_symbol.rsplit("_work", 1)[0]
            if symbol.startswith(prefix + "_") or (
                "_anon_0_" in actor.work_symbol
                and symbol.startswith(actor.work_symbol.rsplit("_", 1)[0] + "_")
            ):
                helper = symbol[len(prefix) + 1:] if symbol.startswith(prefix + "_") else symbol
                return f"helper `{helper}' of {actor.kind} `{actor.qualname}'"
        raise DataflowDebugError(f"symbol {symbol!r} does not belong to any known actor")
