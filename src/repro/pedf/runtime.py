"""Elaboration and execution of a PEDF program on a P2012 platform.

``PedfRuntime`` turns a :class:`~repro.pedf.decls.ProgramDecl` into live
actors, maps them onto platform resources, resolves bindings into links,
and (once the scheduler runs) replays the whole architecture through the
framework API as *registration events* — the init phase from which the
paper's debugger dynamically reconstructs the dataflow graph
(Contribution #1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cminus.debuginfo import DebugInfo
from ..cminus.interp import VALID_TIERS, CostModel, DebugHook, Interpreter
from ..cminus.typesys import CType
from ..cminus.values import Raw
from ..cminus.vm.compiler import vm_unit
from ..errors import PedfError
from ..p2012.soc import LinkCost, P2012Platform
from ..sim.channels import Fifo
from ..sim.kernel import Scheduler, StopKind, StopReason
from .actors import ActorInst, ActorState, ControllerInst, FilterInst, ModuleInst
from .api import (
    SYM_BIND,
    SYM_REGISTER_ACTOR,
    SYM_REGISTER_IFACE,
    SYM_REGISTER_MODULE,
    SYM_REGISTER_PROGRAM,
    FrameworkAPI,
    FrameworkEventBus,
)
from .compile import compile_program
from .decls import EndpointRef, IfaceDecl, ModuleDecl, ProgramDecl
from .envs import ActorEnv, ControllerEnv
from .links import IfaceInst, LinkInst
from .stdactors import SinkActor, SourceActor


@dataclass
class RuntimeConfig:
    default_capacity: int = 16
    control_capacity: int = 8
    #: overrides every controller's own max_steps when set (safety bound)
    max_steps: Optional[int] = None
    #: Filter-C execution tier: "auto" runs the register-machine bytecode
    #: tier, debugger hooks included ("vm" is an alias of "auto"); "slow"
    #: forces the tree-walking interpreter everywhere.  On any tier but
    #: "slow", a program with a function the bytecode compiler cannot
    #: lower is refused when its interpreters are built
    #: (:class:`~repro.errors.CMinusLoweringError`)
    interp_tier: str = "auto"


class PedfRuntime:
    """One elaborated PEDF application."""

    def __init__(
        self,
        scheduler: Scheduler,
        platform: P2012Platform,
        program: ProgramDecl,
        config: Optional[RuntimeConfig] = None,
        shard=None,  # Optional[repro.sim.sharding.ShardContext]
    ):
        self.scheduler = scheduler
        self.platform = platform
        self.decl = program
        self.config = config or RuntimeConfig()
        if self.config.interp_tier not in VALID_TIERS:
            raise PedfError(
                f"unknown interpreter tier {self.config.interp_tier!r} "
                f"(choose from {', '.join(VALID_TIERS)})"
            )
        self.bus = FrameworkEventBus()
        self.api = FrameworkAPI(self.bus, scheduler)
        self.console: List[str] = []
        self._next_seq = 1
        self.loaded = False
        #: when set, only the units this shard owns elaborate; links the
        #: plan cuts become proxy links wired to cross-shard channels
        self.shard = shard

        compile_program(program)
        program.validate()

        self.modules: Dict[str, ModuleInst] = {}
        self.links: List[LinkInst] = []
        self.sources: List[SourceActor] = []
        self.sinks: List[SinkActor] = []
        # (module, ext iface) -> inner actor iface endpoint
        self._ext_alias: Dict[Tuple[str, str], IfaceInst] = {}
        #: remote endpoints this shard references, keyed by qualname
        self.proxy_actors: Dict[str, "ProxyActor"] = {}
        self._hook: Optional[DebugHook] = None

        self._elaborate_modules()
        self._resolve_bindings()

    def _is_local(self, unit: str) -> bool:
        """Does this runtime elaborate ``unit`` (module or host actor)?"""
        return self.shard is None or self.shard.owns(unit)

    # ------------------------------------------------------------- plumbing

    def next_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def seq_state(self) -> int:
        """The next token seq number that :meth:`next_seq` would hand out.

        Part of the record/replay checkpoint digest: two runs that agree on
        ``seq_state`` at the same dispatch count have produced exactly the
        same number of tokens.
        """
        return self._next_seq

    def restore_seq(self, next_seq: int) -> None:
        self._next_seq = next_seq

    def capture_state(self, include_frames: bool = False) -> Dict[str, object]:
        """Deterministic runtime-side deep-state capture (the runtime's
        contribution to a :class:`~repro.sim.snapshot.MachineState`).

        Everything is reduced to canonical tuples — link queues as
        ``(seq, canonical payload text)``, actor data stores as
        ``(name, canonical text)`` — so two runs that agree at the same
        dispatch boundary produce *equal* captures regardless of payload
        object identity.  ``include_frames`` additionally captures each
        busy actor's interpreter frames; that part is tier-variant (see
        :meth:`~repro.cminus.interp.Interpreter.capture_frames`) and must
        stay out of anything compared across interpreter tiers.
        """
        from ..sim.sharding.merge import stable_value_text

        links = tuple(
            (link.name, tuple((t.seq, stable_value_text(t.value)) for t in link.tokens()))
            for link in self.links
        )
        actors = []
        data = []
        frames = []
        for actor in self.all_actors():
            qn = actor.qualname
            state = getattr(actor, "state", None)
            actors.append(
                (
                    qn,
                    state.value if state is not None else "",
                    getattr(actor, "works_begun", 0),
                    getattr(actor, "works_done", 0),
                    getattr(actor, "step_no", 0),
                )
            )
            store = getattr(actor, "data_store", None)
            if store:
                data.append(
                    (qn, tuple((n, stable_value_text(v.data)) for n, v in store.items()))
                )
            if include_frames:
                interp = getattr(actor, "interp", None)
                if interp is not None:
                    captured = interp.capture_frames()
                    if captured:
                        frames.append((qn, captured))
        predicates = tuple(
            (mod.name, tuple(sorted(mod.predicates.items())))
            for mod in self.modules.values()
        )
        return {
            "next_seq": self._next_seq,
            "links": links,
            "actors": tuple(actors),
            "data": tuple(data),
            "predicates": predicates,
            "frames": tuple(frames),
        }

    def set_hook(self, hook: Optional[DebugHook]) -> None:
        """Attach a debugger hook to every actor interpreter."""
        self._hook = hook
        for actor in self.all_actors():
            interp = getattr(actor, "interp", None)
            if interp is not None:
                interp.hook = hook
                interp.refresh_hook_caps()

    # ----------------------------------------------------------- elaboration

    def _module_cluster(self, index: int, mdecl: ModuleDecl) -> int:
        return mdecl.cluster if mdecl.cluster is not None else index % len(self.platform.clusters)

    def _elaborate_modules(self) -> None:
        for i, mdecl in enumerate(self.decl.modules.values()):
            if not self._is_local(mdecl.name):
                continue  # lives on another shard; the index keeps the
                # cluster assignment identical to a single-kernel run
            module = ModuleInst(mdecl, self)
            cluster = self._module_cluster(i, mdecl)
            ctl_pe = self.platform.allocate_pe(cluster)
            controller = ControllerInst(mdecl.controller, module, self, ctl_pe)
            if self.config.max_steps is not None:
                if controller.max_steps is None or controller.max_steps > self.config.max_steps:
                    controller.max_steps = self.config.max_steps
            module.controller = controller
            for fdecl in mdecl.filters.values():
                if fdecl.hw_accel:
                    resource = self.platform.allocate_accelerator(
                        f"{mdecl.name}.{fdecl.name}.hw", cluster
                    )
                else:
                    resource = self.platform.allocate_pe(cluster)
                module.filters[fdecl.name] = FilterInst(fdecl, module, self, resource)
            self.modules[mdecl.name] = module
            self._build_interpreters(module)

    def _build_interpreters(self, module: ModuleInst) -> None:
        for actor in module.actors():
            env = ControllerEnv(actor) if isinstance(actor, ControllerInst) else ActorEnv(actor)
            actor.env = env
            actor.interp = Interpreter(
                actor.decl.cprogram,
                actor.decl.debug_info,
                env=env,
                hook=self._hook,
                cost=CostModel(default_stmt=actor.resource.cycles_per_stmt),
                name=actor.qualname,
            )
            actor.interp.tier = self.config.interp_tier
            if actor.interp.tier != "slow":
                vm_unit(actor.decl.cprogram).require_complete()

    def _resolve_bindings(self) -> None:
        # pass 1: record module-external aliases
        for module in self.modules.values():
            for b in module.decl.bindings:
                if b.src.actor == "this":
                    consumer = self._actor_iface(module, b.dst)
                    self._ext_alias[(module.name, b.src.iface)] = consumer
                elif b.dst.actor == "this":
                    producer = self._actor_iface(module, b.src)
                    self._ext_alias[(module.name, b.dst.iface)] = producer
        # pass 2: intra-module actor-to-actor links
        for module in self.modules.values():
            for b in module.decl.bindings:
                if b.src.actor == "this" or b.dst.actor == "this":
                    continue
                src = self._actor_iface(module, b.src)
                dst = self._actor_iface(module, b.dst)
                self._make_link(src, dst, b.capacity, b.dma)
        # pass 3: program-level module-to-module links
        for b in self.decl.bindings:
            src_local = self._is_local(b.src.actor)
            dst_local = self._is_local(b.dst.actor)
            if not src_local and not dst_local:
                continue  # entirely on other shards
            src = self._ext_alias.get((b.src.actor, b.src.iface)) if src_local else None
            dst = self._ext_alias.get((b.dst.actor, b.dst.iface)) if dst_local else None
            if src_local and dst_local:
                if src is None or dst is None:
                    raise PedfError(
                        f"binding {b}: module interface not aliased to an inner actor"
                    )
                self._make_link(src, dst, b.capacity, b.dma)
            elif src_local:
                if src is None:
                    raise PedfError(
                        f"binding {b}: module interface not aliased to an inner actor"
                    )
                proxy = self._remote_module_iface(b.dst.actor, b.dst.iface, "input", src.ctype)
                self._make_cross_link(src, proxy, b.capacity, b.dma)
            else:
                if dst is None:
                    raise PedfError(
                        f"binding {b}: module interface not aliased to an inner actor"
                    )
                proxy = self._remote_module_iface(b.src.actor, b.src.iface, "output", dst.ctype)
                self._make_cross_link(proxy, dst, b.capacity, b.dma)

    def _actor_iface(self, module: ModuleInst, ref: EndpointRef) -> IfaceInst:
        actor: Optional[ActorInst]
        if module.controller is not None and ref.actor == module.controller.name:
            actor = module.controller
        else:
            actor = module.filters.get(ref.actor)
        if actor is None:
            raise PedfError(f"module {module.name}: unknown actor {ref.actor!r}")
        inst = actor.ifaces.get(ref.iface)
        if inst is None:
            raise PedfError(f"{actor.qualname}: no interface {ref.iface!r}")
        return inst

    def _make_link(
        self,
        src: IfaceInst,
        dst: IfaceInst,
        capacity: Optional[int],
        dma: Optional[bool],
    ) -> LinkInst:
        if src.direction != "output":
            raise PedfError(f"link source {src.qualname} is not an output")
        if dst.direction != "input":
            raise PedfError(f"link target {dst.qualname} is not an input")
        kind = "control" if (src.actor.kind == "controller" or dst.actor.kind == "controller") else "data"
        if capacity is None:
            capacity = (
                self.config.control_capacity if kind == "control" else self.config.default_capacity
            )
        cost = self.platform.link_cost(src.actor.resource, dst.actor.resource)
        if dma is True and cost.dma is None:
            cost = LinkCost(cost.memory, cost.push_cycles, cost.pop_cycles, self.platform.next_dma())
        elif dma is False and cost.dma is not None:
            cost = LinkCost(cost.memory, cost.push_cycles, cost.pop_cycles, None)
        name = f"{src.qualname}->{dst.qualname}"
        fifo = Fifo(self.scheduler, capacity=capacity, name=name)
        link = LinkInst(name, fifo, src.ctype, kind, cost, capacity)
        src.bind(link)
        dst.bind(link)
        self.links.append(link)
        return link

    # ---------------------------------------------------- cross-shard links

    def _proxy_actor(self, module: str, name: str, kind: str):
        from .proxies import ProxyActor

        qualname = f"{module}.{name}"
        proxy = self.proxy_actors.get(qualname)
        if proxy is None:
            unit = name if module == "host" else module
            proxy = ProxyActor(module, name, kind, self.shard.plan.shard_of(unit))
            self.proxy_actors[qualname] = proxy
        return proxy

    def _remote_module_iface(self, module: str, ext_iface: str, direction: str, ctype):
        """Proxy endpoint for a remote module's external interface,
        resolved to the inner actor straight from the declaration — so
        the link *name* matches the single-kernel elaboration exactly."""
        from ..sim.sharding.plan import decl_actor_kind, decl_ext_endpoint
        from .proxies import ProxyIface

        inner = decl_ext_endpoint(self.decl, module, ext_iface)
        kind = decl_actor_kind(self.decl, module, inner.actor)
        proxy = self._proxy_actor(module, inner.actor, kind)
        iface = proxy.ifaces.get(inner.iface)
        if iface is None:
            iface = ProxyIface(proxy, inner.iface, direction, ctype)
        return iface

    def _remote_host_iface(self, name: str, kind: str, direction: str, ctype):
        """Proxy endpoint for a remote test-bench source or sink."""
        from .proxies import ProxyIface

        proxy = self._proxy_actor("host", name, kind)
        iface_name = "out" if direction == "output" else "in"
        iface = proxy.ifaces.get(iface_name)
        if iface is None:
            iface = ProxyIface(proxy, iface_name, direction, ctype)
        return iface

    def _cross_cost(self, local_iface, remote_unit: str, dma: Optional[bool]) -> LinkCost:
        """Mirror :meth:`P2012Platform.link_cost` with the remote endpoint
        represented by a stand-in resource of its declared placement.
        Every shard builds the full platform, so the cost — and with it
        the link's memory level and DMA assistance — matches the
        single-kernel elaboration."""
        if remote_unit.startswith("host:"):
            remote_res = self.platform.host
        else:
            cluster = None
            for i, (name, mdecl) in enumerate(self.decl.modules.items()):
                if name == remote_unit:
                    cluster = self._module_cluster(i, mdecl)
                    break
            if cluster is None:
                raise PedfError(f"unknown remote unit {remote_unit!r}")
            remote_res = self.platform.clusters[cluster].pes[0]
        cost = self.platform.link_cost(local_iface.actor.resource, remote_res)
        if dma is True and cost.dma is None:
            cost = LinkCost(cost.memory, cost.push_cycles, cost.pop_cycles, self.platform.next_dma())
        elif dma is False and cost.dma is not None:
            cost = LinkCost(cost.memory, cost.push_cycles, cost.pop_cycles, None)
        return cost

    def _make_cross_link(
        self,
        src,
        dst,
        capacity: Optional[int],
        dma: Optional[bool],
        remote_unit: Optional[str] = None,
    ) -> LinkInst:
        """Elaborate one *cut* link: a normal local link (single-kernel
        name and capacity) with a proxy at the remote end, plus a pump
        wiring its FIFO to the shared cross-shard channel."""
        from .proxies import ProxyIface

        src_is_proxy = isinstance(src, ProxyIface)
        dst_is_proxy = isinstance(dst, ProxyIface)
        if src_is_proxy == dst_is_proxy:
            raise PedfError("cross link needs exactly one proxy endpoint")
        local = dst if src_is_proxy else src
        remote = src if src_is_proxy else dst
        if remote_unit is None:
            remote_unit = (
                f"host:{remote.actor.name}" if remote.actor.module == "host" else remote.actor.module
            )

        local_kind = getattr(local.actor, "kind", "host")
        kind = "control" if "controller" in (local_kind, remote.actor.kind) else "data"
        if capacity is None:
            capacity = (
                self.config.control_capacity if kind == "control" else self.config.default_capacity
            )
        cost = self._cross_cost(local, remote_unit, dma)
        name = f"{src.qualname}->{dst.qualname}"
        fifo = Fifo(self.scheduler, capacity=capacity, name=name)
        link = LinkInst(name, fifo, local.ctype, kind, cost, capacity)
        local.bind(link)
        if src_is_proxy:
            link.src = src
            src.link = link
        else:
            link.dst = dst
            dst.link = link
        self.links.append(link)

        channel = self.shard.channel(name, capacity)
        if src_is_proxy:  # tokens arrive from the remote producer
            channel.attach_consumer(self.scheduler, self.shard.shard_id)
            self.shard.ingress.append((link, channel))
        else:  # tokens leave towards the remote consumer
            channel.attach_producer(self.scheduler, self.shard.shard_id)
            self.shard.egress.append((link, channel))
        return link

    # ----------------------------------------------------------- test bench

    def add_source(
        self,
        name: str,
        module: str,
        ext_iface: str,
        values: Sequence[Raw],
        period: int = 0,
        capacity: Optional[int] = None,
    ) -> SourceActor:
        """Attach a host-side source feeding a module's external input.

        Shard-aware: on a sharded runtime the source elaborates only on
        its own shard (cut feeds become proxy links); returns ``None``
        when this shard hosts neither the source nor the module."""
        if self.loaded:
            raise PedfError("cannot add sources after load()")
        mdecl = self.decl.modules[module].ifaces.get(ext_iface)
        if mdecl is None or mdecl.direction != "input":
            raise PedfError(f"{module}.{ext_iface} is not a module input")
        src_local = self._is_local(name)
        mod_local = self._is_local(module)
        if not src_local and not mod_local:
            return None
        if src_local and not mod_local:
            source = SourceActor(name, self, mdecl.ctype, values, period)
            proxy = self._remote_module_iface(module, ext_iface, "input", mdecl.ctype)
            self._make_cross_link(source.out, proxy, capacity, None)
            self.sources.append(source)
            return source
        target = self._ext_alias.get((module, ext_iface))
        if target is None:
            raise PedfError(f"no external interface {module}.{ext_iface}")
        if mod_local and not src_local:
            proxy = self._remote_host_iface(name, "source", "output", mdecl.ctype)
            self._make_cross_link(proxy, target, capacity, None, remote_unit=f"host:{name}")
            return None
        source = SourceActor(name, self, mdecl.ctype, values, period)
        self._make_link(source.out, target, capacity, None)
        self.sources.append(source)
        return source

    def add_sink(
        self,
        name: str,
        module: str,
        ext_iface: str,
        expect: Optional[int] = None,
        capacity: Optional[int] = None,
    ) -> SinkActor:
        """Attach a host-side sink draining a module's external output.

        Shard-aware like :meth:`add_source`; returns ``None`` when this
        shard hosts neither endpoint."""
        if self.loaded:
            raise PedfError("cannot add sinks after load()")
        mdecl = self.decl.modules[module].ifaces.get(ext_iface)
        if mdecl is None or mdecl.direction != "output":
            raise PedfError(f"{module}.{ext_iface} is not a module output")
        sink_local = self._is_local(name)
        mod_local = self._is_local(module)
        if not sink_local and not mod_local:
            return None
        if sink_local and not mod_local:
            sink = SinkActor(name, self, mdecl.ctype, expect)
            proxy = self._remote_module_iface(module, ext_iface, "output", mdecl.ctype)
            self._make_cross_link(proxy, sink.inp, capacity, None)
            self.sinks.append(sink)
            return sink
        producer = self._ext_alias.get((module, ext_iface))
        if producer is None:
            raise PedfError(f"no external interface {module}.{ext_iface}")
        if mod_local and not sink_local:
            proxy = self._remote_host_iface(name, "sink", "input", mdecl.ctype)
            self._make_cross_link(producer, proxy, capacity, None, remote_unit=f"host:{name}")
            return None
        sink = SinkActor(name, self, mdecl.ctype, expect)
        self._make_link(producer, sink.inp, capacity, None)
        self.sinks.append(sink)
        return sink

    # ----------------------------------------------------------------- load

    def load(self) -> None:
        """Spawn the framework init process (and, from it, every actor)."""
        if self.loaded:
            raise PedfError("runtime already loaded")
        self.loaded = True
        self.scheduler.spawn(self._init_body(), name="pedf.init", owner=self)

    def _init_body(self):
        """Replays the architecture through the framework API — the
        'initialization phase' the debugger's graph reconstruction taps."""

        def registrations():
            for module in self.modules.values():
                yield from self.api.call(SYM_REGISTER_MODULE, {"module": module.name})
                for actor in module.actors():
                    yield from self.api.call(
                        SYM_REGISTER_ACTOR,
                        {
                            "module": module.name,
                            "name": actor.name,
                            "kind": actor.kind,
                            "resource": actor.resource.name,
                            "work_symbol": actor.work_symbol,
                            "source": actor.decl.source_name,
                        },
                    )
                    for iface in actor.ifaces.values():
                        yield from self.api.call(
                            SYM_REGISTER_IFACE,
                            {
                                "actor": actor.qualname,
                                "iface": iface.name,
                                "direction": iface.direction,
                                "ctype": str(iface.ctype),
                            },
                        )
            for host_actor in list(self.sources) + list(self.sinks):
                yield from self.api.call(
                    SYM_REGISTER_ACTOR,
                    {
                        "module": "host",
                        "name": host_actor.name,
                        "kind": host_actor.kind,
                        "resource": host_actor.resource.name,
                        "work_symbol": "",
                        "source": "",
                    },
                )
                for iface in host_actor.ifaces.values():
                    yield from self.api.call(
                        SYM_REGISTER_IFACE,
                        {
                            "actor": host_actor.qualname,
                            "iface": iface.name,
                            "direction": iface.direction,
                            "ctype": str(iface.ctype),
                        },
                    )
            # remote endpoints register like local actors so the graph
            # reconstruction resolves every BIND — each shard's model
            # shows the full neighbourhood of its cut
            for proxy in self.proxy_actors.values():
                yield from self.api.call(
                    SYM_REGISTER_ACTOR,
                    {
                        "module": proxy.module,
                        "name": proxy.name,
                        "kind": proxy.kind,
                        "resource": proxy.resource.name,
                        "work_symbol": "",
                        "source": "",
                    },
                )
                for iface in proxy.ifaces.values():
                    yield from self.api.call(
                        SYM_REGISTER_IFACE,
                        {
                            "actor": proxy.qualname,
                            "iface": iface.name,
                            "direction": iface.direction,
                            "ctype": str(iface.ctype),
                        },
                    )
            for link in self.links:
                yield from self.api.call(
                    SYM_BIND,
                    {
                        "src_actor": link.src.actor.qualname if link.src else "",
                        "src_iface": link.src.name if link.src else "",
                        "dst_actor": link.dst.actor.qualname if link.dst else "",
                        "dst_iface": link.dst.name if link.dst else "",
                        "kind": link.kind,
                        "capacity": link.capacity,
                        "memory": link.cost.memory.level.value,
                        "dma": link.dma_assisted,
                    },
                )
            return 0

        yield from self.api.call(
            SYM_REGISTER_PROGRAM, {"program": self.decl.name}, impl=registrations()
        )
        self._spawn_actor_processes()

    def _spawn_actor_processes(self) -> None:
        for module in self.modules.values():
            for actor in module.actors():
                actor.process = self.scheduler.spawn(
                    actor.body(), name=actor.qualname, owner=actor
                )
        for host_actor in list(self.sources) + list(self.sinks):
            host_actor.process = self.scheduler.spawn(
                host_actor.body(), name=host_actor.qualname, owner=host_actor
            )
        if self.shard is not None:
            from ..sim.sharding.channel import egress_pump, ingress_pump

            for link, channel in self.shard.egress:
                self.scheduler.spawn(
                    egress_pump(self.scheduler, link.fifo, channel),
                    name=f"xshard.out@{link.name}",
                )
            for link, channel in self.shard.ingress:
                self.scheduler.spawn(
                    ingress_pump(self.scheduler, link.fifo, channel),
                    name=f"xshard.in@{link.name}",
                )

    # -------------------------------------------------------------- queries

    def all_actors(self) -> List[ActorInst]:
        out: List[ActorInst] = []
        for module in self.modules.values():
            out.extend(module.actors())
        out.extend(self.sources)
        out.extend(self.sinks)
        return out

    def find_actor(self, name: str):
        """Resolve a short (``ipf``) or qualified (``pred.ipf``) name."""
        matches = [a for a in self.all_actors() if a.qualname == name]
        if not matches:
            matches = [a for a in self.all_actors() if a.name == name]
        if not matches:
            raise PedfError(f"no actor named {name!r}")
        if len(matches) > 1:
            quals = ", ".join(a.qualname for a in matches)
            raise PedfError(f"actor name {name!r} is ambiguous: {quals}")
        return matches[0]

    def find_iface(self, spec: str) -> IfaceInst:
        """Resolve ``actor::iface`` (the paper's display syntax)."""
        if "::" not in spec:
            raise PedfError(f"bad interface spec {spec!r} (expected actor::iface)")
        actor_name, iface_name = spec.split("::", 1)
        actor = self.find_actor(actor_name)
        iface = actor.ifaces.get(iface_name)
        if iface is None:
            known = ", ".join(sorted(actor.ifaces))
            raise PedfError(f"{actor.qualname} has no interface {iface_name!r} (known: {known})")
        return iface

    def merged_debug_info(self) -> DebugInfo:
        info = DebugInfo()
        for module in self.modules.values():
            for actor in module.actors():
                if actor.decl.debug_info is not None:
                    info.merge(actor.decl.debug_info)
        return info

    # ------------------------------------------------------------ lifecycle

    def is_quiescent(self) -> bool:
        """True when every controller finished and no filter is mid-WORK —
        i.e. a DEADLOCK stop from the kernel actually means 'program
        exited' (sinks may still be waiting for tokens that will never
        come; that is normal)."""
        for module in self.modules.values():
            ctl = module.controller
            if ctl is not None and ctl.process is not None and ctl.process.alive:
                return False
            for filt in module.filters.values():
                if filt.state == ActorState.RUNNING:
                    return False
        return True

    def classify_stop(self, stop: StopReason) -> str:
        """Map a kernel stop to an application-level outcome:
        'exited' | 'deadlock' | 'running' | 'error'."""
        if stop.kind == StopKind.EXHAUSTED:
            return "exited"
        if stop.kind == StopKind.DEADLOCK:
            return "exited" if self.is_quiescent() else "deadlock"
        if stop.kind == StopKind.PROCESS_ERROR:
            return "error"
        return "running"
