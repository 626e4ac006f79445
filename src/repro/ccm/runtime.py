"""Component assembly runtime.

Duck-types the runtime surface :class:`~repro.dbg.debugger.Debugger`
expects (``all_actors``/``find_actor``/``merged_debug_info``/``set_hook``/
``load``/``classify_stop``/``bus``/``decl``), so the *unmodified* base
debugger drives component applications — the "generic code base" claim of
the paper's conclusion, made executable.

Service requests are synchronous: ``CALL(req, arg)`` enqueues a request
to the bound provider and blocks for the response.  Every request flows
through the ``ccm_rt_request`` API symbol (entry at issue, exit at
response — a function/finish breakpoint pair), the provider side through
``ccm_rt_serve``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..cminus.debuginfo import DebugInfo
from ..cminus.interp import CostModel, Environment, Interpreter
from ..cminus.parser import parse_program
from ..cminus.sema import ActorContext, analyze
from ..cminus.typesys import STRING, U32
from ..errors import CMinusRuntimeError
from ..p2012.soc import P2012Platform
from ..pedf.api import FrameworkAPI, FrameworkEventBus
from ..sim.channels import Fifo
from ..sim.kernel import Scheduler, StopKind, StopReason
from .decls import AssemblyDecl, CcmError, ComponentDecl, mangle_helper_prefix, mangle_service_symbol

SYM_CCM_REGISTER = "ccm_rt_register_component"
SYM_CCM_REGISTER_IFACE = "ccm_rt_register_iface"
SYM_CCM_BIND = "ccm_rt_bind"
SYM_CCM_REBIND = "ccm_rt_rebind"
SYM_CCM_REQUEST = "ccm_rt_request"
SYM_CCM_SERVE = "ccm_rt_serve"


@dataclass
class Request:
    req_id: int
    client: str  # qualified component name (or "<external>")
    service: str
    arg: int
    reply: Fifo


class _ComponentEnv(Environment):
    def __init__(self, comp: "ComponentInst"):
        self.comp = comp

    def intrinsic(self, name, args):
        if name == "CALL":
            return (yield from self.comp.call_required(str(args[0]), int(args[1])))
        raise CMinusRuntimeError(f"unknown intrinsic {name}()")

    def print_out(self, text: str) -> None:
        self.comp.printed.append(text)
        self.comp.runtime.console.append(f"[{self.comp.qualname}] {text}")


class ComponentInst:
    """One live component (duck-types the actor surface the CLI shows)."""

    kind = "component"

    def __init__(self, decl: ComponentDecl, runtime: "AssemblyRuntime", resource):
        self.decl = decl
        self.runtime = runtime
        self.resource = resource
        resource.occupant = self
        self.name = decl.name
        self.module = None
        self.inbox = Fifo(runtime.scheduler, capacity=0, name=f"{self.qualname}.inbox")
        self.printed: List[str] = []
        self.process = None
        self.busy = False  # serving a request right now
        self.served = 0
        self.requests_made = 0
        self.env = _ComponentEnv(self)
        self.interp = Interpreter(
            decl.cprogram,
            decl.debug_info,
            env=self.env,
            cost=CostModel(default_stmt=resource.cycles_per_stmt),
            name=self.qualname,
        )

    @property
    def qualname(self) -> str:
        return f"ccm.{self.name}"

    def current_line(self) -> Optional[int]:
        if self.interp.frame is not None:
            return self.interp.frame.line
        return None

    @property
    def blocked(self) -> bool:
        from ..sim.process import ProcessState

        return self.process is not None and self.process.state == ProcessState.WAITING

    # ------------------------------------------------------------ behaviour

    def body(self):
        api = self.runtime.api
        while True:
            req: Request = yield from self.inbox.get()
            self.busy = True
            args = {
                "component": self.qualname,
                "service": req.service,
                "client": req.client,
                "request_id": req.req_id,
                "arg": req.arg,
            }

            def impl(req=req):
                symbol = self.decl.service_symbols[req.service]
                result = yield from self.interp.run_function(symbol, [req.arg])
                yield from req.reply.put(result)
                return result

            yield from api.call(SYM_CCM_SERVE, args, impl=impl(), actor=self.qualname)
            self.served += 1
            self.busy = False

    def call_required(self, required: str, arg: int):
        """Coroutine backing the CALL intrinsic."""
        runtime = self.runtime
        target = runtime.bindings.get((self.name, required))
        if target is None:
            raise CMinusRuntimeError(f"{self.qualname}: required interface {required!r} unbound")
        provider_name, service = target
        provider = runtime.components[provider_name]
        req = Request(
            req_id=runtime.next_req_id(),
            client=self.qualname,
            service=service,
            arg=arg,
            reply=Fifo(runtime.scheduler, capacity=0, name=f"reply{id(self)}"),
        )
        self.requests_made += 1
        args = {
            "client": self.qualname,
            "required": required,
            "provider": provider.qualname,
            "service": service,
            "request_id": req.req_id,
            "arg": arg,
        }

        def impl():
            yield from provider.inbox.put(req)
            result = yield from req.reply.get()
            return result

        return (
            yield from runtime.api.call(SYM_CCM_REQUEST, args, impl=impl(), actor=self.qualname)
        )


class _DeclShim:
    """Minimal ``runtime.decl`` surface the base debugger touches."""

    def __init__(self, name: str):
        self.name = name
        self.structs: Dict[str, Any] = {}


class AssemblyRuntime:
    """Elaborated component assembly, debuggable by ``repro.dbg``."""

    def __init__(self, scheduler: Scheduler, platform: P2012Platform, assembly: AssemblyDecl):
        self.scheduler = scheduler
        self.platform = platform
        self.assembly = assembly
        self.decl = _DeclShim(assembly.name)
        self.bus = FrameworkEventBus()
        self.api = FrameworkAPI(self.bus, scheduler)
        self.console: List[str] = []
        self.loaded = False
        self._req_ids = itertools.count(1)
        self._hook = None
        self.bindings: Dict[Tuple[str, str], Tuple[str, str]] = dict(assembly.bindings)
        self.components: Dict[str, ComponentInst] = {}

        self._compile_all()
        assembly.validate()
        for decl in assembly.components.values():
            pe = platform.allocate_pe()
            self.components[decl.name] = ComponentInst(decl, self, pe)

    # ---------------------------------------------------------- compilation

    def _compile_all(self) -> None:
        for decl in self.assembly.components.values():
            if decl.cprogram is not None:
                continue
            filename = decl.source_name or f"{decl.name}.c"
            decl.source_name = filename
            program = parse_program(decl.source, filename)
            mapping = {}
            prefix = mangle_helper_prefix(decl.name)
            for svc in decl.provides:
                if program.function(f"serve_{svc}") is None:
                    raise CcmError(f"component {decl.name}: no serve_{svc}() in its source")
            for f in program.functions:
                if f.name.startswith("serve_") and f.name[6:] in decl.provides:
                    mapping[f.name] = mangle_service_symbol(decl.name, f.name[6:])
                else:
                    mapping[f.name] = prefix + f.name
            from ..pedf.compile import _rename_functions

            _rename_functions(program, mapping)
            ctx = ActorContext(kind="component")
            ctx.extra_intrinsics["CALL"] = (U32, (STRING, U32), set(decl.requires))
            decl.debug_info = analyze(program, ctx, decl.source)
            decl.cprogram = program
            decl.service_symbols = {
                svc: mangle_service_symbol(decl.name, svc) for svc in decl.provides
            }

    # ------------------------------------------------- debugger duck-typing

    def set_hook(self, hook) -> None:
        self._hook = hook
        for comp in self.components.values():
            comp.interp.hook = hook
            comp.interp.refresh_hook_caps()

    def all_actors(self) -> List[ComponentInst]:
        return list(self.components.values())

    def find_actor(self, name: str) -> ComponentInst:
        comp = self.components.get(name)
        if comp is None:
            matches = [c for c in self.components.values() if c.qualname == name]
            if not matches:
                raise CcmError(f"no component {name!r}")
            comp = matches[0]
        return comp

    def merged_debug_info(self) -> DebugInfo:
        info = DebugInfo()
        for decl in self.assembly.components.values():
            if decl.debug_info is not None:
                info.merge(decl.debug_info)
        return info

    def classify_stop(self, stop: StopReason) -> str:
        if stop.kind == StopKind.EXHAUSTED:
            return "exited"
        if stop.kind == StopKind.DEADLOCK:
            busy = [c for c in self.components.values() if c.busy]
            return "deadlock" if busy else "exited"
        if stop.kind == StopKind.PROCESS_ERROR:
            return "error"
        return "running"

    # ------------------------------------------------------------ lifecycle

    def next_req_id(self) -> int:
        return next(self._req_ids)

    def load(self) -> None:
        if self.loaded:
            raise CcmError("assembly already loaded")
        self.loaded = True
        self.scheduler.spawn(self._init_body(), name="ccm.init", owner=self)

    def _init_body(self):
        def registrations():
            for comp in self.components.values():
                yield from self.api.call(
                    SYM_CCM_REGISTER,
                    {"component": comp.name, "resource": comp.resource.name,
                     "source": comp.decl.source_name},
                )
                for svc in comp.decl.provides:
                    yield from self.api.call(
                        SYM_CCM_REGISTER_IFACE,
                        {"component": comp.name, "iface": svc, "role": "provides"},
                    )
                for req in comp.decl.requires:
                    yield from self.api.call(
                        SYM_CCM_REGISTER_IFACE,
                        {"component": comp.name, "iface": req, "role": "requires"},
                    )
            for (client, required), (provider, provided) in sorted(self.bindings.items()):
                yield from self.api.call(
                    SYM_CCM_BIND,
                    {"client": client, "required": required,
                     "provider": provider, "provided": provided},
                )
            return 0

        yield from self.api.call(
            "ccm_rt_register_assembly", {"assembly": self.assembly.name}, impl=registrations()
        )
        for comp in self.components.values():
            comp.process = self.scheduler.spawn(comp.body(), name=comp.qualname, owner=comp)

    # --------------------------------------------------------- external use

    def invoke(self, component: str, service: str, arg: int) -> List[int]:
        """Issue an external request; the returned (initially empty) list
        receives the response once the scheduler runs."""
        comp = self.find_actor(component)
        if service not in comp.decl.provides:
            raise CcmError(f"{component} does not provide {service!r}")
        results: List[int] = []
        req = Request(
            req_id=self.next_req_id(),
            client="<external>",
            service=service,
            arg=arg,
            reply=Fifo(self.scheduler, capacity=0, name=f"extreply{self.next_req_id()}"),
        )

        args = {
            "client": "<external>",
            "required": "<invoke>",
            "provider": comp.qualname,
            "service": service,
            "request_id": req.req_id,
            "arg": arg,
        }

        def driver():
            def impl():
                yield from comp.inbox.put(req)
                return (yield from req.reply.get())

            result = yield from self.api.call(SYM_CCM_REQUEST, args, impl=impl())
            results.append(result)

        self.scheduler.spawn(driver(), name=f"ccm.invoke.{component}.{service}", owner=self)
        return results

    # ------------------------------------------------ dynamic architecture

    def rebind(self, client: str, required: str, provider: str, provided: str) -> None:
        """Change a binding at runtime (the §VII-B dynamic-architecture
        property dataflow applications lack)."""
        client_decl = self.assembly.components.get(client)
        if client_decl is None or required not in client_decl.requires:
            raise CcmError(f"{client!r} does not require {required!r}")
        provider_decl = self.assembly.components.get(provider)
        if provider_decl is None or provided not in provider_decl.provides:
            raise CcmError(f"{provider!r} does not provide {provided!r}")
        old = self.bindings.get((client, required))
        self.bindings[(client, required)] = (provider, provided)
        from ..pedf.api import FrameworkEvent

        self.bus.emit(FrameworkEvent(
            "entry", SYM_CCM_REBIND,
            {"client": client, "required": required, "provider": provider,
             "provided": provided, "previous": old},
            time=self.scheduler.now,
        ))
