"""The text forms (``str``/``repr``) a Python session, pdb or a log line
shows for the program's objects: each names the object it prints."""

from repro.apps.amodule import build_demo
from repro.apps.amodule.app import build_amodule_program
from repro.cminus.lexer import Lexer
from repro.cminus.typesys import U32
from repro.core import DataflowSession
from repro.dbg import CommandCli, Debugger, StopKind
from repro.pedf.proxies import ProxyActor, ProxyIface
from repro.sim import Scheduler


def _stopped_demo():
    """The amodule demo stopped at its first the_source.c:6 hit, with
    every token push event it has seen so far."""
    sched, platform, runtime, _source, _sink = build_demo([1, 2, 3])
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    session = DataflowSession(dbg, cli=cli)
    pushes = []
    runtime.bus.subscribe("pedf_rt_push", pushes.append, phase="exit")
    cli.execute("break the_source.c:6")
    stop = dbg.run()
    while stop.kind != StopKind.BREAKPOINT:
        stop = dbg.cont()
    return session, platform, runtime, stop, pushes


def test_debugger_objects_print_what_they_are():
    session, _platform, _runtime, stop, _pushes = _stopped_demo()
    dbg = session.dbg
    assert str(stop) == "Breakpoint 1, [AModule.filter_1] at the_source.c:6"
    assert str(dbg.current_frame()) == "#0 Filter1Filter_work_function () at the_source.c:6"
    assert str(dbg.breakpoints.get(1)) == "1\tsource\ty\tthe_source.c:6"
    assert str(dbg.debug_info.lookup_function("Filter1Filter_work_function")) == (
        "void Filter1Filter_work_function() at the_source.c:2"
    )
    assert str(next(Lexer("U32 x;").tokens())) == "keyword('U32')@1:1"
    assert repr(U32) == "<IntType U32>"


def test_model_objects_print_what_they_are():
    session, *_ = _stopped_demo()
    model = session.model
    actor = model.actors["AModule.filter_1"]
    assert str(actor).startswith("<DbgActor AModule.filter_1 (filter) ")
    link = next(link for link in model.links if link.in_flight)
    assert str(link).startswith(f"<DbgLink {link.name} [")
    assert str(link.src) == f"<Conn {link.src.qualname} output>"
    token = link.in_flight[0]
    assert str(token).startswith(f"#{token.seq} ({token.ctype_name}) ")


def test_platform_objects_print_what_they_are():
    _session, platform, *_ = _stopped_demo()
    assert str(platform) == "<P2012 2x4PE +host +2dma>"
    assert str(platform.clusters[0]) == "<Cluster 0: 4 PEs, 0 accels>"
    assert str(platform.dmas[0]) == "<DMA dma0 setup=24 perword=2>"
    assert str(platform.memories[0]) == "cluster0_l1(L1, 256KiB, r1/w1)"
    pe = platform.all_pes[0]
    assert str(pe).startswith(f"<ProcessingElement {pe.name}")


def test_runtime_objects_print_what_they_are():
    _session, _platform, runtime, _stop, pushes = _stopped_demo()
    controller = runtime.find_actor("AModule.controller")
    assert str(controller) == f"<ControllerInst AModule.controller {controller.state.value}>"
    assert repr(controller.state_event) == "<Event 'AModule.controller.state' waiters=0>"
    assert str(runtime.modules["AModule"]) == "<Module AModule: 2 filters>"
    link = runtime.links[0]
    assert str(link) == f"<Link {link.name} [{link.occupancy}/{link.capacity}] {link.kind}>"
    assert repr(link.fifo) == f"<Fifo {link.name!r} {link.occupancy}/{link.capacity}>"
    assert str(link.dst) == f"<Iface {link.dst.qualname} <- {link.name}>"
    assert str(link.src) == f"<Iface {link.src.qualname} -> {link.name}>"
    push = pushes[0]
    assert str(push).startswith(f"[{push.time}] exit pedf_rt_push@{push.actor}(")
    assert str(push.retval) == f"#{push.retval.seq} (U32) {push.retval.value}"
    process = runtime.scheduler.processes[0]
    assert str(process) == f"<Process 0 {process.name!r} {process.state.value}>"


def test_interface_and_binding_text():
    module = build_amodule_program(attribute=1, max_steps=3).modules["AModule"]
    binding = module.bindings[0]
    assert str(binding) == f"binds {binding.src} to {binding.dst}"
    assert str(binding.src) == f"{binding.src.actor}.{binding.src.iface}"


def test_scheduler_stop_reason_text():
    sched = Scheduler()
    reason = sched.run()
    assert str(reason) == f"<StopReason {reason.kind.value} t=0>"


def test_remote_endpoint_text():
    actor = ProxyActor("AModule", "filter_2", "filter", shard=1)
    iface = ProxyIface(actor, "an_input", "input", U32)
    assert repr(actor) == "<ProxyActor AModule.filter_2 @shard1>"
    assert repr(iface) == "<ProxyIface filter_2::an_input>"
    assert iface.full_qualname == "AModule.filter_2::an_input"
