"""The package-level convenience API (`repro.build_debug_session`)."""

import pytest

from repro import build_debug_session
from repro.dbg import StopKind

ADL = """
@Filter
primitive Inc {
    source inc.c;
    input U32 as i;
    output U32 as o;
}
@Module
composite M {
    contains as controller { source ctl.c; maxsteps 2; }
    contains Inc as inc;
    input U32 as min_;
    output U32 as mout;
    binds this.min_ to inc.i;
    binds inc.o to this.mout;
}
"""
SOURCES = {
    "inc.c": "void work() { pedf.io.o[0] = pedf.io.i[0] + 1; }",
    "ctl.c": "void work() { ACTOR_FIRE(inc); WAIT_FOR_ACTOR_SYNC(); }",
}


def test_build_debug_session_from_adl_text():
    dbg, cli, session, runtime = build_debug_session(ADL, SOURCES)
    runtime.add_source("s", "M", "min_", [1, 2])
    sink = runtime.add_sink("k", "M", "mout", expect=2)
    ev = dbg.run()
    assert ev.kind == StopKind.DATAFLOW  # stop_on_init default True
    assert session.model.program_name
    cli.execute("filter inc catch work")
    ev = dbg.cont()
    assert "WORK method of filter `inc'" in ev.message
    cli.execute("delete 1")
    ev = dbg.cont()
    assert ev.kind == StopKind.EXITED
    assert sink.values == [2, 3]


def test_print_in_filter_code_lands_in_the_console():
    sources = dict(SOURCES, **{"inc.c": "void work() { U32 v = pedf.io.i[0]; print(v); "
                                        "pedf.io.o[0] = v + 1; }"})
    dbg, cli, session, runtime = build_debug_session(ADL, sources, stop_on_init=False)
    runtime.add_source("s", "M", "min_", [1, 2])
    runtime.add_sink("k", "M", "mout", expect=2)
    assert dbg.run().kind == StopKind.EXITED
    assert runtime.console == ["[M.inc] 1", "[M.inc] 2"]


def test_build_debug_session_from_program_decl():
    from repro.apps.amodule import build_amodule_program

    program = build_amodule_program(max_steps=1)
    dbg, cli, session, runtime = build_debug_session(program, stop_on_init=False)
    runtime.add_source("s", "AModule", "module_in", [4])
    sink = runtime.add_sink("k", "AModule", "module_out", expect=1)
    ev = dbg.run()
    assert ev.kind == StopKind.EXITED
    assert sink.values == [(4 * 2 + 1) * 2 + 1]


def test_info_platform_works_on_component_runtime():
    """`info platform` is model-agnostic: it also reports the assembly's
    resource placement."""
    from repro.ccm import AssemblyDecl, AssemblyRuntime, ComponentDecl
    from repro.dbg import CommandCli, Debugger
    from repro.p2012.soc import P2012Platform, PlatformConfig
    from repro.sim import Scheduler

    asm = AssemblyDecl(name="a")
    asm.add_component(ComponentDecl(
        name="echo", provides=["e"], source="U32 serve_e(U32 x) { return x; }"))
    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=1, pes_per_cluster=4))
    runtime = AssemblyRuntime(sched, platform, asm)
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    out = cli.execute("info platform")
    assert any("ccm.echo" in line for line in out)
