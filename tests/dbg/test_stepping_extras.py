"""Stepping across invocations, loops and actors."""

from repro.dbg import StopKind

from .util import LINE_READ_CMD, LINE_READ_INPUT, LINE_SET_DATA, make_session


def test_step_sequence_through_whole_work_method():
    dbg, *_ = make_session([1])
    dbg.break_source(f"the_source.c:{LINE_READ_CMD}", temporary=True,
                     actor="AModule.filter_1")
    dbg.run()
    lines = [dbg.last_stop.line]
    for _ in range(4):
        ev = dbg.step()
        if ev.kind != StopKind.STEP:
            break
        lines.append(ev.line)
    assert lines == [3, 4, 5, 6, 7]


def test_step_over_work_boundary_continues_to_next_invocation():
    """Stepping past the last statement of work() stops when the
    activation returns to the framework (tests/dbg/test_frame_exit.py
    pins where), never crashes."""
    dbg, *_ = make_session([1, 2])
    dbg.break_source("the_source.c:7", temporary=True, actor="AModule.filter_1")
    dbg.run()
    ev = dbg.step()  # executes the push, leaves the frame
    assert ev.kind in (StopKind.STEP, StopKind.EXITED)
    if ev.kind == StopKind.STEP:
        assert ev.actor == "AModule.filter_1"


def test_step_in_loop_stops_each_iteration():
    from repro.cminus.typesys import U32
    from repro.dbg import Debugger
    from repro.p2012.soc import P2012Platform, PlatformConfig
    from repro.pedf import ControllerDecl, FilterDecl, ModuleDecl, ProgramDecl
    from repro.pedf.runtime import PedfRuntime
    from repro.sim import Scheduler

    src = """\
void work() {
    U32 s = 0;
    for (U32 i = 0; i < 3; i++) {
        s += pedf.io.i[0];
    }
    pedf.io.o[0] = s;
}
"""
    program = ProgramDecl(name="p")
    mod = ModuleDecl(name="m")
    mod.set_controller(ControllerDecl(
        name="controller", max_steps=1,
        source="void work() { ACTOR_FIRE(f); WAIT_FOR_ACTOR_SYNC(); }"))
    f = FilterDecl(name="f", source=src, source_name="loop.c")
    f.add_iface("i", "input", U32)
    f.add_iface("o", "output", U32)
    mod.add_filter(f)
    mod.add_iface("min_", "input", U32)
    mod.add_iface("mout", "output", U32)
    mod.bind("this", "min_", "f", "i")
    mod.bind("f", "o", "this", "mout")
    program.add_module(mod)
    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=1, pes_per_cluster=4))
    runtime = PedfRuntime(sched, platform, program)
    runtime.add_source("s", "m", "min_", [5])
    sink = runtime.add_sink("k", "m", "mout", expect=1)
    dbg = Debugger(sched, runtime)
    dbg.break_source("loop.c:4", temporary=True)
    dbg.run()
    visited = [dbg.last_stop.line]
    for _ in range(5):
        ev = dbg.step()
        if ev.kind != StopKind.STEP:
            break
        visited.append(ev.line)
    # body line 4 and for-header line 3 alternate; the same body token is
    # re-read from the io window each iteration (no blocking)
    assert visited[:4] == [4, 3, 4, 3]
    dbg.cont()
    assert sink.values == [15]


def test_stepping_is_confined_to_selected_actor():
    """While stepping filter_1, filter_2's statements never trigger the
    step stop (though its execution proceeds)."""
    dbg, *_ = make_session([1, 2])
    dbg.break_source(f"the_source.c:{LINE_READ_INPUT}", actor="AModule.filter_1")
    dbg.run()
    for _ in range(3):
        ev = dbg.step()
        if ev.kind == StopKind.STEP:
            assert ev.actor == "AModule.filter_1"
    # clean up: disable bp, run to end
    for bp in list(dbg.breakpoints.visible()):
        bp.enabled = False
    ev = dbg.cont()
    assert ev.kind == StopKind.EXITED
