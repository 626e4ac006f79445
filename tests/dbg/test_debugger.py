"""Run control, breakpoints, stepping, inspection."""

import pytest

from repro.dbg import Debugger, StopKind
from repro.errors import DebuggerError
from repro.pedf import SYM_PUSH

from .util import (
    CTL_WORK,
    LINE_COMPUTE,
    LINE_PUSH,
    LINE_READ_INPUT,
    LINE_SET_DATA,
    WORK_F1,
    make_session,
)


def test_run_to_exit_without_breakpoints():
    dbg, runtime, source, sink = make_session([1, 2])
    ev = dbg.run()
    assert ev.kind == StopKind.EXITED
    assert dbg.finished
    assert len(sink.values) == 2


def test_source_breakpoint_stops_and_resumes():
    dbg, runtime, _, sink = make_session([1, 2])
    bp = dbg.break_source(f"the_source.c:{LINE_READ_INPUT}")
    ev = dbg.run()
    assert ev.kind == StopKind.BREAKPOINT
    assert ev.bp_id == bp.id
    assert ev.line == LINE_READ_INPUT
    assert ev.actor == "AModule.filter_1"
    # filter_2 uses its own source file, so only filter_1 triggers
    ev = dbg.cont()
    assert ev.kind == StopKind.BREAKPOINT  # step 2, filter_1 again
    ev = dbg.cont()
    assert ev.kind == StopKind.EXITED
    assert len(sink.values) == 2
    assert bp.hit_count == 2


def test_breakpoint_snaps_to_next_executable_line():
    dbg, *_ = make_session()
    bp = dbg.break_source("the_source.c:1")  # comment line
    assert bp.line >= 3


def test_breakpoint_invalid_location():
    dbg, *_ = make_session()
    with pytest.raises(DebuggerError):
        dbg.break_source("nowhere.c:10")
    with pytest.raises(DebuggerError):
        dbg.break_source("the_source.c:9999")


def test_conditional_breakpoint():
    dbg, _, _, sink = make_session([5, 6, 7])
    dbg.break_source(f"the_source.c:{LINE_SET_DATA}", condition="v == 6")
    ev = dbg.run()
    assert ev.kind == StopKind.BREAKPOINT
    assert dbg.eval_expr("v")[1] == 6
    ev = dbg.cont()
    assert ev.kind == StopKind.EXITED


def test_temporary_breakpoint_fires_once():
    dbg, *_ = make_session([1, 2, 3])
    bp = dbg.break_source(f"the_source.c:{LINE_READ_INPUT}", temporary=True)
    ev = dbg.run()
    assert ev.kind == StopKind.BREAKPOINT
    assert bp.id not in dbg.breakpoints.all
    ev = dbg.cont()
    assert ev.kind == StopKind.EXITED


def test_ignore_count():
    dbg, *_ = make_session([1, 2, 3])
    bp = dbg.break_source(f"the_source.c:{LINE_READ_INPUT}")
    bp.ignore_count = 2
    ev = dbg.run()
    assert ev.kind == StopKind.BREAKPOINT
    assert bp.hit_count == 3  # two ignored + one stopping


def test_disable_enable():
    dbg, *_ = make_session([1, 2])
    bp = dbg.break_source(f"the_source.c:{LINE_READ_INPUT}")
    bp.enabled = False
    ev = dbg.run()
    assert ev.kind == StopKind.EXITED


def test_function_breakpoint_on_mangled_symbol():
    dbg, *_ = make_session([1])
    bp = dbg.break_function(WORK_F1)
    ev = dbg.run()
    assert ev.kind == StopKind.FUNCTION_BP
    assert ev.actor == "AModule.filter_1"
    assert WORK_F1 in ev.message


def test_function_breakpoint_substring_resolution():
    dbg, *_ = make_session([1])
    bp = dbg.break_function("Filter1Filter")  # unique substring
    assert bp.symbol == WORK_F1


def test_function_breakpoint_ambiguous():
    dbg, *_ = make_session([1])
    with pytest.raises(DebuggerError) as e:
        dbg.break_function("work_function")  # matches both filters
    assert "ambiguous" in str(e.value)


def test_api_breakpoint_on_push_entry():
    dbg, runtime, _, _ = make_session([1])
    bp = dbg.break_api(SYM_PUSH, phase="entry", actor="AModule.filter_1")
    ev = dbg.run()
    assert ev.kind == StopKind.API_BP
    assert ev.actor == "AModule.filter_1"
    event = ev.payload
    assert event.symbol == SYM_PUSH
    assert event.phase == "entry"
    assert event.args["iface"] == "an_output"


def test_api_breakpoint_exit_phase_sees_retval():
    dbg, runtime, _, _ = make_session([9])
    bp = dbg.break_api(SYM_PUSH, phase="exit", actor="AModule.filter_1")
    ev = dbg.run()
    assert ev.kind == StopKind.API_BP
    token = ev.payload.retval
    assert token is not None
    assert token.value == 9 * 2 + 1  # v*2 + attribute


def test_api_breakpoint_nonstop_action():
    """A function breakpoint whose action returns False never stops —
    the capture mechanism of the dataflow extension."""
    dbg, runtime, _, _ = make_session([1, 2])
    seen = []
    dbg.break_api(SYM_PUSH, internal=True, stop_fn=lambda e: (seen.append(e), False)[1])
    ev = dbg.run()
    assert ev.kind == StopKind.EXITED
    assert len(seen) > 0


def test_watchpoint_on_private_data():
    dbg, *_ = make_session([3, 4])
    dbg.break_function(WORK_F1, temporary=True)
    ev = dbg.run()
    wp = dbg.watch("pedf.data.a_private_data")
    ev = dbg.cont()
    assert ev.kind == StopKind.WATCHPOINT
    assert "old = 0" in ev.message
    assert "new = 3" in ev.message
    ev = dbg.cont()
    assert ev.kind == StopKind.WATCHPOINT
    assert "new = 4" in ev.message


def test_watchpoint_on_local_variable():
    dbg, *_ = make_session([5])
    dbg.break_source(f"the_source.c:{LINE_COMPUTE}", temporary=True)
    ev = dbg.run()
    wp = dbg.watch("r", actor="filter_1")
    ev = dbg.cont()
    # r is assigned at LINE_COMPUTE; watchpoint reports at the next stmt
    assert ev.kind == StopKind.WATCHPOINT
    assert "new = 11" in ev.message


def test_step_moves_one_line():
    dbg, *_ = make_session([1])
    dbg.break_source(f"the_source.c:{LINE_READ_INPUT}", temporary=True)
    ev = dbg.run()
    assert ev.line == LINE_READ_INPUT
    ev = dbg.step()
    assert ev.kind == StopKind.STEP
    assert ev.actor == "AModule.filter_1"
    assert ev.line == LINE_SET_DATA
    ev = dbg.step()
    assert ev.line == LINE_COMPUTE


def test_stepi_statement_granularity():
    dbg, *_ = make_session([1])
    dbg.break_source(f"the_source.c:{LINE_READ_INPUT}", temporary=True)
    dbg.run()
    ev = dbg.stepi()
    assert ev.kind == StopKind.STEP


def test_next_steps_over_call():
    # use a custom program with a helper call
    from repro.cminus.typesys import U32
    from repro.dbg import Debugger
    from repro.p2012.soc import P2012Platform, PlatformConfig
    from repro.pedf import ControllerDecl, FilterDecl, ModuleDecl, ProgramDecl
    from repro.pedf.runtime import PedfRuntime
    from repro.sim import Scheduler

    src = """\
U32 helper(U32 x) {
    U32 y = x + 1;
    return y;
}
void work() {
    U32 a = pedf.io.i[0];
    U32 b = helper(a);
    pedf.io.o[0] = b;
}
"""
    program = ProgramDecl(name="p")
    mod = ModuleDecl(name="m")
    ctl = ControllerDecl(name="controller", max_steps=1,
                         source="void work() { ACTOR_FIRE(f); WAIT_FOR_ACTOR_SYNC(); }")
    mod.set_controller(ctl)
    f = FilterDecl(name="f", source=src, source_name="f.c")
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
    runtime.add_source("s", "m", "min_", [10])
    sink = runtime.add_sink("k", "m", "mout", expect=1)
    dbg = Debugger(sched, runtime)

    dbg.break_source("f.c:6", temporary=True)  # U32 a = ...
    ev = dbg.run()
    assert ev.line == 6
    ev = dbg.next_()
    assert ev.line == 7  # at the call line
    ev = dbg.next_()
    assert ev.line == 8  # stepped over helper
    # now check `step` enters the helper
    dbg2_ev = None
    # restart scenario: step into on second run is covered by test below


def test_step_enters_call_and_finish_returns():
    from repro.cminus.typesys import U32
    from repro.dbg import Debugger
    from repro.p2012.soc import P2012Platform, PlatformConfig
    from repro.pedf import ControllerDecl, FilterDecl, ModuleDecl, ProgramDecl
    from repro.pedf.runtime import PedfRuntime
    from repro.sim import Scheduler

    src = """\
U32 twice(U32 x) {
    U32 y = x * 2;
    return y;
}
void work() {
    U32 a = pedf.io.i[0];
    U32 b = twice(a);
    pedf.io.o[0] = b;
}
"""
    program = ProgramDecl(name="p")
    mod = ModuleDecl(name="m")
    ctl = ControllerDecl(name="controller", max_steps=1,
                         source="void work() { ACTOR_FIRE(f); WAIT_FOR_ACTOR_SYNC(); }")
    mod.set_controller(ctl)
    f = FilterDecl(name="f", source=src, source_name="f.c")
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
    runtime.add_source("s", "m", "min_", [10])
    runtime.add_sink("k", "m", "mout", expect=1)
    dbg = Debugger(sched, runtime)

    dbg.break_source("f.c:7", temporary=True)  # U32 b = twice(a);
    ev = dbg.run()
    ev = dbg.step()  # into twice
    assert ev.line == 2
    frames = dbg.backtrace()
    assert [fr.name for fr in frames] == ["FFilter_twice", "FFilter_work_function"]
    ev = dbg.finish()
    assert ev.kind == StopKind.FINISH
    assert "returned 20" in ev.message
    assert len(dbg.backtrace()) == 1


def test_backtrace_and_locals():
    dbg, *_ = make_session([7])
    dbg.break_source(f"the_source.c:{LINE_PUSH}", temporary=True)
    ev = dbg.run()
    frames = dbg.backtrace()
    assert frames[0].name == WORK_F1
    out = dbg.print_expr("v")
    assert out == "$1 = 7"
    out = dbg.print_expr("r")
    assert out == "$2 = 15"
    # history recall
    out = dbg.print_expr("$1 + 1")
    assert out == "$3 = 8"


def test_print_pedf_data_and_attribute():
    dbg, *_ = make_session([7])
    dbg.break_source(f"the_source.c:{LINE_COMPUTE}", temporary=True)
    dbg.run()
    assert dbg.eval_expr("pedf.data.a_private_data")[1] == 7
    assert dbg.eval_expr("pedf.attribute.an_attribute")[1] == 1


def test_print_refuses_io_read():
    from repro.dbg.eval import EvalError

    dbg, *_ = make_session([7])
    dbg.break_source(f"the_source.c:{LINE_COMPUTE}", temporary=True)
    dbg.run()
    with pytest.raises(EvalError) as e:
        dbg.eval_expr("pedf.io.an_input[0]")
    assert "consume a token" in str(e.value)


def test_deadlock_reported():
    from repro.p2012.soc import P2012Platform, PlatformConfig
    from repro.pedf.runtime import PedfRuntime
    from repro.sim import Scheduler
    from repro.apps.amodule import build_amodule_program

    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=1, pes_per_cluster=8))
    program = build_amodule_program(max_steps=2)
    runtime = PedfRuntime(sched, platform, program)
    runtime.add_source("silent", "AModule", "module_in", [])
    dbg = Debugger(sched, runtime)
    ev = dbg.run()
    assert ev.kind == StopKind.DEADLOCK
    assert "filter_1" in ev.message


def test_runtime_error_becomes_error_stop():
    from repro.cminus.typesys import U32
    from repro.p2012.soc import P2012Platform, PlatformConfig
    from repro.pedf import ControllerDecl, FilterDecl, ModuleDecl, ProgramDecl
    from repro.pedf.runtime import PedfRuntime
    from repro.sim import Scheduler

    program = ProgramDecl(name="p")
    mod = ModuleDecl(name="m")
    mod.set_controller(ControllerDecl(
        name="controller", max_steps=1,
        source="void work() { ACTOR_FIRE(f); WAIT_FOR_ACTOR_SYNC(); }"))
    f = FilterDecl(name="f", source="""
        void work() {
            U32 x = pedf.io.i[0];
            U32 z = x / (x - x);
            pedf.io.o[0] = z;
        }
    """, source_name="f.c")
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
    dbg = Debugger(sched, runtime)
    ev = dbg.run()
    assert ev.kind == StopKind.ERROR
    assert "division by zero" in ev.message
    assert ev.actor == "m.f"


def test_trap_builtin_stops():
    from repro.cminus.typesys import U32
    from repro.p2012.soc import P2012Platform, PlatformConfig
    from repro.pedf import ControllerDecl, FilterDecl, ModuleDecl, ProgramDecl
    from repro.pedf.runtime import PedfRuntime
    from repro.sim import Scheduler

    program = ProgramDecl(name="p")
    mod = ModuleDecl(name="m")
    mod.set_controller(ControllerDecl(
        name="controller", max_steps=1,
        source="void work() { ACTOR_FIRE(f); WAIT_FOR_ACTOR_SYNC(); }"))
    f = FilterDecl(name="f", source="""
        void work() {
            U32 x = pedf.io.i[0];
            if (x > 3) trap();
            pedf.io.o[0] = x;
        }
    """, source_name="f.c")
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
    runtime.add_sink("k", "m", "mout", expect=1)
    dbg = Debugger(sched, runtime)
    ev = dbg.run()
    assert ev.kind == StopKind.TRAP
    assert ev.actor == "m.f"
    ev = dbg.cont()
    assert ev.kind == StopKind.EXITED


def test_select_actor_and_info():
    dbg, *_ = make_session([1])
    dbg.break_source(f"the_source.c:{LINE_READ_INPUT}", temporary=True)
    dbg.run()
    ctl = dbg.select_actor("controller")
    assert dbg.selected_actor is ctl
    f1 = dbg.select_actor("AModule.filter_1")
    assert f1.name == "filter_1"


def test_pause_request():
    dbg, *_ = make_session([1, 2, 3, 4])
    dbg.request_pause()
    ev = dbg.run()
    assert ev.kind == StopKind.PAUSED
    ev = dbg.cont()
    assert ev.kind == StopKind.EXITED


def test_cont_after_exit_is_stable():
    dbg, *_ = make_session([1])
    ev = dbg.run()
    assert ev.kind == StopKind.EXITED
    ev = dbg.cont()
    assert ev.kind == StopKind.EXITED
