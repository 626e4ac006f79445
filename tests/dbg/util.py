"""Debugger test harness around the AModule demo."""

from repro.apps.amodule import build_demo
from repro.dbg import Debugger
from repro.dbg.cli import CommandCli


def make_session(values=(1, 2, 3, 4), attribute=1):
    sched, platform, runtime, source, sink = build_demo(values, attribute)
    dbg = Debugger(sched, runtime)
    return dbg, runtime, source, sink


def make_cli(values=(1, 2, 3, 4)):
    dbg, runtime, source, sink = make_session(values)
    return CommandCli(dbg), dbg, runtime, sink


# line numbers inside FILTER_SOURCE (the_source.c)
LINE_READ_CMD = 3
LINE_READ_INPUT = 4
LINE_SET_DATA = 5
LINE_COMPUTE = 6
LINE_PUSH = 7

WORK_F1 = "Filter1Filter_work_function"
WORK_F2 = "Filter2Filter_work_function"
CTL_WORK = "_component_AModuleModule_anon_0_work"


def hooked(runtime):
    """Qualnames of the actors whose interpreter caches a statement,
    call or return hook bit."""
    return {
        a.qualname
        for a in runtime.all_actors()
        if getattr(a, "interp", None) is not None
        and (a.interp._want_stmt or a.interp._want_call or a.interp._want_ret)
    }
