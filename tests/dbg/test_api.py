"""The gdb-Python-style extension API."""

import pytest

from repro.dbg import StopKind
from repro.dbg.api import ExtensionAPI
from repro.dbg.cli import CommandCli
from repro.errors import DebuggerError
from repro.pedf import SYM_PUSH, SYM_WORK_ENTER

from .util import LINE_COMPUTE, LINE_READ_INPUT, WORK_F1, make_session


def make_api(values=(1, 2)):
    dbg, runtime, source, sink = make_session(values)
    cli = CommandCli(dbg)
    return ExtensionAPI(dbg, cli=cli), dbg, sink


def test_subclassed_source_breakpoint_stop_filtering():
    api, dbg, sink = make_api([1, 2, 3])
    seen = []

    class CountingBp(api.Breakpoint):
        def stop(self, frame):
            seen.append(frame.line)
            return len(seen) >= 2  # only stop on the second hit

    bp = CountingBp(f"the_source.c:{LINE_READ_INPUT}")
    ev = dbg.run()
    assert ev.kind == StopKind.BREAKPOINT
    assert seen == [LINE_READ_INPUT, LINE_READ_INPUT]
    assert bp.hit_count == 2
    assert bp.number > 0
    bp.delete()
    assert not bp.is_valid
    assert dbg.cont().kind == StopKind.EXITED


def test_subclassed_api_breakpoint_semantic_action():
    """The paper's function breakpoint: an action that updates state and
    never stops."""
    api, dbg, sink = make_api([1, 2])
    pushes = []

    class PushMonitor(api.Breakpoint):
        def stop(self, event):
            pushes.append((event.args["actor"], event.args["iface"]))
            return False

    PushMonitor(api_symbol=SYM_PUSH, internal=True)
    ev = dbg.run()
    assert ev.kind == StopKind.EXITED
    assert ("AModule.filter_1", "an_output") in pushes


def test_finish_breakpoint_class():
    api, dbg, sink = make_api([5])
    dbg.break_source(f"the_source.c:{LINE_COMPUTE}", temporary=True)
    dbg.run()

    captured = []

    class CatchReturn(api.FinishBreakpoint):
        def stop(self, value):
            captured.append(value)
            return True

    CatchReturn()
    ev = dbg.cont()
    assert ev.kind == StopKind.FINISH
    assert captured == [0]  # work() is void


def test_events_registry():
    api, dbg, sink = make_api([1])
    stops = []
    exits = []
    api.events.stop.connect(lambda ev: stops.append(ev.kind))
    api.events.exited.connect(lambda ev: exits.append(ev.kind))
    dbg.break_source(f"the_source.c:{LINE_READ_INPUT}", temporary=True)
    dbg.run()
    dbg.cont()
    assert stops == [StopKind.BREAKPOINT]
    assert exits == [StopKind.EXITED]


def test_parse_and_eval_and_execute():
    api, dbg, sink = make_api([7])
    api.execute(f"tbreak the_source.c:{LINE_COMPUTE}")
    api.execute("run")
    ctype, raw = api.parse_and_eval("v * 3")
    assert raw == 21
    assert api.format_value(ctype, raw) == "21"
    assert api.selected_frame().name == WORK_F1
    assert api.selected_actor().qualname == "AModule.filter_1"
    assert api.lookup_symbol(WORK_F1) is not None
    assert api.lookup_symbol("nope") is None


def test_breakpoint_requires_exactly_one_location():
    api, dbg, sink = make_api()
    with pytest.raises(DebuggerError):
        api.Breakpoint()
    with pytest.raises(DebuggerError):
        api.Breakpoint(spec="x.c:1", symbol="f")


def test_enabled_property_roundtrip():
    api, dbg, sink = make_api([1])
    bp = api.Breakpoint(f"the_source.c:{LINE_READ_INPUT}")
    bp.enabled = False
    assert dbg.run().kind == StopKind.EXITED
    assert bp.hit_count == 0


def test_default_stop_methods_stop_and_breakpoints_list_their_location():
    api, dbg, sink = make_api([1])
    bp = api.Breakpoint(f"the_source.c:{LINE_READ_INPUT}")
    push = api.Breakpoint(api_symbol=SYM_PUSH, actor="AModule.filter_1")
    assert bp.enabled and push.enabled
    assert api.execute("info breakpoints")[1:] == [
        f"1\tsource\ty\tthe_source.c:{LINE_READ_INPUT}",
        "2\tapi\ty\tpedf_rt_push (entry) [AModule.filter_1]",
    ]
    assert dbg.run().kind == StopKind.BREAKPOINT  # the default stop() stops
    fin = api.FinishBreakpoint(internal=False)
    assert fin.is_valid and fin.number == 3
    assert api.execute("info breakpoints")[3] == f"3\tfinish\ty\tfinish of {WORK_F1}"
    assert dbg.cont().kind == StopKind.API_BP  # the push inside work()
    push.delete()
    ev = dbg.cont()
    assert ev.kind == StopKind.FINISH and fin.return_value == 0
    assert not fin.is_valid  # temporary: gone once it fired


def test_finish_breakpoint_needs_a_filter_c_actor():
    api, dbg, sink = make_api([1])
    api.Breakpoint(api_symbol=SYM_PUSH, actor="host.stim")
    assert dbg.run().kind == StopKind.API_BP
    with pytest.raises(DebuggerError, match="runs no Filter-C code"):
        api.FinishBreakpoint()
