"""The extension surface: the ``Debugger`` methods both shipped extensions
build on (``break_api`` with a ``stop_fn``, ``finish_breakpoint``,
``stop_callbacks``, ``eval_expr``)."""

import pytest

from repro.dbg import StopKind
from repro.dbg.cli import CommandCli
from repro.errors import DebuggerError
from repro.pedf import SYM_PUSH

from .util import LINE_COMPUTE, LINE_READ_INPUT, WORK_F1, make_session


def make_cli(values=(1, 2)):
    dbg, runtime, source, sink = make_session(values)
    return CommandCli(dbg), dbg


def test_finish_breakpoint_class():
    cli, dbg = make_cli([5])
    dbg.break_source(f"the_source.c:{LINE_COMPUTE}", temporary=True)
    dbg.run()
    fin = dbg.finish_breakpoint()
    assert fin.internal and fin.temporary
    ev = dbg.cont()
    assert ev.kind == StopKind.FINISH
    assert ev.payload == 0  # work() is void
    assert fin.deleted  # gone once it fired
    assert fin.id not in dbg.breakpoints.all


def test_events_registry():
    cli, dbg = make_cli([1])
    stops = []
    dbg.stop_callbacks.append(lambda ev: stops.append(ev.kind))
    dbg.break_source(f"the_source.c:{LINE_READ_INPUT}", temporary=True)
    dbg.run()
    dbg.cont()
    assert stops == [StopKind.BREAKPOINT, StopKind.EXITED]


def test_parse_and_eval_and_execute():
    cli, dbg = make_cli([7])
    cli.execute(f"tbreak the_source.c:{LINE_COMPUTE}")
    cli.execute("run")
    ctype, raw = dbg.eval_expr("v * 3")
    assert raw == 21
    assert cli.execute("print v * 3") == ["$1 = 21"]
    assert dbg.current_frame().name == WORK_F1
    assert dbg.selected_actor.qualname == "AModule.filter_1"
    assert dbg.debug_info.lookup_function(WORK_F1) is not None
    assert dbg.debug_info.lookup_function("nope") is None


def test_enabled_property_roundtrip():
    cli, dbg = make_cli([1])
    bp = dbg.break_source(f"the_source.c:{LINE_READ_INPUT}")
    bp.enabled = False
    assert dbg.run().kind == StopKind.EXITED
    assert bp.hit_count == 0


def test_default_stop_methods_stop_and_breakpoints_list_their_location():
    cli, dbg = make_cli([1])
    bp = dbg.break_source(f"the_source.c:{LINE_READ_INPUT}")
    push = dbg.break_api(SYM_PUSH, actor="AModule.filter_1")
    assert bp.enabled and push.enabled
    assert cli.execute("info breakpoints")[1:] == [
        f"1\tsource\ty\tthe_source.c:{LINE_READ_INPUT}",
        "2\tapi\ty\tpedf_rt_push (entry) [AModule.filter_1]",
    ]
    assert dbg.run().kind == StopKind.BREAKPOINT
    dbg.finish_breakpoint()  # internal: not listed
    assert len(cli.execute("info breakpoints")) == 3
    ev = dbg.cont()  # the push inside work(): no stop_fn stops
    assert ev.kind == StopKind.API_BP and ev.bp_id == push.id
    dbg.delete(push.id)
    assert dbg.cont().kind == StopKind.FINISH


def test_finish_breakpoint_needs_a_filter_c_actor():
    cli, dbg = make_cli([1])
    dbg.break_api(SYM_PUSH, actor="host.stim")
    assert dbg.run().kind == StopKind.API_BP
    with pytest.raises(DebuggerError, match="runs no Filter-C code"):
        dbg.finish_breakpoint()
