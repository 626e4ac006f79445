"""The GDB-flavoured command line."""

import pytest

from repro.dbg import StopKind

from .util import LINE_COMPUTE, LINE_READ_INPUT, WORK_F1, make_cli


def test_run_and_stop_rendering():
    cli, dbg, *_ = make_cli([1])
    out = cli.execute(f"break the_source.c:{LINE_READ_INPUT}")
    assert out == [f"Breakpoint 1 at the_source.c:{LINE_READ_INPUT}"]
    out = cli.execute("run")
    assert any("Breakpoint 1" in line for line in out)
    assert any("pedf.io.an_input" in line for line in out)  # source echo


def test_abbreviations_and_aliases():
    cli, dbg, *_ = make_cli([1])
    cli.execute(f"b the_source.c:{LINE_READ_INPUT}")
    cli.execute("r")
    out = cli.execute("c")
    assert any("exited" in line.lower() for line in out)


def test_ambiguous_prefix_reported():
    cli, *_ = make_cli()
    out = cli.execute("s")  # 's' is an alias of step — resolves
    # 'st' prefixes both 'step' and 'stepi'
    out = cli.execute("st")
    assert out and "ambiguous" in out[0]


def test_undefined_command():
    cli, *_ = make_cli()
    out = cli.execute("bogus")
    assert "undefined command" in out[0]


def test_print_and_locals():
    cli, dbg, *_ = make_cli([7])
    cli.execute(f"tbreak the_source.c:{LINE_COMPUTE}")
    cli.execute("run")
    assert cli.execute("print v") == ["$1 = 7"]
    assert cli.execute("p v * 10") == ["$2 = 70"]
    out = cli.execute("info locals")
    assert any(line.startswith("v = 7") for line in out)
    out = cli.execute("info args")
    assert out == ["No arguments."]


def test_info_breakpoints_listing():
    cli, *_ = make_cli()
    cli.execute(f"break the_source.c:{LINE_READ_INPUT}")
    cli.execute("watch pedf") and None  # invalid — no actor; error swallowed as message
    out = cli.execute("info breakpoints")
    assert out[0].startswith("Num")
    assert any("the_source.c" in line for line in out)


def test_info_actors_lists_everything():
    cli, dbg, runtime, _ = make_cli()
    out = cli.execute("info actors")
    names = "\n".join(out)
    assert "AModule.filter_1" in names
    assert "AModule.controller" in names
    assert "host.stim" in names
    assert "host.capture" in names


def test_actor_selection_and_completion():
    cli, dbg, *_ = make_cli()
    out = cli.execute("actor filter_2")
    assert "Switching to actor AModule.filter_2" in out[0]
    candidates = cli.complete("actor fil")
    assert "filter_1" in candidates and "filter_2" in candidates
    candidates = cli.complete("th")
    assert "thread" not in candidates  # thread is an alias, not a name
    candidates = cli.complete("b")
    assert "break" in candidates and "backtrace" in candidates


def test_break_completion_offers_symbols():
    cli, *_ = make_cli()
    candidates = cli.complete("break Filter1")
    assert WORK_F1 in candidates


def test_print_completion_offers_the_frame_variables():
    cli, dbg, *_ = make_cli([1, 2, 3])
    assert cli.complete("print v") == []  # no frame before the first stop
    cli.execute(f"break the_source.c:{LINE_COMPUTE}")
    ev = dbg.run()
    while ev.kind != StopKind.BREAKPOINT:
        ev = dbg.cont()
    assert cli.complete("print v") == ["v"]


def test_delete_enable_disable_ignore_condition():
    cli, dbg, *_ = make_cli([1, 2, 3])
    cli.execute(f"break the_source.c:{LINE_READ_INPUT}")
    assert cli.execute("ignore 1 1") == ["Will ignore next 1 crossings of breakpoint 1."]
    cli.execute("condition 1 v > 100")
    cli.execute("disable 1")
    out = cli.execute("run")
    assert any("exited" in line.lower() for line in out)
    cli.execute("delete 1")
    out = cli.execute("info breakpoints")
    assert out == ["No breakpoints or watchpoints."]


def test_backtrace_frame_navigation():
    cli, dbg, *_ = make_cli([1])
    cli.execute(f"tbreak the_source.c:{LINE_COMPUTE}")
    cli.execute("run")
    out = cli.execute("bt")
    assert out[0].startswith("*#0")
    assert WORK_F1 in out[0]
    out = cli.execute("frame 0")
    assert out[0].startswith("#0")
    out = cli.execute("down")
    assert "error" in out[0]  # already innermost


def test_list_shows_source_with_marker():
    cli, dbg, *_ = make_cli([1])
    cli.execute(f"tbreak the_source.c:{LINE_COMPUTE}")
    cli.execute("run")
    out = cli.execute("list")
    marked = [line for line in out if line.startswith("->")]
    assert len(marked) == 1
    assert str(LINE_COMPUTE) in marked[0]


def test_execute_script_transcript():
    cli, dbg, *_ = make_cli([1])
    out = cli.execute_script([f"tbreak the_source.c:{LINE_COMPUTE}", "run", "print v"])
    assert out[0].startswith("(gdb) tbreak")
    assert "$1 = 1" in out


def test_help():
    cli, *_ = make_cli()
    out = cli.execute("help")
    assert len(out) > 10
    out = cli.execute("help break")
    assert out[0].startswith("break ")


def test_comments_and_empty_lines_ignored():
    cli, *_ = make_cli()
    assert cli.execute("") == []
    assert cli.execute("# comment") == []


def test_enable_rearms_a_disabled_breakpoint():
    cli, dbg, *_ = make_cli([1, 2])
    cli.execute(f"break the_source.c:{LINE_COMPUTE}")
    cli.execute("disable 1")
    assert not dbg.breakpoints.get(1).enabled
    cli.execute("enable 1")
    assert dbg.breakpoints.get(1).enabled
    out = cli.execute("run")
    assert out[0].startswith(f"Breakpoint 1, [AModule.filter_1] at the_source.c:{LINE_COMPUTE}")


def test_up_selects_the_caller_and_fails_past_the_outermost_frame():
    from tests.test_execution_goldens import calls_cli

    cli = calls_cli()
    cli.execute("break scale")
    cli.execute("run")
    out = cli.execute("continue")
    assert out[0].startswith("Function breakpoint 1, [AModule.filter_1] Filter1Filter_scale")
    assert cli.execute("up") == [f"#1  {WORK_F1} () at the_source.c:10"]
    assert cli.execute("up") == ["error: no frame #2 (stack depth 2)"]
    assert cli.execute("down") == ["#0  Filter1Filter_scale () at the_source.c:2"]


def test_a_string_literal_has_no_value():
    cli, dbg, *_ = make_cli([1])
    cli.execute(f"break the_source.c:{LINE_COMPUTE}")
    cli.execute("run")
    assert cli.execute('print "v"') == [
        "error: string literals have no value in debugger expressions"
    ]
