"""until / display / undisplay / freeze completion / dataflow token."""

from repro.dbg import StopKind

from .util import LINE_COMPUTE, LINE_PUSH, LINE_READ_INPUT, make_cli


def test_until_runs_to_location_in_selected_actor():
    cli, dbg, *_ = make_cli([1])
    cli.execute(f"tbreak the_source.c:{LINE_READ_INPUT}")
    cli.execute("run")
    out = cli.execute(f"until {LINE_PUSH}")
    assert dbg.last_stop.kind == StopKind.BREAKPOINT
    assert dbg.last_stop.line == LINE_PUSH
    assert dbg.last_stop.actor == "AModule.filter_1"


def test_display_evaluated_at_each_stop():
    cli, dbg, *_ = make_cli([3, 4])
    cli.execute(f"break the_source.c:{LINE_COMPUTE}")
    out = cli.execute("display v")
    assert out[0].startswith("1: v = <not yet available>")
    out = cli.execute("run")
    assert "1: v = 3" in out
    out = cli.execute("continue")
    assert "1: v = 4" in out
    assert cli.execute("display") == ["1: v"]
    cli.execute("undisplay 1")
    assert cli.execute("display") == ["No auto-display expressions."]
    out = cli.execute("undisplay 1")
    assert "error" in out[0]


def test_dataflow_token_lookup():
    from repro.core import DataflowSession

    cli, dbg, runtime, sink = make_cli([5])
    session = DataflowSession(dbg, cli=cli, stop_on_init=True)
    dbg.run()
    session.catch_iface("filter_2::an_input", event="pop", temporary=True)
    dbg.cont()
    token = session.model.find_actor("filter_2").last_token_in
    out = cli.execute(f"dataflow token {token.seq}")
    assert out[0].startswith(f"#{token.seq}")
    assert any("consumed by filter_2" in line for line in out)
    assert any("parent[0]" in line for line in out)
    out = cli.execute("dataflow token 99999")
    assert "error" in out[0]


def test_delete_without_argument_deletes_every_user_breakpoint():
    from repro.core import DataflowSession

    cli, dbg, runtime, sink = make_cli([5, 6])
    session = DataflowSession(dbg, cli=cli, stop_on_init=True)
    cli.execute("run")
    cli.execute(f"break the_source.c:{LINE_COMPUTE}")
    cli.execute("filter filter_2 catch work")
    cli.execute("sched catch step-begin")
    assert len(cli.execute("info breakpoints")) == 4
    events = session.capture.events_processed
    assert cli.execute("delete") == []
    assert cli.execute("info breakpoints") == ["No breakpoints or watchpoints."]
    out = cli.execute("continue")
    assert dbg.last_stop.kind == StopKind.EXITED, out
    # the internal capture breakpoints stay
    assert session.capture.events_processed > events
    assert len(sink.values) == 2
