"""step_both, execution alteration, overhead modes, DOT export."""

import pytest

from repro.core import parse_value_literal, render_dot
from repro.cminus.typesys import U8, U32, BOOL, ArrayType, StructType
from repro.dbg import StopKind
from repro.errors import DataflowDebugError

from .util import make_session


# ---------------------------------------------------------------- step_both


def test_step_both_stops_at_both_link_ends():
    session, cli, dbg, *_ = make_session([5], stop_on_init=True)
    dbg.run()
    # stop inside filter_1 right before the dataflow assignment (line 7)
    dbg.break_source("the_source.c:7", temporary=True, actor="AModule.filter_1")
    ev = dbg.cont()
    assert ev.line == 7
    out = cli.execute("step_both")
    assert out[0] == "[Temporary breakpoint inserted after input interface `filter_2::an_input']"
    assert out[1] == "[Temporary breakpoint inserted after output interface `filter_1::an_output`]"
    # first stop already happened (order is architecture-dependent)
    first = dbg.last_stop.message
    ev = dbg.cont()
    second = dbg.last_stop.message
    texts = {first, second}
    assert "[Stopped after sending token on `filter_1::an_output`]" in texts
    assert "[Stopped after receiving token from `filter_2::an_input']" in texts


def test_step_both_named_iface_without_source_scan():
    session, cli, dbg, *_ = make_session([5], stop_on_init=True)
    dbg.run()
    dbg.break_source("the_source.c:4", temporary=True, actor="AModule.filter_1")
    dbg.cont()
    msgs = session.step_both("an_output")
    assert len(msgs) == 2
    ev = dbg.cont()
    assert ev.kind == StopKind.DATAFLOW


def test_step_both_requires_dataflow_assignment_on_line():
    session, cli, dbg, *_ = make_session([5], stop_on_init=True)
    dbg.run()
    dbg.break_source("the_source.c:5", temporary=True, actor="AModule.filter_1")
    dbg.cont()
    with pytest.raises(DataflowDebugError) as e:
        session.step_both()
    assert "no dataflow assignment" in str(e.value)


def test_step_both_rejects_input_iface():
    session, cli, dbg, *_ = make_session([5], stop_on_init=True)
    dbg.run()
    dbg.break_source("the_source.c:4", temporary=True, actor="AModule.filter_1")
    dbg.cont()
    with pytest.raises(DataflowDebugError):
        session.step_both("an_input")


# ------------------------------------------------------------- alteration


def test_value_literal_parsing():
    assert parse_value_literal("42", U32) == 42
    assert parse_value_literal("0x1F", U32) == 0x1F
    assert parse_value_literal("-1", U32) == 2**32 - 1
    assert parse_value_literal("true", BOOL) is True
    st = StructType("P", (("a", U32), ("b", U8)))
    assert parse_value_literal("{a=1, b=0x2}", st) == {"a": 1, "b": 2}
    assert parse_value_literal("{b=3}", st) == {"a": 0, "b": 3}
    at = ArrayType(elem=U8, size=3)
    assert parse_value_literal("[1,2]", at) == [1, 2, 0]
    with pytest.raises(DataflowDebugError):
        parse_value_literal("{c=1}", st)
    with pytest.raises(DataflowDebugError):
        parse_value_literal("nope", U32)
    with pytest.raises(DataflowDebugError):
        parse_value_literal("[1,2,3,4]", at)


def test_insert_token_unties_deadlock():
    """The paper's headline alteration scenario, end to end at the CLI."""
    from repro.apps.amodule import build_amodule_program
    from repro.core import DataflowSession
    from repro.dbg import CommandCli, Debugger
    from repro.p2012.soc import P2012Platform, PlatformConfig
    from repro.pedf.runtime import PedfRuntime
    from repro.sim import Scheduler

    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=1, pes_per_cluster=8))
    program = build_amodule_program(max_steps=1)
    runtime = PedfRuntime(sched, platform, program)
    runtime.add_source("stim", "AModule", "module_in", [])  # never produces
    sink = runtime.add_sink("capture", "AModule", "module_out", expect=1)
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    session = DataflowSession(dbg, cli=cli)

    ev = dbg.run()
    assert ev.kind == StopKind.DEADLOCK
    # diagnose: filter_1 blocked on its empty an_input link
    out = cli.execute("dataflow links")
    assert any(
        line.startswith("stim::out->filter_1::an_input") and "0 token(s)" in line
        for line in out
    )
    # untie: inject the missing token
    out = cli.execute("iface stim::out insert 21")
    assert "Token inserted" in out[0]
    ev = dbg.cont()
    assert ev.kind == StopKind.EXITED
    assert sink.values == [(21 * 2 + 1) * 2 + 1]


def test_drop_and_poke_tokens():
    session, cli, dbg, runtime, sink = make_session([5], stop_on_init=True)
    dbg.run()
    # stop after the source pushed but before filter_1 consumed:
    session.catch_iface("stim::out", event="push", temporary=True)
    dbg.cont()
    link = next(l for l in runtime.links if l.src and l.src.qualname == "stim::out")
    assert link.occupancy == 1
    cli.execute("iface stim::out poke 0 40")
    assert link.tokens()[0].value == 40
    ev = dbg.cont()
    assert ev.kind == StopKind.EXITED
    assert sink.values == [(40 * 2 + 1) * 2 + 1]


def test_drop_token():
    session, cli, dbg, runtime, sink = make_session([5, 6], stop_on_init=True)
    dbg.run()
    cp = session.catch_iface("stim::out", event="push")
    dbg.cont()
    dbg.cont()  # both pushes done
    dbg.delete(cp.id)
    link = next(l for l in runtime.links if l.src and l.src.qualname == "stim::out")
    before = link.occupancy
    out = cli.execute("iface stim::out drop 0")
    assert "removed" in out[0]
    assert link.occupancy == before - 1
    # token 5 was already consumed when we stopped at the second push, so
    # the drop removed token 6; only 5 flows through and the program then
    # deadlocks waiting for a second input, which is expected
    ev = dbg.cont()
    assert ev.kind == StopKind.DEADLOCK
    assert [t.value for t in sink.received] == [(5 * 2 + 1) * 2 + 1]


def test_alteration_errors():
    session, cli, dbg, *_ = make_session([1], stop_on_init=True)
    dbg.run()
    with pytest.raises(DataflowDebugError):
        session.alter.drop("stim::out", 0)  # empty link
    with pytest.raises(DataflowDebugError):
        session.alter.poke("stim::out", 0, "1")


# ---------------------------------------------------------------- overhead


def test_data_capture_none_skips_token_events():
    session, cli, dbg, runtime, sink = make_session([1, 2], stop_on_init=True)
    dbg.run()
    session.set_data_capture("none")
    ev = dbg.cont()
    assert ev.kind == StopKind.EXITED
    assert session.capture.data_events_processed == 0
    assert len(sink.values) == 2  # execution unaffected
    # the model is stale, as documented
    link = session.model.link_between("filter_1::an_output", "filter_2::an_input")
    assert link.total_pushed == 0


def test_data_capture_actor_specific():
    """§V framework cooperation: only the actors of interest trap."""
    session, cli, dbg, runtime, sink = make_session([1, 2], stop_on_init=True)
    dbg.run()
    session.set_data_capture(["filter_2"])
    dbg.cont()
    f1 = session.model.find_actor("filter_1")
    f2 = session.model.find_actor("filter_2")
    assert f2.outbound["an_output"].pushed == 2
    assert f1.outbound["an_output"].pushed == 0  # not captured


def test_data_capture_control_only():
    session, cli, dbg, runtime, sink = make_session([1], stop_on_init=True)
    dbg.run()
    session.set_data_capture("control-only")
    dbg.cont()
    ctl = session.model.find_actor("controller")
    f1 = session.model.find_actor("filter_1")
    assert ctl.outbound["cmd_out_1"].pushed == 1  # control tokens still seen
    assert f1.outbound["an_output"].pushed == 0


def test_data_capture_mode_via_cli_and_restore():
    session, cli, dbg, *_ = make_session([1, 2], stop_on_init=True)
    dbg.run()
    out = cli.execute("dataflow capture none")
    assert "none" in out[0]
    out = cli.execute("dataflow capture all")
    assert "all" in out[0]
    ev = dbg.cont()
    assert ev.kind == StopKind.EXITED
    assert session.capture.data_events_processed > 0


# --------------------------------------------------------------------- DOT


def test_dot_export_shape():
    session, cli, dbg, *_ = make_session([1], stop_on_init=True)
    dbg.run()
    dot = session.graph_dot()
    assert dot.startswith('digraph "amodule_demo"')
    assert 'subgraph "cluster_AModule"' in dot
    assert 'fillcolor="palegreen"' in dot  # controller is a green box
    assert "shape=ellipse" in dot  # filters
    assert "shape=diamond" in dot  # host source/sink
    assert "style=dotted" in dot  # control links
    assert "style=dashed" in dot  # DMA host links
    assert "AModule_filter_1 -> AModule_filter_2" in dot


def test_dot_token_counts_on_edges():
    session, cli, dbg, *_ = make_session([5], stop_on_init=True)
    dbg.run()
    session.catch_iface("stim::out", event="push", temporary=True)
    dbg.cont()
    dot = session.graph_dot()
    assert 'label="1"' in dot  # the in-flight token shows on its edge


def test_graph_update_modes():
    session, cli, dbg, *_ = make_session([1], stop_on_init=True, graph_update="realtime")
    dbg.run()
    before = session.graph_renders
    dbg.cont()
    assert session.graph_renders > before  # re-rendered on data events
    session2, cli2, dbg2, *_ = make_session([1], stop_on_init=True, graph_update="on-stop")
    dbg2.run()
    renders_after_init = session2.graph_renders
    dbg2.cont()
    # on-stop renders once per stop, not per event
    assert session2.graph_renders <= renders_after_init + 1


def test_dataflow_info_command():
    session, cli, dbg, *_ = make_session([1], stop_on_init=True)
    dbg.run()
    out = cli.execute("dataflow info")
    joined = "\n".join(out)
    assert "program: amodule_demo" in joined
    assert "actors: 5" in joined


def test_graph_update_command_switches_mode_and_rejects_a_bad_one():
    session, cli, dbg, *_ = make_session([1], stop_on_init=True)
    assert cli.execute("dataflow update realtime") == ["graph update mode set to realtime"]
    assert session.graph_update == "realtime"
    assert cli.execute("dataflow update on-stop") == ["graph update mode set to on-stop"]
    assert cli.execute("dataflow update sometimes") == [
        "error: bad graph update mode 'sometimes' (use realtime or on-stop)"
    ]
    assert session.graph_update == "on-stop"
    with pytest.raises(DataflowDebugError, match="bad graph update mode 'always'"):
        make_session([1], graph_update="always")
