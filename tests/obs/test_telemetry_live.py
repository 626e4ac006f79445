"""Live telemetry: counters vs. ground truth, CLI.

Busy-time exactness against the profiler's flush-site charges lives in
``test_profiler.py``; telemetry itself never touches an interpreter.
"""

import pytest

from repro.apps.rle import build_rle_pipeline
from repro.core import DataflowSession
from repro.dbg import CommandCli, Debugger, StopKind
from repro.obs import INIT_TRACK


def rle_session(values=(5, 5, 5, 2, 7, 7), tier="auto"):
    sched, runtime, sink = build_rle_pipeline(list(values))
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    session = DataflowSession(dbg, cli=cli)
    runtime.config.interp_tier = tier
    for actor in runtime.all_actors():
        if getattr(actor, "interp", None) is not None:
            actor.interp.tier = tier
    return session, cli, sink


def run_to_exit(dbg):
    ev = dbg.run()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


# ------------------------------------------------------------ arming model


def test_telemetry_off_by_default_and_armed_on_enable():
    session, _, _ = rle_session()
    dbg = session.dbg
    caps = dbg.hook.capabilities
    assert not session.telemetry.enabled
    assert session.tap.consumers == ()
    session.telemetry.enable()
    assert session.telemetry.enabled
    # telemetry is a view of the tap's history: the builder is not on the
    # tap, and arming raises no mask bit and changes no interpreter
    assert session.tap.consumers == ()
    assert session.telemetry in session.tap.views and session.tap._sub is not None
    assert dbg.hook.capabilities == caps
    for actor in dbg.runtime.all_actors():
        interp = getattr(actor, "interp", None)
        if interp is not None:
            assert not (interp._want_stmt or interp._want_call or interp._want_ret)
            assert not interp._vm_trace
    session.telemetry.disable()
    assert not session.telemetry.enabled
    assert session.tap.consumers == ()


def test_telemetry_adds_exactly_one_wildcard_subscription():
    session, _, _ = rle_session()
    bus = session.dbg.runtime.bus

    def wildcard_subs():
        return len(bus._listeners.get("*", []))

    before = wildcard_subs()
    session.telemetry.enable()
    assert wildcard_subs() == before + 1
    session.telemetry.enable()  # idempotent
    assert wildcard_subs() == before + 1
    session.telemetry.disable()
    assert wildcard_subs() == before


# ---------------------------------------------------- counters vs. ground truth


@pytest.mark.parametrize("tier", ["auto", "vm", "slow"])
def test_live_metrics_match_runtime_totals(tier):
    session, _, sink = rle_session(tier=tier)
    session.telemetry.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    metrics = session.telemetry.metrics

    # per-link push/pop counters equal the model's reconstructed totals
    model_links = {l.name: (l.total_pushed, l.total_popped) for l in session.model.links}
    obs_links = {n: (m.pushes, m.pops) for n, m in metrics.links.items()}
    assert obs_links == model_links
    assert model_links, "run reconstructed no links"

    # per-actor firing/step counters equal the model's capture counters
    for actor in session.model.actors.values():
        m = metrics.actors.get(actor.qualname)
        assert m is not None, f"no metrics for {actor.qualname}"
        if actor.kind == "filter":
            assert m.firings == actor.works_done
        if actor.kind == "controller":
            assert m.steps == session.model.steps.get(actor.qualname)

    # occupancy gauges drained back to zero, high-water saw traffic
    for name, lm in metrics.links.items():
        assert lm.occupancy == 0, name
        assert lm.high_water >= 1, name
        assert lm.push_latency.count == lm.pushes
        assert lm.pop_latency.count == lm.pops


def test_both_tiers_collect_identical_telemetry():
    """All execution tiers issue byte-identical kernel-request
    streams, so their telemetry must be byte-identical too."""
    by_tier = {}
    for tier in ("auto", "vm", "slow"):
        session, _, _ = rle_session(tier=tier)
        session.telemetry.enable()
        run_to_exit(session.dbg)
        by_tier[tier] = (
            session.telemetry.metrics.render(),
            session.telemetry.export_json("rle"),
        )
    assert by_tier["auto"] == by_tier["slow"]
    assert by_tier["vm"] == by_tier["slow"]


def test_span_hierarchy_shapes():
    session, _, _ = rle_session()
    session.telemetry.enable()
    run_to_exit(session.dbg)
    snap = session.telemetry.sink.snapshot()
    assert snap.dropped == 0
    names = snap.name_counts
    # firing spans pair one-to-one with their Filter-C work spans,
    # controller steps with their run spans
    assert names["firing"] == names["work"] > 0
    assert names["step"] == names["run"] > 0
    assert names["push"] == names["pop"] > 0
    # elaboration events landed on the init track
    assert any(s.track == INIT_TRACK for s in snap.spans)
    # every span is well-formed and all stacks drained (closed spans only)
    for s in snap.spans:
        assert s.end >= s.begin
    builder = session.telemetry.builder
    for actor in session.model.actors.values():
        assert builder.open_depth(actor.qualname) == 0


def test_dot_annotation_rides_graph_dot():
    session, _, _ = rle_session()
    plain = None
    session.telemetry.enable()
    run_to_exit(session.dbg)
    annotated = session.graph_dot()
    assert "firings" in annotated
    assert "peak" in annotated
    # a session without telemetry renders the classic output
    session2, _, _ = rle_session()
    run_to_exit(session2.dbg)
    plain = session2.graph_dot()
    assert "firings" not in plain and "peak" not in plain


# ------------------------------------------------------------------ CLI


def test_trace_command_lifecycle(tmp_path):
    session, cli, _ = rle_session()
    out = cli.execute("trace on")
    assert any("enabled" in line for line in out)
    run_to_exit(session.dbg)
    status = cli.execute("trace status")
    assert any("telemetry: on" in line for line in status)
    assert any("spans:" in line for line in status)

    metrics_out = cli.execute("info metrics")
    assert any("actors:" in line for line in metrics_out)
    assert any("codec.pack" in line for line in metrics_out)
    assert not any("warning" in line for line in metrics_out)

    spans_out = cli.execute("info spans 5")
    assert any("span(s) stored" in line for line in spans_out)

    trace_info = cli.execute("info trace")
    assert any("replay journal" in line for line in trace_info)

    path = tmp_path / "out.json"
    out = cli.execute(f"trace export {path}")
    assert any("wrote" in line for line in out)
    assert path.read_text().startswith("{")

    out = cli.execute("trace off")
    assert any("disabled" in line for line in out)
    # data survives disable
    assert cli.execute("info metrics")


def test_info_opcodes_on_the_default_tier():
    """``info opcodes`` tabulates the VM's per-opcode cycle attribution:
    nothing before the profiler is armed (telemetry alone counts none),
    then one row per executed opcode (each a whole number of that
    opcode's ISA cost) and their total."""
    from repro.cminus.vm import isa

    session, cli, _ = rle_session()
    assert cli.execute("info opcodes")[0].startswith("no opcode cycles counted")

    cli.execute("trace on")
    cli.execute("prof on")
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    out = cli.execute("info opcodes")
    assert out[0].split() == ["opcode", "cycles"]
    rows = dict((name, int(cyc)) for name, cyc in (line.split() for line in out[1:]))
    total = rows.pop("total")
    assert rows == session.prof.opcode_totals()
    assert {"ior", "iow"} <= set(rows), rows
    assert total == sum(rows.values()) > 0
    for name, cycles in rows.items():
        assert cycles % isa.COST[isa.BY_NAME[name]] == 0, name
    # rows are ordered by cycles, heaviest first
    assert list(rows.values()) == sorted(rows.values(), reverse=True)

    slow, slow_cli, _ = rle_session(tier="slow")
    slow_cli.execute("prof on")
    assert run_to_exit(slow.dbg).kind == StopKind.EXITED
    assert slow_cli.execute("info opcodes")[0].startswith("no opcode cycles counted")


def test_drop_warning_surfaces_on_bounded_sink():
    session, cli, _ = rle_session()
    cli.execute("trace on limit 5 ring")
    run_to_exit(session.dbg)
    assert session.telemetry.sink.dropped > 0
    for command in ("info metrics", "info spans", "trace status", "info trace"):
        out = cli.execute(command)
        assert any("warning" in line and "dropped" in line for line in out), command


def test_trace_clear_resets_collection():
    session, cli, _ = rle_session()
    cli.execute("trace on")
    run_to_exit(session.dbg)
    assert len(session.telemetry.sink) > 0
    cli.execute("trace clear")
    assert session.telemetry.enabled
    assert len(session.telemetry.sink) == 0


def test_trace_clear_keeps_the_span_bound():
    """``trace clear`` re-arms with the bound the sink was built with, and
    ``trace on`` with a different bound is refused, never ignored."""
    session, cli, _ = rle_session()

    def spans_line():
        return next(l for l in cli.execute("trace status") if "spans:" in l)

    cli.execute("trace on limit 5 ring")
    cli.execute("trace clear")
    assert session.telemetry.enabled
    assert "(ring limit=5)" in spans_line()
    assert cli.execute("trace on limit 5 ring") == ["telemetry enabled (spans + metrics collecting)"]

    cli.execute("trace off")
    out = cli.execute("trace on limit 3")
    assert out[0].startswith("error:") and "ring limit=5" in out[0], out
    assert not session.telemetry.enabled
    # a bare `trace on` resumes the existing sink with its bound
    cli.execute("trace on")
    assert session.telemetry.enabled and "(ring limit=5)" in spans_line()

    # off + clear drops the sink, so the next bound takes effect
    cli.execute("trace off")
    cli.execute("trace clear")
    cli.execute("trace on limit 3")
    assert "(cap limit=3)" in spans_line()
    run_to_exit(session.dbg)
    assert len(session.telemetry.sink) == 3
