"""Event journal + runtime configuration knobs."""

import pytest

from repro.errors import DataflowDebugError

from .util import make_session


def test_event_journal_via_cli():
    session, cli, dbg, runtime, sink = make_session([1, 2], stop_on_init=True)
    dbg.run()
    assert cli.execute("dataflow events on") == ["event journal enabled"]
    dbg.cont()
    out = cli.execute("dataflow events 5")
    assert len(out) == 5
    assert all("pedf_rt_" in line for line in out)
    assert cli.execute("dataflow events off") == ["event journal disabled"]


@pytest.mark.parametrize("arg", ["abc", "-3", "5 more"])
def test_event_journal_rejects_a_malformed_count(arg):
    session, cli, dbg, runtime, sink = make_session([1, 2], stop_on_init=True)
    dbg.run()
    cli.execute("dataflow events on")
    dbg.cont()
    assert cli.execute(f"dataflow events {arg}") == [
        "error: usage: dataflow events [on|off|N]"
    ]


def test_journal_off_by_default():
    session, cli, dbg, runtime, sink = make_session([1], stop_on_init=True)
    dbg.run()
    with pytest.raises(DataflowDebugError):
        session.journal_tail()
    out = cli.execute("dataflow events")
    assert out[0].startswith("error:")


def test_journal_bounded():
    session, cli, dbg, runtime, sink = make_session([1, 2, 3], stop_on_init=True)
    dbg.run()
    session.enable_event_journal(limit=10)
    dbg.cont()
    assert len(session.journal) == 10  # capped


def test_runtime_max_steps_override():
    from repro.apps.amodule import build_amodule_program
    from repro.p2012.soc import P2012Platform, PlatformConfig
    from repro.pedf.runtime import PedfRuntime, RuntimeConfig
    from repro.sim import Scheduler

    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=1, pes_per_cluster=8))
    program = build_amodule_program(max_steps=10)
    runtime = PedfRuntime(sched, platform, program, RuntimeConfig(max_steps=2))
    runtime.add_source("s", "AModule", "module_in", [1, 2, 3, 4])
    sink = runtime.add_sink("k", "AModule", "module_out", expect=None)
    runtime.load()
    stop = sched.run()
    assert runtime.classify_stop(stop) == "exited"
    assert runtime.modules["AModule"].controller.step_no == 2
    assert len(sink.values) == 2


def test_source_with_period_spreads_pushes():
    from repro.apps.amodule import build_amodule_program
    from repro.p2012.soc import P2012Platform, PlatformConfig
    from repro.pedf.runtime import PedfRuntime
    from repro.sim import Scheduler

    def run(period):
        sched = Scheduler()
        platform = P2012Platform(sched, PlatformConfig(n_clusters=1, pes_per_cluster=8))
        program = build_amodule_program(max_steps=3)
        runtime = PedfRuntime(sched, platform, program)
        runtime.add_source("s", "AModule", "module_in", [1, 2, 3], period=period)
        runtime.add_sink("k", "AModule", "module_out", expect=3)
        runtime.load()
        sched.run()
        return sched.now

    assert run(period=500) > run(period=0)


def test_module_cluster_pinning():
    from repro.apps.h264.app import build_decoder

    sched, platform, runtime, source, sink, mbs = build_decoder(n_mbs=1)
    front = runtime.modules["front"]
    pred = runtime.modules["pred"]
    assert all(a.resource.cluster.index == 0 for a in front.actors())
    assert all(a.resource.cluster.index == 1 for a in pred.actors())
