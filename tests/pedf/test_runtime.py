"""End-to-end PEDF runtime tests on the AModule demo."""

import pytest

from repro.apps.amodule import build_amodule_program, build_demo
from repro.apps.amodule.app import expected_output
from repro.errors import PedfError
from repro.pedf import SYM_PUSH, SYM_STEP_BEGIN, SYM_WORK_ENTER
from repro.pedf.actors import ActorState
from repro.sim import StopKind


def run_demo(values=(1, 2, 3, 4), attribute=1):
    sched, platform, runtime, source, sink = build_demo(values, attribute)
    runtime.load()
    stop = sched.run()
    return sched, runtime, source, sink, stop


def test_pipeline_computes_expected_values():
    values = [1, 2, 3, 4]
    sched, runtime, source, sink, stop = run_demo(values)
    assert runtime.classify_stop(stop) == "exited"
    assert sink.values == expected_output(values)


def test_pipeline_with_attribute():
    values = [10, 20]
    _, _, _, sink, stop = run_demo(values, attribute=7)
    assert sink.values == expected_output(values, attribute=7)


def test_controller_steps_counted():
    sched, runtime, _, _, stop = run_demo([5, 6, 7])
    ctl = runtime.modules["AModule"].controller
    assert ctl.step_no == 3
    assert ctl.works_done == 3


def test_filter_work_invocations_counted():
    _, runtime, _, _, _ = run_demo([1, 2, 3])
    f1 = runtime.modules["AModule"].filters["filter_1"]
    assert f1.works_begun == 3
    assert f1.works_done == 3
    assert f1.state in (ActorState.FINISHED, ActorState.IDLE)


def test_private_data_updated():
    _, runtime, _, _, _ = run_demo([9])
    f1 = runtime.modules["AModule"].filters["filter_1"]
    assert f1.data_store["a_private_data"].data == 9


def test_framework_events_emitted():
    sched, platform, runtime, source, sink = build_demo([1, 2])
    events = []
    runtime.bus.subscribe("*", lambda e: events.append((e.phase, e.symbol)) or None)
    runtime.load()
    sched.run()
    symbols = {s for _, s in events}
    assert SYM_PUSH in symbols
    assert SYM_STEP_BEGIN in symbols
    assert SYM_WORK_ENTER in symbols
    # registration events happened before any step
    first_step = next(i for i, (p, s) in enumerate(events) if s == SYM_STEP_BEGIN)
    reg_after = [s for _, s in events[first_step:] if s.startswith("pedf_rt_register")]
    assert reg_after == []


def test_event_counts_match_traffic():
    sched, platform, runtime, source, sink = build_demo([1, 2, 3])
    pushes = []
    runtime.bus.subscribe(SYM_PUSH, lambda e: pushes.append(e) or None, phase="entry")
    runtime.load()
    sched.run()
    # per step: 2 cmd pushes + f1 out + f2 out = 4, plus 1 source push
    assert len(pushes) == 3 * 4 + 3


def test_actor_qualified_subscription():
    sched, platform, runtime, source, sink = build_demo([1, 2])
    f1_pushes = []
    runtime.bus.subscribe(
        SYM_PUSH, lambda e: f1_pushes.append(e) or None, actor="AModule.filter_1", phase="entry"
    )
    runtime.load()
    sched.run()
    assert len(f1_pushes) == 2  # one an_output push per step
    assert all(e.actor == "AModule.filter_1" for e in f1_pushes)


def test_link_counters_and_occupancy():
    _, runtime, _, sink, _ = run_demo([1, 2, 3, 4])
    link = next(l for l in runtime.links if "filter_1::an_output" in l.name)
    assert link.total_pushed == 4
    assert link.total_popped == 4
    assert link.occupancy == 0


def test_tokens_carry_provenance_fields():
    _, _, _, sink, _ = run_demo([1])
    tok = sink.last_token_in  # the only token (one value)
    assert tok.src_iface == "filter_2::an_output"
    assert tok.dst_iface == "capture::in"
    assert tok.seq > 0


def test_find_actor_and_iface():
    sched, platform, runtime, source, sink = build_demo()
    f1 = runtime.find_actor("filter_1")
    assert f1.qualname == "AModule.filter_1"
    assert runtime.find_actor("AModule.filter_1") is f1
    iface = runtime.find_iface("filter_1::an_output")
    assert iface.actor is f1
    with pytest.raises(PedfError):
        runtime.find_actor("nope")
    with pytest.raises(PedfError):
        runtime.find_iface("filter_1::nope")


def test_deadlock_when_source_missing():
    from repro.p2012.soc import P2012Platform, PlatformConfig
    from repro.pedf.runtime import PedfRuntime
    from repro.sim import Scheduler

    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=1, pes_per_cluster=8))
    program = build_amodule_program(max_steps=2)
    runtime = PedfRuntime(sched, platform, program)
    # a source that never produces: filter_1 blocks reading an_input forever
    runtime.add_source("silent", "AModule", "module_in", [])
    runtime.load()
    stop = sched.run()
    assert stop.kind == StopKind.DEADLOCK
    assert runtime.classify_stop(stop) == "deadlock"
    f1 = runtime.modules["AModule"].filters["filter_1"]
    assert f1.state == ActorState.RUNNING
    assert f1.blocked


def test_injection_unties_deadlock():
    """The §III 'altering the normal execution' scenario at runtime level."""
    from repro.p2012.soc import P2012Platform, PlatformConfig
    from repro.pedf.runtime import PedfRuntime
    from repro.sim import Scheduler

    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=1, pes_per_cluster=8))
    program = build_amodule_program(max_steps=1)
    runtime = PedfRuntime(sched, platform, program)
    runtime.add_source("silent", "AModule", "module_in", [])
    sink = runtime.add_sink("capture", "AModule", "module_out", expect=1)
    runtime.load()
    stop = sched.run()
    assert runtime.classify_stop(stop) == "deadlock"
    # inject the missing token on filter_1's input link
    link = next(l for l in runtime.links if l.dst and l.dst.qualname == "filter_1::an_input")
    link.inject(21)
    stop = sched.run()
    assert runtime.classify_stop(stop) == "exited"
    assert sink.values == expected_output([21])


def test_merged_debug_info_has_mangled_symbols():
    sched, platform, runtime, source, sink = build_demo()
    info = runtime.merged_debug_info()
    assert "Filter1Filter_work_function" in info.functions
    assert "_component_AModuleModule_anon_0_work" in info.functions


def test_actors_mapped_to_distinct_pes():
    sched, platform, runtime, source, sink = build_demo()
    resources = [a.resource for a in runtime.modules["AModule"].actors()]
    assert len({id(r) for r in resources}) == len(resources)
    assert all(r.occupant is not None for r in resources)


def test_source_sink_on_host_use_dma_links():
    sched, platform, runtime, source, sink = build_demo()
    src_link = source.out.link
    sink_link = sink.inp.link
    assert src_link.dma_assisted
    assert sink_link.dma_assisted
    inner = next(l for l in runtime.links if "filter_1::an_output" in l.name)
    assert not inner.dma_assisted


def test_simulated_time_advances():
    sched, runtime, _, _, _ = run_demo([1, 2, 3, 4])
    assert sched.now > 0


def test_cannot_add_source_after_load():
    sched, platform, runtime, source, sink = build_demo()
    runtime.load()
    with pytest.raises(PedfError):
        runtime.add_source("late", "AModule", "module_in", [1])
