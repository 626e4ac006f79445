"""Property tests over randomly-shaped pipelines.

Token conservation and model/runtime agreement must hold for any linear
pipeline of arithmetic filters, any values and any link capacities — the
invariants the paper's debugger model relies on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cminus.typesys import U32
from repro.core import DataflowSession
from repro.dbg import Debugger
from repro.p2012.soc import P2012Platform, PlatformConfig
from repro.pedf.decls import ControllerDecl, FilterDecl, ModuleDecl, ProgramDecl
from repro.pedf.runtime import PedfRuntime
from repro.sim import Scheduler

OPS = {
    "add": ("pedf.io.i[0] + pedf.attribute.k", lambda x, k: (x + k) & 0xFFFFFFFF),
    "mul": ("pedf.io.i[0] * pedf.attribute.k", lambda x, k: (x * k) & 0xFFFFFFFF),
    "xor": ("pedf.io.i[0] ^ pedf.attribute.k", lambda x, k: x ^ k),
    "shift": ("pedf.io.i[0] << (pedf.attribute.k & 7)", lambda x, k: (x << (k & 7)) & 0xFFFFFFFF),
}


def build_pipeline(stage_specs, values, capacity):
    program = ProgramDecl(name="pipeline")
    mod = ModuleDecl(name="m")
    fire = "".join(f"ACTOR_FIRE(s{i}); " for i in range(len(stage_specs)))
    ctl = ControllerDecl(
        name="controller",
        source=f"void work() {{ {fire}WAIT_FOR_ACTOR_SYNC(); }}",
        source_name="ctl.c",
        max_steps=len(values),
    )
    mod.set_controller(ctl)
    for i, (op, k) in enumerate(stage_specs):
        expr, _ = OPS[op]
        f = FilterDecl(
            name=f"s{i}",
            source=f"void work() {{ pedf.io.o[0] = {expr}; }}",
            source_name=f"s{i}.c",
        )
        f.add_attribute("k", U32, k)
        f.add_iface("i", "input", U32)
        f.add_iface("o", "output", U32)
        mod.add_filter(f)
    mod.add_iface("min_", "input", U32)
    mod.add_iface("mout", "output", U32)
    mod.bind("this", "min_", "s0", "i")
    for i in range(len(stage_specs) - 1):
        mod.bind(f"s{i}", "o", f"s{i + 1}", "i", capacity=capacity)
    mod.bind(f"s{len(stage_specs) - 1}", "o", "this", "mout")
    program.add_module(mod)

    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=2, pes_per_cluster=8))
    runtime = PedfRuntime(sched, platform, program)
    runtime.add_source("stim", "m", "min_", list(values))
    sink = runtime.add_sink("cap", "m", "mout", expect=len(values))
    return sched, runtime, sink


def golden(stage_specs, values):
    out = []
    for v in values:
        x = v
        for op, k in stage_specs:
            x = OPS[op][1](x, k)
        out.append(x)
    return out


@settings(max_examples=20, deadline=None)
@given(
    stage_specs=st.lists(
        st.tuples(st.sampled_from(sorted(OPS)), st.integers(min_value=0, max_value=1000)),
        min_size=1,
        max_size=5,
    ),
    values=st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=8),
    capacity=st.integers(min_value=1, max_value=4),
)
def test_property_pipeline_output_and_conservation(stage_specs, values, capacity):
    sched, runtime, sink = build_pipeline(stage_specs, values, capacity)
    dbg = Debugger(sched, runtime)
    session = DataflowSession(dbg)
    # ``iface ... record`` on every interface, unbounded (capacity 0)
    stages = [f"s{i}" for i in range(len(stage_specs))]
    for qual in ["stim::out", "cap::in"] + [f"{s}::{io}" for s in stages for io in "io"]:
        session.records.enable(qual, 0)
    ev = dbg.run()
    assert ev.kind.value == "exited"
    # functional correctness against the golden fold
    assert sink.values == golden(stage_specs, values)
    # token conservation on every reconstructed link, and exact agreement
    # between the event-derived model and the runtime ground truth
    for link in session.model.links:
        assert link.total_pushed == link.total_popped == len(values)
        assert link.occupancy == 0
    assert len(session.model.links) == len(runtime.links)
    # every token has a provenance parent except the source's
    recorded = [t for buf in session.records.buffers.values() for t in buf.entries]
    assert len({t.seq for t in recorded}) == len(values) * (len(stage_specs) + 1)
    for token in recorded:
        if token.src_actor == "stim":
            assert token.parents == []
        else:
            assert len(token.parents) == 1
