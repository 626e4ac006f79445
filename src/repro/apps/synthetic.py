"""Synthetic multi-cluster stress graph for the sharded kernel.

``chains`` independent pipelines, each a linear sequence of modules
pinned to one cluster (= one shard island under the default heuristic).
Every module holds one controller and ``filters_per_module`` filters in
a chain; each filter firing runs one round of a deterministic 32-bit
LCG, so a value's path through the graph is checkable against
:func:`lcg_reference`.

At the defaults (4 x 25 x (1 + 9)) the graph elaborates exactly 1000
actors.  All actor names are globally unique so every link name — the
key of the canonical fingerprint streams — is unambiguous program-wide.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..cminus.typesys import U32
from ..p2012.soc import P2012Platform, PlatformConfig
from ..pedf.decls import ControllerDecl, FilterDecl, ModuleDecl, ProgramDecl
from ..pedf.runtime import PedfRuntime
from ..sim.kernel import Scheduler
from ..sim.sharding import HostSpec

#: LCG constants (Numerical Recipes); U32 arithmetic wraps mod 2**32
FILTER_SOURCE = """\
// lcg.c — one round of a 32-bit LCG per firing
void work() {
    U32 x = pedf.io.i[0];
    x = x * 1664525 + 1013904223;
    pedf.io.o[0] = x;
}
"""


def _controller_source(filter_names: Sequence[str]) -> str:
    fires = "\n".join(f"    ACTOR_FIRE({name});" for name in filter_names)
    return f"// chain_ctl.c\nvoid work() {{\n{fires}\n    WAIT_FOR_ACTOR_SYNC();\n}}\n"


def lcg_reference(values: Sequence[int], total_filters: int) -> List[int]:
    """Golden model: each value passes through every filter of a chain."""
    out = []
    for v in values:
        x = v % 2**32
        for _ in range(total_filters):
            x = (x * 1664525 + 1013904223) % 2**32
        out.append(x)
    return out


def build_synthetic_program(
    chains: int = 4,
    modules_per_chain: int = 25,
    filters_per_module: int = 9,
    steps: int = 4,
) -> ProgramDecl:
    """``chains`` independent module pipelines, one cluster each."""
    program = ProgramDecl(name="synthetic")
    for c in range(chains):
        for m in range(modules_per_chain):
            mod = ModuleDecl(name=f"c{c}m{m}", cluster=c)
            fnames = [f"c{c}m{m}f{j}" for j in range(filters_per_module)]
            ctl = ControllerDecl(
                name=f"c{c}m{m}ctl",
                source=_controller_source(fnames),
                source_name="chain_ctl.c",
                max_steps=steps,
            )
            mod.set_controller(ctl)
            for fname in fnames:
                f = FilterDecl(name=fname, source=FILTER_SOURCE, source_name="lcg.c")
                f.add_iface("i", "input", U32)
                f.add_iface("o", "output", U32)
                mod.add_filter(f)
            mod.add_iface("in", "input", U32)
            mod.add_iface("out", "output", U32)
            mod.bind("this", "in", fnames[0], "i")
            for a, b in zip(fnames, fnames[1:]):
                mod.bind(a, "o", b, "i", capacity=0)
            mod.bind(fnames[-1], "o", "this", "out", capacity=0)
            program.add_module(mod)
        for m in range(modules_per_chain - 1):
            # unbounded so a fast upstream module never stalls on a slow
            # downstream one (or on a cross-shard pop round trip)
            program.bind(f"c{c}m{m}", "out", f"c{c}m{m + 1}", "in", capacity=0)
    return program


def synthetic_hosts(chains: int = 4, modules_per_chain: int = 25) -> Tuple[HostSpec, ...]:
    specs = []
    for c in range(chains):
        specs.append(HostSpec(f"src{c}", f"c{c}m0", "in", "source"))
        specs.append(HostSpec(f"snk{c}", f"c{c}m{modules_per_chain - 1}", "out", "sink"))
    return tuple(specs)


def build_synthetic_pipeline(
    values: Sequence[int],
    chains: int = 4,
    modules_per_chain: int = 25,
    filters_per_module: int = 9,
    scheduler: Optional[Scheduler] = None,
    shard=None,  # Optional[repro.sim.sharding.ShardContext]
) -> Tuple[Scheduler, PedfRuntime, List]:
    """Every chain gets the same input stream; returns (sched, runtime,
    sinks) where ``sinks`` lists the sink actors that were elaborated
    locally (all of them in a single-kernel run)."""
    values = list(values)
    program = build_synthetic_program(
        chains=chains,
        modules_per_chain=modules_per_chain,
        filters_per_module=filters_per_module,
        steps=len(values),
    )
    sched = scheduler or Scheduler()
    platform = P2012Platform(
        sched,
        PlatformConfig(
            n_clusters=chains,
            pes_per_cluster=modules_per_chain * (filters_per_module + 1),
        ),
    )
    runtime = PedfRuntime(sched, platform, program, shard=shard)
    sinks = []
    for c in range(chains):
        runtime.add_source(f"src{c}", f"c{c}m0", "in", values, capacity=0)
        sink = runtime.add_sink(
            f"snk{c}", f"c{c}m{modules_per_chain - 1}", "out", expect=len(values)
        )
        if sink is not None:
            sinks.append(sink)
    return sched, runtime, sinks
