"""Session factories: one fresh, fully-wired machine per debug session.

Every wire session owns a complete stack — scheduler, platform, runtime,
debugger, CLI command table, replay journal, telemetry, flight recorder —
built from scratch, so two sessions over the same program share *nothing*
(no breakpoint registry, no capability bits, no journal).  The same
factories back the interactive ``python -m repro --demo`` path, so the
daemon serves exactly what the prompt serves.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import ReproError

#: programs a wire client may name in ``create`` (closed set: the daemon
#: never loads caller-supplied files)
KNOWN_PROGRAMS = ("amodule", "rle", "h264")


def apply_tier(session, tier: str) -> None:
    """Force every live interpreter onto ``tier`` ("auto" is the default:
    the register-machine bytecode tier, which serves every debugger hook;
    "vm" is an alias of it; "slow" is the tree-walking tier, useful as a
    differential oracle)."""
    from ..cminus.interp import VALID_TIERS

    if tier not in VALID_TIERS:
        raise ReproError(
            f"unknown interpreter tier {tier!r} (choose from {', '.join(VALID_TIERS)})"
        )
    runtime = session.dbg.runtime
    runtime.config.interp_tier = tier
    for actor in runtime.all_actors():
        interp = getattr(actor, "interp", None)
        if interp is not None:
            interp.tier = tier


def build_program_cli(
    name: str,
    bug: Optional[str] = None,
    tier: str = "auto",
    values: Optional[List[int]] = None,
) -> Tuple[object, object]:
    """Build a fresh demo machine with an attached dataflow CLI.

    Returns ``(cli, sink)``; the session hangs off
    ``cli.dataflow_handler.session`` and time travel works out of the box
    (the replay builder re-runs the same factory).
    """
    from ..core import DataflowSession, install_dataflow_commands
    from ..dbg import CommandCli, Debugger

    if name == "amodule":
        from ..apps.amodule import build_demo

        def fresh():
            sched, platform, runtime, source, sink = build_demo()
            dbg = Debugger(sched, runtime)
            session = DataflowSession(dbg, stop_on_init=True)
            apply_tier(session, tier)
            return session, sink

    elif name == "rle":
        from ..apps.rle.app import build_rle_pipeline

        feed = list(values) if values else [5, 5, 5, 2, 7, 7]

        def fresh():
            sched, runtime, sink = build_rle_pipeline(feed)
            dbg = Debugger(sched, runtime)
            session = DataflowSession(dbg, stop_on_init=True)
            apply_tier(session, tier)
            return session, sink

    elif name == "h264":
        from ..apps.h264.app import build_decoder
        from ..apps.h264.bugs import BUG_VARIANTS

        variant = None
        if bug is not None:
            variant = BUG_VARIANTS.get(bug)
            if variant is None:
                raise ReproError(
                    f"unknown bug variant {bug!r} (choose from {', '.join(BUG_VARIANTS)})"
                )

        def fresh():
            if variant is not None:
                sched, platform, runtime, source, sink, mbs = variant.build()
            else:
                sched, platform, runtime, source, sink, mbs = build_decoder(n_mbs=8)
            dbg = Debugger(sched, runtime)
            session = DataflowSession(dbg, stop_on_init=True)
            apply_tier(session, tier)
            return session, sink

    else:
        raise ReproError(
            f"unknown program {name!r} (choose from {', '.join(KNOWN_PROGRAMS)})"
        )

    session, sink = fresh()
    cli = CommandCli(session.dbg)
    install_dataflow_commands(cli, session)
    session.cli = cli
    # the demos are self-contained, so time travel works out of the box:
    # replay rebuilds the whole application from the same factory
    session.replay.register_builder(lambda: fresh()[0])
    return cli, sink


def build_sharded_cli(
    name: str = "rle",
    n_shards: int = 2,
    tier: str = "auto",
    values: Optional[List[int]] = None,
    record: bool = True,
):
    """Build a :class:`~repro.core.shards.ShardedRun` with a dataflow CLI
    attached to shard 0 (the coordinator view: ``info shards`` and every
    inspection command work there; run control goes through the sharded
    engine, and a wire suspend pauses the whole fabric at a consistent
    barrier).

    Returns ``(cli, sharded_run)``.
    """
    from ..core import DataflowSession, install_dataflow_commands
    from ..core.shards import ShardedRun
    from ..dbg import CommandCli, Debugger
    from ..sim.sharding import HostSpec, partition_program

    if name == "rle":
        from ..apps.rle.app import RLE_HOSTS, build_rle_pipeline, build_rle_program

        feed = list(values) if values else [5, 5, 5, 2, 7, 7, 1, 1, 9]
        plan = partition_program(
            build_rle_program(feed), n_shards, hosts=[HostSpec(*h) for h in RLE_HOSTS]
        )

        def build(ctx):
            sched, runtime, sink = build_rle_pipeline(feed, shard=ctx)
            session = DataflowSession(Debugger(sched, runtime))
            apply_tier(session, tier)
            return session

    elif name == "amodule":
        from ..apps.amodule.app import (
            AMODULE_HOSTS,
            build_amodule_program,
            build_demo,
        )

        feed = list(values) if values else [1, 2, 3, 4]
        plan = partition_program(
            build_amodule_program(attribute=1, max_steps=len(feed)),
            n_shards,
            hosts=[HostSpec(*h) for h in AMODULE_HOSTS],
        )

        def build(ctx):
            sched, _plat, runtime, _src, _sink = build_demo(feed, shard=ctx)
            session = DataflowSession(Debugger(sched, runtime))
            apply_tier(session, tier)
            return session

    else:
        raise ReproError(f"program {name!r} has no sharded build (rle/amodule)")

    run = ShardedRun(plan, build, record=record)
    coordinator = run.sessions[0]
    cli = CommandCli(coordinator.dbg)
    install_dataflow_commands(cli, coordinator)
    coordinator.cli = cli
    return cli, run
