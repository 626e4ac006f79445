"""Sharded-vs-single determinism: the merged per-shard journal
fingerprint must be byte-identical to the single-kernel run's.

The canonical fingerprint is the per-link ordered token *value* stream
(Kahn determinism makes it interleaving- and timing-invariant), hashed
over a sorted link->stream map.  Cross-shard links carry the same names
as their single-kernel counterparts (both are computed from the
declaration), so the merged map is a drop-in comparand.

Also under test: a breakpoint in one shard pauses the whole fabric at a
consistent barrier, and resuming leaves dispatch streams — and therefore
fingerprints — unperturbed (stop invariance, shard by shard).
"""

import pytest

from repro.apps.amodule.app import AMODULE_HOSTS, build_demo
from repro.apps.rle.app import RLE_HOSTS, build_rle_pipeline, build_rle_program
from repro.core import DataflowSession
from repro.core.shards import ShardedRun
from repro.dbg import Debugger, StopKind
from repro.sim.kernel import StopKind as KernelStopKind
from repro.sim.sharding import (
    HostSpec,
    fingerprint_streams,
    partition_program,
)

VALUES = (1, 1, 2, 3, 3, 3, 3, 9, 9, 4)
AM_VALUES = (1, 2, 3, 4)


def _set_tier(runtime, tier):
    runtime.config.interp_tier = tier
    for actor in runtime.all_actors():
        interp = getattr(actor, "interp", None)
        if interp is not None:
            interp.tier = tier


def _run_to_exit(dbg):
    ev = dbg.run()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


def _single_rle_fingerprint(tier):
    sched, runtime, sink = build_rle_pipeline(VALUES)
    _set_tier(runtime, tier)
    session = DataflowSession(Debugger(sched, runtime))
    session.replay.record_on(interval=16)
    assert _run_to_exit(session.dbg).kind == StopKind.EXITED
    assert sink.values[: len(VALUES)] == list(VALUES)
    return fingerprint_streams(session.replay.master.link_value_streams())


def _sharded_rle(n_shards, tier):
    plan = partition_program(
        build_rle_program(VALUES), n_shards, hosts=[HostSpec(*h) for h in RLE_HOSTS]
    )

    def build(ctx):
        sched, runtime, sink = build_rle_pipeline(VALUES, shard=ctx)
        _set_tier(runtime, tier)
        return DataflowSession(Debugger(sched, runtime))

    return ShardedRun(plan, build, record=True)


def _single_amodule_fingerprint(tier):
    sched, _plat, runtime, _src, sink = build_demo(AM_VALUES)
    _set_tier(runtime, tier)
    session = DataflowSession(Debugger(sched, runtime))
    session.replay.record_on(interval=16)
    assert _run_to_exit(session.dbg).kind == StopKind.EXITED
    return fingerprint_streams(session.replay.master.link_value_streams())


def _sharded_amodule(n_shards, tier):
    from repro.apps.amodule.app import build_amodule_program

    plan = partition_program(
        build_amodule_program(attribute=1, max_steps=len(AM_VALUES)),
        n_shards,
        hosts=[HostSpec(*h) for h in AMODULE_HOSTS],
    )

    def build(ctx):
        sched, _plat, runtime, _src, _sink = build_demo(AM_VALUES, shard=ctx)
        _set_tier(runtime, tier)
        return DataflowSession(Debugger(sched, runtime))

    return ShardedRun(plan, build, record=True)


@pytest.mark.parametrize("tier", ["auto", "slow"])
@pytest.mark.parametrize("n_shards", [2, 4])
def test_rle_fingerprint_matches_single_kernel(tier, n_shards):
    single = _single_rle_fingerprint(tier)
    run = _sharded_rle(n_shards, tier)
    stop = run.run()
    assert stop.kind == "exited", stop
    assert run.fingerprint() == single


@pytest.mark.parametrize("tier", ["auto", "slow"])
@pytest.mark.parametrize("n_shards", [2, 4])
def test_amodule_fingerprint_matches_single_kernel(tier, n_shards):
    single = _single_amodule_fingerprint(tier)
    run = _sharded_amodule(n_shards, tier)
    stop = run.run()
    assert stop.kind == "exited", stop
    assert run.fingerprint() == single


def test_sharded_sink_receives_identity_roundtrip():
    run = _sharded_rle(2, "auto")
    assert run.run().kind == "exited"
    # the sink lives in some shard's runtime; find it by actor name
    received = None
    for session in run.sessions:
        for actor in session.dbg.runtime.all_actors():
            if actor.name == "cap" and hasattr(actor, "values"):
                received = actor.values
    assert received is not None and received[: len(VALUES)] == list(VALUES)


def test_breakpoint_in_one_shard_pauses_all_at_barrier():
    # reference: an undisturbed sharded run's per-shard dispatch counts
    ref = _sharded_rle(2, "auto")
    assert ref.run().kind == "exited"
    ref_dispatches = [s.dispatch_count for s in ref.shards]
    ref_fp = ref.fingerprint()

    run = _sharded_rle(2, "auto")
    codec_shard = run.plan.shard_of("codec")
    dbg = run.sessions[codec_shard].dbg
    dbg.break_source("pack.c:5", temporary=True)

    stop = run.run()
    assert stop.kind == "suspended"
    assert stop.shard == codec_shard
    assert stop.event is not None and stop.event.kind == StopKind.BREAKPOINT

    # every peer is parked at its own barrier — a quantum-boundary stop,
    # never a mid-dispatch or error state
    for shard in run.shards:
        if shard.index == codec_shard:
            continue
        assert shard.last_stop is None or shard.last_stop.kind in (
            KernelStopKind.MAX_TIME,
            KernelStopKind.DEADLOCK,
            KernelStopKind.EXHAUSTED,
        )

    # resuming re-enters the interrupted quantum: dispatch streams (and
    # therefore the fingerprint) are exactly those of the undisturbed run
    final = run.cont()
    while final.kind == "suspended":
        final = run.cont()
    assert final.kind == "exited"
    assert [s.dispatch_count for s in run.shards] == ref_dispatches
    assert run.fingerprint() == ref_fp


def test_info_shards_lines_after_run():
    run = _sharded_rle(2, "auto")
    assert run.run().kind == "exited"
    lines = run.info_lines()
    text = "\n".join(lines)
    assert "shard 0" in text and "shard 1" in text
    assert "horizon" in text or "closed" in text
    assert any("coordination rounds" in ln for ln in lines)


# ------------------------------------------------- synthetic multi-cluster

SYN_VALUES = (3, 1, 4, 1, 5)
#: small synthetic dims for the cheap regression rows (the full-size
#: 1000-actor graph runs once, in the dedicated test below)
SYN_SMALL = dict(chains=2, modules_per_chain=3, filters_per_module=2)


def _synthetic_single_fingerprint(values, **dims):
    from repro.apps.synthetic import build_synthetic_pipeline, lcg_reference
    from repro.sim.sharding import PushStreamRecorder

    sched, runtime, sinks = build_synthetic_pipeline(values, **dims)
    session = DataflowSession(Debugger(sched, runtime))
    rec = PushStreamRecorder(runtime)
    assert _run_to_exit(session.dbg).kind == StopKind.EXITED
    golden = lcg_reference(
        values,
        dims.get("modules_per_chain", 25) * dims.get("filters_per_module", 9),
    )
    for sink in sinks:
        assert sink.values == golden
    return fingerprint_streams(dict(rec.streams))


def _sharded_synthetic(n_shards, values, override=None, **dims):
    from repro.apps.synthetic import (
        build_synthetic_pipeline,
        build_synthetic_program,
        synthetic_hosts,
    )
    from repro.sim.sharding import PushStreamRecorder, merge_link_streams

    program = build_synthetic_program(
        chains=dims.get("chains", 4),
        modules_per_chain=dims.get("modules_per_chain", 25),
        filters_per_module=dims.get("filters_per_module", 9),
        steps=len(values),
    )
    hosts = synthetic_hosts(
        dims.get("chains", 4), dims.get("modules_per_chain", 25)
    )
    plan = partition_program(
        program, n_shards, hosts=hosts, override=override
    )
    recorders = []

    def build(ctx):
        sched, runtime, _sinks = build_synthetic_pipeline(values, shard=ctx, **dims)
        recorders.append(PushStreamRecorder(runtime))
        return DataflowSession(Debugger(sched, runtime))

    run = ShardedRun(plan, build)
    assert run.run().kind == "exited"
    return fingerprint_streams(merge_link_streams([r.streams for r in recorders]))


@pytest.mark.parametrize("n_shards", [2, 4])
def test_synthetic_small_fingerprint_matches_single_kernel(n_shards):
    single = _synthetic_single_fingerprint(SYN_VALUES, **SYN_SMALL)
    assert _sharded_synthetic(n_shards, SYN_VALUES, **SYN_SMALL) == single


def test_synthetic_split_chain_override_fingerprint():
    """An override that cuts *through* a chain (fabric-to-fabric cross
    links, not just host boundaries) must not change the fingerprint."""
    single = _synthetic_single_fingerprint(SYN_VALUES, **SYN_SMALL)
    sharded = _sharded_synthetic(
        2, SYN_VALUES, override={"c0m1": 1, "c0m2": 1}, **SYN_SMALL
    )
    assert sharded == single


def test_synthetic_1000_actor_fingerprint_matches_single_kernel():
    """The headline graph: 4 clusters x 25 modules x (1 controller + 9
    filters) = 1000 fabric actors, sharded 2 ways on the default
    cluster-island heuristic."""
    single = _synthetic_single_fingerprint(SYN_VALUES)
    assert _sharded_synthetic(2, SYN_VALUES) == single
