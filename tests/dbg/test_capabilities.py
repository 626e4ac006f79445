"""The hook-capability vocabulary: one definition, stable semantics.

Regression guard for the bitmask contract: the mask holds only bits an
interpreter reads.  ``CAP_ALL`` is the statement/call/return hook bits,
``CAP_ISA`` stays *outside* it (it flips the VM into its per-instruction
prelude), all bits stay distinct, and the
:mod:`repro.dbg` re-exports are the
:class:`~repro.cminus.interp.DebugHook` constants themselves.  Telemetry
and RV raise no bit at all: they consume the event tap.
``hook.capabilities`` is the session-wide union; each interpreter caches
only the bits that can fire for it, so a breakpoint hooks only the actor
it can stop.
"""

import random

import pytest

from repro.apps.h264.app import build_decoder
from repro.apps.rle import build_rle_pipeline
from repro.cminus.interp import DebugHook
from repro.core import DataflowSession
from repro.dbg import (
    CAP_ALL,
    CAP_CALLS,
    CAP_ISA,
    CAP_RETURNS,
    CAP_STATEMENTS,
    CommandCli,
    Debugger,
    StopKind,
)
from repro.serve.builders import build_program_cli

from .util import hooked

ALL_BITS = {
    "CAP_STATEMENTS": CAP_STATEMENTS,
    "CAP_CALLS": CAP_CALLS,
    "CAP_RETURNS": CAP_RETURNS,
    "CAP_ISA": CAP_ISA,
}


def test_observation_bits_stay_outside_cap_all():
    assert CAP_ISA & CAP_ALL == 0
    # ... while the three hook bits are exactly CAP_ALL
    assert CAP_STATEMENTS | CAP_CALLS | CAP_RETURNS == CAP_ALL


def test_bits_are_distinct_single_bit_powers_of_two():
    values = list(ALL_BITS.values())
    assert len(set(values)) == len(values)
    for name, bit in ALL_BITS.items():
        assert bit > 0 and bit & (bit - 1) == 0, name


def test_dbg_reexports_are_the_interp_constants():
    for name, bit in ALL_BITS.items():
        assert bit == getattr(DebugHook, name)
    assert CAP_ALL == DebugHook.CAP_ALL


def _rle():
    sched, runtime, _sink = build_rle_pipeline([5, 5, 2, 7])
    return sched, runtime


def _h264():
    sched, _platform, runtime, _source, _sink, _mbs = build_decoder(n_mbs=2)
    return sched, runtime


@pytest.mark.parametrize("build", [_rle, _h264], ids=["rle", "h264"])
def test_telemetry_and_rv_leave_the_hook_mask_alone(build):
    sched, runtime = build()
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    session = DataflowSession(dbg, cli=cli, stop_on_init=True)
    dbg.run()
    caps = dbg.hook.capabilities
    assert cli.execute("trace on") == ["telemetry enabled (spans + metrics collecting)"]
    assert cli.execute("check add log deadlock-free")[0].startswith("armed ")
    assert session.telemetry.enabled and session.checks.armed
    assert dbg.hook.capabilities == caps

    ev = dbg.cont()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    assert ev.kind == StopKind.EXITED
    interps = [a.interp for a in runtime.all_actors() if getattr(a, "interp", None)]
    assert interps
    for interp in interps:
        # the VM ran uninstrumented: no prelude, no profile sink, no counts
        assert interp._vm_trace is False
        assert interp._profile is None
        assert interp.opcode_cycles == {}


# ------------------------------------------------- per-interpreter masks


def _rle_feed(seed=1, rounds=2000):
    """The daemon round-trip feed: one ``pack`` firing per run of equal
    values, ``rounds + 8`` runs of 1–4 repeats."""
    rng = random.Random(seed)
    values, prev = [], None
    for _ in range(rounds + 8):
        value = rng.randrange(1, 100)
        while value == prev:
            value = rng.randrange(1, 100)
        values.extend([value] * rng.randint(1, 4))
        prev = value
    return values


def _interps(runtime):
    return {
        a.qualname: a.interp
        for a in runtime.all_actors()
        if getattr(a, "interp", None) is not None
    }


def _stopped_at_pack(line=7):
    """An RLE session parked at its first ``pack.c:<line>`` hit."""
    sched, runtime = _rle()
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    DataflowSession(dbg, cli=cli, stop_on_init=True)
    dbg.run()
    bp = dbg.break_source(f"pack.c:{line}")
    assert dbg.cont().kind == StopKind.BREAKPOINT
    return dbg, runtime, bp


def test_a_source_breakpoint_deoptimizes_only_its_actor():
    """2,000 break→continue round trips on pack.c:7: the statement hook
    only ever sees ``pack``, ``expand`` and ``controller`` run unhooked,
    and the machine does exactly the work it did with one shared mask."""
    cli, _sink = build_program_cli("rle", values=_rle_feed())
    service = cli.service
    dbg = service.dbg
    interps = _interps(dbg.runtime)
    pack = interps["codec.pack"]
    others = [interps["codec.expand"], interps["codec.controller"]]
    assert service.execute("break pack.c:7").ok
    assert service.execute("run").ok
    assert dbg.hook.capabilities == CAP_STATEMENTS
    assert pack._want_stmt and not any(i._want_stmt for i in others)

    seen = set()
    on_statement = dbg._on_statement

    def spy(interp, stmt):
        seen.add(id(interp))
        return on_statement(interp, stmt)

    dbg._on_statement = spy
    for _ in range(2000):
        stop = service.execute("continue").stop
        assert (stop["kind"], stop["actor"]) == ("breakpoint", "codec.pack")
        assert not any(i._want_stmt for i in others)
    assert seen == {id(pack)}
    assert dbg.runtime.scheduler.dispatch_count == 69_088
    executed = {q: i.state.statements_executed for q, i in interps.items()}
    assert executed == {
        "codec.controller": 5_999,
        "codec.pack": 47_042,
        "codec.expand": 27_024,
    }
    assert sum(executed.values()) == 80_065


def test_an_actor_filter_narrows_a_source_breakpoint():
    sched, runtime = _rle()
    dbg = Debugger(sched, runtime)
    interps = _interps(runtime)
    dbg.break_source("pack.c:7", actor="codec.expand")
    # pack.c runs only in pack, and the filter admits only expand
    assert dbg.hook.capabilities == CAP_STATEMENTS
    assert hooked(runtime) == set()


def test_function_breakpoints_and_watchpoints_arm_only_their_actor():
    sched, runtime = _rle()
    dbg = Debugger(sched, runtime)
    interps = _interps(runtime)
    fbp = dbg.break_function("ExpandFilter_work_function")
    assert [q for q, i in interps.items() if i._want_call] == ["codec.expand"]
    assert hooked(runtime) == {"codec.expand"}
    dbg.delete(fbp.id)
    dbg.watch("value", actor="codec.pack")
    assert [q for q, i in interps.items() if i._want_stmt] == ["codec.pack"]
    assert not any(i._want_call or i._want_ret for i in interps.values())


def test_a_step_and_a_finish_arm_only_the_stepping_actor():
    dbg, runtime, bp = _stopped_at_pack()
    interps = _interps(runtime)
    dbg.delete(bp.id)
    fast_elsewhere = []
    on_statement = dbg._on_statement

    def spy(interp, stmt):
        fast_elsewhere.append(
            (interp is interps["codec.pack"], hooked(runtime) == {"codec.pack"})
        )
        return on_statement(interp, stmt)

    dbg._on_statement = spy
    assert dbg.step().kind == StopKind.STEP
    assert fast_elsewhere and all(mine and fast for mine, fast in fast_elsewhere)
    # the step landed: nothing stays armed
    assert dbg.hook.capabilities == 0
    dbg.finish_breakpoint()
    assert [q for q, i in interps.items() if i._want_ret] == ["codec.pack"]
    assert hooked(runtime) == {"codec.pack"}


def test_a_rearmed_breakpoint_fires_on_its_first_hit():
    """Stop at pack.c:21, delete it and stop in ``expand`` instead: pack
    runs on unhooked and parks on the blocking read of line 20.  Re-armed,
    pack.c:21 must fire on the very next statement, although the last
    hooked one was pack.c:21 too (a stale line entry would skip it)."""
    dbg, runtime, bp = _stopped_at_pack(line=21)
    pack = _interps(runtime)["codec.pack"]
    dbg.delete(bp.id)
    other = dbg.break_source("expand.c:3")
    assert dbg.cont().actor == "codec.expand"
    assert pack.frame.line == 20
    dbg.delete(other.id)
    before = pack.state.statements_executed
    dbg.break_source("pack.c:21")
    stop = dbg.cont()
    assert (stop.kind, stop.actor, stop.line) == (StopKind.BREAKPOINT, "codec.pack", 21)
    assert pack.state.statements_executed == before + 1
