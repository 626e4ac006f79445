"""The hook-capability vocabulary: one definition, stable semantics.

Regression guard for the bitmask contract: the mask holds only bits an
interpreter reads.  ``CAP_ALL`` is the three tier-selection bits,
``CAP_ISA`` stays *outside* it (arming it must never flip tier
selection), all bits stay distinct, and the :mod:`repro.dbg` re-exports
are the :class:`~repro.cminus.interp.DebugHook` constants themselves.
Telemetry and RV raise no bit at all: they consume the event tap.
"""

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

ALL_BITS = {
    "CAP_STATEMENTS": CAP_STATEMENTS,
    "CAP_CALLS": CAP_CALLS,
    "CAP_RETURNS": CAP_RETURNS,
    "CAP_ISA": CAP_ISA,
}


def test_observation_bits_stay_outside_cap_all():
    assert CAP_ISA & CAP_ALL == 0
    # ... while the three tier-selection bits are exactly CAP_ALL
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
