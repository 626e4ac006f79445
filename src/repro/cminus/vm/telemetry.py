"""Per-opcode cycle accounting helpers for the bytecode tier.

While the profiler's ``profile_sink`` is armed the VM dispatch loop runs
its instrumented prelude and attributes each executed instruction's ISA
cost to ``Interpreter.opcode_cycles`` (keyed by opcode number — never
added to ``_pending``, so Delay streams stay tier-exact).  This module
is the read side: mnemonic-keyed tables for the attributed profiler
(``prof`` status, ``info opcodes``) and its replay-side deriver.
Everything here is a pure fold over interpreter state, so live and
re-executed runs produce identical tables.
"""

from __future__ import annotations

from typing import Dict, Iterable

from . import isa


def mnemonic_cycles(interp) -> Dict[str, int]:
    """One interpreter's ``opcode_cycles`` keyed by mnemonic."""
    out: Dict[str, int] = {}
    for op, cyc in getattr(interp, "opcode_cycles", {}).items():
        name = isa.NAMES[op]
        out[name] = out.get(name, 0) + cyc
    return out


def per_actor_opcode_cycles(actors: Iterable) -> Dict[str, Dict[str, int]]:
    """``{actor qualname: {mnemonic: cycles}}`` over live actors, keeping
    only actors that executed at least one instrumented instruction."""
    out: Dict[str, Dict[str, int]] = {}
    for actor in actors:
        interp = getattr(actor, "interp", None)
        if interp is None:
            continue
        table = mnemonic_cycles(interp)
        if table:
            out[actor.qualname] = table
    return out
