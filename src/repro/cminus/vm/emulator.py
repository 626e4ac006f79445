"""The PE ISA emulator: a dispatch-loop generator over compiled bytecode.

This is the default (``auto``) interpreter tier, and it serves every
debugger hook itself; the tree-walking interpreter is only the ``slow``
tier, the reference the differential suites compare against.

- **Boundary protocol** — every ``stmt`` instruction performs, in order:
  batched-Delay flush check, line-table update, statement count, the
  statement hook (when ``interp._want_stmt`` is cached) and the cost
  charge.  Flushes happen at the same structural points as the tree tier
  (boundary threshold, before dataflow I/O and intrinsics, function exit
  via ``run_function``) so kernel request streams, dispatch counts and
  replay journal fingerprints are byte-identical across both tiers.
  Calls and returns reach ``on_call``/``on_return`` in :func:`_activate`.

- **Inspection** — a VM frame keeps no interpreter scopes: the debugger
  reads its locals from the registers through the scope shape governing
  the activation's pc (:meth:`Activation.scopes`), only when asked.

- **Instruction tracing** — arming ``CAP_ISA`` (ISA breakpoints,
  register watchpoints, ``stepi``) or the profiler's ``profile_sink``
  (per-opcode cycle attribution) flips the loop into an instrumented
  prelude: per-instruction hooks are elided behind one local bool when
  disarmed, the ISA-level analogue of the hook capability bitmask.
"""

from __future__ import annotations

from typing import List, Tuple

from ...errors import CMinusRuntimeError
from ...sim.process import Delay
from ..interp import Frame
from ..typesys import S32, wrap_int
from ..values import Value, coerce, copy_raw, default_value, format_value
from . import isa
from .compiler import VmFunction

_ISA_COST = isa.COST


class Activation:
    """Live VM state of one frame — what ``info registers`` shows and
    what the frame's locals are read from.  Attached as ``frame.vm``."""

    __slots__ = ("vmf", "regs", "frame", "pc")

    def __init__(self, vmf: VmFunction, regs: List[object], frame: Frame):
        self.vmf = vmf
        self.regs = regs
        self.frame = frame
        self.pc = 0

    def registers(self) -> List[Tuple[int, str, object]]:
        """``(index, name-or-'', value)`` rows, parameter/local names from
        the compiler's register-allocation map."""
        names = self.vmf.reg_names
        return [(i, names.get(i, ""), v) for i, v in enumerate(self.regs)]

    def line(self) -> int:
        return self.vmf.line_at(self.pc)

    def scopes(self) -> List[dict]:
        """Interpreter-style scopes at ``pc``, outermost first: every name
        of the governing scope shape bound to a :class:`Value` over its
        register.  Built on demand and read-only (no write-back)."""
        regs = self.regs
        return [
            {nm: Value(ct, regs[reg]) for nm, ct, reg in shape}
            for shape in self.vmf.shape_at(self.pc)
        ]


def call_vm(interp, name: str, args: List):
    """Entry point used by ``Interpreter.run_function`` on every tier but
    ``slow``."""
    vmf = interp._vm_unit.funcs[name]
    return (yield from _activate(interp, vmf, args, 0))


def _activate(interp, vmf: VmFunction, args: List, call_line: int):
    """One VM activation: mirrors ``Interpreter._call_user`` exactly
    (frame shape, hook elision, cost charging, return protocol)."""
    func = vmf.func
    if len(args) != vmf.nparams:
        raise CMinusRuntimeError(
            f"{func.name}() expects {vmf.nparams} args, got {len(args)}"
        )
    regs = vmf.reg_init[:]
    convs = vmf.param_convs
    for i in range(vmf.nparams):
        regs[i] = convs[i](args[i])
    frame = Frame(
        func,
        vmf.fsym(interp),
        len(interp.frames),
        func.line,
        call_line,
        [],
    )
    act = Activation(vmf, regs, frame)
    frame.vm = act
    interp.frames.append(frame)
    interp.state.calls_made += 1
    hook = interp.hook
    if hook is not None and interp._want_call:
        req = hook.on_call(interp, frame)
        if req is not None:
            yield req
    if interp.timed and interp.cost.call_overhead:
        interp._pending += interp.cost.call_overhead
    ret = yield from _run(interp, act)
    hook = interp.hook
    if hook is not None and interp._want_ret:
        req = hook.on_return(interp, frame, ret)
        interp.frames.pop()
        if req is not None:
            yield req
    else:
        interp.frames.pop()
    return ret


def _run(interp, act: Activation):
    """The dispatch loop.  Hot opcodes are tested first; the instrumented
    per-instruction prelude costs one local bool test when disarmed."""
    vmf = act.vmf
    code = vmf.code
    regs = act.regs
    frame = act.frame
    state = interp.state
    types = vmf.types
    pc = 0
    tracing = interp._vm_trace
    while True:
        ins = code[pc]
        op = ins[0]
        if tracing:
            act.pc = pc
            if interp._profile is not None:
                c = _ISA_COST[op]
                if c:
                    oc = interp.opcode_cycles
                    oc[op] = oc.get(op, 0) + c
            if interp._isa_armed:
                hook = interp.hook
                if hook is not None:
                    req = hook.on_instruction(interp, act)
                    if req is not None:
                        yield req
                        tracing = interp._vm_trace
        if op == 0:  # STMT — the statement boundary
            act.pc = pc
            timed = interp.timed
            if timed and interp._pending >= interp._batch_limit:
                p = interp._pending
                interp._pending = 0
                if interp._profile is not None:
                    interp._profile(interp, p)
                yield Delay(p)
                tracing = interp._vm_trace
            frame.line = ins[1]
            state.statements_executed += 1
            if interp._want_stmt:
                hook = interp.hook
                if hook is not None:
                    req = hook.on_statement(interp, vmf.nodes[ins[2]])
                    if req is not None:
                        yield req
                        tracing = interp._vm_trace
            if timed:
                interp._pending += interp.cost.default_stmt
            pc += 1
            continue
        if op <= 12:  # ALU: ADD..XOR reg-reg, ADDK..XORK reg-const
            a = regs[ins[2]]
            b = regs[ins[3]] if op <= 6 else ins[3]
            if op == 1 or op == 7:
                r = a + b
            elif op == 2 or op == 8:
                r = a - b
            elif op == 3 or op == 9:
                r = a * b
            elif op == 4 or op == 10:
                r = a & b
            elif op == 5 or op == 11:
                r = a | b
            else:
                r = a ^ b
            r &= ins[4]
            if r > ins[5]:
                r -= ins[6]
            regs[ins[1]] = r
            pc += 1
            continue
        if op <= 30:  # shifts / div / mod / compares
            if op >= 19:  # compares: EQ..GE reg-reg, EQK..GEK reg-const
                a = regs[ins[2]]
                b = regs[ins[3]] if op <= 24 else ins[3]
                if op == 19 or op == 25:
                    regs[ins[1]] = a == b
                elif op == 20 or op == 26:
                    regs[ins[1]] = a != b
                elif op == 21 or op == 27:
                    regs[ins[1]] = a < b
                elif op == 22 or op == 28:
                    regs[ins[1]] = a <= b
                elif op == 23 or op == 29:
                    regs[ins[1]] = a > b
                else:
                    regs[ins[1]] = a >= b
                pc += 1
                continue
            a = int(regs[ins[2]])
            if op == 13:  # SHL
                b = int(regs[ins[3]])
                if b < 0 or b > 32:
                    raise CMinusRuntimeError(
                        f"shift amount {b} out of range at line {ins[7]}"
                    )
                r = a << b
            elif op == 14:  # SHR
                b = int(regs[ins[3]])
                if b < 0 or b > 32:
                    raise CMinusRuntimeError(
                        f"shift amount {b} out of range at line {ins[8]}"
                    )
                r = ((a & ins[7]) if ins[7] else a) >> b
            elif op == 15:  # SHLK — shift amount validated at compile time
                r = a << ins[3]
            elif op == 16:  # SHRK
                r = ((a & ins[7]) if ins[7] else a) >> ins[3]
            elif op == 17:  # DIV — C-style truncation toward zero
                b = int(regs[ins[3]])
                if b == 0:
                    raise CMinusRuntimeError(f"division by zero at line {ins[7]}")
                r = abs(a) // abs(b) * (1 if (a >= 0) == (b >= 0) else -1)
            else:  # MOD — sign follows the dividend
                b = int(regs[ins[3]])
                if b == 0:
                    raise CMinusRuntimeError(f"modulo by zero at line {ins[7]}")
                r = abs(a) % abs(b) * (1 if a >= 0 else -1)
            r &= ins[4]
            if r > ins[5]:
                r -= ins[6]
            regs[ins[1]] = r
            pc += 1
            continue
        if op == 31:  # JMP
            pc = ins[1]
            continue
        if op == 32:  # JF
            pc = ins[2] if not regs[ins[1]] else pc + 1
            continue
        if op == 33:  # JT
            pc = ins[2] if regs[ins[1]] else pc + 1
            continue
        if op == 34:  # MOV
            regs[ins[1]] = regs[ins[2]]
            pc += 1
            continue
        if op == 35:  # LDK
            regs[ins[1]] = vmf.consts[ins[2]][1]
            pc += 1
            continue
        if op == 36:  # COPY — C value semantics for aggregates
            regs[ins[1]] = copy_raw(regs[ins[2]])
            pc += 1
            continue
        if op == 37:  # WRAP
            r = int(regs[ins[2]]) & ins[3]
            if r > ins[4]:
                r -= ins[5]
            regs[ins[1]] = r
            pc += 1
            continue
        if op == 38:  # BOOLC
            regs[ins[1]] = bool(regs[ins[2]])
            pc += 1
            continue
        if op == 39:  # COERCE
            regs[ins[1]] = coerce(regs[ins[2]], types[ins[3]])
            pc += 1
            continue
        if op == 40:  # NOT
            regs[ins[1]] = not regs[ins[2]]
            pc += 1
            continue
        if op == 41 or op == 42:  # NEG / BNOT
            r = -int(regs[ins[2]]) if op == 41 else ~int(regs[ins[2]])
            r &= ins[3]
            if r > ins[4]:
                r -= ins[5]
            regs[ins[1]] = r
            pc += 1
            continue
        if op == 43:  # DEFAULT
            regs[ins[1]] = default_value(types[ins[2]])
            pc += 1
            continue
        if op == 44 or op == 45:  # EGET / EGETK
            base = regs[ins[2]]
            if not isinstance(base, list):
                raise CMinusRuntimeError("indexing a non-array value")
            i = regs[ins[3]] if op == 44 else ins[3]
            if not 0 <= i < len(base):
                raise CMinusRuntimeError(
                    f"array index {i} out of bounds [0, {len(base)}) "
                    f"at {frame.filename}:{ins[4]}"
                )
            regs[ins[1]] = base[i]
            pc += 1
            continue
        if op == 46 or op == 47:  # ESETW / ESETC
            base = regs[ins[1]]
            if not isinstance(base, list):
                raise CMinusRuntimeError("indexing a non-array value")
            i = regs[ins[2]]
            line = ins[7] if op == 46 else ins[5]
            if not 0 <= i < len(base):
                raise CMinusRuntimeError(
                    f"array index {i} out of bounds [0, {len(base)}) "
                    f"at {frame.filename}:{line}"
                )
            if op == 46:  # wrapped int element store
                r = int(regs[ins[3]]) & ins[4]
                if r > ins[5]:
                    r -= ins[6]
                base[i] = r
            else:
                base[i] = coerce(regs[ins[3]], types[ins[4]])
            pc += 1
            continue
        if op == 48:  # MGET
            base = regs[ins[2]]
            if not isinstance(base, dict):
                raise CMinusRuntimeError("member access on a non-struct value")
            regs[ins[1]] = base[ins[3]]
            pc += 1
            continue
        if op == 49:  # MSET
            base = regs[ins[1]]
            if not isinstance(base, dict):
                raise CMinusRuntimeError("member access on a non-struct value")
            base[ins[2]] = coerce(regs[ins[3]], types[ins[4]])
            pc += 1
            continue
        if op == 50:  # GGET
            regs[ins[1]] = interp.globals[ins[2]].data
            pc += 1
            continue
        if op == 51:  # GSET — coerce to the slot's own declared type
            slot = interp.globals[ins[1]]
            slot.data = coerce(regs[ins[2]], slot.ctype)
            pc += 1
            continue
        if op == 52:  # CALL
            regs[ins[1]] = yield from _activate(
                interp, interp._vm_unit.funcs[ins[2]], [regs[r] for r in ins[3]], frame.line
            )
            tracing = interp._vm_trace
            pc += 1
            continue
        if op == 53:  # RET
            return regs[ins[1]]
        if op == 54:  # RETI
            return ins[1]
        if op == 55:  # RETD
            return vmf.ret_default()
        if op == 56:  # ABS
            regs[ins[1]] = wrap_int(abs(regs[ins[2]]), S32)
            pc += 1
            continue
        if op == 57:  # MIN
            regs[ins[1]] = wrap_int(min(regs[ins[2]], regs[ins[3]]), S32)
            pc += 1
            continue
        if op == 58:  # MAX
            regs[ins[1]] = wrap_int(max(regs[ins[2]], regs[ins[3]]), S32)
            pc += 1
            continue
        if op == 59:  # CLIP
            x, lo, hi = regs[ins[2]], regs[ins[3]], regs[ins[4]]
            regs[ins[1]] = wrap_int(max(lo, min(hi, x)), S32)
            pc += 1
            continue
        if op == 60:  # PRINT
            parts = []
            for r, k in zip(ins[1], ins[2]):
                v = regs[r]
                if k >= 0:
                    parts.append(format_value(types[k], v))
                elif isinstance(v, bool):
                    parts.append("true" if v else "false")
                else:
                    parts.append(str(v))
            interp.env.print_out(" ".join(parts))
            pc += 1
            continue
        if op == 61:  # TRAP — fires whenever any hook is attached
            hook = interp.hook
            if hook is not None:
                act.pc = pc
                req = hook.on_trap(interp)
                if req is not None:
                    yield req
                    tracing = interp._vm_trace
            regs[ins[1]] = 0
            pc += 1
            continue
        if op == 62:  # INTR
            regs[ins[1]] = yield from interp._intrinsic(
                ins[2], [regs[r] for r in ins[3]]
            )
            tracing = interp._vm_trace
            pc += 1
            continue
        if op == 63:  # IOR — pop/peek a token (flushes pending cost)
            regs[ins[1]] = yield from interp._io_read(
                ins[2], regs[ins[3]], types[ins[4]]
            )
            tracing = interp._vm_trace
            pc += 1
            continue
        if op == 64:  # IOW — push a token (flushes pending cost)
            ct = types[ins[4]]
            raw = coerce(regs[ins[3]], ct)
            yield from interp._io_write(ins[1], regs[ins[2]], raw, ct)
            tracing = interp._vm_trace
            pc += 1
            continue
        if op == 65:  # DGET
            regs[ins[1]] = interp.env.data_get(ins[2])
            pc += 1
            continue
        if op == 66:  # DSET — raw store, like the tree tier's data ref
            interp.env.data_set(ins[1], regs[ins[2]])
            pc += 1
            continue
        if op == 67:  # AGET
            regs[ins[1]] = interp.env.attr_get(ins[2])
            pc += 1
            continue
        if op == 68 or op == 69:  # BRKI / BRKC — break instructions
            if op == 68 or regs[ins[1]]:
                hook = interp.hook
                if hook is not None:
                    act.pc = pc
                    req = hook.on_isa_break(interp, act)
                    if req is not None:
                        yield req
                        tracing = interp._vm_trace
            pc += 1
            continue
        raise CMinusRuntimeError(  # pragma: no cover - compiler invariant
            f"unknown opcode {op} at pc {pc} in {vmf.name}"
        )
