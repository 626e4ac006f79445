"""The resumable Filter-C interpreter.

Execution is a *generator*: the interpreter yields kernel requests
(:class:`~repro.sim.process.Delay`, ``WaitEvent`` forwarded from the
environment, or ``Suspend`` produced by an attached debug hook) at every
statement boundary.  The enclosing simulation process forwards those to the
scheduler with ``yield from``, which is what lets the debugger pause an
actor in the middle of its WORK method and later resume it exactly there —
no unwinding, no re-execution.

An :class:`Interpreter` owns the state of one actor's program (frames,
globals, counters, the batched cost) and runs it on the register-machine
bytecode tier of :mod:`repro.cminus.vm`, which serves every debugger
hook itself.  This module keeps what the tier and the debugger share:
the plug-in interfaces, frames, cost flushes and the environment access
points, the operator semantics and the synchronous driver.

Three collaborators plug in:

- :class:`Environment` — supplies ``pedf.io`` / ``pedf.data`` /
  ``pedf.attribute`` and the controller intrinsics.  The PEDF runtime
  implements it; :class:`NullEnvironment` supports plain programs.
- :class:`DebugHook` — notified before every statement, on every call and
  on every return; whatever ``Suspend`` it returns is yielded to the
  kernel.  The base debugger implements it; ``None`` means full speed.
- :class:`CostModel` — simulated cycles charged per statement (the
  platform layer refines it with memory latencies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ..errors import CMinusRuntimeError
from ..sim.process import Delay, Suspend
from . import ast
from .debuginfo import DebugInfo, FunctionSymbol
from .typesys import S32, CType, IntType, wrap_int
from .values import Raw, Value, default_value


# ----------------------------------------------------------------- plug-ins


class Environment:
    """What the program's ``pedf.*`` accesses and intrinsics talk to.

    The generator methods may yield kernel requests (e.g. to block on an
    empty link) — the interpreter forwards them with ``yield from``.
    """

    def io_read(self, iface: str, index: int, ctype: CType):
        """Coroutine: consume/peek the ``index``-th token of this WORK
        invocation from input interface ``iface``; returns a raw value."""
        raise CMinusRuntimeError(f"pedf.io.{iface} not available in this environment")
        yield  # pragma: no cover

    def io_write(self, iface: str, index: int, value: Raw, ctype: CType):
        """Coroutine: push ``value`` as the ``index``-th token produced on
        output interface ``iface`` during this WORK invocation."""
        raise CMinusRuntimeError(f"pedf.io.{iface} not available in this environment")
        yield  # pragma: no cover

    def intrinsic(self, name: str, args: Sequence[Raw]):
        """Coroutine: execute a controller intrinsic; returns a raw value."""
        raise CMinusRuntimeError(f"intrinsic {name}() not available in this environment")
        yield  # pragma: no cover

    def data_get(self, name: str) -> Raw:
        raise CMinusRuntimeError(f"pedf.data.{name} not available in this environment")

    def data_set(self, name: str, value: Raw) -> None:
        raise CMinusRuntimeError(f"pedf.data.{name} not available in this environment")

    def attr_get(self, name: str) -> Raw:
        raise CMinusRuntimeError(f"pedf.attribute.{name} not available in this environment")

    def print_out(self, text: str) -> None:
        """Receive the output of the ``print`` builtin."""


class NullEnvironment(Environment):
    """Environment for plain (actor-less) programs; captures ``print``."""

    def __init__(self) -> None:
        self.printed: List[str] = []

    def print_out(self, text: str) -> None:
        self.printed.append(text)


class DebugHook:
    """Interface the debugger implements to observe/control execution.

    Each method may return ``None`` (keep going) or a kernel request —
    normally :class:`~repro.sim.process.Suspend` — which the interpreter
    yields before proceeding.

    :attr:`capabilities` is the hook-elision bitmask (paper §V: disabling
    instrumentation "would significantly improve performance during the
    non-interactive parts of the execution").  The debugger lowers bits
    whenever no breakpoint of the matching kind could possibly fire, and
    narrows it per interpreter (:meth:`capabilities_for`); the
    interpreter caches its mask (:meth:`Interpreter.refresh_hook_caps`)
    and then skips the callback entirely — the software analogue of GDB
    physically removing its trap instructions.  The default is
    ``CAP_ALL`` so hand-written hooks observe everything unless a
    debugger actively manages the mask.
    """

    CAP_STATEMENTS = 0x1
    CAP_CALLS = 0x2
    CAP_RETURNS = 0x4
    CAP_ALL = 0x7
    #: per-instruction observation on the VM tier (ISA breakpoints,
    #: register watchpoints, ``stepi``).  Outside CAP_ALL: it flips the VM
    #: dispatch loop into its instrumented prelude, which calls
    #: :meth:`on_instruction` before every instruction.  The bit is the
    #: ISA-level extension of the hook-elision bitmask: disarmed, the VM
    #: pays one local bool test per instruction
    CAP_ISA = 0x8

    capabilities: int = CAP_ALL
    #: callable ``(interp, cycles)`` invoked at every cost flush, or
    #: None.  Set by the profiler facade; the flush sites read the cached
    #: :attr:`Interpreter._profile` copy.  Not a mask bit: it only routes
    #: the VM through its prelude for per-opcode cycles
    profile_sink = None

    def capabilities_for(self, interp: "Interpreter") -> int:
        """The bits that can fire for ``interp`` (what its
        :meth:`Interpreter.refresh_hook_caps` caches).  The default is the
        hook-wide :attr:`capabilities`; the debugger narrows it so one
        breakpoint instruments only the interpreters it can stop."""
        return self.capabilities

    def on_statement(self, interp: "Interpreter", stmt: ast.Stmt) -> Optional[Suspend]:
        return None

    def on_call(self, interp: "Interpreter", frame: "Frame") -> Optional[Suspend]:
        return None

    def on_return(self, interp: "Interpreter", frame: "Frame", value: Raw) -> Optional[Suspend]:
        return None

    def on_trap(self, interp: "Interpreter") -> Optional[Suspend]:
        return Suspend("trap")

    def on_instruction(self, interp: "Interpreter", act) -> Optional[Suspend]:
        """Called before each VM instruction while CAP_ISA is armed;
        ``act`` is the :class:`~repro.cminus.vm.emulator.Activation`."""
        return None

    def on_isa_break(self, interp: "Interpreter", act) -> Optional[Suspend]:
        """A ``brk``/``brkc`` break instruction fired (hook attached;
        like :meth:`on_trap`, not capability-gated)."""
        return Suspend("brk")


@dataclass
class CostModel:
    """Simulated cycles charged per executed statement.

    ``batch_cycles`` is the Delay-coalescing threshold: statement costs
    accumulate in :attr:`Interpreter._pending` and are flushed to the
    kernel as one batched ``Delay`` once at least this many cycles are
    pending (and always before dataflow I/O, intrinsics and function
    exit, so observable ordering and sim-time totals are unchanged).
    ``batch_cycles=1`` restores one kernel request per statement.
    """

    default_stmt: int = 1
    call_overhead: int = 2
    batch_cycles: int = 64


# -------------------------------------------------------------------- frames


@dataclass
class Frame:
    """One activation record, visible to the debugger."""

    func: ast.FuncDef
    fsym: Optional[FunctionSymbol]
    depth: int
    line: int
    call_line: int = 0  # line in the *caller* where this call was made
    #: the VM :class:`~repro.cminus.vm.emulator.Activation` running this
    #: frame (attached right after the frame is made)
    vm: Any = None

    @property
    def name(self) -> str:
        return self.func.name

    @property
    def filename(self) -> str:
        return self.func.filename

    def _visible(self) -> List[Dict[str, Value]]:
        """The scope stack in force, read from the registers on demand."""
        return self.vm.scopes()

    def lookup(self, name: str) -> Optional[Value]:
        for scope in reversed(self._visible()):
            if name in scope:
                return scope[name]
        return None

    def variables(self) -> Dict[str, Value]:
        """Flattened view, innermost scope winning."""
        out: Dict[str, Value] = {}
        for scope in self._visible():
            out.update(scope)
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"#{self.depth} {self.name} () at {self.filename}:{self.line}"


class CallState:
    """Bookkeeping the debugger reads to know where execution stands."""

    def __init__(self) -> None:
        self.statements_executed = 0
        self.calls_made = 0


# --------------------------------------------------------------- interpreter


class Interpreter:
    """Executes one compilation unit on behalf of one actor."""

    def __init__(
        self,
        program: ast.Program,
        debug_info: DebugInfo,
        env: Optional[Environment] = None,
        hook: Optional[DebugHook] = None,
        cost: Optional[CostModel] = None,
        timed: bool = True,
        name: str = "",
    ):
        self.program = program
        self.debug_info = debug_info
        self.env = env or NullEnvironment()
        self.hook = hook
        self.cost = cost or CostModel()
        self.timed = timed
        self.name = name or program.filename
        self.frames: List[Frame] = []
        self.globals: Dict[str, Value] = {}
        self.state = CallState()
        self._globals_ready = False
        # batched-Delay accumulator (cycles charged but not yet yielded)
        self._pending = 0
        self._batch_limit = max(1, self.cost.batch_cycles)
        self._profile = None
        self._isa_armed = False
        self._vm_trace = False
        self._vm_unit = None  # the program's VmUnit, fetched on first run
        #: simulated cycles attributed per executed VM opcode (keyed by
        #: opcode number), counted only while the profiler is armed —
        #: never added to ``_pending``, so Delay streams do not move
        self.opcode_cycles: Dict[int, int] = {}
        # hook-elision fast-path flags, cached from hook.capabilities so the
        # per-statement checkpoint is one attribute test when disarmed
        self._want_stmt = True
        self._want_call = True
        self._want_ret = True
        self.refresh_hook_caps()

    def refresh_hook_caps(self) -> None:
        """Re-cache the hook's capability mask for this interpreter
        (:meth:`DebugHook.capabilities_for`) and its profile sink (call
        after changing ``self.hook``, ``hook.capabilities`` or
        ``hook.profile_sink``).  With no hook nothing is wanted, so each
        hook site tests one cached flag.
        """
        caps = 0 if self.hook is None else self.hook.capabilities_for(self)
        self._want_stmt = bool(caps & DebugHook.CAP_STATEMENTS)
        self._want_call = bool(caps & DebugHook.CAP_CALLS)
        self._want_ret = bool(caps & DebugHook.CAP_RETURNS)
        # attributed-profiling sink, cached so a flush site pays a single
        # None test when profiling is disarmed
        self._profile = None if self.hook is None else self.hook.profile_sink
        # ISA-level observation flips the VM dispatch loop into its
        # instrumented prelude; the profiler rides the same prelude for
        # per-opcode cycle attribution
        self._isa_armed = bool(caps & DebugHook.CAP_ISA)
        self._vm_trace = self._isa_armed or self._profile is not None

    # ------------------------------------------------------------- queries

    @property
    def frame(self) -> Optional[Frame]:
        return self.frames[-1] if self.frames else None

    def backtrace(self) -> List[Frame]:
        return list(reversed(self.frames))

    def capture_frames(self) -> Tuple[Tuple[str, int], ...]:
        """``(function name, current line)`` per live frame, outermost
        first — the interpreter's contribution to a deep machine-state
        snapshot.  Execution *position* lives in Python generator frames
        and cannot be pickled; this captures the observable summary used
        to fingerprint a parked resident machine."""
        return tuple((f.name, f.line) for f in self.frames)

    # --------------------------------------------------------------- entry

    def run_function(self, name: str, args: Sequence[Raw] = ()):
        """Coroutine: execute function ``name`` to completion.

        Returns the function's raw return value.  Drive it inside a
        simulation process (``yield from interp.run_function(...)``) or
        synchronously with :func:`run_sync`.  A program with a function
        the compiler could not lower raises
        :class:`~repro.errors.CMinusLoweringError` here.
        """
        from .vm.emulator import call_vm

        func = self.program.function(name)
        if func is None:
            raise CMinusRuntimeError(f"no function {name!r} in {self.program.filename}")
        if self._vm_unit is None:
            from .vm.compiler import vm_unit

            vu = vm_unit(self.program)
            vu.require_complete()
            self._vm_unit = vu
        if not self._globals_ready:
            self._globals_ready = True
            for g in self.program.globals:
                self.globals[g.name] = Value(g.ctype, default_value(g.ctype))
            if self._vm_unit.init is not None:
                from .vm.emulator import run_init

                yield from run_init(self)
        ret = yield from call_vm(self, func.name, list(args))
        if self._pending:
            yield from self._flush_cost()
        return ret

    def _flush_cost(self):
        """Yield the accumulated statement cost as one kernel request."""
        p = self._pending
        if p:
            self._pending = 0
            if self._profile is not None:
                self._profile(self, p)
            yield Delay(p)

    # Environment access points the VM calls: every genuine blocking
    # point flushes pending cost first, so the kernel observes time in
    # the same order as token traffic regardless of batching.

    def _io_read(self, iface: str, index: int, ctype: Optional[CType]):
        if self._pending:
            yield from self._flush_cost()
        return (yield from self.env.io_read(iface, index, ctype))

    def _io_write(self, iface: str, index: int, value: Raw, ctype: Optional[CType]):
        if self._pending:
            yield from self._flush_cost()
        return (yield from self.env.io_write(iface, index, value, ctype))

    def _intrinsic(self, name: str, args: Sequence[Raw]):
        if self._pending:
            yield from self._flush_cost()
        return (yield from self.env.intrinsic(name, args))


# ------------------------------------- operators and side-effect-free builtins
# The debugger's ``print`` evaluates expressions with these.

PURE_BUILTINS = {"abs": abs, "min": min, "max": max,
                 "clip": lambda x, lo, hi: max(lo, min(hi, x))}


def _at(line: Optional[int]) -> str:
    return "" if line is None else f" at line {line}"


def apply_unop(op: str, operand: Raw, ctype: Optional[CType]) -> Raw:
    """``op operand`` wrapped to ``ctype`` (S32 if not an integer type)."""
    if op == "!":
        return not operand
    if op == "~":
        result = ~int(operand)
    elif op == "-":
        result = -int(operand)
    else:  # '+'
        result = int(operand)
    return wrap_int(result, ctype if isinstance(ctype, IntType) else S32)


def apply_binop(
    op: str, left: Raw, right: Raw, ctype: Optional[CType], line: Optional[int] = None
) -> Raw:
    """``left op right`` (not ``&&``/``||``) wrapped to the result type
    ``ctype``; raises :class:`CMinusRuntimeError` where C has no result."""
    if op in ("==", "!=", "<", ">", "<=", ">="):
        li, ri = int(left), int(right)
        return {
            "==": li == ri,
            "!=": li != ri,
            "<": li < ri,
            ">": li > ri,
            "<=": li <= ri,
            ">=": li >= ri,
        }[op]
    li, ri = int(left), int(right)
    if op == "+":
        result = li + ri
    elif op == "-":
        result = li - ri
    elif op == "*":
        result = li * ri
    elif op == "/":
        if ri == 0:
            raise CMinusRuntimeError(f"division by zero{_at(line)}")
        result = abs(li) // abs(ri) * (1 if (li >= 0) == (ri >= 0) else -1)
    elif op == "%":
        if ri == 0:
            raise CMinusRuntimeError(f"modulo by zero{_at(line)}")
        result = abs(li) % abs(ri) * (1 if li >= 0 else -1)
    elif op == "&":
        result = li & ri
    elif op == "|":
        result = li | ri
    elif op == "^":
        result = li ^ ri
    elif op in ("<<", ">>"):
        if ri < 0 or ri > 32:
            raise CMinusRuntimeError(f"shift amount {ri} out of range{_at(line)}")
        if op == "<<":
            result = li << ri
        elif isinstance(ctype, IntType) and not ctype.signed:
            result = (li & ((1 << ctype.bits) - 1)) >> ri
        else:
            result = li >> ri
    else:  # pragma: no cover
        raise CMinusRuntimeError(f"unknown operator {op!r}")
    return wrap_int(result, ctype if isinstance(ctype, IntType) else S32)


# -------------------------------------------------------------- pure driver


def run_sync(gen: Generator, allow_delay: bool = True):
    """Drive an interpreter coroutine synchronously (no scheduler).

    ``Delay``/``Yield`` requests are skipped (time does not exist here);
    anything else — ``WaitEvent``, ``Suspend`` — means the computation
    would block or stop, which a synchronous caller cannot honour.
    """
    from ..sim.process import Delay as _Delay, Yield as _Yield

    try:
        req = next(gen)
        while True:
            if isinstance(req, (_Delay, _Yield)) and allow_delay:
                req = gen.send(None)
            else:
                raise CMinusRuntimeError(
                    f"expression cannot be evaluated synchronously (would {type(req).__name__})"
                )
    except StopIteration as stop:
        return stop.value
