"""Tree-to-closure compiler for Filter-C — the interpreter's fast tier.

The resumable tree-walker in :mod:`.interp` yields a kernel request at
every statement boundary, which is what makes interactive pause/resume
trivial — and what dominates the "no debugger attached" cost that §V of
the paper says should be near native.  This module lowers each
type-checked function body into nested Python closures once, ahead of
execution:

- every expression becomes a callable ``(interp, frame) -> value`` with
  scopes resolved to static indices, constants pre-evaluated, operators
  pre-bound and coercions pre-selected;
- every statement becomes a small record the shared boundary stepper
  (:func:`_step_stmt`) drives: line/statement accounting, batched cost
  charging and the **deoptimization check** happen per boundary, but no
  generator suspension does;
- the only yields left are the genuine blocking points — ``pedf.io``
  reads/writes, controller intrinsics, and the batched ``Delay`` flushes.

Two execution modes share the closures:

- the *generator* mode (``gen`` closures) is used whenever the run is
  timed or any hook is attached.  It preserves the slow tier's kernel
  request stream **byte for byte**: the flush points are structural
  (boundary threshold / before I/O / on exit), so dispatch counting is
  stop-invariant and replay journals recorded on either tier match.
- the *pure* mode (``sync`` closures, ``gated`` records) runs with zero
  generator machinery and is entered only when ``interp._pure_fast``
  holds (no hook object at all, untimed) — nothing can observe or
  suspend mid-region, so whole call trees execute atomically.

Deoptimization: ``Interpreter._fast_ok`` doubles as the deopt flag.
Arming any statement/call/return capability drops it (see
``refresh_hook_caps``), and every boundary re-checks it — the compiled
driver then hands the *current statement* (or the rest of the loop, via
the ``_*_from_header`` continuations) to the slow tier, which re-runs
the boundary with the hook attached.  The ``Frame`` objects, scope
chains and line numbers are maintained identically in both tiers, so
the debugger inspects a deoptimized activation exactly as if it had
been interpreted from the start — and the tier can re-optimize at the
next boundary once the flag comes back.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..errors import CMinusRuntimeError
from ..sim.process import Delay
from . import ast
from .interp import _Break, _Continue, _Return, Frame, run_sync
from .typesys import BoolType, IntType, S32, StructType, VoidType, wrap_int
from .values import Value, coerce, default_value, format_value

__all__ = ["CompiledUnit", "compiled_unit", "call_compiled"]


# ------------------------------------------------------------------ records


class _E:
    """A compiled expression.

    ``sync``  — plain callable ``(interp, frame) -> value``; None when the
                expression can block (io / intrinsic / non-pure call).
    ``gen``   — generator closure with the same contract as ``_eval``;
                None only when ``sync`` exists and is not gated.
    ``gated`` — True when ``sync`` may only run under ``interp._pure_fast``
                (it executes a whole call tree atomically).
    """

    __slots__ = ("sync", "gen", "gated")

    def __init__(self, sync, gen, gated):
        self.sync = sync
        self.gen = gen
        self.gated = gated


class _S:
    """A compiled statement: boundary metadata + action closures.

    ``prologue`` marks leaves (and ``if``) whose boundary the stepper
    owns; blocks have no boundary and loops run one per iteration inside
    their own driver.
    """

    __slots__ = ("node", "line", "prologue", "sync", "gated", "gen")

    def __init__(self, node, line, prologue, sync, gated, gen):
        self.node = node
        self.line = line
        self.prologue = prologue
        self.sync = sync
        self.gated = gated
        self.gen = gen


class _Ctx:
    """Per-function compile state: static scope stack + unit handles."""

    __slots__ = ("unit", "func", "scopes", "pure")

    def __init__(self, unit, func, pure):
        self.unit = unit
        self.func = func
        self.scopes: List[Set[str]] = [{p.name for p in func.params}]
        self.pure = pure


def _static_scope_index(ctx: _Ctx, name: str) -> Optional[int]:
    for k in range(len(ctx.scopes) - 1, -1, -1):
        if name in ctx.scopes[k]:
            return k
    return None


# --------------------------------------------------------- boundary stepper


def _step_stmt(interp, frame, s: _S):
    """Run one statement boundary + dispatch.

    Returns None when the statement completed synchronously, else a
    generator the caller must ``yield from``.  Boundary order matches the
    slow tier's ``_checkpoint``: flush-check, observation point (here the
    deopt check; there the statement hook), then charge — so a hook armed
    during the flush dispatch still observes *this* statement via the
    deopt path.
    """
    if s.prologue:
        if interp.timed and interp._pending >= interp._batch_limit:
            return _flush_and_run(interp, frame, s)
        if not interp._fast_ok:
            return interp._exec_stmt(s.node)
        frame.line = s.line
        interp.state.statements_executed += 1
        if interp.timed:
            interp._pending += interp.cost.default_stmt
    elif not interp._fast_ok:
        return interp._exec_stmt(s.node)
    sf = s.sync
    if sf is not None and (not s.gated or interp._pure_fast):
        r = sf(interp, frame)
        if r is not None:
            raise _Return(r[0])
        return None
    return s.gen(interp, frame)


def _flush_and_run(interp, frame, s: _S):
    """Slow path of :func:`_step_stmt`: flush batched cost, then re-run
    the boundary (the flush dispatch may have armed a breakpoint)."""
    p = interp._pending
    interp._pending = 0
    if interp._count_cycles:
        interp.cycles_flushed += p
        if interp._profile is not None:
            interp._profile(interp, p)
    yield Delay(p)
    if not interp._fast_ok:
        yield from interp._exec_stmt(s.node)
        return
    frame.line = s.line
    interp.state.statements_executed += 1
    if interp.timed:
        interp._pending += interp.cost.default_stmt
    sf = s.sync
    if sf is not None and (not s.gated or interp._pure_fast):
        r = sf(interp, frame)
        if r is not None:
            raise _Return(r[0])
    else:
        yield from s.gen(interp, frame)


def _sync_child(interp, frame, s: _S):
    """Pure-mode statement step: accounting only, no cost, no deopt —
    only reachable when ``_pure_fast`` (untimed, no hook object).
    Returns the statement's return signal (None or ``(value,)``)."""
    if s.prologue:
        frame.line = s.line
        interp.state.statements_executed += 1
    return s.sync(interp, frame)


# ------------------------------------------------------- expr combinators


def _combine1(a: _E, fn) -> _E:
    """Apply ``fn(interp, frame, value)`` to one sub-expression."""
    asy, ag, agd = a.sync, a.gen, a.gated
    if asy is not None and not agd:
        return _E(lambda i, f: fn(i, f, asy(i, f)), None, False)
    sync = None
    if asy is not None:
        def sync(i, f):
            return fn(i, f, asy(i, f))
    def gen(i, f):
        if asy is not None and (not agd or i._pure_fast):
            v = asy(i, f)
        else:
            v = yield from ag(i, f)
        return fn(i, f, v)
    return _E(sync, gen, sync is not None)


def _combine2(a: _E, b: _E, fn) -> _E:
    """Apply ``fn(interp, frame, va, vb)``; evaluates ``a`` then ``b``."""
    asy, ag, agd = a.sync, a.gen, a.gated
    bsy, bg, bgd = b.sync, b.gen, b.gated
    if asy is not None and not agd and bsy is not None and not bgd:
        return _E(lambda i, f: fn(i, f, asy(i, f), bsy(i, f)), None, False)
    sync = None
    if asy is not None and bsy is not None:
        def sync(i, f):
            return fn(i, f, asy(i, f), bsy(i, f))
    def gen(i, f):
        if asy is not None and (not agd or i._pure_fast):
            va = asy(i, f)
        else:
            va = yield from ag(i, f)
        if bsy is not None and (not bgd or i._pure_fast):
            vb = bsy(i, f)
        else:
            vb = yield from bg(i, f)
        return fn(i, f, va, vb)
    return _E(sync, gen, sync is not None)


def _combine_n(childs: List[_E], fn) -> _E:
    """Apply ``fn(interp, frame, values)`` to N sub-expressions in order."""
    triples = [(c.sync, c.gen, c.gated) for c in childs]
    def gen(i, f):
        vals = []
        for s, g, gd in triples:
            if s is not None and (not gd or i._pure_fast):
                vals.append(s(i, f))
            else:
                vals.append((yield from g(i, f)))
        return fn(i, f, vals)
    if all(c.sync is not None for c in childs):
        syncs = [c.sync for c in childs]
        def sync(i, f):
            return fn(i, f, [s(i, f) for s in syncs])
        if not any(c.gated for c in childs):
            return _E(sync, None, False)
        return _E(sync, gen, True)
    return _E(None, gen, False)


# --------------------------------------------------------------- coercions


def _make_coercer(ctype) -> Callable:
    """Pre-selected store conversion: what ``values.coerce`` would do for
    this statically-known slot type, without re-dispatching on it."""
    if isinstance(ctype, BoolType):
        return bool
    if isinstance(ctype, IntType):
        mask = (1 << ctype.bits) - 1
        span = mask + 1
        mx = ctype.max
        if ctype.signed:
            def conv(v):
                try:
                    v = int(v) & mask
                except TypeError:
                    raise CMinusRuntimeError(f"cannot convert aggregate to {ctype}")
                return v - span if v > mx else v
        else:
            def conv(v):
                try:
                    return int(v) & mask
                except TypeError:
                    raise CMinusRuntimeError(f"cannot convert aggregate to {ctype}")
        return conv
    return lambda v: coerce(v, ctype)


# --------------------------------------------------------------- operators


def _make_unop(op: str, ctype) -> Callable:
    if op == "!":
        return lambda i, f, v: not v
    wrap_t = ctype if isinstance(ctype, IntType) else S32
    if op == "~":
        return lambda i, f, v: wrap_int(~int(v), wrap_t)
    if op == "-":
        return lambda i, f, v: wrap_int(-int(v), wrap_t)
    return lambda i, f, v: wrap_int(int(v), wrap_t)  # '+'


_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


def _make_binop(op: str, ctype, line: int) -> Callable:
    """Pre-bound two-operand operator with the slow tier's exact
    wrapping, truncation and error behaviour."""
    if op in _CMP:
        cmp = _CMP[op]
        return lambda a, b: cmp(int(a), int(b))
    wrap_t = ctype if isinstance(ctype, IntType) else S32
    if op == "+":
        return lambda a, b: wrap_int(int(a) + int(b), wrap_t)
    if op == "-":
        return lambda a, b: wrap_int(int(a) - int(b), wrap_t)
    if op == "*":
        return lambda a, b: wrap_int(int(a) * int(b), wrap_t)
    if op == "/":
        def div(a, b):
            li, ri = int(a), int(b)
            if ri == 0:
                raise CMinusRuntimeError(f"division by zero at line {line}")
            return wrap_int(abs(li) // abs(ri) * (1 if (li >= 0) == (ri >= 0) else -1), wrap_t)
        return div
    if op == "%":
        def mod(a, b):
            li, ri = int(a), int(b)
            if ri == 0:
                raise CMinusRuntimeError(f"modulo by zero at line {line}")
            return wrap_int(abs(li) % abs(ri) * (1 if li >= 0 else -1), wrap_t)
        return mod
    if op == "&":
        return lambda a, b: wrap_int(int(a) & int(b), wrap_t)
    if op == "|":
        return lambda a, b: wrap_int(int(a) | int(b), wrap_t)
    if op == "^":
        return lambda a, b: wrap_int(int(a) ^ int(b), wrap_t)
    if op == "<<":
        def shl(a, b):
            li, ri = int(a), int(b)
            if ri < 0 or ri > 32:
                raise CMinusRuntimeError(f"shift amount {ri} out of range at line {line}")
            return wrap_int(li << ri, wrap_t)
        return shl
    if op == ">>":
        unsigned_bits = ctype.bits if isinstance(ctype, IntType) and not ctype.signed else None
        def shr(a, b):
            li, ri = int(a), int(b)
            if ri < 0 or ri > 32:
                raise CMinusRuntimeError(f"shift amount {ri} out of range at line {line}")
            if unsigned_bits is not None:
                return wrap_int((li & ((1 << unsigned_bits) - 1)) >> ri, wrap_t)
            return wrap_int(li >> ri, wrap_t)
        return shr
    raise CMinusRuntimeError(f"unknown operator {op!r}")  # pragma: no cover


# ------------------------------------------------------------- identifiers


def _make_slot_resolver(ident: ast.Ident, ctx: _Ctx) -> Callable:
    """``(interp, frame) -> Value`` for a named variable slot."""
    nm = ident.name
    if ident.binding != "global":
        k = _static_scope_index(ctx, nm)
        if k is not None:
            def resolve(i, f):
                try:
                    return f.scopes[k][nm]
                except (IndexError, KeyError):
                    # deopt/re-opt interleavings keep the same scope shape,
                    # but stay safe: fall back to dynamic lookup
                    slot = f.lookup(nm) or i.globals.get(nm)
                    if slot is None:
                        raise CMinusRuntimeError(f"undefined variable {nm!r}")
                    return slot
            return resolve

        def resolve_dynamic(i, f):
            slot = f.lookup(nm) or i.globals.get(nm)
            if slot is None:
                raise CMinusRuntimeError(f"undefined variable {nm!r}")
            return slot
        return resolve_dynamic

    def resolve_global(i, f):
        slot = i.globals.get(nm)
        if slot is None:
            raise CMinusRuntimeError(f"undefined variable {nm!r}")
        return slot
    return resolve_global


def _compile_ident_load(ident: ast.Ident, ctx: _Ctx) -> _E:
    nm = ident.name
    if ident.binding != "global":
        k = _static_scope_index(ctx, nm)
        if k is not None:
            def load(i, f):
                try:
                    return f.scopes[k][nm].data
                except (IndexError, KeyError):
                    slot = f.lookup(nm) or i.globals.get(nm)
                    if slot is None:
                        raise CMinusRuntimeError(f"undefined variable {nm!r}")
                    return slot.data
            return _E(load, None, False)
        rf = _make_slot_resolver(ident, ctx)
        return _E(lambda i, f: rf(i, f).data, None, False)

    def load_global(i, f):
        slot = i.globals.get(nm)
        if slot is None:
            raise CMinusRuntimeError(f"undefined variable {nm!r}")
        return slot.data
    return _E(load_global, None, False)


# -------------------------------------------------------------- lvalue refs


def _compile_ref(expr: ast.Expr, ctx: _Ctx) -> _E:
    """Compile an lvalue to a closure producing the slow tier's
    ``(kind, ...)`` reference tuple (same checks, same messages)."""
    if isinstance(expr, ast.Ident):
        rf = _make_slot_resolver(expr, ctx)
        return _E(lambda i, f: ("slot", rf(i, f)), None, False)
    if isinstance(expr, ast.Index):
        b = _compile_ref(expr.base, ctx)
        idx = _compile_expr(expr.index, ctx)
        line = expr.line
        def fn(i, f, bref, ix):
            container = i._ref_get(bref, None)
            if not isinstance(container, list):
                raise CMinusRuntimeError("indexing a non-array value")
            if not 0 <= ix < len(container):
                raise CMinusRuntimeError(
                    f"array index {ix} out of bounds [0, {len(container)}) "
                    f"at {f.filename}:{line}"
                )
            return ("elem", container, ix)
        return _combine2(b, idx, fn)
    if isinstance(expr, ast.Member):
        b = _compile_ref(expr.base, ctx)
        member = expr.member
        def fn(i, f, bref):
            container = i._ref_get(bref, None)
            if not isinstance(container, dict):
                raise CMinusRuntimeError("member access on a non-struct value")
            return ("field", container, member)
        return _combine1(b, fn)
    if isinstance(expr, ast.PedfData):
        nm = expr.name
        return _E(lambda i, f: ("data", nm), None, False)
    raise CMinusRuntimeError(f"not an lvalue: {type(expr).__name__}")


# ------------------------------------------------------------- expressions


def _compile_expr(expr: ast.Expr, ctx: _Ctx) -> _E:
    if isinstance(expr, (ast.NumberLit, ast.BoolLit, ast.StringLit)):
        v = expr.value
        return _E(lambda i, f: v, None, False)
    if isinstance(expr, ast.Ident):
        return _compile_ident_load(expr, ctx)
    if isinstance(expr, ast.Unary):
        return _combine1(_compile_expr(expr.operand, ctx), _make_unop(expr.op, expr.ctype))
    if isinstance(expr, ast.Binary):
        if expr.op in ("&&", "||"):
            return _compile_logic(expr, ctx)
        apply = _make_binop(expr.op, expr.ctype, expr.line)
        l = _compile_expr(expr.left, ctx)
        r = _compile_expr(expr.right, ctx)
        if l.sync is not None and not l.gated and r.sync is not None and not r.gated:
            lsy, rsy = l.sync, r.sync
            llit = isinstance(expr.left, (ast.NumberLit, ast.BoolLit))
            rlit = isinstance(expr.right, (ast.NumberLit, ast.BoolLit))
            if llit and rlit:
                try:  # fold; runtime errors (div by zero) stay at runtime
                    v = apply(expr.left.value, expr.right.value)
                    return _E(lambda i, f: v, None, False)
                except CMinusRuntimeError:
                    pass
            elif rlit:
                k = expr.right.value
                return _E(lambda i, f: apply(lsy(i, f), k), None, False)
            elif llit:
                k = expr.left.value
                return _E(lambda i, f: apply(k, rsy(i, f)), None, False)
            return _E(lambda i, f: apply(lsy(i, f), rsy(i, f)), None, False)
        def fn(i, f, a, b):
            return apply(a, b)
        return _combine2(l, r, fn)
    if isinstance(expr, ast.Ternary):
        return _compile_ternary(expr, ctx)
    if isinstance(expr, ast.Cast):
        tct = expr.target
        def fn(i, f, v):
            return coerce(v, tct)
        return _combine1(_compile_expr(expr.operand, ctx), fn)
    if isinstance(expr, ast.Index):
        line = expr.line
        def fn(i, f, base, ix):
            if not isinstance(base, list):
                raise CMinusRuntimeError("indexing a non-array value")
            if not 0 <= ix < len(base):
                raise CMinusRuntimeError(
                    f"array index {ix} out of bounds [0, {len(base)}) "
                    f"at {f.filename}:{line}"
                )
            return base[ix]
        return _combine2(_compile_expr(expr.base, ctx), _compile_expr(expr.index, ctx), fn)
    if isinstance(expr, ast.Member):
        member = expr.member
        def fn(i, f, base):
            if not isinstance(base, dict):
                raise CMinusRuntimeError("member access on a non-struct value")
            return base[member]
        return _combine1(_compile_expr(expr.base, ctx), fn)
    if isinstance(expr, ast.Call):
        return _compile_call(expr, ctx)
    if isinstance(expr, ast.PedfIo):
        iface, ct = expr.iface, expr.ctype
        ix = _compile_expr(expr.index, ctx)
        ixs, ixg, ixgd = ix.sync, ix.gen, ix.gated
        def gen(i, f):
            if ixs is not None and (not ixgd or i._pure_fast):
                index = ixs(i, f)
            else:
                index = yield from ixg(i, f)
            return (yield from i._io_read(iface, index, ct))
        return _E(None, gen, False)
    if isinstance(expr, ast.PedfData):
        nm = expr.name
        return _E(lambda i, f: i.env.data_get(nm), None, False)
    if isinstance(expr, ast.PedfAttr):
        nm = expr.name
        return _E(lambda i, f: i.env.attr_get(nm), None, False)
    raise CMinusRuntimeError(f"unknown expression {type(expr).__name__}")  # pragma: no cover


def _compile_logic(expr: ast.Binary, ctx: _Ctx) -> _E:
    is_and = expr.op == "&&"
    l = _compile_expr(expr.left, ctx)
    r = _compile_expr(expr.right, ctx)
    lsy, lg, lgd = l.sync, l.gen, l.gated
    rsy, rg, rgd = r.sync, r.gen, r.gated
    sync = None
    if lsy is not None and rsy is not None:
        if is_and:
            def sync(i, f):
                if not lsy(i, f):
                    return False
                return bool(rsy(i, f))
        else:
            def sync(i, f):
                if lsy(i, f):
                    return True
                return bool(rsy(i, f))
        if not (lgd or rgd):
            return _E(sync, None, False)
    def gen(i, f):
        if lsy is not None and (not lgd or i._pure_fast):
            lv = lsy(i, f)
        else:
            lv = yield from lg(i, f)
        if is_and:
            if not lv:
                return False
        elif lv:
            return True
        if rsy is not None and (not rgd or i._pure_fast):
            rv = rsy(i, f)
        else:
            rv = yield from rg(i, f)
        return bool(rv)
    return _E(sync, gen, sync is not None)


def _compile_ternary(expr: ast.Ternary, ctx: _Ctx) -> _E:
    c = _compile_expr(expr.cond, ctx)
    t = _compile_expr(expr.then, ctx)
    o = _compile_expr(expr.other, ctx)
    ct = expr.ctype
    coerced = isinstance(ct, (IntType, BoolType))
    sync = None
    if c.sync is not None and t.sync is not None and o.sync is not None:
        csy, tsy, osy = c.sync, t.sync, o.sync
        if coerced:
            def sync(i, f):
                return coerce(tsy(i, f) if csy(i, f) else osy(i, f), ct)
        else:
            def sync(i, f):
                return tsy(i, f) if csy(i, f) else osy(i, f)
        if not (c.gated or t.gated or o.gated):
            return _E(sync, None, False)
    ctrip = (c.sync, c.gen, c.gated)
    ttrip = (t.sync, t.gen, t.gated)
    otrip = (o.sync, o.gen, o.gated)
    def gen(i, f):
        s, g, gd = ctrip
        if s is not None and (not gd or i._pure_fast):
            cv = s(i, f)
        else:
            cv = yield from g(i, f)
        s, g, gd = ttrip if cv else otrip
        if s is not None and (not gd or i._pure_fast):
            v = s(i, f)
        else:
            v = yield from g(i, f)
        return coerce(v, ct) if coerced else v
    return _E(sync, gen, sync is not None)


# ------------------------------------------------------------------- calls


_SYNC_BUILTINS = {"abs", "min", "max", "clip", "print", "trap"}


def _compile_call(expr: ast.Call, ctx: _Ctx) -> _E:
    name = expr.name
    arg_es = [_compile_expr(a, ctx) for a in expr.args]
    if expr.is_builtin:
        if name == "abs":
            return _combine1(arg_es[0], lambda i, f, v: wrap_int(abs(v), S32))
        if name == "min":
            return _combine2(arg_es[0], arg_es[1], lambda i, f, a, b: wrap_int(min(a, b), S32))
        if name == "max":
            return _combine2(arg_es[0], arg_es[1], lambda i, f, a, b: wrap_int(max(a, b), S32))
        if name == "clip":
            def fn(i, f, vals):
                x, lo, hi = vals
                return wrap_int(max(lo, min(hi, x)), S32)
            return _combine_n(arg_es, fn)
        if name == "print":
            specs = [a.ctype if isinstance(a.ctype, StructType) else None for a in expr.args]
            def fn(i, f, vals):
                parts = []
                for spec, v in zip(specs, vals):
                    if spec is not None:
                        parts.append(format_value(spec, v))
                    elif isinstance(v, bool):
                        parts.append("true" if v else "false")
                    else:
                        parts.append(str(v))
                i.env.print_out(" ".join(parts))
                return 0
            return _combine_n(arg_es, fn)
        if name == "trap":
            return _compile_trap(arg_es)
        # controller intrinsic: a genuine blocking point
        triples = [(a.sync, a.gen, a.gated) for a in arg_es]
        def gen(i, f):
            vals = []
            for s, g, gd in triples:
                if s is not None and (not gd or i._pure_fast):
                    vals.append(s(i, f))
                else:
                    vals.append((yield from g(i, f)))
            return (yield from i._intrinsic(name, vals))
        return _E(None, gen, False)
    # user-defined function call
    unit = ctx.unit
    triples = [(a.sync, a.gen, a.gated) for a in arg_es]
    def gen(i, f):
        vals = []
        for s, g, gd in triples:
            if s is not None and (not gd or i._pure_fast):
                vals.append(s(i, f))
            else:
                vals.append((yield from g(i, f)))
        cf = unit._funcs.get(name)
        if cf is None or not i._fast_ok:
            func = i.program.function(name)
            if func is None:
                raise CMinusRuntimeError(f"call to undefined function {name!r}")
            return (yield from i._call_user(func, vals, f.line))
        if i._pure_fast and cf.body.sync is not None:
            return _call_sync(i, cf, vals, f.line)
        return (yield from _call(i, cf, vals, f.line))
    sync = None
    if name in ctx.pure and all(a.sync is not None for a in arg_es):
        syncs = [a.sync for a in arg_es]
        cell = []  # one-entry memo: _funcs is immutable once the unit exists
        def sync(i, f):
            vals = [s(i, f) for s in syncs]
            if cell:
                cf = cell[0]
            else:
                cf = unit._funcs.get(name)
                if cf is not None and cf.body.sync is None:
                    cf = None
                cell.append(cf)
            if cf is not None:
                return _call_sync(i, cf, vals, f.line)
            func = i.program.function(name)
            if func is None:
                raise CMinusRuntimeError(f"call to undefined function {name!r}")
            # callee is pure-sync but did not compile: drive the slow
            # tier synchronously (it cannot block, by the purity proof)
            return run_sync(i._call_user(func, vals, f.line))
    return _E(sync, gen, sync is not None)


def _compile_trap(arg_es: List[_E]) -> _E:
    triples = [(a.sync, a.gen, a.gated) for a in arg_es]
    def gen(i, f):
        for s, g, gd in triples:
            if s is not None and (not gd or i._pure_fast):
                s(i, f)
            else:
                yield from g(i, f)
        if i.hook:
            req = i.hook.on_trap(i)
            if req is not None:
                yield req
        return 0
    sync = None
    if all(a.sync is not None for a in arg_es):
        syncs = [a.sync for a in arg_es]
        def sync(i, f):
            for s in syncs:
                s(i, f)
            return 0  # pure mode has no hook object: trap is a no-op
    return _E(sync, gen, sync is not None)


def _call(interp, cf: "_CompiledFunction", args: List, call_line: int):
    """Fast-tier activation: mirrors ``Interpreter._call_user`` exactly
    (frame shape, hook elision, cost charging, return protocol)."""
    func = cf.func
    if len(args) != cf.nparams:
        raise CMinusRuntimeError(
            f"{func.name}() expects {cf.nparams} args, got {len(args)}"
        )
    frame = Frame(
        func,
        cf.fsym(interp),
        len(interp.frames),
        func.line,
        call_line,
        [cf.mk_locals(args)],
    )
    interp.frames.append(frame)
    interp.state.calls_made += 1
    hook = interp.hook
    if hook is not None and interp._want_call:
        req = hook.on_call(interp, frame)
        if req is not None:
            yield req
    if interp.timed and interp.cost.call_overhead:
        interp._pending += interp.cost.call_overhead
    body = cf.body
    ret = 0
    try:
        if interp._pure_fast and body.sync is not None:
            r = _sync_child(interp, frame, body)
        else:
            r = _step_stmt(interp, frame, body)
            if r is not None:
                yield from r
                r = None
        if r is not None:
            ret = r[0]
        elif not cf.void:
            ret = cf.ret_default(func.ret)
    except _Return as r:
        ret = r.value if r.value is not None else 0
    hook = interp.hook
    if hook is not None and interp._want_ret:
        req = hook.on_return(interp, frame, ret)
        interp.frames.pop()
        if req is not None:
            yield req
    else:
        interp.frames.pop()
    return ret


def _call_sync(interp, cf: "_CompiledFunction", args: List, call_line: int):
    """Pure-mode activation: no hooks, no cost, no suspension."""
    func = cf.func
    if len(args) != cf.nparams:
        raise CMinusRuntimeError(
            f"{func.name}() expects {cf.nparams} args, got {len(args)}"
        )
    frame = Frame(
        func,
        cf.fsym(interp),
        len(interp.frames),
        func.line,
        call_line,
        [cf.mk_locals(args)],
    )
    interp.frames.append(frame)
    interp.state.calls_made += 1
    body = cf.body
    ret = 0
    try:
        if body.prologue:
            frame.line = body.line
            interp.state.statements_executed += 1
        r = body.sync(interp, frame)
        if r is not None:
            ret = r[0]
        elif not cf.void:
            ret = cf.ret_default(func.ret)
    except _Return as r:
        ret = r.value if r.value is not None else 0
    interp.frames.pop()
    return ret


def call_compiled(interp, name: str, args: List):
    """Entry point used by ``Interpreter.run_function``: run a top-level
    compiled function (the tier decision was already made)."""
    cf = interp._compiled._funcs[name]
    if interp._pure_fast and cf.body.sync is not None:
        return _call_sync(interp, cf, args, 0)
    return (yield from _call(interp, cf, args, 0))


# -------------------------------------------------------------- statements


def _compile_stmt(stmt: ast.Stmt, ctx: _Ctx) -> _S:
    if isinstance(stmt, ast.Block):
        return _compile_block(stmt, ctx, new_scope=True)
    if isinstance(stmt, ast.If):
        return _compile_if(stmt, ctx)
    if isinstance(stmt, ast.While):
        return _compile_while(stmt, ctx)
    if isinstance(stmt, ast.DoWhile):
        return _compile_dowhile(stmt, ctx)
    if isinstance(stmt, ast.For):
        return _compile_for(stmt, ctx)
    act = _compile_leaf_action(stmt, ctx)
    return _S(stmt, stmt.line, True, act.sync, act.gated, act.gen)


def _compile_leaf_action(stmt: ast.Stmt, ctx: _Ctx) -> _E:
    """The statement's effect, sans boundary (the stepper owns that)."""
    if isinstance(stmt, ast.Decl):
        ct, nm = stmt.ctype, stmt.name
        if stmt.init is None:
            def act(i, f):
                f.scopes[-1][nm] = Value(ct, default_value(ct))
            out = _E(act, None, False)
        else:
            init = _compile_expr(stmt.init, ctx)
            conv = _make_coercer(ct)
            def fn(i, f, v):
                f.scopes[-1][nm] = Value(ct, conv(v))
            out = _combine1(init, fn)
        ctx.scopes[-1].add(nm)  # visible only after its own initializer
        return out
    if isinstance(stmt, ast.Assign):
        return _compile_assign(stmt, ctx)
    if isinstance(stmt, ast.IncDec):
        delta = 1 if stmt.op == "++" else -1
        target = stmt.target
        tct = target.ctype
        if isinstance(target, ast.Ident):
            rf = _make_slot_resolver(target, ctx)
            conv = _make_coercer(tct)
            def act(i, f):
                slot = rf(i, f)
                slot.data = conv(slot.data + delta)
            return _E(act, None, False)
        ref_e = _compile_ref(target, ctx)
        def fn(i, f, ref):
            old = i._ref_get(ref, None)
            i._ref_set(ref, old + delta, tct)
        return _combine1(ref_e, fn)
    if isinstance(stmt, ast.ExprStmt):
        e = _compile_expr(stmt.expr, ctx)
        return _combine1(e, lambda i, f, v: None)
    if isinstance(stmt, ast.Return):
        # Statement sync closures signal a return by *returning* a
        # 1-tuple ``(value,)`` (None means fell through) — the pure-mode
        # drivers propagate it without the cost of a _Return throw per
        # call; the gen closures keep the exception protocol.
        if stmt.value is None:
            def act(i, f):
                return (0,)
            def genv(i, f):
                raise _Return(0)
                yield  # pragma: no cover
            return _E(act, genv, False)
        conv = _make_coercer(ctx.func.ret)
        e = _compile_expr(stmt.value, ctx)
        esy, eg, egd = e.sync, e.gen, e.gated
        sync = None
        if esy is not None:
            def sync(i, f):
                return (conv(esy(i, f)),)
        def gen(i, f):
            if esy is not None and (not egd or i._pure_fast):
                v = esy(i, f)
            else:
                v = yield from eg(i, f)
            raise _Return(conv(v))
        return _E(sync, gen, egd)
    if isinstance(stmt, ast.Break):
        def act(i, f):
            raise _Break()
        return _E(act, None, False)
    if isinstance(stmt, ast.Continue):
        def act(i, f):
            raise _Continue()
        return _E(act, None, False)
    raise CMinusRuntimeError(f"unknown statement {type(stmt).__name__}")  # pragma: no cover


def _compile_assign(stmt: ast.Assign, ctx: _Ctx) -> _E:
    target = stmt.target
    v_e = _compile_expr(stmt.value, ctx)
    if isinstance(target, ast.PedfIo):
        iface, tct = target.iface, target.ctype
        idx_e = _compile_expr(target.index, ctx)
        vtrip = (v_e.sync, v_e.gen, v_e.gated)
        itrip = (idx_e.sync, idx_e.gen, idx_e.gated)
        def gen(i, f):
            s, g, gd = vtrip
            if s is not None and (not gd or i._pure_fast):
                v = s(i, f)
            else:
                v = yield from g(i, f)
            s, g, gd = itrip
            if s is not None and (not gd or i._pure_fast):
                index = s(i, f)
            else:
                index = yield from g(i, f)
            yield from i._io_write(iface, index, coerce(v, tct), tct)
        return _E(None, gen, False)
    tct = target.ctype
    apply = None if stmt.op == "=" else _make_binop(stmt.op[:-1], tct, stmt.line)
    if isinstance(target, ast.Ident):
        rf = _make_slot_resolver(target, ctx)
        conv = _make_coercer(tct)
        if apply is None:
            def fn(i, f, v):
                slot = rf(i, f)
                slot.data = conv(v)
        else:
            def fn(i, f, v):
                slot = rf(i, f)
                slot.data = conv(apply(slot.data, v))
        return _combine1(v_e, fn)
    ref_e = _compile_ref(target, ctx)
    if apply is None:
        def fn(i, f, v, ref):
            i._ref_set(ref, v, tct)
    else:
        def fn(i, f, v, ref):
            old = i._ref_get(ref, None)
            i._ref_set(ref, apply(old, v), tct)
    return _combine2(v_e, ref_e, fn)


def _compile_block(block: ast.Block, ctx: _Ctx, new_scope: bool) -> _S:
    """A statement sequence.  Blocks that declare nothing directly skip
    the runtime scope push (the static scope indices mirror the
    elision), and a decl-less single-statement block compiles to its
    only child — the sequencing is free."""
    has_decl = any(isinstance(s, ast.Decl) for s in block.body)
    if has_decl:
        ctx.scopes.append(set())
        try:
            entries = tuple(_compile_stmt(s, ctx) for s in block.body)
        finally:
            ctx.scopes.pop()
    else:
        entries = tuple(_compile_stmt(s, ctx) for s in block.body)
        if len(entries) == 1:
            return entries[0]
    if has_decl:
        def gen(i, f):
            f.scopes.append({})
            try:
                for s in entries:
                    r = _step_stmt(i, f, s)
                    if r is not None:
                        yield from r
            finally:
                f.scopes.pop()
    else:
        def gen(i, f):
            for s in entries:
                r = _step_stmt(i, f, s)
                if r is not None:
                    yield from r
    sync = None
    if all(s.sync is not None for s in entries):
        steps = tuple((s.line, s.prologue, s.sync) for s in entries)
        if has_decl:
            def sync(i, f):
                st = i.state
                f.scopes.append({})
                try:
                    for line, prologue, sfn in steps:
                        if prologue:
                            f.line = line
                            st.statements_executed += 1
                        r = sfn(i, f)
                        if r is not None:
                            return r
                finally:
                    f.scopes.pop()
        else:
            def sync(i, f):
                st = i.state
                for line, prologue, sfn in steps:
                    if prologue:
                        f.line = line
                        st.statements_executed += 1
                    r = sfn(i, f)
                    if r is not None:
                        return r
    return _S(block, block.line, False, sync, True, gen)


def _compile_if(stmt: ast.If, ctx: _Ctx) -> _S:
    cond = _compile_expr(stmt.cond, ctx)
    then_s = _compile_stmt(stmt.then, ctx)
    other_s = _compile_stmt(stmt.other, ctx) if stmt.other is not None else None
    ctrip = (cond.sync, cond.gen, cond.gated)
    def gen(i, f):
        s, g, gd = ctrip
        if s is not None and (not gd or i._pure_fast):
            cv = s(i, f)
        else:
            cv = yield from g(i, f)
        branch = then_s if cv else other_s
        if branch is not None:
            r = _step_stmt(i, f, branch)
            if r is not None:
                yield from r
    sync = None
    if (
        cond.sync is not None
        and then_s.sync is not None
        and (other_s is None or other_s.sync is not None)
    ):
        csy = cond.sync
        def sync(i, f):
            branch = then_s if csy(i, f) else other_s
            if branch is not None:
                if branch.prologue:
                    f.line = branch.line
                    i.state.statements_executed += 1
                return branch.sync(i, f)
    return _S(stmt, stmt.line, True, sync, True, gen)


def _loop_boundary(interp, frame, node):
    """Per-iteration loop-header boundary for compiled gen drivers:
    flush-check → (caller does the deopt check) → line/count/charge."""
    frame.line = node.line
    interp.state.statements_executed += 1
    if interp.timed:
        interp._pending += interp.cost.default_stmt


def _compile_while(stmt: ast.While, ctx: _Ctx) -> _S:
    cond = _compile_expr(stmt.cond, ctx)
    body_s = _compile_stmt(stmt.body, ctx)
    ctrip = (cond.sync, cond.gen, cond.gated)
    node = stmt
    def gen(i, f):
        while True:
            if i.timed and i._pending >= i._batch_limit:
                p = i._pending
                i._pending = 0
                if i._count_cycles:
                    i.cycles_flushed += p
                    if i._profile is not None:
                        i._profile(i, p)
                yield Delay(p)
            if not i._fast_ok:
                yield from i._while_from_header(node)
                return
            _loop_boundary(i, f, node)
            s, g, gd = ctrip
            if s is not None and (not gd or i._pure_fast):
                cv = s(i, f)
            else:
                cv = yield from g(i, f)
            if not cv:
                return
            try:
                r = _step_stmt(i, f, body_s)
                if r is not None:
                    yield from r
            except _Break:
                return
            except _Continue:
                continue
    sync = None
    if cond.sync is not None and body_s.sync is not None:
        csy = cond.sync
        line = stmt.line
        bline, bprologue, bsy = body_s.line, body_s.prologue, body_s.sync
        def sync(i, f):
            st = i.state
            while True:
                f.line = line
                st.statements_executed += 1
                if not csy(i, f):
                    return
                try:
                    if bprologue:
                        f.line = bline
                        st.statements_executed += 1
                    r = bsy(i, f)
                    if r is not None:
                        return r
                except _Break:
                    return
                except _Continue:
                    continue
    return _S(stmt, stmt.line, False, sync, True, gen)


def _compile_dowhile(stmt: ast.DoWhile, ctx: _Ctx) -> _S:
    cond = _compile_expr(stmt.cond, ctx)
    body_s = _compile_stmt(stmt.body, ctx)
    ctrip = (cond.sync, cond.gen, cond.gated)
    node = stmt
    def gen(i, f):
        while True:
            try:
                r = _step_stmt(i, f, body_s)
                if r is not None:
                    yield from r
            except _Break:
                return
            except _Continue:
                pass
            if i.timed and i._pending >= i._batch_limit:
                p = i._pending
                i._pending = 0
                if i._count_cycles:
                    i.cycles_flushed += p
                    if i._profile is not None:
                        i._profile(i, p)
                yield Delay(p)
            if not i._fast_ok:
                yield from i._dowhile_from_cond(node)
                return
            _loop_boundary(i, f, node)
            s, g, gd = ctrip
            if s is not None and (not gd or i._pure_fast):
                cv = s(i, f)
            else:
                cv = yield from g(i, f)
            if not cv:
                return
    sync = None
    if cond.sync is not None and body_s.sync is not None:
        csy = cond.sync
        line = stmt.line
        bline, bprologue, bsy = body_s.line, body_s.prologue, body_s.sync
        def sync(i, f):
            st = i.state
            while True:
                try:
                    if bprologue:
                        f.line = bline
                        st.statements_executed += 1
                    r = bsy(i, f)
                    if r is not None:
                        return r
                except _Break:
                    return
                except _Continue:
                    pass
                f.line = line
                st.statements_executed += 1
                if not csy(i, f):
                    return
    return _S(stmt, stmt.line, False, sync, True, gen)


def _compile_for(stmt: ast.For, ctx: _Ctx) -> _S:
    own_scope = isinstance(stmt.init, ast.Decl)
    if own_scope:
        ctx.scopes.append(set())
    try:
        init_s = _compile_stmt(stmt.init, ctx) if stmt.init is not None else None
        cond = _compile_expr(stmt.cond, ctx) if stmt.cond is not None else None
        step_s = _compile_stmt(stmt.step, ctx) if stmt.step is not None else None
        body_s = _compile_stmt(stmt.body, ctx)
    finally:
        if own_scope:
            ctx.scopes.pop()
    ctrip = (cond.sync, cond.gen, cond.gated) if cond is not None else None
    node = stmt
    def gen(i, f):
        if own_scope:
            f.scopes.append({})
        try:
            if init_s is not None:
                r = _step_stmt(i, f, init_s)
                if r is not None:
                    yield from r
            while True:
                if i.timed and i._pending >= i._batch_limit:
                    p = i._pending
                    i._pending = 0
                    if i._count_cycles:
                        i.cycles_flushed += p
                        if i._profile is not None:
                            i._profile(i, p)
                    yield Delay(p)
                if not i._fast_ok:
                    yield from i._for_from_header(node)
                    return
                _loop_boundary(i, f, node)
                if ctrip is not None:
                    s, g, gd = ctrip
                    if s is not None and (not gd or i._pure_fast):
                        cv = s(i, f)
                    else:
                        cv = yield from g(i, f)
                    if not cv:
                        return
                try:
                    r = _step_stmt(i, f, body_s)
                    if r is not None:
                        yield from r
                except _Break:
                    return
                except _Continue:
                    pass
                if step_s is not None:
                    r = _step_stmt(i, f, step_s)
                    if r is not None:
                        yield from r
        finally:
            if own_scope:
                f.scopes.pop()
    sync = None
    if (
        (init_s is None or init_s.sync is not None)
        and (cond is None or cond.sync is not None)
        and (step_s is None or step_s.sync is not None)
        and body_s.sync is not None
    ):
        csy = cond.sync if cond is not None else None
        line = stmt.line
        bline, bprologue, bsy = body_s.line, body_s.prologue, body_s.sync
        if step_s is not None:
            sline, sprologue, ssy = step_s.line, step_s.prologue, step_s.sync
        def sync(i, f):
            if own_scope:
                f.scopes.append({})
            try:
                if init_s is not None:
                    _sync_child(i, f, init_s)
                st = i.state
                while True:
                    f.line = line
                    st.statements_executed += 1
                    if csy is not None and not csy(i, f):
                        return
                    try:
                        if bprologue:
                            f.line = bline
                            st.statements_executed += 1
                        r = bsy(i, f)
                        if r is not None:
                            return r
                    except _Break:
                        return
                    except _Continue:
                        pass
                    if step_s is not None:
                        if sprologue:
                            f.line = sline
                            st.statements_executed += 1
                        ssy(i, f)
            finally:
                if own_scope:
                    f.scopes.pop()
    return _S(stmt, stmt.line, False, sync, True, gen)


# ---------------------------------------------------------- purity analysis


def _walk_stmt_exprs(stmt: ast.Stmt):
    """Yield every expression node (recursively) under a statement."""
    stack: List = [stmt]
    while stack:
        n = stack.pop()
        if n is None:
            continue
        if isinstance(n, ast.Block):
            stack.extend(n.body)
        elif isinstance(n, ast.If):
            stack.extend((n.cond, n.then, n.other))
        elif isinstance(n, ast.While):
            stack.extend((n.cond, n.body))
        elif isinstance(n, ast.DoWhile):
            stack.extend((n.body, n.cond))
        elif isinstance(n, ast.For):
            stack.extend((n.init, n.cond, n.step, n.body))
        elif isinstance(n, ast.Decl):
            stack.append(n.init)
        elif isinstance(n, ast.Assign):
            stack.extend((n.target, n.value))
        elif isinstance(n, ast.IncDec):
            stack.append(n.target)
        elif isinstance(n, ast.ExprStmt):
            stack.append(n.expr)
        elif isinstance(n, ast.Return):
            stack.append(n.value)
        elif isinstance(n, ast.Expr):
            yield n
            if isinstance(n, ast.Unary):
                stack.append(n.operand)
            elif isinstance(n, ast.Binary):
                stack.extend((n.left, n.right))
            elif isinstance(n, ast.Ternary):
                stack.extend((n.cond, n.then, n.other))
            elif isinstance(n, ast.Cast):
                stack.append(n.operand)
            elif isinstance(n, ast.Index):
                stack.extend((n.base, n.index))
            elif isinstance(n, ast.Member):
                stack.append(n.base)
            elif isinstance(n, ast.Call):
                stack.extend(n.args)
            elif isinstance(n, ast.PedfIo):
                stack.append(n.index)


def _compute_pure_sync(program: ast.Program) -> Set[str]:
    """Names of functions that can never emit a kernel request: no
    dataflow I/O, no intrinsics, and only pure-sync callees — a
    pessimistic fixpoint over the call graph (recursion allowed)."""
    names = {f.name for f in program.functions}
    deps: Dict[str, Set[str]] = {}
    tainted: Set[str] = set()
    for f in program.functions:
        calls: Set[str] = set()
        for e in _walk_stmt_exprs(f.body):
            if isinstance(e, ast.PedfIo):
                tainted.add(f.name)
            elif isinstance(e, ast.Call):
                if e.is_builtin:
                    if e.name not in _SYNC_BUILTINS:
                        tainted.add(f.name)  # controller intrinsic
                else:
                    calls.add(e.name)
        deps[f.name] = calls
    changed = True
    while changed:
        changed = False
        for name, calls in deps.items():
            if name in tainted:
                continue
            if any(c not in names or c in tainted for c in calls):
                tainted.add(name)
                changed = True
    return names - tainted


# ------------------------------------------------------------------- units


def _no_locals(args):
    return {}


class _CompiledFunction:
    __slots__ = (
        "func", "name", "params", "nparams", "mk_locals", "void", "body",
        "_fsym", "_fsym_di",
    )

    def __init__(self, func: ast.FuncDef, body: _S):
        self.func = func
        self.name = func.name
        self.params = [(p.name, p.ctype, _make_coercer(p.ctype)) for p in func.params]
        self.nparams = len(self.params)
        self.void = isinstance(func.ret, VoidType)
        self.body = body
        self._fsym = None
        self._fsym_di = None
        if self.nparams == 0:
            self.mk_locals = _no_locals
        elif self.nparams == 1:
            nm, ct, conv = self.params[0]
            def mk1(args, nm=nm, ct=ct, conv=conv):
                return {nm: Value(ct, conv(args[0]))}
            self.mk_locals = mk1
        else:
            params = self.params
            def mkn(args, params=params):
                return {
                    nm: Value(ct, conv(a))
                    for (nm, ct, conv), a in zip(params, args)
                }
            self.mk_locals = mkn

    def fsym(self, interp):
        # One-entry memo: every frame of a given interpreter resolves the
        # same debug-info symbol, and units are shared across interpreters
        # of one Program, so key on the DebugInfo identity.
        di = interp.debug_info
        if di is not self._fsym_di:
            self._fsym_di = di
            self._fsym = di.functions.get(self.name)
        return self._fsym

    def ret_default(self, ctype):
        if isinstance(ctype, IntType):
            return 0
        if isinstance(ctype, BoolType):
            return False
        return default_value(ctype)


class CompiledUnit:
    """All compiled functions of one :class:`~repro.cminus.ast.Program`.

    Compilation is total-effort but failure-tolerant: a function the
    compiler cannot lower is simply absent (``supports`` → False) and
    keeps running on the slow tier.
    """

    def __init__(self, program: ast.Program):
        self.program = program
        self.pure_sync_names = _compute_pure_sync(program)
        self._funcs: Dict[str, _CompiledFunction] = {}
        self.failed: Dict[str, str] = {}
        for fdef in program.functions:
            try:
                ctx = _Ctx(self, fdef, self.pure_sync_names)
                body = _compile_block(fdef.body, ctx, new_scope=True)
                self._funcs[fdef.name] = _CompiledFunction(fdef, body)
            except Exception as exc:  # keep the program runnable
                self.failed[fdef.name] = f"{type(exc).__name__}: {exc}"

    def supports(self, name: str) -> bool:
        return name in self._funcs


def compiled_unit(program: ast.Program) -> CompiledUnit:
    """The program's memoized :class:`CompiledUnit` (all interpreters of
    the same Program — e.g. replay re-executions — share one)."""
    cu = getattr(program, "_compiled_unit_cache", None)
    if cu is None:
        cu = CompiledUnit(program)
        program._compiled_unit_cache = cu
    return cu
