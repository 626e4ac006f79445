"""Bytecode compiler: lowers the analyzed Filter-C AST onto the PE ISA.

Register allocation runs over a virtual register file: parameters land in
the low registers, every declaration gets its own register, expression
temporaries come from a free list, and constants are materialized into
dedicated registers once per activation (the constant pool is applied to
``reg_init``, the register-file template copied at call entry).

Every statement lowers to a ``stmt`` boundary instruction followed by its
effect.  The boundary carries the debug contract: source line (the VM's
line table), the AST node index (what the statement hook is handed) and
the scope-shape index — the table that names the registers holding the
variables in scope, which a debugger reads a VM frame's locals through.

Compilation is failure-tolerant at the unit level: a function the
compiler cannot lower is absent from the unit and recorded with its
reason in :attr:`VmUnit.failed`; :meth:`VmUnit.require_complete` turns
that into the error the VM tier raises instead of running the program.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ...errors import CMinusLoweringError, CMinusRuntimeError
from .. import ast
from ..typesys import BoolType, IntType, S32, StructType, VoidType
from ..values import coerce, default_value
from . import isa


class VmCompileError(Exception):
    """This function cannot be lowered onto the ISA."""


_ARITH = {"+": (isa.ADD, isa.ADDK), "-": (isa.SUB, isa.SUBK),
          "*": (isa.MUL, isa.MULK), "&": (isa.AND, isa.ANDK),
          "|": (isa.OR, isa.ORK), "^": (isa.XOR, isa.XORK)}
_CMP = {"==": (isa.EQ, isa.EQK), "!=": (isa.NE, isa.NEK),
        "<": (isa.LT, isa.LTK), "<=": (isa.LE, isa.LEK),
        ">": (isa.GT, isa.GTK), ">=": (isa.GE, isa.GEK)}

_SYNC_BUILTINS = {"abs", "min", "max", "clip", "print", "trap"}


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


def _wrap_params(ct) -> Tuple[int, int, int]:
    """``(mask, mx, span)`` implementing ``wrap_int`` inline: the emulator
    computes ``r &= mask; if r > mx: r -= span`` — for unsigned types
    ``mx == mask`` so the branch never fires."""
    if not isinstance(ct, IntType):
        ct = S32
    mask = (1 << ct.bits) - 1
    mx = (1 << (ct.bits - 1)) - 1 if ct.signed else mask
    return mask, mx, 1 << ct.bits


class VmFunction:
    """One compiled function: code + pools + debug side tables."""

    __slots__ = (
        "name", "func", "filename", "params", "param_convs", "nparams",
        "code", "consts", "reg_init", "nregs", "reg_names", "nodes",
        "varmaps", "types", "void", "ret", "ret_kind", "_fsym", "_fsym_di",
    )

    def __init__(self, func: ast.FuncDef):
        self.func = func
        self.name = func.name
        self.filename = func.filename
        self.params = [(p.name, p.ctype) for p in func.params]
        self.param_convs = [_make_coercer(p.ctype) for p in func.params]
        self.nparams = len(self.params)
        self.void = isinstance(func.ret, VoidType)
        self.ret = func.ret
        if isinstance(func.ret, IntType) or self.void:
            self.ret_kind = 0
        elif isinstance(func.ret, BoolType):
            self.ret_kind = 1
        else:
            self.ret_kind = 2
        self.code: Tuple[tuple, ...] = ()
        self.consts: Tuple[Tuple[int, object], ...] = ()
        self.reg_init: List[object] = []
        self.nregs = 0
        self.reg_names: Dict[int, str] = {}
        self.nodes: List[ast.Stmt] = []
        self.varmaps: List[tuple] = []
        self.types: List[object] = []
        self._fsym = None
        self._fsym_di = None

    def fsym(self, interp):
        di = interp.debug_info
        if di is not self._fsym_di:
            self._fsym_di = di
            self._fsym = di.functions.get(self.name)
        return self._fsym

    def ret_default(self):
        if self.ret_kind == 0:
            return 0
        if self.ret_kind == 1:
            return False
        return default_value(self.ret)

    def _boundary_at(self, pc: int) -> Optional[tuple]:
        """The ``stmt`` instruction governing ``pc``: the most recent
        boundary at or before it, None before the first one."""
        code = self.code
        for i in range(min(pc, len(code) - 1), -1, -1):
            if code[i][0] == isa.STMT:
                return code[i]
        return None

    def line_at(self, pc: int) -> int:
        """Source line governing ``pc`` (the most recent boundary)."""
        ins = self._boundary_at(pc)
        return self.func.line if ins is None else ins[1]

    def shape_at(self, pc: int) -> tuple:
        """Scope shape governing ``pc``: one ``(name, ctype, reg)`` tuple
        per lexical scope, outermost first.  Before the first boundary
        (or in an assembled function, which has no shape table) only the
        parameters are in scope."""
        ins = self._boundary_at(pc)
        if ins is None or not self.varmaps:
            return (tuple((nm, ct, i) for i, (nm, ct) in enumerate(self.params)),)
        return self.varmaps[ins[3]]


class _FnCompiler:
    def __init__(self, func: ast.FuncDef, global_types: Dict[str, object]):
        self.func = func
        self.out = VmFunction(func)
        self.global_types = global_types
        self.code: List[list] = []
        self.scopes: List[List[Tuple[str, object, int]]] = [[]]
        self.nregs = 0
        self.const_regs: Dict[tuple, int] = {}
        self.const_list: List[Tuple[int, object]] = []
        self.free_temps: List[int] = []
        self.live_temps: set = set()
        self.varmap_ids: Dict[tuple, int] = {}
        self.loop_stack: List[dict] = []
        for p in func.params:
            reg = self._newreg()
            self.scopes[0].append((p.name, p.ctype, reg))
            self.out.reg_names[reg] = p.name

    # ------------------------------------------------------------ registers

    def _newreg(self) -> int:
        r = self.nregs
        self.nregs += 1
        return r

    def _tmp(self) -> int:
        r = self.free_temps.pop() if self.free_temps else self._newreg()
        self.live_temps.add(r)
        return r

    def _release(self, r: int) -> None:
        if r in self.live_temps:
            self.live_temps.discard(r)
            self.free_temps.append(r)

    def _const(self, v) -> int:
        key = (type(v).__name__, v)
        reg = self.const_regs.get(key)
        if reg is None:
            reg = self._newreg()
            self.const_regs[key] = reg
            self.const_list.append((reg, v))
        return reg

    def _declare(self, name: str, ctype) -> int:
        reg = self._newreg()
        self.scopes[-1].append((name, ctype, reg))
        self.out.reg_names[reg] = name
        return reg

    def _lookup(self, name: str):
        for scope in reversed(self.scopes):
            for nm, ct, reg in reversed(scope):
                if nm == name:
                    return ct, reg
        return None

    def _type(self, ct) -> int:
        types = self.out.types
        for i, t in enumerate(types):
            if t is ct:
                return i
        types.append(ct)
        return len(types) - 1

    # ------------------------------------------------------------- emission

    def _emit(self, *ins) -> int:
        self.code.append(list(ins))
        return len(self.code) - 1

    def _here(self) -> int:
        return len(self.code)

    def _varmap(self) -> int:
        key = tuple(tuple((nm, reg) for nm, ct, reg in s) for s in self.scopes)
        idx = self.varmap_ids.get(key)
        if idx is None:
            idx = len(self.out.varmaps)
            self.out.varmaps.append(tuple(tuple(s) for s in self.scopes))
            self.varmap_ids[key] = idx
        return idx

    def _boundary(self, node: ast.Stmt) -> None:
        """Emit a statement boundary with the scope shape in force before
        the statement runs (a declaration's own variable is not yet in
        scope, as on the tree tier)."""
        self.out.nodes.append(node)
        self._emit(isa.STMT, node.line, len(self.out.nodes) - 1, self._varmap())

    def _coerce_into(self, src: int, from_ct, to_ct, dst: Optional[int] = None) -> int:
        """Emit the store-side ``coerce`` (value semantics included)."""
        if isinstance(to_ct, IntType):
            if from_ct is to_ct and dst is None:
                return src
            d = dst if dst is not None else self._tmp()
            if from_ct is to_ct:
                self._emit(isa.MOV, d, src)
            else:
                self._emit(isa.WRAP, d, src, *_wrap_params(to_ct))
            return d
        if isinstance(to_ct, BoolType):
            if isinstance(from_ct, BoolType) and dst is None:
                return src
            d = dst if dst is not None else self._tmp()
            if isinstance(from_ct, BoolType):
                self._emit(isa.MOV, d, src)
            else:
                self._emit(isa.BOOLC, d, src)
            return d
        # aggregates always deep-copy (C value semantics), mirroring coerce()
        d = dst if dst is not None else self._tmp()
        self._emit(isa.COPY, d, src)
        return d

    # ---------------------------------------------------------- expressions

    def _expr(self, e: ast.Expr, dst: Optional[int] = None) -> int:
        if isinstance(e, ast.NumberLit):
            return self._const(e.value)
        if isinstance(e, ast.BoolLit):
            return self._const(e.value)
        if isinstance(e, ast.StringLit):
            return self._const(e.value)
        if isinstance(e, ast.Ident):
            hit = self._lookup(e.name)
            if hit is not None:
                return hit[1]
            if e.name in self.global_types:
                d = dst if dst is not None else self._tmp()
                self._emit(isa.GGET, d, e.name)
                return d
            raise VmCompileError(f"unresolvable name {e.name!r}")
        if isinstance(e, ast.Unary):
            src = self._expr(e.operand)
            d = dst if dst is not None else self._tmp()
            if e.op == "!":
                self._emit(isa.NOT, d, src)
            elif e.op == "~":
                self._emit(isa.BNOT, d, src, *_wrap_params(e.ctype))
            elif e.op == "-":
                self._emit(isa.NEG, d, src, *_wrap_params(e.ctype))
            else:  # '+'
                self._emit(isa.WRAP, d, src, *_wrap_params(e.ctype))
            self._release(src)
            return d
        if isinstance(e, ast.Binary):
            return self._binary(e, dst)
        if isinstance(e, ast.Ternary):
            return self._ternary(e, dst)
        if isinstance(e, ast.Cast):
            src = self._expr(e.operand)
            tgt = e.target
            if isinstance(tgt, IntType):
                d = dst if dst is not None else self._tmp()
                self._emit(isa.WRAP, d, src, *_wrap_params(tgt))
            elif isinstance(tgt, BoolType):
                d = dst if dst is not None else self._tmp()
                self._emit(isa.BOOLC, d, src)
            else:
                d = dst if dst is not None else self._tmp()
                self._emit(isa.COERCE, d, src, self._type(tgt))
            self._release(src)
            return d
        if isinstance(e, ast.Index):
            base = self._expr(e.base)
            d = dst
            if isinstance(e.index, ast.NumberLit):
                d = d if d is not None else self._tmp()
                self._emit(isa.EGETK, d, base, e.index.value, e.line)
            else:
                idx = self._expr(e.index)
                d = d if d is not None else self._tmp()
                self._emit(isa.EGET, d, base, idx, e.line)
                self._release(idx)
            self._release(base)
            return d
        if isinstance(e, ast.Member):
            base = self._expr(e.base)
            d = dst if dst is not None else self._tmp()
            self._emit(isa.MGET, d, base, e.member)
            self._release(base)
            return d
        if isinstance(e, ast.Call):
            return self._call(e, dst)
        if isinstance(e, ast.PedfIo):
            idx = self._expr(e.index)
            d = dst if dst is not None else self._tmp()
            self._emit(isa.IOR, d, e.iface, idx, self._type(e.ctype))
            self._release(idx)
            return d
        if isinstance(e, ast.PedfData):
            d = dst if dst is not None else self._tmp()
            self._emit(isa.DGET, d, e.name)
            return d
        if isinstance(e, ast.PedfAttr):
            d = dst if dst is not None else self._tmp()
            self._emit(isa.AGET, d, e.name)
            return d
        raise VmCompileError(f"unsupported expression {type(e).__name__}")

    def _binary(self, e: ast.Binary, dst: Optional[int]) -> int:
        op = e.op
        if op == "&&" or op == "||":
            d = dst if dst is not None else self._tmp()
            left = self._expr(e.left)
            jshort = self._emit(isa.JF if op == "&&" else isa.JT, left, -1)
            self._release(left)
            right = self._expr(e.right)
            self._emit(isa.BOOLC, d, right)
            self._release(right)
            jend = self._emit(isa.JMP, -1)
            self.code[jshort][2] = self._here()
            self._emit(isa.MOV, d, self._const(op == "||"))
            self.code[jend][1] = self._here()
            return d
        if op in _CMP:
            ropc, kopc = _CMP[op]
            left = self._expr(e.left)
            if isinstance(e.right, ast.NumberLit):
                d = dst if dst is not None else self._tmp()
                self._emit(kopc, d, left, e.right.value)
            else:
                right = self._expr(e.right)
                d = dst if dst is not None else self._tmp()
                self._emit(ropc, d, left, right)
                self._release(right)
            self._release(left)
            return d
        wrap = _wrap_params(e.ctype)
        if op in _ARITH:
            ropc, kopc = _ARITH[op]
            left = self._expr(e.left)
            if isinstance(e.right, ast.NumberLit):
                d = dst if dst is not None else self._tmp()
                self._emit(kopc, d, left, e.right.value, *wrap)
            else:
                right = self._expr(e.right)
                d = dst if dst is not None else self._tmp()
                self._emit(ropc, d, left, right, *wrap)
                self._release(right)
            self._release(left)
            return d
        if op == "<<":
            left = self._expr(e.left)
            if isinstance(e.right, ast.NumberLit) and 0 <= e.right.value <= 32:
                d = dst if dst is not None else self._tmp()
                self._emit(isa.SHLK, d, left, e.right.value, *wrap)
            else:
                right = self._expr(e.right)
                d = dst if dst is not None else self._tmp()
                self._emit(isa.SHL, d, left, right, *wrap, e.line)
                self._release(right)
            self._release(left)
            return d
        if op == ">>":
            premask = 0
            if isinstance(e.ctype, IntType) and not e.ctype.signed:
                premask = (1 << e.ctype.bits) - 1
            left = self._expr(e.left)
            if isinstance(e.right, ast.NumberLit) and 0 <= e.right.value <= 32:
                d = dst if dst is not None else self._tmp()
                self._emit(isa.SHRK, d, left, e.right.value, *wrap, premask)
            else:
                right = self._expr(e.right)
                d = dst if dst is not None else self._tmp()
                self._emit(isa.SHR, d, left, right, *wrap, premask, e.line)
                self._release(right)
            self._release(left)
            return d
        if op == "/" or op == "%":
            left = self._expr(e.left)
            right = self._expr(e.right)
            d = dst if dst is not None else self._tmp()
            self._emit(isa.DIV if op == "/" else isa.MOD, d, left, right, *wrap, e.line)
            self._release(right)
            self._release(left)
            return d
        raise VmCompileError(f"unsupported operator {op!r}")

    def _ternary(self, e: ast.Ternary, dst: Optional[int]) -> int:
        d = dst if dst is not None else self._tmp()
        scalar = isinstance(e.ctype, (IntType, BoolType))
        cond = self._expr(e.cond)
        jelse = self._emit(isa.JF, cond, -1)
        self._release(cond)
        for which, branch in enumerate((e.then, e.other)):
            v = self._expr(branch)
            if scalar:
                self._coerce_into(v, branch.ctype, e.ctype, d)
            elif v != d:
                self._emit(isa.MOV, d, v)
            self._release(v)
            if which == 0:
                jend = self._emit(isa.JMP, -1)
                self.code[jelse][2] = self._here()
        self.code[jend][1] = self._here()
        return d

    def _call(self, e: ast.Call, dst: Optional[int]) -> int:
        name = e.name
        args = [self._expr(a) for a in e.args]
        d = dst if dst is not None else self._tmp()
        if e.is_builtin:
            if name == "abs":
                self._emit(isa.ABS, d, args[0])
            elif name == "min":
                self._emit(isa.MIN, d, args[0], args[1])
            elif name == "max":
                self._emit(isa.MAX, d, args[0], args[1])
            elif name == "clip":
                self._emit(isa.CLIP, d, args[0], args[1], args[2])
            elif name == "print":
                kinds = tuple(
                    self._type(a.ctype) if isinstance(a.ctype, StructType) else -1
                    for a in e.args
                )
                self._emit(isa.PRINT, tuple(args), kinds)
                self._emit(isa.MOV, d, self._const(0))
            elif name == "trap":
                self._emit(isa.TRAP, d)
            else:  # controller intrinsic
                self._emit(isa.INTR, d, name, tuple(args))
        else:
            self._emit(isa.CALL, d, name, tuple(args))
        for r in args:
            self._release(r)
        return d

    # ------------------------------------------------------------- lvalues

    def _store(self, target: ast.Expr, src: int, src_ct) -> None:
        """Store ``src`` into ``target``, mirroring ``_ref_set`` coercion."""
        if isinstance(target, ast.Ident):
            hit = self._lookup(target.name)
            if hit is not None:
                ct, reg = hit
                self._coerce_into(src, src_ct, ct, reg)
                return
            if target.name in self.global_types:
                self._emit(isa.GSET, target.name, src)
                return
            raise VmCompileError(f"unresolvable lvalue {target.name!r}")
        if isinstance(target, ast.Index):
            base = self._expr(target.base)
            idx = self._expr(target.index)
            ct = target.ctype
            if isinstance(ct, IntType):
                self._emit(isa.ESETW, base, idx, src, *_wrap_params(ct), target.line)
            else:
                self._emit(isa.ESETC, base, idx, src, self._type(ct), target.line)
            self._release(idx)
            self._release(base)
            return
        if isinstance(target, ast.Member):
            base = self._expr(target.base)
            self._emit(isa.MSET, base, target.member, src, self._type(target.ctype))
            self._release(base)
            return
        if isinstance(target, ast.PedfData):
            # raw store — the tree tier's data ref never coerces
            self._emit(isa.DSET, target.name, src)
            return
        raise VmCompileError(f"unsupported lvalue {type(target).__name__}")

    @staticmethod
    def _needs_copy(ct) -> bool:
        return not isinstance(ct, (IntType, BoolType))

    # ----------------------------------------------------------- statements

    def _stmt(self, s: ast.Stmt) -> None:
        if isinstance(s, ast.Block):
            self.scopes.append([])
            try:
                for child in s.body:
                    self._stmt(child)
            finally:
                self.scopes.pop()
            return
        if isinstance(s, ast.If):
            self._boundary(s)
            cond = self._expr(s.cond)
            jelse = self._emit(isa.JF, cond, -1)
            self._release(cond)
            self._stmt(s.then)
            if s.other is not None:
                jend = self._emit(isa.JMP, -1)
                self.code[jelse][2] = self._here()
                self._stmt(s.other)
                self.code[jend][1] = self._here()
            else:
                self.code[jelse][2] = self._here()
            return
        if isinstance(s, ast.While):
            rec = {"breaks": [], "conts": []}
            self.loop_stack.append(rec)
            header = self._here()
            self._boundary(s)
            cond = self._expr(s.cond)
            jexit = self._emit(isa.JF, cond, -1)
            self._release(cond)
            self._stmt(s.body)
            self._emit(isa.JMP, header)
            exit_pc = self._here()
            self.code[jexit][2] = exit_pc
            self.loop_stack.pop()
            for idx in rec["breaks"]:
                self.code[idx][1] = exit_pc
            for idx in rec["conts"]:
                self.code[idx][1] = header
            return
        if isinstance(s, ast.DoWhile):
            rec = {"breaks": [], "conts": []}
            self.loop_stack.append(rec)
            body_start = self._here()
            self._stmt(s.body)
            cond_pc = self._here()
            self._boundary(s)
            cond = self._expr(s.cond)
            self._emit(isa.JT, cond, body_start)
            self._release(cond)
            exit_pc = self._here()
            self.loop_stack.pop()
            for idx in rec["breaks"]:
                self.code[idx][1] = exit_pc
            for idx in rec["conts"]:
                self.code[idx][1] = cond_pc
            return
        if isinstance(s, ast.For):
            self.scopes.append([])
            try:
                if s.init is not None:
                    self._stmt(s.init)
                rec = {"breaks": [], "conts": []}
                self.loop_stack.append(rec)
                header = self._here()
                self._boundary(s)
                jexit = None
                if s.cond is not None:
                    cond = self._expr(s.cond)
                    jexit = self._emit(isa.JF, cond, -1)
                    self._release(cond)
                self._stmt(s.body)
                step_pc = self._here()
                if s.step is not None:
                    self._stmt(s.step)
                self._emit(isa.JMP, header)
                exit_pc = self._here()
                if jexit is not None:
                    self.code[jexit][2] = exit_pc
                self.loop_stack.pop()
                for idx in rec["breaks"]:
                    self.code[idx][1] = exit_pc
                for idx in rec["conts"]:
                    self.code[idx][1] = step_pc
            finally:
                self.scopes.pop()
            return
        if isinstance(s, ast.Decl):
            self._boundary(s)
            if s.init is not None:
                v = self._expr(s.init)
                reg = self._declare(s.name, s.ctype)
                self._coerce_into(v, s.init.ctype, s.ctype, reg)
                self._release(v)
            else:
                reg = self._declare(s.name, s.ctype)
                if isinstance(s.ctype, IntType):
                    self._emit(isa.MOV, reg, self._const(0))
                elif isinstance(s.ctype, BoolType):
                    self._emit(isa.MOV, reg, self._const(False))
                else:
                    self._emit(isa.DEFAULT, reg, self._type(s.ctype))
            return
        if isinstance(s, ast.Assign):
            self._boundary(s)
            self._assign(s)
            return
        if isinstance(s, ast.IncDec):
            self._boundary(s)
            self._incdec(s)
            return
        if isinstance(s, ast.ExprStmt):
            self._boundary(s)
            r = self._expr(s.expr)
            self._release(r)
            return
        if isinstance(s, ast.Return):
            self._boundary(s)
            if s.value is not None:
                v = self._expr(s.value)
                ret_ct = self.func.ret
                if isinstance(ret_ct, (IntType, BoolType)):
                    out = self._coerce_into(v, s.value.ctype, ret_ct, None)
                else:
                    out = self._tmp()
                    self._emit(isa.COERCE, out, v, self._type(ret_ct))
                self._emit(isa.RET, out)
                self._release(out)
                self._release(v)
            else:
                self._emit(isa.RETI, 0)
            return
        if isinstance(s, ast.Break):
            self._boundary(s)
            if not self.loop_stack:
                raise VmCompileError("break outside loop")
            ji = self._emit(isa.JMP, -1)
            self.loop_stack[-1]["breaks"].append(ji)
            return
        if isinstance(s, ast.Continue):
            self._boundary(s)
            if not self.loop_stack:
                raise VmCompileError("continue outside loop")
            ji = self._emit(isa.JMP, -1)
            self.loop_stack[-1]["conts"].append(ji)
            return
        raise VmCompileError(f"unsupported statement {type(s).__name__}")

    def _assign(self, s: ast.Assign) -> None:
        # value first, then the target chain — the tree tier's exact order
        if isinstance(s.target, ast.PedfIo):
            v = self._expr(s.value)
            idx = self._expr(s.target.index)
            self._emit(isa.IOW, s.target.iface, idx, v, self._type(s.target.ctype))
            self._release(idx)
            self._release(v)
            return
        if s.op == "=":
            target = s.target
            if isinstance(target, ast.Ident):
                hit = self._lookup(target.name)
                if hit is not None:
                    ct, reg = hit
                    if isinstance(ct, (IntType, BoolType)) and s.value.ctype is ct:
                        # same-type scalar: compile straight into the slot
                        v = self._expr(s.value, dst=reg)
                        if v != reg:
                            self._emit(isa.MOV, reg, v)
                            self._release(v)
                        return
                    v = self._expr(s.value)
                    self._coerce_into(v, s.value.ctype, ct, reg)
                    self._release(v)
                    return
            v = self._expr(s.value)
            self._store(s.target, v, s.value.ctype)
            self._release(v)
            return
        # compound assignment: value, old, binop (wrapped to the target
        # type, carrying the statement line for div/shift errors), store
        v = self._expr(s.value)
        op = s.op[:-1]
        target = s.target
        ct = target.ctype
        old = self._load_lvalue(target)
        res = self._emit_binop_raw(op, old, v, ct, s.line)
        self._release(v)
        self._release(old)
        self._store_raw(target, res, ct)
        self._release(res)

    def _incdec(self, s: ast.IncDec) -> None:
        target = s.target
        ct = target.ctype
        delta = 1 if s.op == "++" else -1
        if isinstance(target, ast.Ident):
            hit = self._lookup(target.name)
            if hit is not None:  # in-place on the variable's own register
                reg = hit[1]
                self._emit(isa.ADDK, reg, reg, delta, *_wrap_params(ct))
                return
        old = self._load_lvalue(target)
        d = self._tmp()
        self._emit(isa.ADDK, d, old, 1 if s.op == "++" else -1, *_wrap_params(ct))
        self._release(old)
        self._store_raw(target, d, ct)
        self._release(d)

    def _load_lvalue(self, target: ast.Expr) -> int:
        """Read the current value of an lvalue (compound assign / incdec)."""
        return self._expr(target)

    def _store_raw(self, target: ast.Expr, src: int, ct) -> None:
        """Store an already-wrapped value of the target's own type."""
        if isinstance(target, ast.Ident):
            hit = self._lookup(target.name)
            if hit is not None:
                reg = hit[1]
                if src != reg:
                    if self._needs_copy(ct):
                        self._emit(isa.COPY, reg, src)
                    else:
                        self._emit(isa.MOV, reg, src)
                return
            if target.name in self.global_types:
                self._emit(isa.GSET, target.name, src)
                return
            raise VmCompileError(f"unresolvable lvalue {target.name!r}")
        self._store(target, src, ct)

    def _emit_binop_raw(self, op: str, a: int, b: int, ct, line: int) -> int:
        d = self._tmp()
        wrap = _wrap_params(ct)
        if op in _ARITH:
            self._emit(_ARITH[op][0], d, a, b, *wrap)
        elif op == "<<":
            self._emit(isa.SHL, d, a, b, *wrap, line)
        elif op == ">>":
            premask = 0
            if isinstance(ct, IntType) and not ct.signed:
                premask = (1 << ct.bits) - 1
            self._emit(isa.SHR, d, a, b, *wrap, premask, line)
        elif op == "/" or op == "%":
            self._emit(isa.DIV if op == "/" else isa.MOD, d, a, b, *wrap, line)
        else:
            raise VmCompileError(f"unsupported compound operator {op!r}")
        return d

    # --------------------------------------------------------------- driver

    def compile(self) -> VmFunction:
        body = self.func.body
        self.scopes.append([])  # the body's own scope, like _exec_block
        try:
            for child in body.body:
                self._stmt(child)
        finally:
            self.scopes.pop()
        if self.out.void:
            self._emit(isa.RETI, 0)
        else:
            self._emit(isa.RETD)
        out = self.out
        out.code = tuple(tuple(ins) for ins in self.code)
        out.consts = tuple(self.const_list)
        out.nregs = self.nregs
        init: List[object] = [0] * self.nregs
        for reg, v in self.const_list:
            init[reg] = v
        out.reg_init = init
        return out


class VmUnit:
    """All VM-compiled functions of one Program.  Failure-tolerant: an
    unlowerable function is absent from ``funcs`` and its reason is kept
    in ``failed``; the VM tier refuses such a unit (:meth:`require_complete`)."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.funcs: Dict[str, VmFunction] = {}
        self.failed: Dict[str, str] = {}
        gtypes = {g.name: g.ctype for g in program.globals}
        for fdef in program.functions:
            try:
                self.funcs[fdef.name] = _FnCompiler(fdef, gtypes).compile()
            except Exception as exc:  # keep the program runnable
                self.failed[fdef.name] = f"{type(exc).__name__}: {exc}"

    def supports(self, name: str) -> bool:
        return name in self.funcs

    def require_complete(self) -> None:
        """Raise :class:`~repro.errors.CMinusLoweringError` for the first
        function the compiler could not lower: the VM tier never runs a
        program it lowered only in part."""
        for name, reason in self.failed.items():
            func = self.program.function(name)
            filename = func.filename if func is not None else self.program.filename
            raise CMinusLoweringError(filename, name, reason)


def vm_unit(program: ast.Program) -> VmUnit:
    """The program's memoized :class:`VmUnit` (interpreters and replay
    re-executions of the same Program share one)."""
    vu = getattr(program, "_vm_unit_cache", None)
    if vu is None:
        vu = VmUnit(program)
        program._vm_unit_cache = vu
    return vu
