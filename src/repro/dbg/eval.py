"""GDB-style expression evaluation against a stopped frame.

Works on *dynamic* types: identifiers resolve to the frame's typed slots,
and operator result types are computed on the fly (so ``print`` works on
any expression without a compilation context).  Side effects are refused:
dataflow I/O would consume tokens and intrinsics would alter scheduling —
the dataflow extension provides safe alternatives (paper §III).

Value history: every evaluation may be recorded as ``$N`` and recalled in
later expressions, exactly like GDB convenience variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cminus import ast
from ..cminus.interp import PURE_BUILTINS, Frame, Interpreter, apply_binop, apply_unop
from ..cminus.parser import parse_expression
from ..cminus.sema import SHARED_BUILTINS
from ..cminus.typesys import (
    BOOL,
    S32,
    U32,
    ArrayType,
    BoolType,
    CType,
    IntType,
    StructType,
    common_type,
    wrap_int,
)
from ..cminus.values import Raw, copy_raw, format_value
from ..errors import CMinusRuntimeError, DebuggerError

Typed = Tuple[CType, Raw]


class EvalError(DebuggerError):
    """An expression could not be evaluated."""


def format_typed(ctype: CType, raw: Raw) -> str:
    return format_value(ctype, raw)


@dataclass
class HistoryEntry:
    ctype: CType
    raw: Raw


class ValueHistory:
    """The ``$N`` history of ``print`` results."""

    def __init__(self) -> None:
        self.entries: List[HistoryEntry] = []

    def record(self, ctype: CType, raw: Raw) -> int:
        self.entries.append(HistoryEntry(ctype, copy_raw(raw)))
        return len(self.entries)

    def get(self, index: int) -> HistoryEntry:
        if not 1 <= index <= len(self.entries):
            raise EvalError(f"history has no ${index}")
        return self.entries[index - 1]


class Evaluator:
    """Evaluates one parsed expression in a given context."""

    def __init__(
        self,
        frame: Optional[Frame] = None,
        interp: Optional[Interpreter] = None,
        actor=None,
        history: Optional[ValueHistory] = None,
        structs: Optional[Dict[str, StructType]] = None,
    ):
        self.frame = frame
        self.interp = interp
        self.actor = actor  # ActorInst, for pedf.data/pedf.attribute
        self.history = history
        self.structs = structs or {}
        #: set once an identifier resolved to a slot of ``frame``
        self.read_frame = False

    # ------------------------------------------------------------ entry

    def eval_text(self, text: str) -> Typed:
        text = text.strip()
        if "$" in text:
            text = self._substitute_history(text)
        try:
            expr = parse_expression(text, structs=self.structs)
        except Exception as exc:
            raise EvalError(f"cannot parse expression {text!r}: {exc}") from exc
        return self.eval(expr)

    def _substitute_history(self, text: str) -> str:
        """Rewrite ``$N`` references to synthetic identifiers resolved by
        :meth:`_eval_Ident` — this keeps aggregate history values usable
        with member/index access (``$1.Izz``, ``$2[3]``)."""
        import re

        return re.sub(r"\$(\d+)", r"__hist_\1", text)

    # ------------------------------------------------------------- visitor

    def eval(self, expr: ast.Expr) -> Typed:
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise EvalError(f"unsupported expression {type(expr).__name__}")
        return method(expr)

    def _eval_NumberLit(self, e: ast.NumberLit) -> Typed:
        return (U32 if e.value > S32.max else S32), e.value

    def _eval_BoolLit(self, e: ast.BoolLit) -> Typed:
        return BOOL, e.value

    def _eval_Ident(self, e: ast.Ident) -> Typed:
        if e.name.startswith("__hist_") and e.name[7:].isdigit():
            if self.history is None:
                raise EvalError("no value history available")
            entry = self.history.get(int(e.name[7:]))
            return entry.ctype, copy_raw(entry.raw)
        if self.frame is not None:
            slot = self.frame.lookup(e.name)
            if slot is not None:
                self.read_frame = True
                return slot.ctype, copy_raw(slot.data)
        if self.interp is not None:
            slot = self.interp.globals.get(e.name)
            if slot is not None:
                return slot.ctype, copy_raw(slot.data)
        raise EvalError(f"no symbol {e.name!r} in current context")

    def _eval_Unary(self, e: ast.Unary) -> Typed:
        ctype, raw = self.eval(e.operand)
        if e.op == "!":
            return BOOL, not raw
        if not isinstance(ctype, (IntType, BoolType)):
            raise EvalError(f"unary {e.op} on non-integer value")
        t = ctype if isinstance(ctype, IntType) else S32
        return t, apply_unop(e.op, raw, t)

    def _eval_Binary(self, e: ast.Binary) -> Typed:
        if e.op in ("&&", "||"):
            left = bool(self.eval(e.left)[1])
            if left == (e.op == "||"):  # short circuit
                return BOOL, left
            return BOOL, bool(self.eval(e.right)[1])
        lt, lraw = self.eval(e.left)
        rt, rraw = self.eval(e.right)
        if e.op in ("==", "!=", "<", ">", "<=", ">="):
            if isinstance(lraw, (list, dict)) or isinstance(rraw, (list, dict)):
                if e.op in ("==", "!="):
                    eq = lraw == rraw
                    return BOOL, (eq if e.op == "==" else not eq)
                raise EvalError(f"cannot order aggregate values with {e.op}")
            out = BOOL
        else:
            if not isinstance(lraw, (int, bool)) or not isinstance(rraw, (int, bool)):
                raise EvalError(f"arithmetic {e.op} on non-integer values")
            lt2 = lt if isinstance(lt, IntType) else S32
            rt2 = rt if isinstance(rt, IntType) else S32
            out = common_type(lt2, lt2 if e.op in ("<<", ">>") else rt2)
        try:
            return out, apply_binop(e.op, lraw, rraw, out)
        except CMinusRuntimeError as exc:
            raise EvalError(str(exc)) from None

    def _eval_Ternary(self, e: ast.Ternary) -> Typed:
        _, cond = self.eval(e.cond)
        return self.eval(e.then if cond else e.other)

    def _eval_Cast(self, e: ast.Cast) -> Typed:
        _, raw = self.eval(e.operand)
        if isinstance(e.target, BoolType):
            return BOOL, bool(raw)
        if isinstance(e.target, IntType):
            if isinstance(raw, (list, dict)):
                raise EvalError("cannot cast aggregate to integer")
            return e.target, wrap_int(int(raw), e.target)
        raise EvalError(f"unsupported cast to {e.target}")

    def _eval_Index(self, e: ast.Index) -> Typed:
        bt, braw = self.eval(e.base)
        _, idx = self.eval(e.index)
        if not isinstance(braw, list):
            raise EvalError("indexing a non-array value")
        if not 0 <= int(idx) < len(braw):
            raise EvalError(f"index {idx} out of bounds [0, {len(braw)})")
        elem_t = bt.elem if isinstance(bt, ArrayType) else S32
        return elem_t, copy_raw(braw[int(idx)])

    def _eval_Member(self, e: ast.Member) -> Typed:
        bt, braw = self.eval(e.base)
        if not isinstance(braw, dict):
            raise EvalError("member access on a non-struct value")
        if e.member not in braw:
            raise EvalError(f"no field {e.member!r} (fields: {', '.join(braw)})")
        ft = bt.field_type(e.member) if isinstance(bt, StructType) else None
        return (ft or S32), copy_raw(braw[e.member])

    def _eval_Call(self, e: ast.Call) -> Typed:
        pure = PURE_BUILTINS.get(e.name)
        if pure is None:
            raise EvalError(
                f"cannot call {e.name}() in a debugger expression "
                "(only pure builtins abs/min/max/clip are allowed)"
            )
        want = len(SHARED_BUILTINS[e.name][1])
        if len(e.args) != want:
            raise EvalError(f"{e.name}() takes {want} argument(s), not {len(e.args)}")
        return S32, wrap_int(pure(*(int(self.eval(a)[1]) for a in e.args)), S32)

    def _eval_PedfIo(self, e: ast.PedfIo) -> Typed:
        raise EvalError(
            f"reading pedf.io.{e.iface} in an expression would consume a token; "
            "use the dataflow 'iface' commands to inspect link contents"
        )

    def _eval_PedfData(self, e: ast.PedfData) -> Typed:
        if self.actor is None or not hasattr(self.actor, "data_store"):
            raise EvalError("pedf.data is only available with a filter selected")
        slot = self.actor.data_store.get(e.name)
        if slot is None:
            raise EvalError(f"{self.actor.qualname} has no private data {e.name!r}")
        return slot.ctype, copy_raw(slot.data)

    def _eval_PedfAttr(self, e: ast.PedfAttr) -> Typed:
        if self.actor is None or not hasattr(self.actor, "attributes"):
            raise EvalError("pedf.attribute is only available with a filter selected")
        if e.name not in self.actor.attributes:
            raise EvalError(f"{self.actor.qualname} has no attribute {e.name!r}")
        decl_attrs = getattr(self.actor.decl, "attributes", {})
        ctype = decl_attrs.get(e.name, (S32, 0))[0] if e.name in decl_attrs else S32
        return ctype, copy_raw(self.actor.attributes[e.name])

    def _eval_StringLit(self, e: ast.StringLit) -> Typed:
        raise EvalError("string literals have no value in debugger expressions")
