"""Reference evaluator for plain Filter-C programs: a direct tree walker.

The differential tests run a program here and on the bytecode tier and
compare what both can observe without a debugger: the return value, the
printed output, the runtime error, the statement count and the call
count.  The walker is deliberately naive — no kernel requests, no cost
model, no debugger hooks — so it shares no execution code with the
compiler and emulator it checks.  It runs actor-less programs only:
``pedf.*`` accesses and controller intrinsics raise.
"""

from repro.cminus import ast
from repro.cminus.interp import PURE_BUILTINS, apply_binop, apply_unop
from repro.cminus.typesys import S32, BoolType, IntType, StructType, VoidType, wrap_int
from repro.cminus.values import Value, coerce, default_value, format_value
from repro.errors import CMinusRuntimeError


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class Oracle:
    """Evaluates one analyzed program; globals are initialised on the
    first :meth:`run_function`, as the runtime does."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.printed = []
        self.statements_executed = 0
        self.calls_made = 0
        self.globals = None
        self.frames = []  # one scope stack per live call

    def run_function(self, name, args=()):
        if self.globals is None:
            self.globals = {}
            for g in self.program.globals:
                raw = default_value(g.ctype)
                if g.init is not None:
                    raw = coerce(self._eval(g.init), g.ctype)
                self.globals[g.name] = Value(g.ctype, raw)
        func = self.program.function(name)
        if func is None:
            raise CMinusRuntimeError(f"no function {name!r} in {self.program.filename}")
        return self._call(func, list(args))

    # ---------------------------------------------------------------- calls

    def _call(self, func, args):
        if len(args) != len(func.params):
            raise CMinusRuntimeError(f"{func.name}() expects {len(func.params)} args, got {len(args)}")
        self.frames.append((func, [{p.name: Value(p.ctype, coerce(a, p.ctype))
                                    for p, a in zip(func.params, args)}]))
        self.calls_made += 1
        try:
            self._block(func.body)
            ret = 0 if isinstance(func.ret, VoidType) else default_value(func.ret)
        except _Return as r:
            ret = r.value
        self.frames.pop()
        return ret

    @property
    def _scopes(self):
        return self.frames[-1][1]

    def _slot(self, name):
        if self.frames:
            for scope in reversed(self._scopes):
                if name in scope:
                    return scope[name]
        slot = self.globals.get(name)
        if slot is None:
            raise CMinusRuntimeError(f"undefined variable {name!r}")
        return slot

    # ----------------------------------------------------------- statements

    def _block(self, block):
        self._scopes.append({})
        try:
            for stmt in block.body:
                self._stmt(stmt)
        finally:
            self._scopes.pop()

    def _loop_body(self, body):
        """Run one iteration; True when the loop must exit (``break``)."""
        try:
            self._stmt(body)
        except _Break:
            return True
        except _Continue:
            pass
        return False

    def _stmt(self, s):
        if isinstance(s, ast.Block):
            self._block(s)
            return
        if isinstance(s, ast.For):
            self._scopes.append({})
            try:
                if s.init is not None:
                    self._stmt(s.init)
                while True:
                    self.statements_executed += 1
                    if s.cond is not None and not self._eval(s.cond):
                        return
                    if self._loop_body(s.body):
                        return
                    if s.step is not None:
                        self._stmt(s.step)
            finally:
                self._scopes.pop()
        if isinstance(s, ast.DoWhile):
            while True:
                if self._loop_body(s.body):
                    return
                self.statements_executed += 1
                if not self._eval(s.cond):
                    return
        self.statements_executed += 1
        if isinstance(s, ast.If):
            if self._eval(s.cond):
                self._stmt(s.then)
            elif s.other is not None:
                self._stmt(s.other)
        elif isinstance(s, ast.While):
            while self._eval(s.cond):
                if self._loop_body(s.body):
                    return
                self.statements_executed += 1
        elif isinstance(s, ast.Decl):
            raw = default_value(s.ctype)
            if s.init is not None:
                raw = coerce(self._eval(s.init), s.ctype)
            self._scopes[-1][s.name] = Value(s.ctype, raw)
        elif isinstance(s, ast.Assign):
            value = self._eval(s.value)
            get, put = self._ref(s.target)
            if s.op != "=":
                value = apply_binop(s.op[:-1], get(), value, s.target.ctype, s.line)
            put(value)
        elif isinstance(s, ast.IncDec):
            get, put = self._ref(s.target)
            put(get() + (1 if s.op == "++" else -1))
        elif isinstance(s, ast.ExprStmt):
            self._eval(s.expr)
        elif isinstance(s, ast.Return):
            value = 0
            if s.value is not None:
                value = coerce(self._eval(s.value), self.frames[-1][0].ret)
            raise _Return(value)
        elif isinstance(s, ast.Break):
            raise _Break()
        elif isinstance(s, ast.Continue):
            raise _Continue()
        else:
            raise CMinusRuntimeError(f"unknown statement {type(s).__name__}")

    def _ref(self, e):
        """``(get, put)`` closures over an lvalue; ``put`` coerces to the
        lvalue's type."""
        if isinstance(e, ast.Ident):
            slot = self._slot(e.name)

            def put(v):
                slot.data = coerce(v, slot.ctype)

            return (lambda: slot.data), put
        if isinstance(e, ast.Index):
            container = self._ref(e.base)[0]()
            index = self._eval(e.index)
            self._check_index(container, index, e.line)
        elif isinstance(e, ast.Member):
            container = self._ref(e.base)[0]()
            if not isinstance(container, dict):
                raise CMinusRuntimeError("member access on a non-struct value")
            index = e.member
        else:
            raise CMinusRuntimeError(f"not an lvalue: {type(e).__name__}")

        def put(v):
            container[index] = coerce(v, e.ctype)

        return (lambda: container[index]), put

    def _check_index(self, base, index, line):
        if not isinstance(base, list):
            raise CMinusRuntimeError("indexing a non-array value")
        if not 0 <= index < len(base):
            filename = self.frames[-1][0].filename if self.frames else self.program.filename
            raise CMinusRuntimeError(
                f"array index {index} out of bounds [0, {len(base)}) at {filename}:{line}"
            )

    # ---------------------------------------------------------- expressions

    def _eval(self, e):
        if isinstance(e, (ast.NumberLit, ast.BoolLit, ast.StringLit)):
            return e.value
        if isinstance(e, ast.Ident):
            return self._slot(e.name).data
        if isinstance(e, ast.Unary):
            return apply_unop(e.op, self._eval(e.operand), e.ctype)
        if isinstance(e, ast.Binary):
            if e.op == "&&":
                return bool(self._eval(e.left)) and bool(self._eval(e.right))
            if e.op == "||":
                return bool(self._eval(e.left)) or bool(self._eval(e.right))
            left = self._eval(e.left)
            return apply_binop(e.op, left, self._eval(e.right), e.ctype, e.line)
        if isinstance(e, ast.Ternary):
            value = self._eval(e.then if self._eval(e.cond) else e.other)
            return coerce(value, e.ctype) if isinstance(e.ctype, (IntType, BoolType)) else value
        if isinstance(e, ast.Cast):
            return coerce(self._eval(e.operand), e.target)
        if isinstance(e, ast.Index):
            base = self._eval(e.base)
            index = self._eval(e.index)
            self._check_index(base, index, e.line)
            return base[index]
        if isinstance(e, ast.Member):
            base = self._eval(e.base)
            if not isinstance(base, dict):
                raise CMinusRuntimeError("member access on a non-struct value")
            return base[e.member]
        if isinstance(e, ast.Call):
            return self._eval_call(e)
        raise CMinusRuntimeError(f"{type(e).__name__} needs an actor environment")

    def _eval_call(self, e):
        args = [self._eval(a) for a in e.args]
        if not e.is_builtin:
            return self._call(self.program.function(e.name), args)
        pure = PURE_BUILTINS.get(e.name)
        if pure is not None:
            return wrap_int(pure(*args), S32)
        if e.name == "print":
            parts = []
            for a, node in zip(args, e.args):
                if isinstance(node.ctype, StructType):
                    parts.append(format_value(node.ctype, a))
                elif isinstance(a, bool):
                    parts.append("true" if a else "false")
                else:
                    parts.append(str(a))
            self.printed.append(" ".join(parts))
            return 0
        if e.name == "trap":
            return 0
        raise CMinusRuntimeError(f"intrinsic {e.name}() needs an actor environment")


def evaluate(program, fn="main", args=()):
    """``("ok", value, printed, statements, calls)`` or ``("error",
    message)`` — the outcome the differential tests compare."""
    oracle = Oracle(program)
    try:
        value = oracle.run_function(fn, args)
    except CMinusRuntimeError as exc:
        return ("error", str(exc))
    return ("ok", value, tuple(oracle.printed), oracle.statements_executed, oracle.calls_made)
