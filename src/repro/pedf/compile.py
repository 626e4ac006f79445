"""Filter-C compilation of actor sources, with PEDF symbol mangling.

The paper's qualitative analysis (§VI-F) highlights that framework symbols
are *mangled*: filter ``Ipf``'s WORK method is the symbol
``IpfFilter_work_function`` while controller ``pred_controller``'s is
``_component_PredModule_anon_0_work``.  We reproduce that mangling so the
dataflow debugger demonstrably adds value over raw symbol names.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..cminus import ast as cast
from ..cminus.frontend import frontend_cache, type_signature
from ..cminus.parser import parse_program
from ..cminus.sema import ActorContext, IfaceSig, analyze
from ..errors import PedfError
from .decls import ActorDeclBase, ControllerDecl, FilterDecl, ModuleDecl


def _camel(name: str) -> str:
    """``ipf`` → ``Ipf``; ``pred_controller`` → ``PredController``;
    existing capitals are preserved (``AModule`` → ``AModule``)."""
    return "".join(part[0].upper() + part[1:] for part in name.split("_") if part)


def mangle_filter_symbol(instance_name: str) -> str:
    return f"{_camel(instance_name)}Filter_work_function"


def mangle_filter_prefix(instance_name: str) -> str:
    return f"{_camel(instance_name)}Filter_"


def mangle_controller_symbol(module_name: str) -> str:
    return f"_component_{_camel(module_name)}Module_anon_0_work"


def mangle_controller_prefix(module_name: str) -> str:
    return f"_component_{_camel(module_name)}Module_anon_0_"


def _rename_functions(program: cast.Program, mapping: Dict[str, str]) -> None:
    """Rename function definitions and every call site accordingly."""
    for f in program.functions:
        if f.name in mapping:
            f.name = mapping[f.name]

    def walk_expr(expr: Optional[cast.Expr]) -> None:
        if expr is None:
            return
        if isinstance(expr, cast.Call):
            if expr.name in mapping:
                expr.name = mapping[expr.name]
            for a in expr.args:
                walk_expr(a)
        elif isinstance(expr, cast.Unary):
            walk_expr(expr.operand)
        elif isinstance(expr, cast.Binary):
            walk_expr(expr.left)
            walk_expr(expr.right)
        elif isinstance(expr, cast.Ternary):
            walk_expr(expr.cond)
            walk_expr(expr.then)
            walk_expr(expr.other)
        elif isinstance(expr, cast.Cast):
            walk_expr(expr.operand)
        elif isinstance(expr, cast.Index):
            walk_expr(expr.base)
            walk_expr(expr.index)
        elif isinstance(expr, cast.Member):
            walk_expr(expr.base)
        elif isinstance(expr, cast.PedfIo):
            walk_expr(expr.index)

    def walk_stmt(stmt: Optional[cast.Stmt]) -> None:
        if stmt is None:
            return
        if isinstance(stmt, cast.Block):
            for s in stmt.body:
                walk_stmt(s)
        elif isinstance(stmt, cast.Decl):
            walk_expr(stmt.init)
        elif isinstance(stmt, cast.Assign):
            walk_expr(stmt.target)
            walk_expr(stmt.value)
        elif isinstance(stmt, cast.IncDec):
            walk_expr(stmt.target)
        elif isinstance(stmt, cast.ExprStmt):
            walk_expr(stmt.expr)
        elif isinstance(stmt, cast.If):
            walk_expr(stmt.cond)
            walk_stmt(stmt.then)
            walk_stmt(stmt.other)
        elif isinstance(stmt, cast.While):
            walk_expr(stmt.cond)
            walk_stmt(stmt.body)
        elif isinstance(stmt, cast.DoWhile):
            walk_stmt(stmt.body)
            walk_expr(stmt.cond)
        elif isinstance(stmt, cast.For):
            walk_stmt(stmt.init)
            walk_expr(stmt.cond)
            walk_stmt(stmt.step)
            walk_stmt(stmt.body)
        elif isinstance(stmt, cast.Return):
            walk_expr(stmt.value)

    for f in program.functions:
        walk_stmt(f.body)
    for g in program.globals:
        walk_expr(g.init)


def compile_actor(decl: ActorDeclBase, module: ModuleDecl, structs=None) -> None:
    """Parse, mangle and type-check one actor's Filter-C source.

    Fills ``decl.cprogram``, ``decl.debug_info`` and ``decl.work_symbol``.
    ``structs`` are shared application-level struct types.  Idempotent:
    recompiling an already-compiled declaration is a no-op.
    """
    if decl.cprogram is not None:
        return
    filename = decl.source_name or f"{module.name}/{decl.name}.c"
    decl.source_name = filename

    if isinstance(decl, ControllerDecl):
        work_symbol = mangle_controller_symbol(module.name)
        prefix = mangle_controller_prefix(module.name)
    else:
        work_symbol = mangle_filter_symbol(decl.name)
        prefix = mangle_filter_prefix(decl.name)

    ctx = _actor_context(decl, module, structs)
    key = frontend_cache.digest(
        decl.source, filename, *_context_salt(ctx, work_symbol, prefix)
    )
    cached = frontend_cache.get(key)
    if cached is not None:
        decl.cprogram, decl.debug_info, decl.work_symbol = cached
        return

    program = parse_program(decl.source, filename, structs)
    if program.function("work") is None:
        raise PedfError(f"actor {module.name}.{decl.name}: source defines no work() method")

    mapping = {
        f.name: (work_symbol if f.name == "work" else prefix + f.name)
        for f in program.functions
    }
    _rename_functions(program, mapping)

    decl.debug_info = analyze(program, ctx, decl.source)
    decl.cprogram = program
    decl.work_symbol = work_symbol
    frontend_cache.put(key, (program, decl.debug_info, work_symbol))


def _context_salt(ctx: ActorContext, work_symbol: str, prefix: str) -> list:
    """Everything beyond the source text that can change the front end's
    output: the mangling plan and the full compilation context."""
    salt = [ctx.kind, work_symbol, prefix]
    salt.extend(
        f"iface:{s.name}:{s.direction}:{type_signature(s.ctype)}"
        for s in sorted(ctx.ifaces.values(), key=lambda s: s.name)
    )
    salt.extend(f"data:{nm}:{type_signature(ct)}" for nm, ct in sorted(ctx.data.items()))
    salt.extend(f"attr:{nm}:{type_signature(ct)}" for nm, ct in sorted(ctx.attributes.items()))
    salt.extend(f"struct:{type_signature(ct)}" for _nm, ct in sorted(ctx.structs.items()))
    if ctx.actor_names is not None:
        salt.append("actors:" + ",".join(sorted(ctx.actor_names)))
    for nm, (ret, params, names) in sorted(ctx.extra_intrinsics.items()):
        salt.append(
            f"intr:{nm}:{type_signature(ret)}"
            f"({','.join(type_signature(p) for p in params)})"
            f":{','.join(sorted(names)) if names else '-'}"
        )
    return salt


def _actor_context(decl: ActorDeclBase, module: ModuleDecl, structs=None) -> ActorContext:
    ctx = ActorContext(kind=decl.kind)
    if structs:
        ctx.structs = dict(structs)
    for iface in decl.ifaces.values():
        ctx.ifaces[iface.name] = IfaceSig(iface.name, iface.direction, iface.ctype)
    if isinstance(decl, FilterDecl):
        ctx.data = dict(decl.data)
        ctx.attributes = {name: ctype for name, (ctype, _value) in decl.attributes.items()}
    if isinstance(decl, ControllerDecl):
        ctx.actor_names = set(module.filters)
    return ctx


def compile_program(program: "ProgramDecl") -> None:
    """Compile every actor in a program declaration."""
    from .decls import ProgramDecl  # local import to avoid a cycle at import time

    assert isinstance(program, ProgramDecl)
    for module in program.modules.values():
        if module.controller is not None:
            compile_actor(module.controller, module, program.structs)
        for filt in module.filters.values():
            compile_actor(filt, module, program.structs)
