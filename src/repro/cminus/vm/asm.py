"""Textual assembler / disassembler for the PE ISA.

The canonical listing round-trips: ``assemble(disassemble(vmf))`` yields
a function with identical code, constants and register file, as long as
the type pool only references builtin scalar types (struct/array pools
disassemble fine for display but cannot be re-assembled by name).

Format::

    .func checksum ret S32
    .param n S32            ; r0
    .reg 7
    .type 0 U32
    .const r3 = 0
    stmt 3, 0, 0
    addk r1, r0, -1, 4294967295, 2147483647, 4294967296
    brk
    ret r1

Directives declare the frame; instruction lines are ``mnemonic`` plus
comma-separated operands (registers ``rN``, literal ints, ``repr``'d
strings, bracketed register/int lists).  ``;`` starts a comment.

Assembled functions carry no AST / scope-shape tables: their frames show
only the parameters as locals, and they exist for ISA tests and
break-instruction experiments, not as a compiler input.
"""

from __future__ import annotations

import ast as pyast
import re
from typing import List, Optional, Sequence

from .. import ast
from ..typesys import type_by_name
from . import isa
from .compiler import VmFunction


class VmAsmError(Exception):
    pass


# ------------------------------------------------------------- disassembly


def _fmt_operand(kind: str, v) -> str:
    if kind == "r":
        return f"r{v}"
    if kind == "R":
        return "[" + ", ".join(f"r{r}" for r in v) + "]"
    if kind == "I":
        return "[" + ", ".join(str(x) for x in v) + "]"
    if kind == "s":
        return repr(v)
    return repr(v)  # 'k' / 'i'


def format_ins(ins: tuple) -> str:
    op = ins[0]
    spec = isa.SPEC[op]
    if not spec:
        return isa.NAMES[op]
    ops = ", ".join(_fmt_operand(k, v) for k, v in zip(spec, ins[1:]))
    return f"{isa.NAMES[op]} {ops}"


def disassemble(
    vmf: VmFunction,
    pretty: bool = False,
    source_lines: Optional[Sequence[str]] = None,
    pc: Optional[int] = None,
) -> str:
    """Canonical listing of one compiled function.

    ``pretty`` adds pc column, source interleave (``source_lines`` is the
    whole file, 1-indexed via the boundary line table) and a ``=>``
    marker at ``pc`` — the ``disas`` command's view.
    """
    out: List[str] = []
    out.append(f".func {vmf.name} ret {vmf.ret.name}")
    for i, (nm, ct) in enumerate(vmf.params):
        out.append(f".param {nm} {ct.name}            ; r{i}")
    out.append(f".reg {vmf.nregs}")
    for i, ct in enumerate(vmf.types):
        out.append(f".type {i} {ct.name}")
    for reg, v in vmf.consts:
        out.append(f".const r{reg} = {v!r}")
    last_line = None
    for i, ins in enumerate(vmf.code):
        if pretty:
            if ins[0] == isa.STMT and ins[1] != last_line:
                last_line = ins[1]
                src = ""
                if source_lines and 1 <= last_line <= len(source_lines):
                    src = source_lines[last_line - 1].strip()
                out.append(f"; line {last_line}: {src}" if src else f"; line {last_line}")
            marker = "=>" if pc == i else "  "
            text = format_ins(ins)
            name = vmf.reg_names.get(ins[1]) if isa.SPEC[ins[0]][:1] == "r" else None
            note = f"    ; {name}" if name else ""
            out.append(f"{marker} {i:4d}  {text}{note}")
        else:
            out.append(format_ins(ins))
    return "\n".join(out) + "\n"


# --------------------------------------------------------------- assembly

_SPLIT = re.compile(
    r"""\[[^\]]*\]          # bracketed list
      | '(?:[^'\\]|\\.)*'   # single-quoted string
      | "(?:[^"\\]|\\.)*"   # double-quoted string
      | [^,\s][^,]*?(?=\s*(?:,|$))
    """,
    re.VERBOSE,
)


def _parse_operand(kind: str, tok: str):
    tok = tok.strip()
    if kind == "r":
        if not tok.startswith("r"):
            raise VmAsmError(f"expected register, got {tok!r}")
        return int(tok[1:])
    if kind in ("R", "I"):
        if not (tok.startswith("[") and tok.endswith("]")):
            raise VmAsmError(f"expected list, got {tok!r}")
        inner = tok[1:-1].strip()
        if not inner:
            return ()
        items = [x.strip() for x in inner.split(",")]
        if kind == "R":
            return tuple(_parse_operand("r", x) for x in items)
        return tuple(int(x) for x in items)
    if kind == "s":
        v = pyast.literal_eval(tok)
        if not isinstance(v, str):
            raise VmAsmError(f"expected string, got {tok!r}")
        return v
    return pyast.literal_eval(tok)  # 'k' / 'i' — ints and bools


def assemble(text: str) -> VmFunction:
    """Parse a canonical listing into an executable :class:`VmFunction`.

    The result carries no AST or scope-shape tables, so it must not run
    ``stmt`` boundaries under a statement hook."""
    name = "anonymous"
    ret_ct = type_by_name("void")
    params: List[ast.Param] = []
    nregs = 0
    types: List[object] = []
    consts: List[tuple] = []
    code: List[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith(".func"):
                parts = line.split()
                name = parts[1]
                if len(parts) >= 4 and parts[2] == "ret":
                    ct = type_by_name(parts[3])
                    if ct is None:
                        raise VmAsmError(f"unknown return type {parts[3]!r}")
                    ret_ct = ct
                continue
            if line.startswith(".param"):
                _, pname, tname = line.split()
                ct = type_by_name(tname)
                if ct is None:
                    raise VmAsmError(f"unknown param type {tname!r}")
                params.append(ast.Param(ctype=ct, name=pname))
                continue
            if line.startswith(".reg"):
                nregs = int(line.split()[1])
                continue
            if line.startswith(".type"):
                _, idx, tname = line.split()
                ct = type_by_name(tname)
                if ct is None:
                    raise VmAsmError(
                        f"type {tname!r} is not an assemblable scalar type"
                    )
                idx = int(idx)
                while len(types) <= idx:
                    types.append(None)
                types[idx] = ct
                continue
            if line.startswith(".const"):
                m = re.match(r"\.const\s+r(\d+)\s*=\s*(.+)$", line)
                if not m:
                    raise VmAsmError(f"bad .const directive: {line!r}")
                consts.append((int(m.group(1)), pyast.literal_eval(m.group(2))))
                continue
            if line.startswith("."):
                raise VmAsmError(f"unknown directive {line.split()[0]!r}")
            mnem, _, rest = line.partition(" ")
            op = isa.BY_NAME.get(mnem)
            if op is None:
                raise VmAsmError(f"unknown mnemonic {mnem!r}")
            spec = isa.SPEC[op]
            toks = [t.strip() for t in _SPLIT.findall(rest)] if rest.strip() else []
            if len(toks) != len(spec):
                raise VmAsmError(
                    f"{mnem} expects {len(spec)} operands, got {len(toks)}"
                )
            code.append(
                (op, *(_parse_operand(k, t) for k, t in zip(spec, toks)))
            )
        except VmAsmError as exc:
            raise VmAsmError(f"line {lineno}: {exc}") from None
        except Exception as exc:
            raise VmAsmError(f"line {lineno}: {exc}") from None

    func = ast.FuncDef(
        ret=ret_ct,
        name=name,
        params=params,
        body=ast.Block(),
        filename="<asm>",
    )
    vmf = VmFunction(func)
    vmf.code = tuple(code)
    vmf.consts = tuple(consts)
    vmf.types = types
    vmf.nregs = max(nregs, len(params))
    init: List[object] = [0] * vmf.nregs
    for reg, v in consts:
        if reg >= len(init):
            raise VmAsmError(f".const r{reg} exceeds .reg {vmf.nregs}")
        init[reg] = v
    vmf.reg_init = init
    vmf.reg_names = {i: p.name for i, p in enumerate(params)}
    return vmf
