"""The PE register ISA: opcodes, operand specs and per-opcode cycle costs.

The instruction set is deliberately compact — a load/store register
machine with fused wrap-arithmetic (every ALU opcode carries the
precomputed ``mask/max/span`` of its result type so the emulator inlines
C integer wrapping with zero function calls), compare ops, conditional
jumps, call/return, dataflow push/pop-token ops, the ``stmt`` boundary
instruction that carries the statement-level debug contract (line table,
cost charging, the statement hook and the scope shape that names the
registers) and ``brk``/``brkc`` break instructions in the style of
embedded ISA emulators.

Instructions are plain tuples ``(opcode, *operands)`` where operands are
ints, strings or tuples of ints — nothing that cannot round-trip through
the textual assembler (AST nodes, scope shapes and C types are referenced
by index into per-function side tables).
"""

from __future__ import annotations

# ---------------------------------------------------------------- opcodes
# Numbering groups hot opcodes low; the emulator's dispatch ladder tests
# them in roughly this order.

STMT = 0  # (STMT, line, node_idx, shape_idx)

# ALU, reg-reg: (op, dst, a, b, mask, mx, span)
ADD = 1
SUB = 2
MUL = 3
AND = 4
OR = 5
XOR = 6
# ALU, reg-const: (op, dst, a, k, mask, mx, span)
ADDK = 7
SUBK = 8
MULK = 9
ANDK = 10
ORK = 11
XORK = 12

# shifts/div/mod carry the source line for their runtime range errors
SHL = 13  # (SHL, dst, a, b, mask, mx, span, line)
SHR = 14  # (SHR, dst, a, b, mask, mx, span, premask, line)  premask 0 = signed
SHLK = 15  # (SHLK, dst, a, k, mask, mx, span)   k validated at compile time
SHRK = 16  # (SHRK, dst, a, k, mask, mx, span, premask)
DIV = 17  # (DIV, dst, a, b, mask, mx, span, line)
MOD = 18  # (MOD, dst, a, b, mask, mx, span, line)

# compares: (op, dst, a, b) / (op, dst, a, k) — result is a Python bool
EQ = 19
NE = 20
LT = 21
LE = 22
GT = 23
GE = 24
EQK = 25
NEK = 26
LTK = 27
LEK = 28
GTK = 29
GEK = 30

# control flow
JMP = 31  # (JMP, pc)
JF = 32  # (JF, reg, pc)   jump when falsy
JT = 33  # (JT, reg, pc)   jump when truthy

# moves / conversions
MOV = 34  # (MOV, dst, src)
LDK = 35  # (LDK, dst, const_idx)      general pool load (assembler use)
COPY = 36  # (COPY, dst, src)          C value semantics: deep copy_raw
WRAP = 37  # (WRAP, dst, src, mask, mx, span)
BOOLC = 38  # (BOOLC, dst, src)        bool()
COERCE = 39  # (COERCE, dst, src, type_idx)
NOT = 40  # (NOT, dst, src)
NEG = 41  # (NEG, dst, src, mask, mx, span)
BNOT = 42  # (BNOT, dst, src, mask, mx, span)
DEFAULT = 43  # (DEFAULT, dst, type_idx)  fresh default_value

# memory: arrays / struct fields / globals
EGET = 44  # (EGET, dst, base, idx, line)
EGETK = 45  # (EGETK, dst, base, k, line)
ESETW = 46  # (ESETW, base, idx, src, mask, mx, span, line)  int elems
ESETC = 47  # (ESETC, base, idx, src, type_idx, line)        coerce elems
MGET = 48  # (MGET, dst, base, name)
MSET = 49  # (MSET, base, name, src, type_idx)
GGET = 50  # (GGET, dst, name)
GSET = 51  # (GSET, name, src)

# calls / builtins
CALL = 52  # (CALL, dst, name, argregs)
RET = 53  # (RET, reg)
RETI = 54  # (RETI, k)
RETD = 55  # (RETD,)  default_value of the function's return type
ABS = 56  # (ABS, dst, a)
MIN = 57  # (MIN, dst, a, b)
MAX = 58  # (MAX, dst, a, b)
CLIP = 59  # (CLIP, dst, x, lo, hi)
PRINT = 60  # (PRINT, argregs, struct_type_idxs)  -1 = plain formatting
TRAP = 61  # (TRAP, dst)
INTR = 62  # (INTR, dst, name, argregs)

# dataflow token traffic (the genuine blocking points)
IOR = 63  # (IOR, dst, iface, idxreg, type_idx)   pop/peek a token
IOW = 64  # (IOW, iface, idxreg, src, type_idx)   push a token
DGET = 65  # (DGET, dst, name)
DSET = 66  # (DSET, name, src)
AGET = 67  # (AGET, dst, name)

# debugging
BRKI = 68  # (BRKI,)      unconditional break instruction
BRKC = 69  # (BRKC, reg)  conditional break instruction

N_OPCODES = 70

# ------------------------------------------------------------- metadata

#: mnemonic per opcode (also the assembler's vocabulary)
NAMES = [""] * N_OPCODES
#: operand kinds per opcode: 'r' register, 'k' literal int, 'i' plain int
#: (pc / line / index), 's' string, 'R' tuple of registers, 'I' tuple of
#: ints.  Purely descriptive — the disassembler prints registers as
#: ``rN`` and everything else verbatim.
SPEC = [""] * N_OPCODES
#: simulated cycles per executed instruction — the telemetry attribution
#: table (NOT part of the Delay/cost contract: statement costs still come
#: from the CostModel at boundaries, so kernel streams stay tier-exact)
COST = [1] * N_OPCODES


def _def(op, name, spec, cost=1):
    NAMES[op] = name
    SPEC[op] = spec
    COST[op] = cost


_def(STMT, "stmt", "iii", 0)
_def(ADD, "add", "rrriii")
_def(SUB, "sub", "rrriii")
_def(MUL, "mul", "rrriii", 3)
_def(AND, "and", "rrriii")
_def(OR, "or", "rrriii")
_def(XOR, "xor", "rrriii")
_def(ADDK, "addk", "rrkiii")
_def(SUBK, "subk", "rrkiii")
_def(MULK, "mulk", "rrkiii", 3)
_def(ANDK, "andk", "rrkiii")
_def(ORK, "ork", "rrkiii")
_def(XORK, "xork", "rrkiii")
_def(SHL, "shl", "rrriiii")
_def(SHR, "shr", "rrriiiii")
_def(SHLK, "shlk", "rrkiii")
_def(SHRK, "shrk", "rrkiiii")
_def(DIV, "div", "rrriiii", 12)
_def(MOD, "mod", "rrriiii", 12)
_def(EQ, "eq", "rrr")
_def(NE, "ne", "rrr")
_def(LT, "lt", "rrr")
_def(LE, "le", "rrr")
_def(GT, "gt", "rrr")
_def(GE, "ge", "rrr")
_def(EQK, "eqk", "rrk")
_def(NEK, "nek", "rrk")
_def(LTK, "ltk", "rrk")
_def(LEK, "lek", "rrk")
_def(GTK, "gtk", "rrk")
_def(GEK, "gek", "rrk")
_def(JMP, "jmp", "i")
_def(JF, "jf", "ri")
_def(JT, "jt", "ri")
_def(MOV, "mov", "rr")
_def(LDK, "ldk", "ri")
_def(COPY, "copy", "rr", 4)
_def(WRAP, "wrap", "rriii")
_def(BOOLC, "boolc", "rr")
_def(COERCE, "coerce", "rri", 2)
_def(NOT, "not", "rr")
_def(NEG, "neg", "rriii")
_def(BNOT, "bnot", "rriii")
_def(DEFAULT, "default", "ri", 2)
_def(EGET, "eget", "rrri", 2)
_def(EGETK, "egetk", "rrki", 2)
_def(ESETW, "esetw", "rrriiii", 2)
_def(ESETC, "esetc", "rrrii", 2)
_def(MGET, "mget", "rrs", 2)
_def(MSET, "mset", "rsri", 2)
_def(GGET, "gget", "rs", 2)
_def(GSET, "gset", "sr", 2)
_def(CALL, "call", "rsR", 4)
_def(RET, "ret", "r")
_def(RETI, "reti", "k")
_def(RETD, "retd", "")
_def(ABS, "abs", "rr")
_def(MIN, "min", "rrr")
_def(MAX, "max", "rrr")
_def(CLIP, "clip", "rrrr")
_def(PRINT, "print", "RI", 8)
_def(TRAP, "trap", "r")
_def(INTR, "intr", "rsR", 8)
_def(IOR, "ior", "rsri", 4)
_def(IOW, "iow", "srri", 4)
_def(DGET, "dget", "rs", 2)
_def(DSET, "dset", "sr", 2)
_def(AGET, "aget", "rs", 2)
_def(BRKI, "brk", "", 0)
_def(BRKC, "brkc", "r", 0)

#: mnemonic -> opcode (assembler lookup)
BY_NAME = {name: op for op, name in enumerate(NAMES) if name}
