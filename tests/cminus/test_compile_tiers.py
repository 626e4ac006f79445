"""Differential tests: the bytecode VM against the reference evaluator.

The register VM (repro.cminus.vm) runs every Filter-C program; the tree
walker in ``oracle.py`` is a direct, hook-free reading of the language
that shares no execution code with it.  Both must agree on the return
value, the printed output, the runtime error, the statement count and
the call count.  The VM's timed kernel-request streams are pinned by the
goldens of ``tests/test_execution_goldens.py``, captured when a second
execution tier still ran beside it.
"""

from hypothesis import given, settings, strategies as st

from repro.cminus import (
    CostModel,
    Interpreter,
    NullEnvironment,
    analyze,
    parse_program,
    run_sync,
)
from repro.cminus.sema import ActorContext, IfaceSig
from repro.cminus.typesys import U32
from repro.errors import CMinusRuntimeError
from repro.sim import Delay, Scheduler

from .oracle import evaluate


def build(source, timed=False, context=None, cost=None, env=None):
    prog = parse_program(source, "<tiers>")
    info = analyze(prog, context, source)
    return Interpreter(prog, info, env=env or NullEnvironment(), timed=timed, cost=cost)


def assert_matches_oracle(source, fn="main", args=()):
    """The VM produces what the reference evaluator does: the same
    value/printed output/counters — or the very same runtime error."""
    env = NullEnvironment()
    try:
        interp = build(source, env=env)
        value = run_sync(interp.run_function(fn, list(args)))
        vm = ("ok", value, tuple(env.printed), interp.state.statements_executed,
              interp.state.calls_made)
    except CMinusRuntimeError as exc:
        vm = ("error", str(exc))
    prog = parse_program(source, "<tiers>")
    analyze(prog, None, source)
    reference = evaluate(prog, fn, args)
    assert vm == reference, (vm, reference)
    return vm


COMPREHENSIVE = """
struct Pt { S32 x; S32 y; };

S32 helper(S32 a, S32 b) {
    S32 t = a % (b + 1);
    return t * 2 - a / (b + 1);
}

S32 fib(S32 n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}

S32 main() {
    S32 acc = 0;
    S32 arr[8];
    struct Pt p;
    p.x = 3; p.y = -4;
    for (S32 i = 0; i < 8; i++) { arr[i] = i * i - 5; }
    S32 j = 0;
    while (j < 8) {
        acc = acc + arr[j] + helper(j, 3);
        j++;
    }
    do { acc = acc - 1; } while (acc > 1000);
    S32 k = acc > 0 ? p.x : p.y;
    bool flag = (acc > 10) && (p.x != 0) || false;
    if (flag) { acc = acc ^ 0x0F; } else { acc = ~acc; }
    acc = acc + (S32)(U8) 300 + fib(10);
    acc = acc << 2 >> 1;
    U32 u = 4000000000;
    u = u + 600000000;
    print("acc", acc, "u", u, flag);
    S32 m = min(max(acc, -100), 100) + abs(-7) + clip(acc, 0, 50);
    return acc + k + m + (S32) u;
}
"""


def test_comprehensive_program_matches_the_oracle():
    kind, value, printed, stmts, calls = assert_matches_oracle(COMPREHENSIVE)
    assert kind == "ok"
    assert stmts > 100 and calls > 50
    assert printed  # print() went through the environment


GLOBALS = """
S32 base = -7;
S32 span = abs(base) * 3 + max(base, 2);
U8 wrapped = base;
S32 bump() { base = base + span; return base; }
S32 main() { print("init", base, span, wrapped); bump(); return bump() + wrapped; }
"""


def test_global_initialisers_match_the_oracle():
    """One initialiser calls (builtin) functions and reads an earlier
    global, one coerces on the store; none is a statement or a call."""
    kind, value, printed, stmts, calls = assert_matches_oracle(GLOBALS)
    assert printed == ("init -7 23 249",)
    assert (stmts, calls) == (7, 3)
    interp = build(GLOBALS)
    assert interp.globals == {}  # initialised on the first run, not at build
    run_sync(interp.run_function("main"))
    assert interp.globals["base"].data == -7 + 23 + 23


def test_runtime_error_parity_division_by_zero():
    src = """
    S32 main() {
        S32 d = 3;
        S32 acc = 100;
        while (d >= 0) { acc = acc + 10 / d; d = d - 1; }
        return acc;
    }
    """
    kind, message = assert_matches_oracle(src)
    assert kind == "error"
    assert "division by zero" in message


def test_runtime_error_parity_array_bounds():
    src = """
    S32 main() {
        S32 arr[4];
        S32 i = 0;
        S32 acc = 0;
        while (i < 10) { acc = acc + arr[i]; i++; }
        return acc;
    }
    """
    kind, message = assert_matches_oracle(src)
    assert kind == "error"
    assert "out of bounds" in message


# ------------------------------------------------------- kernel streams


def drain_requests(interp, fn="main"):
    """Drive the interpreter generator by hand, logging every kernel
    request it yields."""
    reqs = []
    gen = interp.run_function(fn)
    try:
        req = next(gen)
        while True:
            reqs.append((type(req).__name__, getattr(req, "cycles", None)))
            req = gen.send(None)
    except StopIteration as stop:
        return reqs, stop.value


def test_timed_total_cycles_preserved_by_batching():
    """Batched Delays aggregate cost but must not change its total."""
    v_reqs, _ = drain_requests(build(COMPREHENSIVE, timed=True))
    u_reqs, _ = drain_requests(build(COMPREHENSIVE, timed=True, cost=CostModel(batch_cycles=1)))
    assert v_reqs and all(kind == "Delay" for kind, _ in v_reqs)
    assert len(v_reqs) < len(u_reqs), "batching did not reduce requests"
    assert sum(c for _, c in v_reqs) == sum(c for _, c in u_reqs)


def sched_run(source, cost=None):
    interp = build(source, timed=True, cost=cost)
    sched = Scheduler()
    out = {}

    def proc():
        out["value"] = yield from interp.run_function("main")

    sched.spawn(proc(), "main")
    sched.run()
    return out["value"], sched


def test_delay_batching_keeps_sim_time():
    """Consecutive Delay(stmt_cost) yields coalesce: the same final sim
    time as per-statement yielding, in fewer kernel round-trips."""
    v_batched, sched_batched = sched_run(COMPREHENSIVE)
    v_perstmt, sched_perstmt = sched_run(COMPREHENSIVE, cost=CostModel(batch_cycles=1))
    assert v_batched == v_perstmt
    assert sched_batched.now == sched_perstmt.now
    assert sched_batched.dispatch_count < sched_perstmt.dispatch_count


# -------------------------------------------------------- io / blocking


class ScriptedIo(NullEnvironment):
    """An environment whose reads block on the kernel (Delay) first —
    exercising resume-into-bytecode paths."""

    def __init__(self, values):
        super().__init__()
        self.values = list(values)
        self.written = []

    def io_read(self, iface, index, ctype):
        yield Delay(2)
        return self.values.pop(0) if self.values else 0

    def io_write(self, iface, index, value, ctype):
        yield Delay(1)
        self.written.append((iface, value))


IO_SRC = """
void work() {
    U32 a = pedf.io.inp[0];
    U32 b = pedf.io.inp[1];
    U32 acc = 0;
    for (U32 i = 0; i < 4; i++) { acc = acc + a * b + i; }
    pedf.io.out[0] = acc;
}
"""


def io_context():
    ctx = ActorContext(kind="filter")
    ctx.ifaces["inp"] = IfaceSig("inp", "input", U32)
    ctx.ifaces["out"] = IfaceSig("out", "output", U32)
    return ctx


def test_blocking_io_resumes_into_bytecode():
    env = ScriptedIo([7, 9])
    interp = build(IO_SRC, timed=True, context=io_context(), env=env)
    reqs, _ = drain_requests(interp, fn="work")
    assert env.written == [("out", 7 * 9 * 4 + 0 + 1 + 2 + 3)]
    # the two reads and the write each block on the kernel
    assert sum(1 for kind, cycles in reqs if (kind, cycles) == ("Delay", 2)) == 2


# ----------------------------------------------- hypothesis: random programs


_INT_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"]
_CMP_OPS = ["<", "<=", "==", "!=", ">", ">="]


@st.composite
def fc_expr(draw, depth=0):
    """A Filter-C integer expression over locals a, b, c, acc."""
    if depth >= 3 or draw(st.booleans()):
        return draw(
            st.one_of(
                st.sampled_from(["a", "b", "c", "acc"]),
                st.integers(min_value=-128, max_value=127).map(str),
            )
        )
    op = draw(st.sampled_from(_INT_OPS))
    left = draw(fc_expr(depth=depth + 1))
    right = draw(fc_expr(depth=depth + 1))
    if op in ("<<", ">>"):
        right = str(draw(st.integers(min_value=0, max_value=7)))
    return f"({left} {op} {right})"


@st.composite
def fc_stmt(draw, depth=0):
    kind = draw(
        st.sampled_from(
            ["assign", "if", "while", "for"] if depth < 2 else ["assign"]
        )
    )
    target = draw(st.sampled_from(["a", "b", "c", "acc"]))
    if kind == "assign":
        return f"{target} = {draw(fc_expr())};"
    if kind == "if":
        cond = f"({draw(fc_expr(depth=2))} {draw(st.sampled_from(_CMP_OPS))} {draw(fc_expr(depth=2))})"
        then = draw(fc_stmt(depth=depth + 1))
        other = draw(fc_stmt(depth=depth + 1))
        return f"if {cond} {{ {then} }} else {{ {other} }}"
    body = draw(fc_stmt(depth=depth + 1))
    bound = draw(st.integers(min_value=1, max_value=6))
    if kind == "while":
        return (
            f"{{ S32 n{depth} = 0; while (n{depth} < {bound}) "
            f"{{ {body} n{depth}++; }} }}"
        )
    return f"for (S32 i{depth} = 0; i{depth} < {bound}; i{depth}++) {{ {body} }}"


@st.composite
def fc_program(draw):
    inits = [draw(st.integers(min_value=-100, max_value=100)) for _ in range(3)]
    stmts = draw(st.lists(fc_stmt(), min_size=1, max_size=6))
    body = "\n    ".join(stmts)
    return (
        "S32 helper(S32 x) {\n"
        "    if (x < 1) return 1;\n"
        "    return (x * helper(x - 1)) % 997;\n"
        "}\n"
        "S32 main() {\n"
        f"    S32 a = {inits[0]}; S32 b = {inits[1]}; S32 c = {inits[2]};\n"
        "    S32 acc = helper(5);\n"
        f"    {body}\n"
        "    return ((acc ^ a) + (b | c));\n"
        "}\n"
    )


@settings(max_examples=60, deadline=None)
@given(fc_program())
def test_property_random_programs_match_the_oracle(source):
    assert_matches_oracle(source)
