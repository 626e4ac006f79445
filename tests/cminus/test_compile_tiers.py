"""Differential tests: bytecode (VM) tier vs resumable interpreter.

The default tier (the register VM, repro.cminus.vm) must be
observationally indistinguishable from the slow tier: same results, same
printed output,
same execution counters, and — crucially for record/replay — the very
same kernel-request stream in timed mode (batched ``Delay`` flushes are
structural, not tier- or debugger-dependent).
"""

import pytest
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


def build(source, tier, timed=False, context=None, cost=None, env=None):
    prog = parse_program(source, "<tiers>")
    info = analyze(prog, context, source)
    interp = Interpreter(
        prog, info, env=env or NullEnvironment(), timed=timed, cost=cost
    )
    interp.tier = tier
    return interp


def run_tier(source, tier, fn="main", args=(), **kwargs):
    interp = build(source, tier, **kwargs)
    value = run_sync(interp.run_function(fn, list(args)))
    return value, interp


#: both execution tiers, differentially compared against the tree oracle
TIERS = ("auto", "slow")


def assert_tiers_agree(source, fn="main", args=(), context=None):
    """Both tiers produce the same value/printed output/counters — or
    raise the very same runtime error."""
    results = {}
    for tier in TIERS:
        env = NullEnvironment()
        try:
            value, interp = run_tier(
                source, tier, fn=fn, args=args, context=context, env=env
            )
            results[tier] = (
                "ok",
                value,
                tuple(env.printed),
                interp.state.statements_executed,
                interp.state.calls_made,
            )
        except CMinusRuntimeError as exc:
            results[tier] = ("error", str(exc))
    assert results["auto"] == results["slow"], results
    return results["auto"]


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


def test_comprehensive_program_identical_across_tiers():
    kind, value, printed, stmts, calls = assert_tiers_agree(COMPREHENSIVE)
    assert kind == "ok"
    assert stmts > 100 and calls > 50
    assert printed  # print() went through the environment on both tiers


def test_vm_tier_actually_engaged():
    value_slow, interp_slow = run_tier(COMPREHENSIVE, "slow")
    assert interp_slow._vm_unit is None, "slow tier must not compile bytecode"
    # "auto" is the VM; "vm" stays accepted as its alias
    for tier in ("auto", "vm"):
        value, interp = run_tier(COMPREHENSIVE, tier)
        assert interp._vm_unit is not None, f"{tier}: vm tier never engaged"
        assert interp._vm_unit.supports("main")
        assert value == value_slow


def test_runtime_error_parity_division_by_zero():
    src = """
    S32 main() {
        S32 d = 3;
        S32 acc = 100;
        while (d >= 0) { acc = acc + 10 / d; d = d - 1; }
        return acc;
    }
    """
    kind, message = assert_tiers_agree(src)
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
    kind, message = assert_tiers_agree(src)
    assert kind == "error"
    assert "out of bounds" in message


# ------------------------------------------------- kernel stream parity


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


def test_timed_kernel_request_streams_identical():
    v_reqs, v_ret = drain_requests(build(COMPREHENSIVE, "auto", timed=True))
    s_reqs, s_ret = drain_requests(build(COMPREHENSIVE, "slow", timed=True))
    assert v_ret == s_ret
    assert v_reqs == s_reqs
    assert v_reqs, "timed run yielded no kernel requests"
    assert all(kind == "Delay" for kind, _ in v_reqs)


def test_timed_total_cycles_preserved_by_batching():
    """Batched Delays aggregate cost but must not change its total."""
    per_stmt = CostModel(batch_cycles=1)
    v_reqs, _ = drain_requests(build(COMPREHENSIVE, "auto", timed=True))
    u_reqs, _ = drain_requests(
        build(COMPREHENSIVE, "slow", timed=True, cost=per_stmt)
    )
    assert len(v_reqs) < len(u_reqs), "batching did not reduce requests"
    assert sum(c for _, c in v_reqs) == sum(c for _, c in u_reqs)


# ------------------------------------- satellite: slow-tier coalescing


def sched_run(source, tier, cost=None):
    interp = build(source, tier, timed=True, cost=cost)
    sched = Scheduler()
    out = {}

    def proc():
        out["value"] = yield from interp.run_function("main")

    sched.spawn(proc(), "main")
    sched.run()
    return out["value"], sched


def test_slow_tier_coalesces_delays_keeping_sim_time():
    """Satellite: the slow tier batches consecutive Delay(stmt_cost)
    yields too — same final sim time as per-statement yielding, same
    dispatch count as the VM tier."""
    v_batched, sched_batched = sched_run(COMPREHENSIVE, "slow")
    v_perstmt, sched_perstmt = sched_run(
        COMPREHENSIVE, "slow", cost=CostModel(batch_cycles=1)
    )
    v_vm, sched_vm = sched_run(COMPREHENSIVE, "auto")

    assert v_batched == v_perstmt == v_vm
    # sim-time totals identical no matter the batching or the tier
    assert sched_batched.now == sched_perstmt.now == sched_vm.now
    # batching really reduced kernel round-trips in the slow tier
    assert sched_batched.dispatch_count < sched_perstmt.dispatch_count
    # dispatch counting is tier-invariant (the replay journal relies on it)
    assert sched_batched.dispatch_count == sched_vm.dispatch_count


# --------------------------------------------------- io / blocking parity


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


def test_blocking_io_identical_across_tiers():
    streams = {}
    for tier in TIERS:
        env = ScriptedIo([7, 9])
        interp = build(IO_SRC, tier, timed=True, context=io_context(), env=env)
        reqs, _ = drain_requests(interp, fn="work")
        streams[tier] = (reqs, env.written, interp.state.statements_executed)
    assert streams["auto"] == streams["slow"]
    assert streams["auto"][1][0][1] == 7 * 9 * 4 + 0 + 1 + 2 + 3


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
def test_property_random_programs_tier_equivalent(source):
    outcome = assert_tiers_agree(source)
    if outcome[0] == "ok":
        # timed mode: the kernel request streams must also be identical
        v_reqs, v_ret = drain_requests(build(source, "auto", timed=True))
        s_reqs, s_ret = drain_requests(build(source, "slow", timed=True))
        assert (v_reqs, v_ret) == (s_reqs, s_ret)
