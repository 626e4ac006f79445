"""The bytecode tier under the debugger: ISA surface and source hooks.

Mirrors test_deopt.py at the instruction level: ISA breakpoints,
register watchpoints and ``stepi`` ride CAP_ISA, and statement-level
arming mid-function — inside a ``while``, a ``for`` or a ``do``/``while``
body too — stops the same VM activation on the slow tier's line with the
slow tier's locals, without one tree-walked statement.
"""

import pytest

from repro.dbg import StopKind
from repro.dbg.cli import CommandCli
from repro.pedf.api import SYM_POP

from .util import (
    LINE_PUSH,
    LINE_READ_CMD,
    LINE_READ_INPUT,
    WORK_F1,
    count_tree_checkpoints,
    hooked,
    make_cli,
    make_session,
)


def make_vm_session(values=(1, 2, 3, 4)):
    dbg, runtime, source, sink = make_session(values)
    runtime.config.interp_tier = "vm"
    for a in runtime.all_actors():
        if getattr(a, "interp", None) is not None:
            a.interp.tier = "vm"
    return dbg, runtime, source, sink


def live_interps(runtime):
    return [
        a.interp
        for a in runtime.all_actors()
        if getattr(a, "interp", None) is not None
    ]


# --------------------------------------------------------- ISA breakpoints


def test_isa_breakpoint_stops_at_exact_pc():
    dbg, runtime, _, sink = make_vm_session()
    bp = dbg.break_isa(f"{WORK_F1}+4")
    ev = dbg.run()
    assert ev.kind == StopKind.ISA_BP
    assert ev.bp_id == bp.id
    act = dbg.vm_activation()
    assert act is not None and act.vmf.name == WORK_F1 and act.pc == 4

    # the frame behind the activation reports the right source line
    frame = dbg.current_frame()
    assert frame is not None and frame.line == act.line()

    dbg.delete(bp.id)
    while not dbg.finished:
        dbg.cont()
    assert len(sink.values) == 4


def test_isa_breakpoints_never_deoptimize():
    dbg, runtime, _, _ = make_vm_session()
    interps = live_interps(runtime)
    dbg.break_isa(f"{WORK_F1}+4")
    assert hooked(runtime) == set(), "CAP_ISA arms no statement/call/return hook"
    assert all(i._isa_armed for i in interps)


def test_bad_isa_locations_rejected():
    import pytest

    from repro.errors import DebuggerError

    dbg, _, _, _ = make_vm_session()
    with pytest.raises(DebuggerError, match="FUNC\\+PC"):
        dbg.break_isa("no_plus_sign")
    with pytest.raises(DebuggerError, match="no function symbol"):
        dbg.break_isa("nosuchfunc+3")


# ------------------------------------------------------------------- stepi


def test_stepi_advances_one_instruction_on_vm_frames():
    dbg, _, _, _ = make_vm_session()
    bp = dbg.break_isa(f"{WORK_F1}+4")
    assert dbg.run().kind == StopKind.ISA_BP
    interp = dbg.selected_actor.interp

    ev = dbg.stepi()
    assert ev.kind == StopKind.STEP
    assert dbg.vm_activation().pc == 5
    ev = dbg.stepi()
    assert ev.kind == StopKind.STEP
    assert dbg.vm_activation().pc == 6
    # instruction stepping rides CAP_ISA alone: no statement hook
    assert not interp._want_stmt and interp._isa_armed


def test_register_watchpoint_reports_old_and_new():
    dbg, _, _, _ = make_vm_session()
    wp = dbg.watch_register(WORK_F1, 3)
    ev = dbg.run()
    assert ev.kind == StopKind.REGISTER_WATCH
    assert ev.bp_id == wp.id
    assert "old = " in ev.message and "new = " in ev.message


# ------------------------------------------------------ source-level hooks


def test_statement_breakpoint_mid_vm_work_hits_without_descent(monkeypatch):
    """Arm a source breakpoint while a *bytecode* WORK body is suspended
    mid-function: the same VM activation stops on the right line, and
    ``print`` / ``info locals`` read its registers."""
    checkpoints = count_tree_checkpoints(monkeypatch)
    dbg, runtime, _, sink = make_vm_session((5, 6))

    api_bp = dbg.break_api(SYM_POP, phase="entry", actor="AModule.filter_1")
    ev = dbg.run()
    assert ev.kind == StopKind.API_BP
    interp = dbg.selected_actor.interp
    act = dbg.vm_activation()
    assert act is not None, "vm tier never engaged"

    dbg.delete(api_bp.id)
    dbg.break_source(f"the_source.c:{LINE_PUSH}")
    assert interp._want_stmt

    ev = dbg.cont()
    assert ev.kind == StopKind.BREAKPOINT
    frame = dbg.current_frame()
    assert frame is not None and frame.line == LINE_PUSH
    assert frame.func.name == WORK_F1 and frame.vm is act
    assert dbg.print_expr("r") == "$1 = 11"

    while not dbg.finished:
        dbg.cont()
    assert sorted(sink.values) == [4 * 5 + 3, 4 * 6 + 3]
    assert checkpoints[0] == 0


def test_vm_reoptimizes_after_disarm():
    dbg, runtime, _, sink = make_vm_session((3, 4))
    bp = dbg.break_source(f"the_source.c:{LINE_READ_INPUT}")
    assert dbg.run().kind == StopKind.BREAKPOINT
    interp = dbg.selected_actor.interp
    assert interp._want_stmt and dbg.vm_activation() is not None
    dbg.delete(bp.id)
    assert not interp._want_stmt
    while not dbg.finished:
        dbg.cont()
    assert len(sink.values) == 2


def test_isa_stop_inspects_locals_from_registers():
    """Regression: at an ISA stop the VM frame answers ``info locals`` and
    ``print`` through the scope shape governing its pc, as the slow tier
    does at the same source line."""
    def inspect(tier, location):
        cli, dbg, runtime, _ = make_cli()
        for interp in live_interps(runtime):
            interp.tier = tier
        cli.execute(location)
        cli.execute("run")
        return dbg, cli.execute("info locals") + cli.execute("print cmd")

    dbg, vm_out = inspect("auto", f"breaki {WORK_F1}+4")
    assert dbg.last_stop.kind == StopKind.ISA_BP
    assert dbg.vm_activation().line() == LINE_READ_INPUT
    assert vm_out == ["cmd = 1", "$1 = 1"]
    slow, slow_out = inspect("slow", f"break the_source.c:{LINE_READ_INPUT}")
    assert slow.last_stop.kind == StopKind.BREAKPOINT
    assert slow_out == vm_out


def test_isa_stop_before_the_first_boundary_shows_only_parameters():
    dbg, _, _, _ = make_vm_session()
    dbg.break_isa(f"{WORK_F1}+0")
    assert dbg.run().kind == StopKind.ISA_BP
    assert dbg.vm_activation().line() == LINE_READ_CMD
    assert dbg.current_frame().variables() == {}


# Loop WORK bodies for filter_1 (line 1 is the comment): each loop runs
# three times, so filter_1 emits 3*v and filter_2 2*(3*v) + 1.  Lines
# 7-10 hold the loop in every variant.
LOOP_SOURCES = {
    "while": """\
// loop_source.c — AFilter WORK method with a while loop
void work() {
    U32 cmd = pedf.io.cmd_in[0];
    U32 v = pedf.io.an_input[0];
    U32 acc = 0;
    U32 k = 0;
    while (k < 3) {
        acc = acc + v;
        k = k + 1;
    }
    pedf.data.a_private_data = acc;
    pedf.io.an_output[0] = acc + cmd * 0;
}
""",
    "for": """\
// loop_source.c — AFilter WORK method with a for loop
void work() {
    U32 cmd = pedf.io.cmd_in[0];
    U32 v = pedf.io.an_input[0];
    U32 acc = 0;
    U32 k = 0;
    for (U32 j = 0; j < 3; j++) {
        acc = acc + v;
        k = k + 1;
    }
    pedf.data.a_private_data = acc;
    pedf.io.an_output[0] = acc + cmd * 0;
}
""",
    "dowhile": """\
// loop_source.c — AFilter WORK method with a do/while loop
void work() {
    U32 cmd = pedf.io.cmd_in[0];
    U32 v = pedf.io.an_input[0];
    U32 acc = 0;
    U32 k = 0;
    do {
        acc = acc + v;
        k = k + 1;
    } while (k < 3);
    pedf.data.a_private_data = acc;
    pedf.io.an_output[0] = acc + cmd * 0;
}
""",
}
LINE_LOOP_ACC = 8
LINE_LOOP_K = 9


def make_loop_session(kind, tier, values=(5, 6)):
    from repro.apps.amodule.app import build_amodule_program
    from repro.dbg import Debugger
    from repro.p2012.soc import P2012Platform, PlatformConfig
    from repro.pedf.runtime import PedfRuntime, RuntimeConfig
    from repro.sim import Scheduler

    program = build_amodule_program(max_steps=len(values))
    f1 = program.modules["AModule"].filters["filter_1"]
    f1.source = LOOP_SOURCES[kind]
    f1.source_name = "loop_source.c"
    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=2, pes_per_cluster=4))
    runtime = PedfRuntime(sched, platform, program, RuntimeConfig(interp_tier=tier))
    for a in runtime.all_actors():
        if getattr(a, "interp", None) is not None:
            a.interp.tier = tier
    runtime.add_source("stim", "AModule", "module_in", list(values))
    sink = runtime.add_sink("capture", "AModule", "module_out", expect=len(values))
    return Debugger(sched, runtime), sink


def _locals(frame):
    return {name: slot.data for name, slot in frame.variables().items()}


@pytest.mark.parametrize("kind", sorted(LOOP_SOURCES))
def test_breakpoint_armed_inside_a_vm_loop_body_matches_the_slow_tier(monkeypatch, kind):
    """Stop the VM inside a loop body with an ISA breakpoint, arm a source
    breakpoint on the body's first line and continue: the same VM
    activation stops there on the next iteration with the slow tier's
    line, locals and sim time, and the tree walker runs nothing."""
    from repro.cminus.vm import vm_unit

    # slow-tier reference: the second arrival at the body's first line
    slow, slow_sink = make_loop_session(kind, "slow")
    slow_bp = slow.break_source(f"loop_source.c:{LINE_LOOP_ACC}")
    assert slow.run().kind == StopKind.BREAKPOINT
    assert slow.cont().kind == StopKind.BREAKPOINT
    want = (slow.current_frame().line, _locals(slow.current_frame()), slow.scheduler.now)
    assert want[1]["k"] == 1 and want[1]["acc"] == 5

    checkpoints = count_tree_checkpoints(monkeypatch)
    dbg, sink = make_loop_session(kind, "auto")
    f1 = next(a for a in dbg.runtime.all_actors() if a.qualname == "AModule.filter_1")
    vmf = vm_unit(f1.interp.program).funcs[WORK_F1]
    # the first instruction after the ``k = k + 1`` boundary
    pc = next(i for i, ins in enumerate(vmf.code) if ins[0] == 0 and ins[1] == LINE_LOOP_K) + 1
    isa_bp = dbg.break_isa(f"{WORK_F1}+{pc}")
    assert dbg.run().kind == StopKind.ISA_BP
    act = dbg.vm_activation()
    assert act.pc == pc
    dbg.delete(isa_bp.id)
    src_bp = dbg.break_source(f"loop_source.c:{LINE_LOOP_ACC}")

    ev = dbg.cont()
    assert ev.kind == StopKind.BREAKPOINT
    frame = dbg.current_frame()
    assert frame.vm is act
    assert (frame.line, _locals(frame), dbg.scheduler.now) == want

    for d, bp in ((dbg, src_bp), (slow, slow_bp)):
        d.delete(bp.id)
        while not d.finished:
            d.cont()
        if d is dbg:
            assert checkpoints[0] == 0
    assert sink.values == slow_sink.values == [2 * 3 * 5 + 1, 2 * 3 * 6 + 1]


# ------------------------------------------------------------- CLI surface


def test_breaki_fires_on_the_default_tier():
    """No tier override: the default tier is the VM, so the whole ISA
    surface (breaki, info registers, disas, stepi) works out of the box."""
    cli, dbg, runtime, _ = make_cli()
    assert all(i.tier == "auto" for i in live_interps(runtime))
    out = cli.execute_script(
        [f"breaki {WORK_F1}+4", "run", "info registers", "disas", "stepi"]
    )
    assert f"ISA breakpoint 1 at {WORK_F1}+4" in out
    assert any(line.startswith("ISA breakpoint [AModule.filter_1]") for line in out), out
    assert any(line.startswith("r3 (v)") for line in out), out
    assert any(line.startswith("=>") for line in out), out
    assert any(line.startswith("Step ") for line in out), out
    assert not any(line.startswith("error:") for line in out), out


def test_cli_disas_info_registers_and_breaki():
    dbg, _, _, _ = make_vm_session()
    cli = CommandCli(dbg)
    assert cli.execute(f"breaki {WORK_F1}+4") == [
        f"ISA breakpoint 1 at {WORK_F1}+4"
    ]
    ev = dbg.run()
    assert ev.kind == StopKind.ISA_BP

    listing = cli.execute("disas")
    assert any(line.startswith("=>") for line in listing), listing
    assert any("; line" in line for line in listing), listing

    regs = cli.execute("info registers")
    assert any("r0" in line for line in regs)
    assert any("(" in line for line in regs), "named registers missing"

    out = cli.execute("stepi")
    assert any("Step" in line for line in out)


def test_cli_rwatch_and_errors():
    dbg, _, _, _ = make_vm_session()
    cli = CommandCli(dbg)
    out = cli.execute(f"rwatch {WORK_F1} r3")
    assert out == [f"Register watchpoint 1: r3 in {WORK_F1}"]
    ev = dbg.run()
    assert ev.kind == StopKind.REGISTER_WATCH

    bad = cli.execute("rwatch onlyonearg")
    assert bad and bad[0].startswith("error:")
    bad = cli.execute("breaki badspec")
    assert bad and bad[0].startswith("error:")
