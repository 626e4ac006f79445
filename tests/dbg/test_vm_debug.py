"""The bytecode tier under the debugger: ISA surface and tier descent.

Mirrors test_deopt.py at the instruction level: ISA breakpoints,
register watchpoints and ``stepi`` ride CAP_ISA (never deoptimizing),
while statement-level arming forces the vm → tree descent mid-function
with correct lines and backtraces.
"""

from repro.dbg import StopKind
from repro.dbg.cli import CommandCli
from repro.pedf.api import SYM_POP

from .util import LINE_PUSH, LINE_READ_INPUT, WORK_F1, make_cli, make_session


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
    assert all(i._fast_ok for i in interps), "CAP_ISA must not drop the tier"
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
    # instruction stepping kept the bytecode tier resident throughout
    assert interp._fast_ok


def test_register_watchpoint_reports_old_and_new():
    dbg, _, _, _ = make_vm_session()
    wp = dbg.watch_register(WORK_F1, 3)
    ev = dbg.run()
    assert ev.kind == StopKind.REGISTER_WATCH
    assert ev.bp_id == wp.id
    assert "old = " in ev.message and "new = " in ev.message


# ----------------------------------------------------------- tier descent


def test_statement_breakpoint_mid_vm_work_descends_and_hits():
    """Arm a source breakpoint while a *bytecode* WORK body is suspended
    mid-function: the vm frame must materialize interpreter state and
    stop on the right line."""
    dbg, runtime, _, sink = make_vm_session((5, 6))

    api_bp = dbg.break_api(SYM_POP, phase="entry", actor="AModule.filter_1")
    ev = dbg.run()
    assert ev.kind == StopKind.API_BP
    interp = dbg.selected_actor.interp
    assert interp._fast_ok, "tier should still be vm at an api stop"
    assert interp._vm_unit is not None, "vm tier never engaged"
    assert interp.frames and getattr(interp.frame, "vm", None) is not None

    dbg.delete(api_bp.id)
    dbg.break_source(f"the_source.c:{LINE_PUSH}")
    assert not interp._fast_ok, "arming must deoptimize the live interpreter"

    ev = dbg.cont()
    assert ev.kind == StopKind.BREAKPOINT
    frame = dbg.current_frame()
    assert frame is not None and frame.line == LINE_PUSH
    assert frame.func.name == WORK_F1

    while not dbg.finished:
        dbg.cont()
    assert sorted(sink.values) == [4 * 5 + 3, 4 * 6 + 3]


def test_vm_reoptimizes_after_disarm():
    dbg, runtime, _, sink = make_vm_session((3, 4))
    bp = dbg.break_source(f"the_source.c:{LINE_READ_INPUT}")
    assert dbg.run().kind == StopKind.BREAKPOINT
    interp = dbg.selected_actor.interp
    assert not interp._fast_ok
    dbg.delete(bp.id)
    assert interp._fast_ok
    while not dbg.finished:
        dbg.cont()
    assert interp._vm_unit is not None, "vm tier did not re-engage"
    assert len(sink.values) == 2


# A do/while WORK body for filter_1 (line 1 is the comment): the loop
# runs three times, so filter_1 emits 3*v and filter_2 2*(3*v) + 1.
DOWHILE_SOURCE = """\
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
"""
LINE_DO = 7
LINE_DO_ACC = 8
LINE_DO_K = 9


def make_dowhile_session(tier, values=(5, 6)):
    from repro.apps.amodule.app import build_amodule_program
    from repro.dbg import Debugger
    from repro.p2012.soc import P2012Platform, PlatformConfig
    from repro.pedf.runtime import PedfRuntime, RuntimeConfig
    from repro.sim import Scheduler

    program = build_amodule_program(max_steps=len(values))
    f1 = program.modules["AModule"].filters["filter_1"]
    f1.source = DOWHILE_SOURCE
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


def test_breakpoint_armed_inside_vm_dowhile_deopts_at_the_condition(monkeypatch):
    """Stop the VM inside a do/while body (an ISA breakpoint never
    deoptimizes), arm a source breakpoint on the body's first line and
    continue: the next boundary is the loop condition, so the VM hands
    the rest of the loop to the tree interpreter there
    (``_dowhile_from_cond``), which must stop on the right line with the
    slow tier's values."""
    from repro.cminus.interp import Interpreter
    from repro.cminus.vm import vm_unit

    resumed = []
    original = Interpreter._dowhile_from_cond

    def spy(self, stmt):
        resumed.append(stmt.line)
        return (yield from original(self, stmt))

    monkeypatch.setattr(Interpreter, "_dowhile_from_cond", spy)

    # slow-tier reference: the second arrival at the body's first line
    slow, slow_sink = make_dowhile_session("slow")
    slow_bp = slow.break_source(f"loop_source.c:{LINE_DO_ACC}")
    assert slow.run().kind == StopKind.BREAKPOINT
    assert slow.cont().kind == StopKind.BREAKPOINT
    want = (slow.current_frame().line, _locals(slow.current_frame()), slow.scheduler.now)
    assert want[1]["k"] == 1 and want[1]["acc"] == 5

    dbg, sink = make_dowhile_session("auto")
    f1 = next(a for a in dbg.runtime.all_actors() if a.qualname == "AModule.filter_1")
    vmf = vm_unit(f1.interp.program).funcs[WORK_F1]
    # the first instruction after the ``k = k + 1`` boundary
    pc = next(i for i, ins in enumerate(vmf.code) if ins[0] == 0 and ins[1] == LINE_DO_K) + 1
    isa_bp = dbg.break_isa(f"{WORK_F1}+{pc}")
    assert dbg.run().kind == StopKind.ISA_BP
    assert dbg.vm_activation().pc == pc
    dbg.delete(isa_bp.id)
    src_bp = dbg.break_source(f"loop_source.c:{LINE_DO_ACC}")
    assert resumed == []

    ev = dbg.cont()
    assert ev.kind == StopKind.BREAKPOINT
    frame = dbg.current_frame()
    assert (frame.line, _locals(frame), dbg.scheduler.now) == want
    assert resumed == [LINE_DO], "did not deopt at the do/while condition"

    for d, bp in ((dbg, src_bp), (slow, slow_bp)):
        d.delete(bp.id)
        while not d.finished:
            d.cont()
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
