"""Source-level debugging gives the same session on both tiers.

The same scripted session — a conditional source breakpoint, ``step``,
``next``, ``finish``, a function breakpoint, a watchpoint on a local,
``print``, ``info locals`` and ``bt`` — runs on ``auto`` (the register
VM, which serves every hook itself) and on ``slow`` (the tree walker, the
reference).  Both must produce the same stop sequence (kind, actor,
file, line, breakpoint id, the stopped actor's statement count and sim
time) and the same command output, and on ``auto`` the tree walker must
not checkpoint a single statement.
"""

import pytest

from repro.core import DataflowSession
from repro.dbg import CommandCli, Debugger
from repro.serve.builders import apply_tier, build_program_cli

from .util import count_tree_checkpoints

SCRIPTS = {
    "amodule": [
        "run",
        "break Filter2Filter_work_function", "continue", "info locals", "bt", "delete 1",
        "break the_source.c:6 if v == 3", "continue", "info locals", "print v", "print cmd", "bt",
        "step", "next", "info locals",
        "watch r", "continue", "delete 2", "delete 3",
        "finish", "continue",
    ],
    "rle": [
        "run",
        "break ExpandFilter_work_function", "continue", "info locals", "bt", "delete 1",
        "break pack.c:24 if count == 3", "continue", "info locals", "print idx", "print next", "bt",
        "step", "next", "next", "info locals",
        "watch count", "continue", "continue", "delete 2", "delete 3",
        "finish", "continue",
    ],
    "h264": [
        "run",
        "break McFilter_work_function", "continue", "info locals", "bt", "delete 1",
        "break bh.c:14 if i == 2", "continue", "info locals", "print sum", "print i", "bt",
        "step", "next", "next", "info locals",
        "watch sum", "continue", "continue", "delete 2", "delete 3",
        "finish", "info locals", "continue",
    ],
    # AModule with a helper call in filter_1: parameters, a conditional
    # function breakpoint, stepping into a callee and finishing out of it
    "amodule-calls": [
        "run",
        "break Filter1Filter_scale if x == 2", "continue", "info locals", "bt",
        "finish", "delete 1",
        "break the_source.c:10 if v == 3", "continue", "step", "bt", "next", "info locals",
        "finish", "next", "print r",
        "watch r", "continue", "delete 2", "delete 3", "continue",
    ],
}

CALLS_SOURCE = """\
// the_source.c — AFilter WORK method with a helper call
U32 scale(U32 x, U32 k) {
    U32 y = x * k;
    return y + 1;
}
void work() {
    U32 cmd = pedf.io.cmd_in[0];
    U32 v = pedf.io.an_input[0];
    pedf.data.a_private_data = v;
    U32 r = scale(v, 2);
    pedf.io.an_output[0] = r + cmd * 0;
}
"""


def _calls_cli(tier):
    from repro.apps.amodule.app import build_amodule_program
    from repro.p2012.soc import P2012Platform, PlatformConfig
    from repro.pedf.runtime import PedfRuntime, RuntimeConfig
    from repro.sim import Scheduler

    values = [1, 2, 3, 4]
    program = build_amodule_program(max_steps=len(values))
    program.modules["AModule"].filters["filter_1"].source = CALLS_SOURCE
    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=2, pes_per_cluster=4))
    runtime = PedfRuntime(sched, platform, program, RuntimeConfig(interp_tier=tier))
    runtime.add_source("stim", "AModule", "module_in", values)
    runtime.add_sink("capture", "AModule", "module_out", expect=len(values))
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    apply_tier(DataflowSession(dbg, cli=cli, stop_on_init=True), tier)
    return cli


def run_script(app, tier):
    """Run ``SCRIPTS[app]`` on ``tier``; returns (stops, transcript)."""
    cli = _calls_cli(tier) if app == "amodule-calls" else build_program_cli(app, tier=tier)[0]
    dbg = cli.dbg
    stops = []

    def record(ev):
        interp = dbg.runtime.find_actor(ev.actor).interp if ev.actor else None
        stops.append((
            ev.kind.value, ev.actor, ev.filename, ev.line, ev.bp_id,
            interp.state.statements_executed if interp is not None else None,
            dbg.scheduler.now,
        ))

    dbg.stop_callbacks.append(record)
    transcript = []
    for line in SCRIPTS[app]:
        transcript.append(f"(gdb) {line}")
        transcript.extend(cli.execute(line))
    assert dbg.finished, transcript
    assert not any(line.startswith("error:") for line in transcript), transcript
    return stops, transcript


@pytest.mark.parametrize("app", sorted(SCRIPTS))
def test_scripted_source_session_is_tier_equivalent(monkeypatch, app):
    slow = run_script(app, "slow")
    checkpoints = count_tree_checkpoints(monkeypatch)
    auto = run_script(app, "auto")
    assert checkpoints[0] == 0, "the tree walker ran statements on auto"
    assert auto == slow
    kinds = {stop[0] for stop in auto[0]}
    assert {"breakpoint", "function-breakpoint", "step", "watchpoint", "finish"} <= kinds


def test_calls_session_reads_parameters_and_callee_locals():
    """Spot-check the transcript the equivalence rests on: a parameter
    condition, a two-frame backtrace and callee locals, all from VM
    registers."""
    stops, transcript = run_script("amodule-calls", "auto")
    assert "Function breakpoint 1, [AModule.filter_1] Filter1Filter_scale at the_source.c:2" in transcript
    i = transcript.index("(gdb) info locals")
    assert transcript[i + 1:i + 3] == ["k = 2", "x = 2"]
    assert " #1  Filter1Filter_work_function () at the_source.c:10" in transcript
    assert "Run till exit [AModule.filter_1]: Filter1Filter_scale returned 7 at the_source.c:10" in transcript
    j = transcript.index("(gdb) print r")
    assert transcript[j + 1] == "$1 = 7"
