"""Hook arming under the debugger: the VM tier serves every hook.

The §V mechanism applied to the substrate: with nothing armed, actors
run the register VM with no hook at all; arming a statement/call/return
breakpoint pushes the capability change to every live interpreter
*immediately* (not one dispatch late), and only the interpreters the
breakpoint can stop take the hook.  No actor ever leaves the VM: a
breakpoint planted while a bytecode WORK body is mid-flight hits on the
right line in the same VM activation.  ("Deoptimize" in the older test names below now means
"take the statement hook".)
"""

from repro.dbg import StopKind
from repro.pedf.api import SYM_POP

from .util import (
    LINE_PUSH,
    LINE_READ_INPUT,
    WORK_F1,
    hooked,
    make_session,
)


def test_capability_changes_push_to_live_interpreters_eagerly():
    """Satellite regression: arm/disarm transitions refresh every live
    interpreter synchronously — no dispatch needed in between — and a
    source breakpoint hooks only the actor running that file."""
    dbg, runtime, _, _ = make_session([1, 2, 3])
    assert hooked(runtime) == set()

    bp = dbg.break_source(f"the_source.c:{LINE_READ_INPUT}")
    # no scheduler dispatch has happened, yet the_source.c's actor took
    # the statement hook — and only it: controller and filter_2 run bare
    assert hooked(runtime) == {"AModule.filter_1"}
    assert dbg.runtime.find_actor("AModule.filter_1").interp._want_stmt

    dbg.delete(bp.id)
    assert hooked(runtime) == set()


def test_overlapping_arms_keep_interpreters_deoptimized():
    dbg, runtime, _, _ = make_session([1, 2])
    bp1 = dbg.break_source(f"the_source.c:{LINE_READ_INPUT}")
    bp2 = dbg.break_source(f"the_source.c:{LINE_PUSH}")
    assert hooked(runtime) == {"AModule.filter_1"}
    dbg.delete(bp1.id)
    # one statement breakpoint still armed: the hook stays
    assert hooked(runtime) == {"AModule.filter_1"}
    dbg.delete(bp2.id)
    assert hooked(runtime) == set()


def test_data_breakpoints_do_not_deoptimize():
    """API/catch breakpoints ride the event bus — no interpreter takes a
    hook (that is the whole point of actor-specific capture)."""
    dbg, runtime, _, _ = make_session([1, 2])
    dbg.break_api(SYM_POP, phase="entry")
    assert hooked(runtime) == set()


def test_breakpoint_armed_mid_compiled_work_hits_on_the_vm():
    """Arm a source breakpoint while a *bytecode* WORK body is suspended
    mid-function: the same VM activation stops on the right line, its
    locals read from the registers."""
    dbg, runtime, _, sink = make_session([5, 6])

    # stop inside WORK at a genuine blocking point (a pop api event)
    api_bp = dbg.break_api(SYM_POP, phase="entry", actor="AModule.filter_1")
    ev = dbg.run()
    assert ev.kind == StopKind.API_BP
    actor = dbg.selected_actor
    assert actor is not None and actor.interp is not None
    act = dbg.vm_activation()
    assert act is not None, "stopped mid-WORK, a VM frame must be live"

    # now plant a source breakpoint further down the same WORK body
    dbg.delete(api_bp.id)
    dbg.break_source(f"the_source.c:{LINE_PUSH}")
    assert actor.interp._want_stmt

    ev = dbg.cont()
    assert ev.kind == StopKind.BREAKPOINT
    frame = dbg.current_frame()
    assert frame is not None and frame.line == LINE_PUSH
    assert frame.func.name == WORK_F1
    assert frame.vm is act, "the activation must never leave the VM"
    values = {name: slot.data for name, slot in frame.variables().items()}
    assert values == {"cmd": 1, "v": 5, "r": 2 * 5 + 1}

    # the run still completes with the right outputs
    # (filter_1 then filter_2 each compute v*2 + attribute, attribute=1)
    while not dbg.finished:
        dbg.cont()
    assert sorted(sink.values) == [4 * 5 + 3, 4 * 6 + 3]


def test_deopt_reoptimizes_after_disarm():
    """A source stop is a VM frame; deleting the breakpoint drops the
    hook at once, and the run ends unhooked."""
    dbg, runtime, _, sink = make_session([3, 4])
    bp = dbg.break_source(f"the_source.c:{LINE_READ_INPUT}")
    ev = dbg.run()
    assert ev.kind == StopKind.BREAKPOINT
    interp = dbg.selected_actor.interp
    assert interp._want_stmt
    assert dbg.vm_activation() is not None, "armed: the VM still runs"
    dbg.delete(bp.id)
    assert hooked(runtime) == set()
    while not dbg.finished:
        dbg.cont()
    assert len(sink.values) == 2
