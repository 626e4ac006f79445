"""What a frame's return ends.

- ``step``/``next`` on the last statement of a WORK body stops the same
  actor when the activation returns to the framework, before any other
  actor runs (not on the first line of its next activation); a further
  ``step``/``next`` from there runs to that first line;
- a watchpoint on a local is deleted, with a stop, when the frame the
  local resolved in returns (GDB); watchpoints on ``pedf.data`` live on.

The return hook is armed only for the actor that needs it, and only
while it does.
"""

import pytest

from repro.dbg import StopKind
from repro.dbg.debugger import _InterpHook
from repro.dbg.stop import LEFT_SCOPE

from .util import (
    LINE_COMPUTE,
    LINE_PUSH,
    LINE_READ_CMD,
    LINE_READ_INPUT,
    WORK_F1,
    make_session,
)

F1 = "AModule.filter_1"


def session(values=(1, 2, 3)):
    dbg, runtime, source, sink = make_session(values)
    return dbg, runtime


def statement_counts(runtime):
    return {
        a.qualname: a.interp.state.statements_executed
        for a in runtime.all_actors()
        if getattr(a, "interp", None) is not None
    }


def return_hooks(monkeypatch):
    """Qualnames of the interpreters whose return hook fires from now on."""
    seen = []
    inner = _InterpHook.on_return

    def spy(self, interp, frame, value):
        seen.append(self.dbg._actor_of(interp).qualname)
        return inner(self, interp, frame, value)

    monkeypatch.setattr(_InterpHook, "on_return", spy)
    return seen


@pytest.mark.parametrize("command", ["next_", "step"])
def test_step_off_the_last_statement_stops_at_the_activation_return(monkeypatch, command):
    dbg, runtime = session()
    dbg.break_source(f"the_source.c:{LINE_PUSH}", actor=F1)
    ev = dbg.run()
    assert (ev.kind, ev.line) == (StopKind.BREAKPOINT, LINE_PUSH)
    before = statement_counts(runtime)
    hooks = return_hooks(monkeypatch)

    ev = getattr(dbg, command)()
    assert ev.kind == StopKind.STEP
    assert ev.actor == F1
    assert ev.message == f"{WORK_F1} returned to the framework"
    assert ev.describe() == [f"Step [{F1}]: {WORK_F1} returned to the framework"]
    after = statement_counts(runtime)
    # only the stepping actor ran: its push, nothing of anyone else
    assert {k for k in after if after[k] != before[k]} <= {F1}
    assert hooks == [F1]
    # the stop disarms the return hook again
    assert not any(
        a.interp._want_ret for a in runtime.all_actors() if getattr(a, "interp", None)
    )

    # the next activation is reached by continuing, hooklessly returning
    ev = dbg.cont()
    assert (ev.kind, ev.line) == (StopKind.BREAKPOINT, LINE_PUSH)
    assert hooks == [F1]


@pytest.mark.parametrize("command", ["next_", "step"])
def test_step_from_the_activation_return_runs_to_the_next_activation(command):
    """Between activations no line is known, so the next ``step``/``next``
    runs to the actor's first line of its next activation."""
    dbg, runtime = session()
    dbg.break_source(f"the_source.c:{LINE_PUSH}", temporary=True, actor=F1)
    dbg.run()
    returned = getattr(dbg, command)()
    assert returned.line is None
    ev = getattr(dbg, command)()
    assert (ev.kind, ev.actor, ev.line) == (StopKind.STEP, F1, LINE_READ_CMD)
    assert ev.time > returned.time
    # the new activation steps as usual
    ev = dbg.next_()
    assert (ev.kind, ev.line) == (StopKind.STEP, LINE_READ_INPUT)


def test_step_inside_the_body_is_unchanged():
    dbg, runtime = session()
    dbg.break_source(f"the_source.c:{LINE_COMPUTE}", actor=F1)
    dbg.run()
    ev = dbg.next_()
    assert (ev.kind, ev.actor, ev.line) == (StopKind.STEP, F1, LINE_PUSH)
    assert ev.describe() == [f"Step [{F1}] at the_source.c:{LINE_PUSH}"]


def test_watchpoint_on_a_local_dies_with_its_frame(monkeypatch):
    dbg, runtime = session()
    bp = dbg.break_source(f"the_source.c:{LINE_COMPUTE}", actor=F1)
    dbg.run()
    local = dbg.watch("v")
    data = dbg.watch("pedf.data.a_private_data")
    assert local.frame is dbg.selected_actor.interp.frame
    assert data.frame is None
    dbg.delete(bp.id)
    hooks = return_hooks(monkeypatch)

    ev = dbg.cont()
    assert ev.kind == StopKind.WATCHPOINT
    assert ev.payload == LEFT_SCOPE
    assert ev.bp_id == local.id
    assert ev.describe() == [
        f"Watchpoint {local.id} deleted because the program has left the "
        "block in which its expression is valid.",
        f"{WORK_F1} returned [{F1}] at the_source.c:{LINE_PUSH}",
    ]
    assert local.deleted and local.id not in dbg.breakpoints.all
    assert hooks == [F1]

    # the pedf.data watchpoint outlives the frame: the next activation
    # changes it, and no return hook fires any more
    ev = dbg.cont()
    assert (ev.kind, ev.bp_id) == (StopKind.WATCHPOINT, data.id)
    assert ev.message == "pedf.data.a_private_data: old = 1, new = 2"
    assert hooks == [F1]


def test_finish_wins_over_a_dying_watchpoint():
    """``finish`` of the frame a watched local lives in reports the
    return; the watchpoint goes with the frame all the same."""
    dbg, runtime = session()
    bp = dbg.break_source(f"the_source.c:{LINE_COMPUTE}", actor=F1)
    dbg.run()
    local = dbg.watch("v")
    dbg.delete(bp.id)
    ev = dbg.finish()
    assert ev.kind == StopKind.FINISH
    assert local.deleted
    assert dbg.cont().kind == StopKind.EXITED


def test_a_watchpoint_disabled_while_its_frame_returns_is_deleted_when_reenabled():
    """GDB: the scope is checked again when the watchpoint is next
    evaluated; its frame is gone, so it is deleted with a stop."""
    dbg, runtime = session()
    bp = dbg.break_source(f"the_source.c:{LINE_COMPUTE}", actor=F1)
    dbg.run()
    local = dbg.watch("v")
    local.enabled = False
    ev = dbg.cont()  # the frame returns unwatched; the next activation
    assert (ev.kind, ev.bp_id) == (StopKind.BREAKPOINT, bp.id)
    local.enabled = True
    ev = dbg.cont()
    assert (ev.kind, ev.bp_id, ev.payload) == (StopKind.WATCHPOINT, local.id, LEFT_SCOPE)
    assert ev.describe()[1] == f"{WORK_F1} returned [{F1}] at the_source.c:{LINE_PUSH}"
    assert local.deleted
