"""run_sync safety guarantees."""

import pytest

from repro.cminus import Interpreter, NullEnvironment, analyze, parse_program, run_sync
from repro.errors import CMinusRuntimeError
from repro.sim.process import Suspend, WaitEvent


def make_interp(src):
    prog = parse_program(src)
    info = analyze(prog, None, src)
    return Interpreter(prog, info, env=NullEnvironment(), timed=False)


def test_run_sync_skips_delays():
    interp = make_interp("U32 main() { U32 s = 0; for (U32 i = 0; i < 3; i++) s += i; return s; }")
    interp.timed = True  # emits Delay requests
    assert run_sync(interp.run_function("main")) == 3


def test_run_sync_rejects_blocking_requests():
    def blocking():
        yield WaitEvent(object())

    with pytest.raises(CMinusRuntimeError) as e:
        run_sync(blocking())
    assert "WaitEvent" in str(e.value)

    def suspending():
        yield Suspend("x")

    with pytest.raises(CMinusRuntimeError):
        run_sync(suspending())
