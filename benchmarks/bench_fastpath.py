"""Fast-path micro-benchmarks: the adaptive-instrumentation machinery.

Two hot paths the debugger's §V overhead story rests on:

- ``BreakpointRegistry`` lookups — indexed by (file, line)/symbol, so a
  miss costs one dict probe regardless of how many breakpoints exist;
- hook elision — a hook whose capability mask is zero must make the
  interpreter behave like an unhooked one.
"""

import time

import pytest

from repro.cminus import DebugHook, Interpreter, NullEnvironment, run_sync
from repro.dbg.breakpoints import BreakpointRegistry, SourceBreakpoint

from tests.cminus.util import compile_program

# --------------------------------------------------------------- registry

N_BPS = 500
N_LOOKUPS = 2000


def _populated_registry():
    reg = BreakpointRegistry()
    for i in range(N_BPS):
        reg.add(SourceBreakpoint("app.fc", 10 + i))
    return reg


def test_registry_indexed_lookup(benchmark):
    """Hit + miss probes against the (file, line) index."""
    reg = _populated_registry()

    def run():
        hits = 0
        for i in range(N_LOOKUPS):
            if reg.source_bps_at("app.fc", 10 + (i % (2 * N_BPS))):
                hits += 1
        return hits

    hits = benchmark(run)
    assert hits == N_LOOKUPS // 2


def test_registry_legacy_scan(benchmark):
    """The pre-index behaviour: filter the full breakpoint list per probe."""
    reg = _populated_registry()

    def run():
        hits = 0
        for i in range(N_LOOKUPS):
            line = 10 + (i % (2 * N_BPS))
            if any(bp.line == line for bp in reg.source_bps()):
                hits += 1
        return hits

    hits = benchmark(run)
    assert hits == N_LOOKUPS // 2


def test_registry_index_beats_scan():
    """Sanity: with 500 breakpoints the index wins by a wide margin."""
    reg = _populated_registry()
    probes = [("app.fc", 10 + (i % (2 * N_BPS))) for i in range(N_LOOKUPS)]

    t0 = time.perf_counter()
    for filename, line in probes:
        reg.source_bps_at(filename, line)
    indexed = time.perf_counter() - t0

    t0 = time.perf_counter()
    for filename, line in probes:
        [bp for bp in reg.source_bps() if bp.filename == filename and bp.line == line]
    scan = time.perf_counter() - t0

    assert indexed < scan, f"indexed {indexed:.4f}s not faster than scan {scan:.4f}s"


def test_registry_armed_counts_constant_time(benchmark):
    reg = _populated_registry()

    def run():
        total = 0
        for _ in range(N_LOOKUPS):
            total += reg.armed_count("source")
            total += reg.armed_count("function")
        return total

    total = benchmark(run)
    assert total == N_LOOKUPS * N_BPS


# ----------------------------------------------------------- hook elision

LOOP_SRC = """
U32 main() {
    U32 acc = 0;
    for (U32 i = 0; i < 2000; i++) {
        acc += i;
    }
    return acc;
}
"""

EXPECTED = sum(range(2000))


class CountingHook(DebugHook):
    def __init__(self):
        self.statements = 0
        self.calls = 0
        self.returns = 0

    def on_statement(self, interp, stmt):
        self.statements += 1
        return None

    def on_call(self, interp, frame):
        self.calls += 1
        return None

    def on_return(self, interp, frame, value):
        self.returns += 1
        return None


def _run_loop(hook):
    prog, info = compile_program(LOOP_SRC)
    interp = Interpreter(prog, info, env=NullEnvironment(), hook=hook, timed=False)
    return run_sync(interp.run_function("main", ()))


@pytest.mark.parametrize("mode", ["no-hook", "elided", "observing"])
def test_hook_elision_loop(benchmark, mode):
    """A hook with capability mask 0 must cost ~nothing extra."""

    def run():
        if mode == "no-hook":
            hook = None
        else:
            hook = CountingHook()
            hook.capabilities = 0 if mode == "elided" else DebugHook.CAP_ALL
        value = _run_loop(hook)
        return value, hook

    value, hook = benchmark(run)
    assert value == EXPECTED
    if mode == "elided":
        assert hook.statements == hook.calls == hook.returns == 0
    elif mode == "observing":
        assert hook.statements > 2000
