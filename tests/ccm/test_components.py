"""The component model on the generic debugger base (paper future work)."""

import pytest

from repro.ccm import (
    AssemblyDecl,
    AssemblyRuntime,
    ComponentDecl,
    ComponentSession,
    install_component_commands,
)
from repro.ccm.decls import CcmError
from repro.dbg import CommandCli, Debugger, StopKind
from repro.p2012.soc import P2012Platform, PlatformConfig
from repro.sim import Scheduler

STORAGE = """\
U32 total = 0;
U32 serve_get(U32 unused) { return total; }
U32 serve_set(U32 v) { total = v; return v; }
"""

ADDER = """\
U32 serve_accumulate(U32 x) {
    U32 cur = CALL(store_get, 0);
    U32 next = cur + x;
    CALL(store_set, next);
    CALL(log_event, next);
    return next;
}
"""

LOGGER = """\
U32 events = 0;
U32 serve_log(U32 v) { events = events + 1; return events; }
"""


def build_assembly(extra_storage=False):
    asm = AssemblyDecl(name="calc")
    asm.add_component(ComponentDecl(
        name="storage", source=STORAGE, provides=["get", "set"]))
    asm.add_component(ComponentDecl(
        name="adder", source=ADDER, provides=["accumulate"],
        requires=["store_get", "store_set", "log_event"]))
    asm.add_component(ComponentDecl(
        name="logger", source=LOGGER, provides=["log"]))
    if extra_storage:
        asm.add_component(ComponentDecl(
            name="storage_b", source=STORAGE, provides=["get", "set"],
            source_name="storage_b.c"))
    asm.bind("adder", "store_get", "storage", "get")
    asm.bind("adder", "store_set", "storage", "set")
    asm.bind("adder", "log_event", "logger", "log")
    return asm


def make_runtime(extra_storage=False):
    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=1, pes_per_cluster=8))
    runtime = AssemblyRuntime(sched, platform, build_assembly(extra_storage))
    return sched, runtime


def test_assembly_runs_and_services_compose():
    sched, runtime = make_runtime()
    runtime.load()
    r1 = runtime.invoke("adder", "accumulate", 5)
    r2 = runtime.invoke("adder", "accumulate", 7)
    stop = sched.run()
    assert runtime.classify_stop(stop) == "exited"
    assert r1 == [5]
    assert r2 == [12]
    assert runtime.components["storage"].served == 4  # 2x get + 2x set
    assert runtime.components["logger"].served == 2


def test_validation_rejects_unbound_required():
    asm = build_assembly()
    del asm.bindings[("adder", "log_event")]
    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=1, pes_per_cluster=8))
    with pytest.raises(CcmError) as e:
        AssemblyRuntime(sched, platform, asm)
    assert "unbound" in str(e.value)


def test_missing_serve_function_rejected():
    asm = AssemblyDecl(name="bad")
    asm.add_component(ComponentDecl(name="c", source="U32 x;", provides=["svc"]))
    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=1, pes_per_cluster=8))
    with pytest.raises(CcmError) as e:
        AssemblyRuntime(sched, platform, asm)
    assert "serve_svc" in str(e.value)


def test_call_target_validated_at_compile_time():
    asm = AssemblyDecl(name="bad")
    asm.add_component(ComponentDecl(
        name="c", source="U32 serve_s(U32 x) { return CALL(nope, x); }",
        provides=["s"], requires=["other"]))
    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=1, pes_per_cluster=8))
    from repro.errors import CMinusTypeError

    with pytest.raises(CMinusTypeError) as e:
        AssemblyRuntime(sched, platform, asm)
    assert "unknown target" in str(e.value)


# --------------------------------------------------- debugger on components


def attach(sched, runtime, stop_on_init=False):
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    session = ComponentSession(dbg, cli=cli, stop_on_init=stop_on_init)
    return dbg, cli, session


def test_same_debugger_reconstructs_component_model():
    sched, runtime = make_runtime()
    dbg, cli, session = attach(sched, runtime, stop_on_init=True)
    runtime.invoke("adder", "accumulate", 5)
    ev = dbg.run()
    assert ev.kind == StopKind.DATAFLOW
    assert "assembly reconstructed" in ev.message
    assert set(session.components) == {"storage", "adder", "logger"}
    assert session.components["adder"].requires == ["store_get", "store_set", "log_event"]
    assert session.bindings[("adder", "store_get")] == ("storage", "get")
    dbg.cont()


def test_catch_request_and_message_trace():
    sched, runtime = make_runtime()
    dbg, cli, session = attach(sched, runtime)
    runtime.invoke("adder", "accumulate", 5)
    session.catch_message("adder", "request", service="set")
    ev = dbg.run()
    assert ev.kind == StopKind.DATAFLOW
    assert "issued request" in ev.message and "storage.set" in ev.message
    msg = ev.payload
    assert msg.arg == 5 and msg.pending
    ev = dbg.cont()
    assert ev.kind in (StopKind.EXITED, StopKind.DEADLOCK)
    # request/response pairing in the trace
    completed = [m for m in session.trace if not m.pending]
    get_msg = next(m for m in completed if m.service == "get")
    assert get_msg.result == 0


def test_two_level_debugging_inside_component_code():
    """Classic source breakpoints and prints work inside component code —
    the same base debugger, different model."""
    sched, runtime = make_runtime()
    dbg, cli, session = attach(sched, runtime)
    runtime.invoke("adder", "accumulate", 9)
    cli.execute("break adder.c:3")  # U32 next = cur + x;
    ev = dbg.run()
    assert ev.kind == StopKind.BREAKPOINT
    assert ev.actor == "ccm.adder"
    assert cli.execute("print cur") == ["$1 = 0"]
    assert cli.execute("print x") == ["$2 = 9"]
    out = cli.execute("backtrace")
    assert any("AdderComponent_serve_accumulate" in line for line in out)
    # the actor surface the daemon's actor listing reads
    adder = runtime.components["adder"]
    assert adder.current_line() == 3
    assert not adder.blocked
    dbg.cont()


def test_runtime_rebind_changes_provider():
    sched, runtime = make_runtime(extra_storage=True)
    dbg, cli, session = attach(sched, runtime)
    runtime.invoke("adder", "accumulate", 5)
    session.catch_message("adder", "response", service="log", temporary=True)
    ev = dbg.run()
    assert ev.kind == StopKind.DATAFLOW  # first accumulate about to finish
    # rewire the storage dependency to the fresh storage_b instance
    out = cli.execute("ccm rebind adder store_get storage_b get")
    assert "Rebound" in out[0]
    cli.execute("ccm rebind adder store_set storage_b set")
    runtime.invoke("adder", "accumulate", 7)
    ev = dbg.cont()
    assert ev.kind in (StopKind.EXITED, StopKind.DEADLOCK)
    # the second accumulate started from storage_b's pristine total
    completed = [m for m in session.trace if m.service == "accumulate" and not m.pending]
    assert [m.result for m in completed] == [5, 7]
    assert session.bindings[("adder", "store_get")] == ("storage_b", "get")


def test_component_cli_commands():
    sched, runtime = make_runtime()
    dbg, cli, session = attach(sched, runtime)
    runtime.invoke("adder", "accumulate", 5)
    dbg.run()
    out = cli.execute("component adder info")
    assert any("provides: accumulate" in line for line in out)
    out = cli.execute("ccm graph")
    assert any("adder -> storage" in line for line in out)
    out = cli.execute("ccm messages")
    assert any("accumulate" in line for line in out)
    assert cli.complete("component ad") == ["adder"]
    assert cli.complete("component adder store_") == ["store_get", "store_set"]
    out = cli.execute("ccm info")
    assert any("components: 3" in line for line in out)
    out = cli.execute("ccm rebind bogus a b c")
    assert "error" in out[0]


def test_print_in_component_code_lands_in_the_console():
    asm = AssemblyDecl(name="echo")
    asm.add_component(ComponentDecl(
        name="echo", source="U32 serve_say(U32 v) { print(v, v + 1); return v; }",
        provides=["say"]))
    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=1, pes_per_cluster=2))
    runtime = AssemblyRuntime(sched, platform, asm)
    runtime.load()
    runtime.invoke("echo", "say", 4)
    sched.run()
    assert runtime.console == ["[ccm.echo] 4 5"]
    assert runtime.components["echo"].printed == ["4 5"]
