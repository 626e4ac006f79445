"""List every function under ``src/repro`` that no user path enters.

    python3 scripts/callsweep.py [--tests]

The program is imported from the checkout's ``src/``.
The user paths run in this one process, under ``sys.setprofile`` and
``threading.setprofile`` (so daemon and session-worker threads count):

- every command script ``scripts/smoke/*.gdb``, once per ``# run:``
  line at its head (the ``python -m repro`` arguments CI runs it with);
- every JSON-RPC session ``scripts/smoke/rpc_*.py``;
- a scripted DAP session (:func:`dap_session`);
- every ``examples/*.py``;
- each perfbench scenario's seeded passes, as ``perfbench/run.py
  --trace 1`` makes them (warm-up, probe pass, pass) but without its
  profiler: a fixed amount of work, where a ``--seconds`` run reaches
  more or less of the program with the speed of the machine.

It then prints each ``def`` none of them entered, with the reason it
stays (``REASONS``), and a summary line.  It exits 1 when the count is
above ``MAX_UNREACHED`` (the count this sweep was committed at), when
a listed function has no reason, or when a reason names a function
that no longer exists.

``--tests`` also runs the tier-1 suite (``tests/``) under the same
profiler, each test's calls counted for its test file, and exits 1
when the suite fails or when no test under a path a reason cites
enters the function.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import glob
import io
import os
import re
import runpy
import shlex
import shutil
import sys
import tempfile
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
SMOKE = os.path.join(ROOT, "scripts", "smoke")

#: the unreached count this sweep was committed at; more fails the run
MAX_UNREACHED = 208

#: why a function no user path enters still stays: reason -> the
#: functions it covers, each named ``path::qualname`` (the path relative
#: to ``src/repro``).  A test path in a reason is checked by ``--tests``.
REASONS: Dict[str, Tuple[str, ...]] = {
    "text form for a Python session and pdb; tests/test_text_forms.py": (
        "cminus/debuginfo.py::FunctionSymbol.__str__",
        "cminus/interp.py::Frame.__str__",
        "cminus/lexer.py::Token.__str__",
        "cminus/typesys.py::CType.__repr__",
        "core/model.py::DbgConnection.__str__",
        "core/model.py::DbgLink.__str__",
        "core/model.py::DbgActor.__str__",
        "dbg/breakpoints.py::BreakpointBase.__str__",
        "dbg/stop.py::StopEvent.__str__",
        "p2012/cluster.py::Cluster.__str__",
        "p2012/dma.py::DmaController.__str__",
        "p2012/memory.py::Memory.__str__",
        "p2012/pe.py::ExecResource.__str__",
        "p2012/soc.py::P2012Platform.__str__",
        "pedf/actors.py::ActorInst.__str__",
        "pedf/actors.py::ModuleInst.__str__",
        "pedf/api.py::FrameworkEvent.qualified_symbol",
        "pedf/api.py::FrameworkEvent.__str__",
        "pedf/decls.py::EndpointRef.__str__",
        "pedf/decls.py::BindingDecl.__str__",
        "pedf/links.py::LinkInst.__str__",
        "pedf/links.py::IfaceInst.__str__",
        "pedf/proxies.py::ProxyActor.__repr__",
        "pedf/proxies.py::ProxyIface.__repr__",
        "pedf/tokens.py::Token.formatted",
        "pedf/tokens.py::Token.__str__",
        "sim/channels.py::Fifo.__repr__",
        "sim/events.py::Event.__repr__",
        "sim/kernel.py::StopReason.__str__",
        "sim/process.py::Process.__str__",
    ),
    "mirrors IfaceInst.full_qualname for a remote endpoint; tests/test_text_forms.py": (
        "pedf/proxies.py::ProxyIface.full_qualname",
    ),
    (
        "interface default that the debugger's hook, the actor environments or every "
        "subclass overrides"
    ): (
        "cminus/interp.py::Environment.io_read",
        "cminus/interp.py::Environment.io_write",
        "cminus/interp.py::Environment.intrinsic",
        "cminus/interp.py::Environment.data_get",
        "cminus/interp.py::Environment.data_set",
        "cminus/interp.py::Environment.attr_get",
        "cminus/interp.py::Environment.print_out",
        "cminus/interp.py::DebugHook.capabilities_for",
        "cminus/interp.py::DebugHook.on_statement",
        "cminus/interp.py::DebugHook.on_call",
        "cminus/interp.py::DebugHook.on_return",
        "cminus/interp.py::DebugHook.on_trap",
        "cminus/interp.py::DebugHook.on_instruction",
        "cminus/interp.py::DebugHook.on_isa_break",
        "core/catchpoints.py::DataflowCatchpoint.check_pred",
        "dbg/breakpoints.py::BreakpointBase.what",
        "rv/monitors.py::Monitor.at_stop",
        "rv/monitors.py::Monitor._feed",
    ),
    "the getter half of a settable hook property": (
        "sim/kernel.py::Scheduler.pre_dispatch_hook",
        "sim/kernel.py::Scheduler.post_dispatch_hook",
    ),
    "the environment of stand-alone Filter-C runs; tests/cminus": (
        "cminus/interp.py::NullEnvironment.__init__",
        "cminus/interp.py::NullEnvironment.print_out",
        "cminus/interp.py::run_sync",
    ),
    "the interactive prompt (no --script): a sweep cannot type into it": (
        "__main__.py::repl",
    ),
    "Tab completion bound to readline at the interactive prompt; tests/test_main.py": (
        "__main__.py::bind_completion",
        "__main__.py::bind_completion.<locals>.complete",
    ),
    (
        "the line in a Filter-C runtime error (division by zero, shift out of range): no "
        "smoke script makes one; tests/cminus, tests/dbg/test_eval_units.py"
    ): (
        "cminus/interp.py::_at",
    ),
    "`python -m repro serve`, a process of its own: CI's SIGTERM drain step starts it": (
        "serve/daemon.py::_amain",
        "serve/daemon.py::serve_main",
    ),
    "idle-session reaping (`serve --idle-timeout`); tests/serve/test_daemon.py": (
        "serve/daemon.py::DebugDaemon._reap_loop",
        "serve/sessions.py::SessionRegistry.reap_idle",
    ),
    (
        "an API breakpoint as `info breakpoints` lists it: the shipped extensions plant "
        "only internal ones; tests/dbg/test_api.py"
    ): (
        "dbg/breakpoints.py::ApiBreakpoint.what",
    ),
    "Tab completion of a component command: the daemon builds no component program; tests/ccm": (
        "ccm/debug.py::install_component_commands.<locals>.complete",
    ),
    "the replay's report of a diverged deep snapshot; tests/core/test_snapshot_restore.py": (
        "sim/snapshot.py::MachineState.tokens_in_flight",
        "sim/snapshot.py::MachineState.describe",
    ),
    (
        "the sharded run's Python API and its fingerprint; "
        "tests/core/test_shard_equivalence.py, tests/core/test_snapshot_restore.py, "
        "tests/obs/test_aggregate.py"
    ): (
        "core/shards.py::ShardedRun.shards",
        "core/shards.py::ShardedRun.fingerprint",
        "core/shards.py::ShardedRun.aggregate",
        "core/shards.py::ShardedRun.export_trace",
        "core/shards.py::ShardedRun.barrier_states",
        "sim/sharding/merge.py::PushStreamRecorder.__init__",
        "sim/sharding/merge.py::PushStreamRecorder._on_push",
        "sim/sharding/merge.py::fingerprint_streams",
        "sim/sharding/sharded.py::ShardedScheduler._outgoing",
        "sim/sharding/sharded.py::ShardedScheduler._close_outgoing",
        "sim/snapshot.py::MachineState.digest",
    ),
    (
        "the 1000-actor stress graph of the shard equivalence suites and CI's 1/2/4-shard"
        " step; tests/core/test_shard_equivalence.py"
    ): (
        "apps/synthetic.py::_controller_source",
        "apps/synthetic.py::lcg_reference",
        "apps/synthetic.py::build_synthetic_program",
        "apps/synthetic.py::synthetic_hosts",
        "apps/synthetic.py::build_synthetic_pipeline",
    ),
    (
        "the fabric-wide protocol-stall stop: a guard that horizons growing at every "
        "round keep unreachable"
    ): (
        "sim/sharding/sharded.py::ShardedScheduler._stalled",
    ),
    "partition query; tests/sim/test_sharding_plan.py": (
        "sim/sharding/plan.py::enumerate_cross_links",
    ),
    "the stitched cross-shard Chrome trace; tests/obs/test_aggregate.py": (
        "obs/aggregate.py::AggregateTelemetry._edge_index",
        "obs/aggregate.py::AggregateTelemetry.chrome_trace",
        "obs/export.py::to_chrome_trace_multi",
    ),
    "telemetry, metric, span and profile queries no smoke script prints; tests/obs": (
        "obs/builder.py::TelemetryBuilder.open_depth",
        "obs/derive.py::derive_telemetry",
        "obs/export.py::validate_chrome_trace",
        "obs/metrics.py::Histogram.percentile",
        "obs/metrics.py::Histogram.summary",
        "obs/metrics.py::MetricsRegistry.render",
        "obs/prof.py::derive_profile",
        "obs/spans.py::SpanSink.spans",
        "obs/spans.py::SpanSink.__iter__",
        "obs/spans.py::SpanSink.total",
        "obs/spans.py::SpanSink.clear",
    ),
    "property constructors of the Python API; tests/rv/test_props.py": (
        "rv/props.py::bounded",
        "rv/props.py::rate",
        "rv/props.py::ordered",
        "rv/props.py::deadlock_free",
    ),
    "the figure and measurement harness behind EXPERIMENTS.md; tests/eval/test_experiments.py": (
        "eval/figures.py::fig1_platform_report",
        "eval/figures.py::fig1_platform_report.<locals>.dma_proc",
        "eval/figures.py::fig2_amodule_graph",
        "eval/figures.py::fig3_capture_report",
        "eval/figures.py::fig4_h264_graph",
        "eval/localization.py::_CountingCli.__init__",
        "eval/localization.py::_CountingCli.run",
        "eval/localization.py::_session",
        "eval/localization.py::_corrupted_dataflow",
        "eval/localization.py::_corrupted_plain",
        "eval/localization.py::_rate_dataflow",
        "eval/localization.py::_rate_plain",
        "eval/localization.py::_dropped_dataflow",
        "eval/localization.py::_dropped_plain",
        "eval/localization.py::run_localization_comparison",
        "eval/localization.py::format_results",
        "eval/overhead.py::OverheadRow.slowdown",
        "eval/overhead.py::_checksum",
        "eval/overhead.py::_run_native",
        "eval/overhead.py::_run_attached_idle",
        "eval/overhead.py::_run_with_session",
        "eval/overhead.py::run_overhead_comparison",
        "eval/overhead.py::format_rows",
    ),
    "the decoder built from its MIND description; tests/apps/test_h264_adl.py": (
        "apps/h264/adl.py::build_decoder_program_from_adl",
    ),
    (
        "golden model of a demo, the oracle of its tests; tests/pedf/test_runtime.py, "
        "tests/apps/test_rle.py"
    ): (
        "apps/amodule/app.py::expected_output",
        "apps/rle/app.py::rle_encode",
        "apps/rle/app.py::rle_decode",
    ),
    "resource kind query (PE or hardware accelerator); tests/apps/test_h264.py": (
        "p2012/pe.py::ExecResource.kind",
    ),
    (
        "platform-model queries of the figure-1 report; tests/p2012, "
        "tests/dbg/test_info_platform.py"
    ): (
        "p2012/memory.py::Memory.accesses",
        "p2012/memory.py::Memory.reset_counters",
    ),
    "bus query; tests/pedf/test_event_bus.py": (
        "pedf/api.py::FrameworkEventBus.has_listeners",
    ),
    (
        "scheduling predicates set by controller code (SET_PRED): no demo controller sets"
        " one; tests/pedf/test_predicates.py"
    ): (
        "core/capture.py::EventCapture._on_set_pred",
        "core/catchpoints.py::PredCatch.__init__",
        "core/catchpoints.py::PredCatch.check_pred",
        "core/catchpoints.py::PredCatch.what",
        "core/session.py::DataflowSession.catch_pred",
        "pedf/actors.py::ControllerInst.intr_set_pred",
        "pedf/actors.py::ControllerInst.intr_set_pred.<locals>.impl",
    ),
    "struct and array literals in `iface insert|poke`; tests/core/test_alteration_literals.py": (
        "core/alteration.py::_split_top_level",
        "core/record.py::RecordBuffer.resize",
    ),
    "the recorder's part of a flight bundle; tests/obs/test_flight.py": (
        "core/record.py::TokenRecorder.status_lines",
    ),
    "symbol demangling; tests/core/test_demangle.py": (
        "core/session.py::DataflowSession.demangle",
    ),
    "the trap() builtin's stop: no demo source calls trap(); tests/dbg/test_debugger.py": (
        "dbg/debugger.py::_InterpHook.on_trap",
        "dbg/debugger.py::Debugger._on_trap",
    ),
    (
        "the stop at a brk instruction: only hand-assembled code carries brk; "
        "tests/dbg/test_vm_debug.py"
    ): (
        "dbg/debugger.py::_InterpHook.on_isa_break",
        "dbg/debugger.py::Debugger._on_isa_break",
    ),
    "a local watchpoint whose frame has returned; tests/dbg/test_frame_exit.py": (
        "dbg/debugger.py::_is_live",
        "dbg/debugger.py::Debugger._left_scope",
    ),
    "registry query; tests/dbg/test_breakpoint_registry.py": (
        "dbg/breakpoints.py::BreakpointRegistry.function_bps",
    ),
    (
        "expression forms no smoke script prints (casts, indexing, calls, unary, "
        "literals, pedf.io); tests/dbg"
    ): (
        "dbg/eval.py::Evaluator._eval_BoolLit",
        "dbg/eval.py::Evaluator._eval_Unary",
        "dbg/eval.py::Evaluator._eval_Cast",
        "dbg/eval.py::Evaluator._eval_Index",
        "dbg/eval.py::Evaluator._eval_Call",
        "dbg/eval.py::Evaluator._eval_PedfIo",
        "dbg/eval.py::Evaluator._eval_StringLit",
        "cminus/interp.py::apply_unop",
    ),
    "debug-info queries; tests/cminus/test_debuginfo.py": (
        "cminus/debuginfo.py::FunctionSymbol.variable",
        "cminus/debuginfo.py::LineTable.lines",
        "cminus/debuginfo.py::LineTable.is_executable",
        "cminus/debuginfo.py::DebugInfo.function_at_line",
        "cminus/debuginfo.py::DebugInfo.match_functions",
    ),
    "front-end cache statistics; tests/pedf/test_frontend_cache.py": (
        "cminus/frontend.py::FrontendCache.__len__",
        "cminus/frontend.py::FrontendCache.stats",
    ),
    (
        "the assembler, the disassembler's inverse: the round-trip oracle of "
        "tests/cminus/test_vm.py"
    ): (
        "cminus/vm/asm.py::_parse_operand",
        "cminus/vm/asm.py::assemble",
    ),
    (
        "VM lowering of Filter-C forms no demo uses (struct copies, raw stores, "
        "conversions); tests/cminus"
    ): (
        "cminus/vm/compiler.py::_make_coercer.<locals>.conv",
        "cminus/vm/compiler.py::VmFunction.ret_default",
        "cminus/vm/compiler.py::_FnCompiler._needs_copy",
        "cminus/vm/compiler.py::_FnCompiler._load_lvalue",
        "cminus/vm/compiler.py::_FnCompiler._store_raw",
        "cminus/vm/compiler.py::_FnCompiler._emit_binop_raw",
        "cminus/vm/compiler.py::VmUnit.supports",
    ),
    (
        "type and value queries no demo program needs (integer bounds, array and struct "
        "types, value copies); tests/cminus, tests/core"
    ): (
        "cminus/typesys.py::IntType.min",
        "cminus/typesys.py::ArrayType.name",
        "cminus/typesys.py::StructType.field_names",
        "cminus/values.py::Value.copy",
    ),
    (
        "diagnostics and forms of Filter-C and MIND sources no demo has (errors, structs,"
        " do-while, string and char literals); tests/cminus, tests/mind, tests/ccm"
    ): (
        "cminus/lexer.py::Lexer.error",
        "cminus/lexer.py::Lexer._lex_string",
        "cminus/lexer.py::Lexer._lex_char",
        "cminus/parser.py::Parser.error",
        "cminus/parser.py::Parser._parse_struct",
        "cminus/parser.py::Parser._parse_do_while",
        "cminus/sema.py::SemanticAnalyzer.error",
        "errors.py::CMinusSyntaxError.__init__",
        "errors.py::CMinusTypeError.__init__",
        "errors.py::CMinusLoweringError.__init__",
        "errors.py::MindError.__init__",
        "mind/compiler.py::MindCompiler.error",
        "mind/parser.py::MindParser.error",
        "mind/parser.py::MindParser._parse_struct",
        "mind/parser.py::MindParser._parse_int_value",
    ),
    "the deadlock exception of a kernel run asked to raise; tests/sim/test_kernel.py": (
        "errors.py::DeadlockError.__init__",
    ),
    (
        "the component model's actor surface, which the daemon's actor listing reads; no "
        "daemon session runs a component assembly; tests/ccm/test_components.py"
    ): (
        "ccm/runtime.py::ComponentInst.current_line",
        "ccm/runtime.py::ComponentInst.blocked",
    ),
    (
        "the Filter-C print() intrinsic: no demo source prints; "
        "tests/ccm/test_components.py, tests/test_toplevel_api.py"
    ): (
        "ccm/runtime.py::_ComponentEnv.print_out",
        "pedf/envs.py::ActorEnv.print_out",
    ),
    (
        "kernel API the framework does not call (non-blocking FIFO ops, waiter removal, "
        "kill); tests/sim"
    ): (
        "sim/channels.py::Fifo.try_put",
        "sim/channels.py::Fifo.try_get",
        "sim/events.py::Event.waiters",
        "sim/events.py::Event.remove_waiter",
        "sim/kernel.py::Scheduler.kill",
    ),
    "journal helper of the replay-equivalence suites; tests/rv/test_replay_equivalence.py": (
        "sim/replay.py::_replay_stop",
    ),
    "segment-store queries; tests/sim": (
        "sim/segments.py::SegmentInfo.count",
        "sim/segments.py::SegmentData.record_at",
        "sim/segments.py::SegmentStore.total_stored",
    ),
}


@dataclass(frozen=True)
class Def:
    path: str  # relative to src/repro
    line: int  # first line: the first decorator's, as in co_firstlineno
    qualname: str
    lines: int

    @property
    def name(self) -> str:
        return f"{self.path}::{self.qualname}"


def all_defs() -> List[Def]:
    """Every ``def`` and ``async def`` under ``src/repro``."""
    out: List[Def] = []
    for dirpath, _dirs, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, PACKAGE)
            with open(full) as fh:
                tree = ast.parse(fh.read(), full)
            out.extend(_defs_in(tree, rel, ""))
    return sorted(out, key=lambda d: (d.path, d.line))


def _defs_in(node: ast.AST, rel: str, prefix: str) -> Iterator[Def]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            qualname = prefix + child.name
            yield Def(rel, first, qualname, child.end_lineno - first + 1)
            yield from _defs_in(child, rel, qualname + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs_in(child, rel, prefix + child.name + ".")
        else:
            yield from _defs_in(child, rel, prefix)


class Sweep:
    """Records the code objects entered while armed, into the set of
    whoever is running (``owner``)."""

    def __init__(self) -> None:
        self.by_owner: Dict[str, Set] = {}
        self.owner("user paths")

    def owner(self, name: str) -> None:
        self._codes = self.by_owner.setdefault(name, set())

    def _profile(self, frame, event, _arg) -> None:
        if event == "call":
            self._codes.add(frame.f_code)

    @contextlib.contextmanager
    def armed(self):
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        try:
            yield
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

    def entered(self, owner: str) -> Set[Tuple[str, int]]:
        return {
            (os.path.relpath(os.path.realpath(c.co_filename), PACKAGE), c.co_firstlineno)
            for c in self.by_owner.get(owner, ())
        }


# -- the user paths ---------------------------------------------------------


def smoke_runs() -> List[List[str]]:
    """argv of every ``# run:`` line of ``scripts/smoke/*.gdb``."""
    runs = []
    for path in sorted(glob.glob(os.path.join(SMOKE, "*.gdb"))):
        with open(path) as fh:
            heads = re.findall(r"^# run: (.*)$", fh.read(), re.M)
        if not heads:
            raise SystemExit(f"callsweep: {path} has no '# run:' line")
        runs += [shlex.split(head) + ["--script", path] for head in heads]
    return runs


def dap_session() -> None:
    """Break, inspect, complete, step over/in/out, pause a long run,
    travel back, terminate."""
    from repro.serve import DaemonThread
    from repro.serve.client import DapClient

    with DaemonThread() as daemon:
        dap = DapClient(daemon.port, timeout=60)
        dap.request("initialize", {"adapterID": "callsweep"})
        dap.wait_event("initialized")
        values = [1 + i % 9 for i in range(20000)]
        sid = dap.request("launch", {"program": "rle", "values": values})["body"]["session"]
        with daemon.connect() as rpc:
            if not rpc.execute(sid, "record on")["ok"]:
                raise SystemExit("callsweep: `record on` failed in the DAP session")
        dap.request("setBreakpoints", {"source": {"path": "pack.c"}, "breakpoints": [{"line": 7}]})
        dap.request("setFunctionBreakpoints",
                    {"breakpoints": [{"name": "PackFilter_work_function"}]})
        dap.request("configurationDone")
        stop = dap.wait_event("stopped")["body"]
        while stop["reason"] != "breakpoint":
            dap.request("continue")
            stop = dap.wait_event("stopped")["body"]
        thread = stop["threadId"]
        dap.request("threads")
        frame = dap.request("stackTrace", {"threadId": thread})["body"]["stackFrames"][0]
        scopes = dap.request("scopes", {"frameId": frame["id"]})["body"]["scopes"]
        dap.request("variables", {"variablesReference": scopes[0]["variablesReference"]})
        dap.request("evaluate", {"expression": "value"})
        for text in ("info br", "actor codec.p", "break pa", "print va", "filter pa",
                     "check ra"):
            dap.request("completions", {"text": text})
        for step in ("next", "stepIn", "stepOut"):
            dap.request(step, {"threadId": thread})
            dap.wait_event("stopped")
        dap.request("setBreakpoints", {"source": {"path": "pack.c"}, "breakpoints": []})
        dap.request("setFunctionBreakpoints", {"breakpoints": []})
        dap.request("continue")
        dap.request("pause")
        dap.wait_event("stopped")
        dap.request("reverseContinue", {"threadId": thread})
        dap.wait_event("stopped")
        dap.request("replayTo", {"target": "event 3"})
        dap.wait_event("stopped")
        dap.request("terminate")
        dap.wait_event("terminated")
        dap.request("disconnect")
        dap.close()


def perfbench_passes(tmp: str) -> None:
    import workloads
    from repro.obs.flight import FlightRecorder

    saved, FlightRecorder.dump_dir = FlightRecorder.dump_dir, tmp  # as run.py does
    ops = workloads.Ops()
    try:
        for name, cls in workloads.SCENARIOS.items():
            scenario = cls(1, ops, tmp)
            scenario.warm()
            if name != "daemon-session":  # the two workloads with a cold set-up
                scenario.setup()
            scenario.unit(probe=True)
            scenario.unit()
    finally:
        FlightRecorder.dump_dir = saved
    if not ops.attempted or ops.failed:
        raise SystemExit(f"callsweep: perfbench operations failed: {ops.first_failures}")


def run_user_paths(sweep: Sweep) -> None:
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from repro.__main__ import main as repro_main

    runs = smoke_runs()
    rpc = sorted(glob.glob(os.path.join(SMOKE, "rpc_*.py")))
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        # the runs' output files land in tmp; their inputs are repo-relative
        shutil.copytree(os.path.join(ROOT, "examples"), os.path.join(tmp, "examples"))
        os.chdir(tmp)
        try:
            with sweep.armed(), contextlib.redirect_stdout(io.StringIO()):
                for argv in runs:
                    if repro_main(argv) != 0:
                        raise SystemExit(f"callsweep: python -m repro {shlex.join(argv)} failed")
                for path in rpc:
                    _run_script(path)
                dap_session()
                for name in sorted(os.listdir(os.path.join(ROOT, "examples"))):
                    if name.endswith(".py"):
                        _run_script(os.path.join(ROOT, "examples", name))
                perfbench_passes(tmp)
        finally:
            os.chdir(cwd)
    print(f"callsweep: {len(runs)} CLI script run(s), {len(rpc)} JSON-RPC "
          f"session(s), the DAP session, the examples and the perfbench passes")


def run_tests(sweep: Sweep) -> int:
    """The tier-1 suite under the profiler, each test's calls owned by
    its test file."""
    import pytest

    class OwnByTestFile:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_protocol(self, item, nextitem):
            sweep.owner(item.nodeid.split("::")[0])
            yield
            sweep.owner("tests: set-up and tear-down")

    cwd = os.getcwd()
    os.chdir(ROOT)
    # as CI runs the suite; the tests that start `python -m repro` need it
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    try:
        with sweep.armed():
            return pytest.main(["-q", "-p", "no:cacheprovider", "tests"],
                               plugins=[OwnByTestFile()])
    finally:
        os.chdir(cwd)


def _run_script(path: str) -> None:
    saved = sys.argv
    sys.argv = [path]
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            raise SystemExit(f"callsweep: {path} exited {exc.code}")
    finally:
        sys.argv = saved


# -- the report -------------------------------------------------------------


def reason_index() -> Dict[str, str]:
    index: Dict[str, str] = {}
    for reason, names in REASONS.items():
        for name in names:
            if name in index:
                raise SystemExit(f"callsweep: {name} has two reasons")
            index[name] = reason
    return index


def cited_tests(reason: str) -> List[str]:
    return re.findall(r"\btests/[\w/.]*\w", reason)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", action="store_true",
                        help="also run tests/ and check the test paths the reasons cite")
    args = parser.parse_args(argv)
    sweep = Sweep()
    run_user_paths(sweep)
    status = 0
    if args.tests:
        status = run_tests(sweep)
        print(f"callsweep: tests/ exited {status}")
    entered = sweep.entered("user paths")
    defs = all_defs()
    unreached = [d for d in defs if (d.path, d.line) not in entered]
    reasons = reason_index()
    tested: Dict[Tuple[str, int], List[str]] = {}
    for owner in sweep.by_owner:
        if owner.startswith("tests/"):
            for key in sweep.entered(owner):
                tested.setdefault(key, []).append(owner)
    unexplained = miscited = 0
    for d in unreached:
        reason = reasons.get(d.name, "")
        unexplained += not reason
        note = ""
        if args.tests and cited_tests(reason):
            owners = tested.get((d.path, d.line), [])
            if not any(o.startswith(c) for c in cited_tests(reason) for o in owners):
                miscited += 1
                note = f" [NO CITED TEST ENTERS IT; entered by: {', '.join(sorted(owners)) or 'none'}]"
        print(f"  {d.path}:{d.line} {d.qualname} ({d.lines} lines)"
              f" -- {reason or 'NO REASON'}{note}")
    names = {d.name for d in defs}
    reached = names - {d.name for d in unreached}
    stale = sorted(n for n in reasons if n not in names)
    for name in stale:
        print(f"  stale reason: {name} is no function under src/repro")
    for name in sorted(n for n in reasons if n in reached):
        print(f"  note: {name} has a reason but a user path entered it")
    print(f"callsweep: {len(defs)} defs under src/repro, {len(unreached)} "
          f"unreached by user paths ({sum(d.lines for d in unreached)} lines), "
          f"{unexplained} without a reason; at most {MAX_UNREACHED} allowed")
    if args.tests:
        untested = [d for d in unreached if (d.path, d.line) not in tested]
        print(f"callsweep: {len(untested)} of them unreached by tests/ too "
              f"({sum(d.lines for d in untested)} lines); {miscited} cite a test that "
              f"does not enter them")
    return int(len(unreached) > MAX_UNREACHED or unexplained > 0 or bool(stale)
               or miscited > 0 or status != 0)


if __name__ == "__main__":
    sys.exit(main())
