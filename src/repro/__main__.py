"""Interactive entry point: ``python -m repro [options]``.

Loads an architecture (a MIND ``.adl`` file with its Filter-C sources, or
one of the built-in demo applications), attaches the dataflow debugger
and drops into the (gdb)-style prompt — or replays a command script.

Examples::

    python -m repro --demo amodule
    python -m repro --demo h264 --bug rate-mismatch
    python -m repro --adl app.adl --src filter.c --src ctl.c \
        --source-values 1,2,3 --script session.gdb
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import build_debug_session
from .errors import ReproError


def _build_demo(name: str, bug: Optional[str]):
    from .serve.builders import build_program_cli

    if name == "h264" and bug is not None:
        from .apps.h264.bugs import BUG_VARIANTS

        variant = BUG_VARIANTS.get(bug)
        if variant is not None:
            print(f"[loaded h264 decoder with injected bug: {variant.symptom}]")
    return build_program_cli(name, bug=bug)


def _build_from_adl(adl_path: str, src_paths: List[str], values: List[int]):
    adl_text = Path(adl_path).read_text()
    sources = {Path(p).name: Path(p).read_text() for p in src_paths}

    def fresh():
        dbg, cli, session, runtime = build_debug_session(adl_text, sources)
        if values:
            # feed the first module input found
            for module in runtime.decl.modules.values():
                inputs = [i for i in module.ifaces.values() if i.direction == "input"]
                if inputs:
                    runtime.add_source("stdin", module.name, inputs[0].name, values)
                    break
            for module in runtime.decl.modules.values():
                outputs = [i for i in module.ifaces.values() if i.direction == "output"]
                if outputs:
                    runtime.add_sink("stdout", module.name, outputs[0].name, expect=None)
                    break
        return cli, session

    cli, session = fresh()
    session.replay.register_builder(lambda: fresh()[1])
    return cli, None


def bind_completion(readline, cli) -> None:
    """Tab completes the line typed so far with ``cli.complete``."""
    matches: List[str] = []

    def complete(text: str, state: int) -> Optional[str]:
        if state == 0:
            matches[:] = cli.complete(readline.get_line_buffer()[: readline.get_endidx()])
        return matches[state] if state < len(matches) else None

    readline.set_completer(complete)
    # words end only at spaces: ``pack::i`` and ``pack.c:7`` are one word
    readline.set_completer_delims(" ")
    readline.parse_and_bind("tab: complete")


def repl(cli) -> None:
    try:
        import readline
    except ImportError:  # a Python built without line editing
        readline = None
    if readline is not None:
        bind_completion(readline, cli)
    print("dataflow debugger — type 'help' for commands, 'quit' to exit")
    while True:
        try:
            line = input("(gdb) ")
        except (EOFError, KeyboardInterrupt):
            print()
            return
        if line.strip() in ("quit", "q", "exit"):
            return
        for out in cli.execute(line):
            print(out)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "serve":
        # the debug-server daemon: many concurrent wire-attached sessions
        from .serve.daemon import serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    parser.add_argument("--demo", choices=["amodule", "rle", "h264"],
                        help="load a built-in demo")
    parser.add_argument("--bug", help="inject a bug variant (h264 demo): "
                                      "rate-mismatch / corrupted-token / dropped-token")
    parser.add_argument("--adl", help="architecture description file")
    parser.add_argument("--src", action="append", default=[],
                        help="Filter-C source file (repeatable)")
    parser.add_argument("--source-values", default="",
                        help="comma-separated integers fed to the first module input")
    parser.add_argument("--script", help="run commands from this file instead of a REPL")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="enable telemetry from the start and write a "
                             "Perfetto-loadable Chrome trace-event JSON on exit")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="enable telemetry from the start and write an "
                             "OpenMetrics/Prometheus text exposition of the "
                             "final metric snapshot on exit")
    parser.add_argument("--profile", action="store_true",
                        help="arm the attributed cycle profiler from the start "
                             "(inspect with `prof top`, export flamegraphs "
                             "with `prof flame FILE`)")
    parser.add_argument("--check", action="append", default=[], metavar="[ACTION:]PROPERTY",
                        help="arm a runtime-verification check once the graph is "
                             "reconstructed (repeatable); ACTION is stop (default), "
                             "log or mark — e.g. --check 'occupancy a::o->b::i <= 4' "
                             "or --check log:deadlock-free")
    args = parser.parse_args(argv)

    try:
        if args.demo:
            cli, _ = _build_demo(args.demo, args.bug)
        elif args.adl:
            values = [int(v, 0) for v in args.source_values.split(",") if v.strip()]
            cli, _ = _build_from_adl(args.adl, args.src, values)
        else:
            parser.error("give --demo or --adl")
            return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace_out or args.metrics_out:
        cli.dataflow_handler.session.telemetry.enable()
    if args.profile:
        cli.dataflow_handler.session.prof.enable()

    for spec in args.check:
        # property compilation needs the reconstructed graph, so the
        # checks facade defers arming to the first post-init stop (the
        # demos stop right after init, before any token moves)
        action, sep, prop_text = spec.partition(":")
        if not sep or action not in ("stop", "log", "mark"):
            action, prop_text = "stop", spec
        try:
            cli.dataflow_handler.session.checks.add_deferred(prop_text.strip(), action)
        except ReproError as exc:
            print(f"error: --check {spec!r}: {exc}", file=sys.stderr)
            return 1

    if args.script:
        lines = Path(args.script).read_text().splitlines()
        for out in cli.execute_script(lines):
            print(out)
    else:
        repl(cli)

    # session may have been rebuilt by a replay adoption mid-script;
    # the handler always points at the live one.  Exit-time exports
    # overwrite their targets (force): the user named them on the
    # command line, so clobbering a stale artifact is the intent.
    if args.trace_out:
        for out in cli.execute(f"trace export {args.trace_out} force"):
            print(out)
    if args.metrics_out:
        for out in cli.execute(f"metrics export {args.metrics_out} force"):
            print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
