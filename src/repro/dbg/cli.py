"""GDB-flavoured command-line interface.

Commands are registered in a table (the dataflow extension adds its own —
``filter``, ``iface``, ``step_both``, … — at load time), support prefix
abbreviations (``c`` → ``continue``) and provide completion candidates,
including entity-name completion supplied by registered completers (the
paper's Contribution #1 makes filter/interface names auto-completable).

``execute(line)`` returns the command's output as a list of strings so the
CLI is equally usable interactively and from scripted debugging sessions
(our examples and benches drive it that way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import CommandError, DebuggerError, ReproError
from .cmdparse import parse_break_args, parse_int_arg
from .debugger import Debugger
from .eval import EvalError
from .stop import StopEvent, StopKind

Handler = Callable[[str], List[str]]
Completer = Callable[[str], List[str]]


@dataclass
class Command:
    name: str
    handler: Handler
    help: str
    aliases: Sequence[str] = ()
    completer: Optional[Completer] = None


class CommandCli:
    def __init__(self, debugger: Debugger):
        self.dbg = debugger
        self.commands: Dict[str, Command] = {}
        # extension-supplied ``info TOPIC`` handlers (topic -> handler(rest))
        self.info_topics: Dict[str, Handler] = {}
        # auto-display expressions: id -> expression text
        self._displays: Dict[int, str] = {}
        self._next_display = 1
        # machine-readable dispatch front-end; attached by the dataflow
        # extension (core.commands) so wire clients and the interactive
        # loop share one execution path
        self.service = None
        self._install_builtin_commands()

    # ------------------------------------------------------------ registry

    def register(self, command: Command) -> None:
        if command.name in self.commands:
            raise DebuggerError(f"command {command.name!r} already registered")
        self.commands[command.name] = command

    def rebind_debugger(self, debugger: Debugger) -> None:
        """Point every command at a different debugger instance — used when
        a replay adopts a rebuilt machine: the CLI (command table, display
        expressions, history of the *session*) survives the swap."""
        self.dbg = debugger

    def resolve(self, name: str) -> Command:
        """Resolve a command name, alias or unambiguous prefix."""
        cmd = self.commands.get(name)
        if cmd is not None:
            return cmd
        for c in self.commands.values():
            if name in c.aliases:
                return c
        prefix_matches = [c for n, c in sorted(self.commands.items()) if n.startswith(name)]
        if len(prefix_matches) == 1:
            return prefix_matches[0]
        if prefix_matches:
            names = ", ".join(c.name for c in prefix_matches)
            raise CommandError(f"ambiguous command {name!r}: {names}")
        raise CommandError(f'undefined command: "{name}". Try "help".')

    # ------------------------------------------------------------- execute

    def execute(self, line: str) -> List[str]:
        if self.service is not None:
            return self.service.execute(line).lines
        line = line.strip()
        if not line or line.startswith("#"):
            return []
        name, _, rest = line.partition(" ")
        try:
            cmd = self.resolve(name)
            return cmd.handler(rest.strip())
        except ReproError as exc:
            # any library-level failure is reported GDB-style instead of
            # unwinding the debugging session
            return [f"error: {exc}"]

    def execute_script(self, lines: Sequence[str]) -> List[str]:
        """Run several commands; outputs are concatenated with the command
        echoed GDB-transcript style."""
        out: List[str] = []
        for line in lines:
            out.append(f"(gdb) {line}")
            out.extend(self.execute(line))
        return out

    # ----------------------------------------------------------- completion

    def complete(self, text: str) -> List[str]:
        """Completion candidates for a partial input line."""
        if " " not in text:
            names = sorted(self.commands)
            return [n for n in names if n.startswith(text)]
        name, _, rest = text.partition(" ")
        try:
            cmd = self.resolve(name.strip())
        except CommandError:
            return []
        if cmd.completer is None:
            return []
        return sorted(cmd.completer(rest.lstrip()))

    # ----------------------------------------------------------- rendering

    def render_stop(self, ev: StopEvent) -> List[str]:
        lines = ev.describe()
        if ev.kind in (StopKind.BREAKPOINT, StopKind.STEP) and ev.filename and ev.line:
            src = self.dbg.debug_info.source_line(ev.filename, ev.line)
            if src is not None:
                lines.append(f"{ev.line}\t{src}")
        if self._displays and ev.kind not in (StopKind.EXITED,):
            for num, expr in sorted(self._displays.items()):
                try:
                    ctype, raw = self.dbg.eval_expr(expr)
                    from .eval import format_typed

                    lines.append(f"{num}: {expr} = {format_typed(ctype, raw)}")
                except (DebuggerError, EvalError) as exc:
                    lines.append(f"{num}: {expr} = <error: {exc}>")
        # the flight recorder never prints from library code; any pending
        # auto-dump notice is surfaced with the stop banner instead
        handler = getattr(self, "dataflow_handler", None)
        if handler is not None:
            flight = getattr(handler.session, "flight", None)
            if flight is not None:
                notice = flight.take_notice()
                if notice:
                    lines.append(notice)
        return lines

    # ------------------------------------------------------------- builtins

    def _install_builtin_commands(self) -> None:
        reg = self.register
        reg(Command("run", self._cmd_run, "run — start the program under debug", aliases=("r",)))
        reg(Command("continue", self._cmd_continue, "continue — resume execution", aliases=("c",)))
        reg(Command("step", self._cmd_step, "step — step one source line, entering calls", aliases=("s",)))
        reg(Command("next", self._cmd_next, "next — step one source line, over calls", aliases=("n",)))
        reg(Command("stepi", self._cmd_stepi,
                    "stepi — execute one statement (one ISA instruction on the bytecode tier)",
                    aliases=("si",)))
        reg(Command("finish", self._cmd_finish, "finish — run until the selected frame returns"))
        reg(Command("until", self._cmd_until,
                    "until LINE|FILE:LINE — run until the selected actor reaches a location"))
        reg(Command("display", self._cmd_display,
                    "display [EXPR] — auto-print EXPR at every stop; bare form lists",
                    completer=self._complete_variable))
        reg(Command("undisplay", self._cmd_undisplay, "undisplay N — remove auto-display N"))
        reg(Command("break", self._cmd_break, "break LOCATION [if COND] — set a breakpoint",
                    aliases=("b",), completer=self._complete_location))
        reg(Command("tbreak", self._cmd_tbreak, "tbreak LOCATION — set a temporary breakpoint",
                    completer=self._complete_location))
        reg(Command("watch", self._cmd_watch, "watch EXPR — stop when EXPR changes (selected actor)"))
        reg(Command("breaki", self._cmd_breaki,
                    "breaki FUNC+PC — set an ISA breakpoint (bytecode tier)",
                    aliases=("bi",), completer=self._complete_location))
        reg(Command("rwatch", self._cmd_rwatch,
                    "rwatch FUNC rN — stop when VM register rN of FUNC changes",
                    completer=self._complete_location))
        reg(Command("disas", self._cmd_disas,
                    "disas [FUNC] — disassemble bytecode (current frame by default)",
                    aliases=("disassemble",), completer=self._complete_location))
        reg(Command("delete", self._cmd_delete, "delete N — delete breakpoint N", aliases=("d",)))
        reg(Command("enable", self._cmd_enable, "enable N — enable breakpoint N"))
        reg(Command("disable", self._cmd_disable, "disable N — disable breakpoint N"))
        reg(Command("ignore", self._cmd_ignore, "ignore N COUNT — skip next COUNT hits of N"))
        reg(Command("condition", self._cmd_condition, "condition N [EXPR] — set/clear condition"))
        reg(Command("print", self._cmd_print, "print EXPR — evaluate in the selected frame",
                    aliases=("p",), completer=self._complete_variable))
        reg(Command("backtrace", self._cmd_backtrace, "backtrace — frames of the selected actor",
                    aliases=("bt", "where")))
        reg(Command("frame", self._cmd_frame, "frame N — select frame N", aliases=("f",)))
        reg(Command("up", self._cmd_up, "up — select the caller frame"))
        reg(Command("down", self._cmd_down, "down — select the callee frame"))
        reg(Command("list", self._cmd_list, "list [LINE] — show source around the stop", aliases=("l",)))
        reg(Command("info", self._cmd_info,
                    "info breakpoints|actors|threads|locals|args|functions [SUBSTR]|platform|registers",
                    completer=self._complete_info))
        reg(Command("actor", self._cmd_actor, "actor NAME — select an actor (thread)",
                    aliases=("thread",), completer=self._complete_actor))
        reg(Command("freeze", self._cmd_freeze,
                    "freeze NAME — withhold an actor from execution",
                    completer=self._complete_actor))
        reg(Command("thaw", self._cmd_thaw, "thaw NAME — release a frozen actor",
                    completer=self._complete_actor))
        reg(Command("help", self._cmd_help, "help [COMMAND] — list commands"))

    # -- control ------------------------------------------------------------

    def _cmd_run(self, arg: str) -> List[str]:
        ev = self.dbg.run()
        return self.render_stop(ev)

    def _cmd_continue(self, arg: str) -> List[str]:
        ev = self.dbg.cont()
        return self.render_stop(ev)

    def _cmd_step(self, arg: str) -> List[str]:
        return self.render_stop(self.dbg.step())

    def _cmd_next(self, arg: str) -> List[str]:
        return self.render_stop(self.dbg.next_())

    def _cmd_stepi(self, arg: str) -> List[str]:
        return self.render_stop(self.dbg.stepi())

    def _cmd_finish(self, arg: str) -> List[str]:
        return self.render_stop(self.dbg.finish())

    # -- breakpoints ----------------------------------------------------------

    def _parse_break_args(self, arg: str):
        return parse_break_args(arg, "break")

    def _cmd_break(self, arg: str) -> List[str]:
        if not arg:
            raise CommandError("break: missing location (file:line, line, or symbol)")
        loc, condition = self._parse_break_args(arg)
        bp = self.dbg.break_source(loc, condition=condition)
        return [f"Breakpoint {bp.id} at {bp.what()}"]

    def _cmd_tbreak(self, arg: str) -> List[str]:
        if not arg:
            raise CommandError("tbreak: missing location")
        loc, condition = self._parse_break_args(arg)
        bp = self.dbg.break_source(loc, condition=condition, temporary=True)
        return [f"Temporary breakpoint {bp.id} at {bp.what()}"]

    def _cmd_watch(self, arg: str) -> List[str]:
        if not arg:
            raise CommandError("watch: missing expression")
        wp = self.dbg.watch(arg)
        return [f"Watchpoint {wp.id}: {wp.what()}"]

    def _cmd_breaki(self, arg: str) -> List[str]:
        if not arg:
            raise CommandError("breaki: missing location (FUNC+PC)")
        bp = self.dbg.break_isa(arg)
        return [f"ISA breakpoint {bp.id} at {bp.what()}"]

    def _cmd_rwatch(self, arg: str) -> List[str]:
        parts = arg.split()
        if len(parts) != 2 or not parts[1].lstrip("r").isdigit():
            raise CommandError("usage: rwatch FUNC rN")
        reg = int(parts[1].lstrip("r"))
        wp = self.dbg.watch_register(parts[0], reg)
        return [f"Register watchpoint {wp.id}: {wp.what()}"]

    def _cmd_disas(self, arg: str) -> List[str]:
        text = self.dbg.disas_text(arg.strip() or None)
        return text.rstrip("\n").split("\n")

    def _int_arg(self, arg: str, what: str) -> int:
        return parse_int_arg(arg, what)

    def _cmd_delete(self, arg: str) -> List[str]:
        self.dbg.delete(self._int_arg(arg, "delete"))
        return []

    def _cmd_enable(self, arg: str) -> List[str]:
        self.dbg.breakpoints.get(self._int_arg(arg, "enable")).enabled = True
        return []

    def _cmd_disable(self, arg: str) -> List[str]:
        self.dbg.breakpoints.get(self._int_arg(arg, "disable")).enabled = False
        return []

    def _cmd_ignore(self, arg: str) -> List[str]:
        parts = arg.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise CommandError("usage: ignore N COUNT")
        bp = self.dbg.breakpoints.get(int(parts[0]))
        bp.ignore_count = int(parts[1])
        return [f"Will ignore next {bp.ignore_count} crossings of breakpoint {bp.id}."]

    def _cmd_condition(self, arg: str) -> List[str]:
        num, _, expr = arg.partition(" ")
        bp = self.dbg.breakpoints.get(self._int_arg(num, "condition"))
        bp.condition = expr.strip() or None
        return []

    # -- inspection -----------------------------------------------------------

    def _cmd_print(self, arg: str) -> List[str]:
        if not arg:
            raise CommandError("print: missing expression")
        return [self.dbg.print_expr(arg)]

    def _cmd_backtrace(self, arg: str) -> List[str]:
        frames = self.dbg.backtrace()
        if not frames:
            return ["No stack."]
        out = []
        for i, f in enumerate(frames):
            marker = "*" if i == self.dbg.selected_frame_index else " "
            out.append(f"{marker}#{i}  {f.name} () at {f.filename}:{f.line}")
        return out

    def _cmd_frame(self, arg: str) -> List[str]:
        index = self._int_arg(arg, "frame") if arg else self.dbg.selected_frame_index
        f = self.dbg.select_frame(index)
        return [f"#{index}  {f.name} () at {f.filename}:{f.line}"]

    def _cmd_up(self, arg: str) -> List[str]:
        return self._cmd_frame(str(self.dbg.selected_frame_index + 1))

    def _cmd_down(self, arg: str) -> List[str]:
        if self.dbg.selected_frame_index == 0:
            raise CommandError("already at the innermost frame")
        return self._cmd_frame(str(self.dbg.selected_frame_index - 1))

    def _cmd_list(self, arg: str) -> List[str]:
        center = int(arg) if arg.strip().isdigit() else None
        return self.dbg.list_source(center)

    def _cmd_actor(self, arg: str) -> List[str]:
        if not arg:
            if self.dbg.selected_actor is None:
                return ["No actor selected."]
            return [f"Current actor: {self.dbg.selected_actor.qualname}"]
        actor = self.dbg.select_actor(arg)
        line = actor.current_line()
        loc = f" at line {line}" if line is not None else ""
        return [f"[Switching to actor {actor.qualname}{loc}]"]

    def _cmd_until(self, arg: str) -> List[str]:
        if not arg:
            raise CommandError("until: missing location")
        actor = self.dbg.selected_actor
        self.dbg.break_source(
            arg, temporary=True, actor=actor.qualname if actor else None
        )
        return self._cmd_continue("")

    def _cmd_display(self, arg: str) -> List[str]:
        if not arg:
            if not self._displays:
                return ["No auto-display expressions."]
            return [f"{n}: {e}" for n, e in sorted(self._displays.items())]
        num = self._next_display
        self._next_display += 1
        self._displays[num] = arg
        try:
            ctype, raw = self.dbg.eval_expr(arg)
            from .eval import format_typed

            return [f"{num}: {arg} = {format_typed(ctype, raw)}"]
        except (DebuggerError, EvalError):
            return [f"{num}: {arg} = <not yet available>"]

    def _cmd_undisplay(self, arg: str) -> List[str]:
        num = self._int_arg(arg, "undisplay")
        if num not in self._displays:
            raise CommandError(f"no auto-display {num}")
        del self._displays[num]
        return []

    def _cmd_freeze(self, arg: str) -> List[str]:
        if not arg:
            raise CommandError("freeze: missing actor name")
        actor = self.dbg.freeze_actor(arg)
        return [f"Actor {actor.qualname} frozen (will not run until thawed)"]

    def _cmd_thaw(self, arg: str) -> List[str]:
        if not arg:
            raise CommandError("thaw: missing actor name")
        actor = self.dbg.thaw_actor(arg)
        return [f"Actor {actor.qualname} thawed"]

    # -- info -----------------------------------------------------------------

    def _cmd_info(self, arg: str) -> List[str]:
        topic, _, rest = arg.partition(" ")
        if topic in ("breakpoints", "break", "b"):
            bps = self.dbg.breakpoints.visible()
            if not bps:
                return ["No breakpoints or watchpoints."]
            out = ["Num\tType\tEnb\tWhat"]
            out.extend(str(bp) for bp in bps)
            return out
        if topic in ("actors", "threads"):
            out = []
            for a in self.dbg.actors():
                marker = "*" if a is self.dbg.selected_actor else " "
                line = a.current_line()
                loc = f" line {line}" if line is not None else ""
                state = getattr(a, "state", None)
                state_text = f" [{state.value}]" if state is not None else ""
                blocked = " (blocked)" if a.blocked else ""
                out.append(f"{marker} {a.qualname} ({a.kind}) on {a.resource.name}{state_text}{loc}{blocked}")
            return out
        if topic == "locals":
            frame = self.dbg.current_frame()
            if frame is None:
                return ["No frame selected."]
            out = []
            from .eval import format_typed

            for name, slot in sorted(frame.variables().items()):
                out.append(f"{name} = {format_typed(slot.ctype, slot.data)}")
            return out or ["No locals."]
        if topic == "args":
            frame = self.dbg.current_frame()
            if frame is None:
                return ["No frame selected."]
            from .eval import format_typed

            out = []
            for p in frame.func.params:
                slot = frame.lookup(p.name)
                if slot is not None:
                    out.append(f"{p.name} = {format_typed(slot.ctype, slot.data)}")
            return out or ["No arguments."]
        if topic == "platform":
            platform = getattr(self.dbg.runtime, "platform", None)
            if platform is None:
                return ["No platform model available."]
            report = platform.topology_report()
            out = [f"host: {report['host']['name']}"]
            for c in report["clusters"]:
                accels = f" + accels {', '.join(c['accelerators'])}" if c["accelerators"] else ""
                out.append(f"{c['name']}: {c['pes']} PEs, L1 {c['l1']['size_kib']}KiB{accels}")
            out.append(f"L2 {report['l2']['size_kib']}KiB  L3 {report['l3']['size_kib']}KiB  "
                       f"DMA x{len(report['dma'])}")
            out.append("memory traffic (reads/writes):")
            for name, t in platform.memory_traffic_report().items():
                out.append(f"  {name}: {t['reads']}/{t['writes']}")
            out.append("occupied resources:")
            for pe in platform.all_pes:
                if pe.occupant is not None:
                    out.append(f"  {pe.name}: {getattr(pe.occupant, 'qualname', pe.occupant)}")
            for cluster in platform.clusters:
                for acc in cluster.accelerators:
                    if acc.occupant is not None:
                        out.append(f"  {acc.name}: {getattr(acc.occupant, 'qualname', acc.occupant)}")
            return out
        if topic == "registers":
            rows = self.dbg.register_rows()
            out = []
            for i, name, v in rows:
                label = f"r{i}" + (f" ({name})" if name else "")
                out.append(f"{label:<20} {v!r}")
            return out or ["No registers."]
        if topic == "functions":
            matches = self.dbg.debug_info.match_functions(rest.strip())
            return [str(f) for f in matches] or ["No matching functions."]
        handler = self.info_topics.get(topic)
        if handler is not None:
            return handler(rest.strip())
        raise CommandError(f"info: unknown topic {topic!r}")

    def _cmd_help(self, arg: str) -> List[str]:
        if arg:
            cmd = self.resolve(arg)
            return [cmd.help]
        return [c.help for _, c in sorted(self.commands.items())]

    # -- completers -------------------------------------------------------------

    def _complete_info(self, text: str) -> List[str]:
        topics = ["breakpoints", "actors", "threads", "locals", "args",
                  "functions", "platform", "registers"] + sorted(self.info_topics)
        return [s for s in topics if s.startswith(text)]

    def _complete_actor(self, text: str) -> List[str]:
        names = []
        for a in self.dbg.actors():
            names.append(a.name)
            names.append(a.qualname)
        return [n for n in sorted(set(names)) if n.startswith(text)]

    def _complete_location(self, text: str) -> List[str]:
        names = list(self.dbg.debug_info.functions)
        names.extend(self.dbg.debug_info.line_table.files())
        return [n for n in sorted(names) if n.startswith(text)]

    def _complete_variable(self, text: str) -> List[str]:
        frame = self.dbg.current_frame()
        if frame is None:
            return []
        return [n for n in sorted(frame.variables()) if n.startswith(text)]
