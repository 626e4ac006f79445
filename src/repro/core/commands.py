"""The dataflow command set, as typed in the paper's transcripts.

::

    (gdb) filter pipe catch work
    (gdb) filter ipred catch Pipe_in=1, Hwcfg_in=1
    (gdb) filter ipred catch *in=1
    (gdb) filter red configure splitter
    (gdb) filter pipe info last_token
    (gdb) filter print last_token
    (gdb) iface hwcfg::pipe_MbType_out record
    (gdb) iface hwcfg::pipe_MbType_out print
    (gdb) step_both
    (gdb) dataflow graph [FILE]
    (gdb) sched status / sched catch step-begin|step-end|start <filter>

Filter and interface names are auto-completable (Contribution #1).
"""

from __future__ import annotations

import re
from typing import List, Optional

from ..dbg.cli import Command, CommandCli
from ..dbg.cmdparse import (
    parse_export_target as _parse_export_target,
    parse_keyword_options,
    parse_listing_options as _parse_listing_options,
)
from ..errors import CommandError, DataflowDebugError
from .session import BEHAVIORS, DataflowSession


def install_dataflow_commands(cli: CommandCli, session: DataflowSession) -> None:
    handler = _Commands(cli, session)
    # remembered so a time-travel hop can hand the handler to the landed
    # session (see DataflowSession.hand_over)
    cli.dataflow_handler = handler
    # structured dispatch front-end: the interactive loop, scripted tests
    # and the serve daemon all execute through this one service
    from .service import CommandService

    cli.service = CommandService(cli)
    cli.register(Command(
        "filter", handler.cmd_filter,
        "filter NAME catch work|IF=N,...|*in=N|IFACE [if COND] "
        "| configure BEHAVIOUR | info last_token|state | print last_token",
        completer=handler.complete_names,
    ))
    cli.register(Command(
        "iface", handler.cmd_iface,
        "iface ACTOR::IF record [N]|print|catch [if COND]|insert VALUE [at N]"
        "|drop [N]|poke N VALUE|info",
        completer=handler.complete_names,
    ))
    cli.register(Command(
        "step_both", handler.cmd_step_both,
        "step_both [IFACE] — break at both ends of the dataflow assignment",
        completer=handler.complete_names,
    ))
    cli.register(Command(
        "dataflow", handler.cmd_dataflow,
        "dataflow graph [FILE]|links|tokens|capture MODE|events [on|off|N]"
        "|update realtime|on-stop|info",
        aliases=("df",),
        completer=lambda t: [s for s in ("graph", "links", "tokens", "capture", "events",
                                         "update", "info") if s.startswith(t)],
    ))
    cli.register(Command(
        "sched", handler.cmd_sched,
        "sched status [MODULE] | sched catch step-begin|step-end [CTL] | "
        "sched catch start [FILTER] | sched pred [MODULE NAME true|false]",
        completer=handler.complete_names,
    ))
    cli.register(Command(
        "record", handler.cmd_record,
        "record on [every N] [segments DIR] [window N] [snapshot M] "
        "| record off — journal the execution for deterministic replay "
        "(must precede run); segments rotate the log to disk, snapshot M "
        "takes a deep state snapshot every M checkpoints",
        completer=lambda t: [s for s in ("on", "off") if s.startswith(t)],
    ))
    cli.register(Command(
        "replay", handler.cmd_replay,
        "replay to seq N|time T|event K|end — start from the highest "
        "machine at or below the target (a resident snapshot, the current "
        "machine or a rebuild) and re-execute only the tail (time travel); "
        "replay snapshots N|off sizes the resident pool",
        completer=lambda t: [s for s in ("to", "snapshots") if s.startswith(t)],
    ))
    cli.register(Command(
        "reverse-continue", handler.cmd_reverse_continue,
        "reverse-continue — replay to the previous recorded dataflow stop",
        aliases=("rc",),
    ))
    cli.register(Command(
        "trace", handler.cmd_trace,
        "trace on [limit N] [ring] | off | clear | status | export FILE — "
        "continuous span telemetry with Perfetto/Chrome trace-event export",
        completer=lambda t: [s for s in ("on", "off", "clear", "status", "export")
                             if s.startswith(t)],
    ))
    cli.register(Command(
        "metrics", handler.cmd_metrics,
        "metrics export FILE [force] | show — OpenMetrics/Prometheus text "
        "exposition of the telemetry metrics registry",
        completer=lambda t: [s for s in ("export", "show") if s.startswith(t)],
    ))
    cli.register(Command(
        "prof", handler.cmd_prof,
        "prof on | off | clear | status | top N | export FILE [force] | "
        "flame FILE [force] — attributed profiler: flushed interpreter "
        "cycles charged to (actor, call path), collapsed-stack and "
        "flamegraph export; arms no hook",
        completer=lambda t: [s for s in ("on", "off", "clear", "status", "top",
                                         "export", "flame") if s.startswith(t)],
    ))
    cli.register(Command(
        "flight", handler.cmd_flight,
        "flight status | dump [FILE] [force] | auto on|off — always-on "
        "bounded flight recorder; auto-dumps a post-mortem bundle on "
        "violation/error/deadlock stops",
        completer=lambda t: [s for s in ("status", "dump", "auto") if s.startswith(t)],
    ))
    cli.register(Command(
        "check", handler.cmd_check,
        "check add [stop|log|mark] PROPERTY | remove ID | enable ID | "
        "disable ID | list | derive — runtime-verification checks "
        "(occupancy LINK <=|>= N, rate OUT == K * IN [tol T], "
        "order IF before IF, progress ACTOR every N, deadlock-free)",
        completer=handler.complete_check,
    ))
    cli.info_topics["replay"] = handler.cmd_info_replay
    cli.info_topics["shards"] = handler.cmd_info_shards
    cli.info_topics["metrics"] = handler.cmd_info_metrics
    cli.info_topics["spans"] = handler.cmd_info_spans
    cli.info_topics["trace"] = handler.cmd_info_trace
    cli.info_topics["opcodes"] = handler.cmd_info_opcodes
    cli.info_topics["profile"] = handler.cmd_info_profile
    cli.info_topics["flight"] = handler.cmd_info_flight
    cli.info_topics["aggregate"] = handler.cmd_info_aggregate
    cli.info_topics["checks"] = handler.cmd_info_checks
    cli.info_topics["verdict"] = handler.cmd_info_verdict


class _Commands:
    def __init__(self, cli: CommandCli, session: DataflowSession):
        self.cli = cli
        self.session = session

    # ------------------------------------------------------------ completion

    def complete_names(self, text: str) -> List[str]:
        last = text.split()[-1] if text.split() else ""
        return [n for n in self.session.completion_names() if n.startswith(last)]

    # ---------------------------------------------------------------- filter

    def cmd_filter(self, arg: str) -> List[str]:
        parts = arg.split(None, 1)
        if not parts:
            raise CommandError("usage: filter NAME VERB ... (or: filter print last_token)")
        if parts[0] == "print":
            return self._filter_print(None, parts[1] if len(parts) > 1 else "")
        name = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        verb, _, vrest = rest.partition(" ")
        if verb == "catch":
            return self._filter_catch(name, vrest.strip())
        if verb == "configure":
            return self._filter_configure(name, vrest.strip())
        if verb == "info":
            return self._filter_info(name, vrest.strip())
        if verb == "print":
            return self._filter_print(name, vrest.strip())
        if verb == "record":
            what = vrest.strip()
            if what == "state":
                actor = self.session.record_state(name, True)
                return [f"Recording data/attribute state into tokens pushed by `{actor.name}'"]
            if what == "nostate":
                actor = self.session.record_state(name, False)
                return [f"State recording disabled for `{actor.name}'"]
            raise CommandError("usage: filter NAME record state|nostate")
        raise CommandError(f"filter: unknown verb {verb!r} (catch/configure/info/print/record)")

    def _filter_catch(self, name: str, spec: str) -> List[str]:
        if not spec:
            raise CommandError("filter catch: missing specification")
        condition = None
        if " if " in spec:
            spec, _, condition = spec.partition(" if ")
            condition = condition.strip()
            spec = spec.strip()
        if spec == "work":
            cp = self.session.catch_work(name)
            return [f"Catchpoint {cp.id}: {cp.what()}"]
        if "=" in spec:
            requirements = {}
            for part in spec.split(","):
                iface, _, count_text = part.strip().partition("=")
                if not count_text.strip().isdigit():
                    raise CommandError(f"filter catch: bad count in {part.strip()!r}")
                requirements[iface.strip()] = int(count_text)
            cp = self.session.catch_tokens(name, requirements)
            return [f"Catchpoint {cp.id}: {cp.what()}"]
        # bare interface name: stop on each token through it
        actor = self.session.model.find_actor(name)
        conn = actor.connection(spec)
        cp = self.session.catch_iface(conn.qualname, condition=condition)
        return [f"Catchpoint {cp.id}: {cp.what()}"]

    def _filter_configure(self, name: str, behavior: str) -> List[str]:
        if behavior not in BEHAVIORS:
            raise CommandError(
                f"filter configure: unknown behaviour {behavior!r} "
                f"(choose from {', '.join(BEHAVIORS)})"
            )
        actor = self.session.configure_behavior(name, behavior)
        return [f"Filter {actor.name} communication behaviour set to `{behavior}'"]

    def _filter_info(self, name: str, what: str) -> List[str]:
        if what == "last_token":
            return self.session.token_path(name)
        if what in ("state", ""):
            return self.session.filter_state(name)
        raise CommandError(f"filter info: unknown topic {what!r} (last_token/state)")

    def _filter_print(self, name: Optional[str], what: str) -> List[str]:
        if what != "last_token":
            raise CommandError("usage: filter [NAME] print last_token")
        return [self.session.last_token_value(name)]

    # ----------------------------------------------------------------- iface

    def cmd_iface(self, arg: str) -> List[str]:
        parts = arg.split(None, 1)
        if not parts or "::" not in parts[0]:
            raise CommandError("usage: iface ACTOR::IFACE VERB ...")
        spec = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        verb, _, vrest = rest.partition(" ")
        vrest = vrest.strip()
        if verb == "record":
            capacity = int(vrest) if vrest.isdigit() else None
            conn = self.session.model.find_connection(spec)
            self.session.records.enable(conn.qualname, capacity)
            return [f"Recording tokens on `{conn.qualname}'"]
        if verb == "print":
            conn = self.session.model.find_connection(spec)
            return self.session.records.get(conn.qualname).format_lines() or ["(no tokens recorded)"]
        if verb == "catch":
            if vrest.strip() == "full":
                cp = self.session.catch_link_full(spec)
                return [f"Catchpoint {cp.id}: {cp.what()}"]
            condition = None
            src_actor = dst_actor = None
            words = vrest.split()
            i = 0
            while i < len(words):
                if words[i] == "from" and i + 1 < len(words):
                    src_actor = words[i + 1]
                    i += 2
                elif words[i] == "to" and i + 1 < len(words):
                    dst_actor = words[i + 1]
                    i += 2
                elif words[i] == "if":
                    condition = " ".join(words[i + 1:]).strip() or None
                    break
                else:
                    raise CommandError(
                        "usage: iface SPEC catch [from ACTOR] [to ACTOR] [if COND]"
                    )
            cp = self.session.catch_iface(
                spec, condition=condition, src_actor=src_actor, dst_actor=dst_actor
            )
            return [f"Catchpoint {cp.id}: {cp.what()}"]
        if verb == "insert":
            index = None
            m = re.search(r"\s+at\s+(\d+)$", vrest)
            if m:
                index = int(m.group(1))
                vrest = vrest[: m.start()]
            token = self.session.alter.insert(spec, vrest.strip(), index)
            return [f"Token inserted on `{spec}' (seq {token.seq})"]
        if verb == "drop":
            index = int(vrest) if vrest.isdigit() else 0
            token = self.session.alter.drop(spec, index)
            return [f"Token #{index} removed from `{spec}'"]
        if verb == "poke":
            idx_text, _, value_text = vrest.partition(" ")
            if not idx_text.isdigit() or not value_text.strip():
                raise CommandError("usage: iface SPEC poke INDEX VALUE")
            self.session.alter.poke(spec, int(idx_text), value_text.strip())
            return [f"Token #{idx_text} on `{spec}' modified"]
        if verb in ("info", ""):
            conn = self.session.model.find_connection(spec)
            lines = [f"{conn.qualname}: {conn.direction} ({conn.ctype_name})"]
            if conn.link is not None:
                link = conn.link
                lines.append(
                    f"  link {link.name}: {link.occupancy} queued, "
                    f"pushed {link.total_pushed}, popped {link.total_popped}"
                )
                for i, token in enumerate(link.in_flight):
                    lines.append(f"  [{i}] {token}")
            else:
                lines.append("  (unbound)")
            return lines
        raise CommandError(f"iface: unknown verb {verb!r}")

    # ------------------------------------------------------------- step_both

    def cmd_step_both(self, arg: str) -> List[str]:
        out = self.session.step_both(arg.strip() or None)
        ev = self.session.dbg.cont()
        out.append("...")
        out.extend(self.cli.render_stop(ev))
        return out

    # -------------------------------------------------------------- dataflow

    def cmd_dataflow(self, arg: str) -> List[str]:
        topic, _, rest = arg.partition(" ")
        rest = rest.strip()
        if topic == "graph":
            dot = self.session.graph_dot()
            if rest:
                with open(rest, "w") as fh:
                    fh.write(dot)
                return [f"Dataflow graph written to {rest}"]
            return dot.splitlines()
        if topic == "links":
            return self.session.links_report()
        model = self.session.model
        in_flight = sorted((t for link in model.links for t in link.in_flight), key=lambda t: t.seq)
        if topic == "tokens":
            return [str(t) for t in in_flight] or ["(no tokens in flight)"]
        if topic == "token":
            if not rest.isdigit():
                raise CommandError("usage: dataflow token SEQ")
            lasts = [t for a in model.actors.values() for t in (a.last_token_in, a.last_token_out)]
            token = next((t for t in in_flight + lasts if t is not None and t.seq == int(rest)), None)
            if token is None:
                master = self.session.replay.master  # what `replay to seq` resolves against
                if master is not None and master.index_for_seq(int(rest)) is not None:
                    raise CommandError(f"token {rest} is not retained; `replay to seq {rest}` shows it")
                raise CommandError(f"token {rest} is not retained (in-flight and last tokens "
                                   "only; `record on` keeps the history)")
            lines = [str(token)]
            lines.append(f"  path: {token.src_iface} -> {token.dst_iface}")
            lines.append(f"  pushed at t={token.pushed_at}")
            if token.popped_at is not None:
                lines.append(f"  consumed by {token.consumed_by} at t={token.popped_at}")
            else:
                lines.append("  still in flight")
            if token.injected:
                lines.append("  (injected by the debugger)")
            for i, parent in enumerate(token.parents):
                lines.append(f"  parent[{i}]: {parent}")
            return lines
        if topic == "demangle":
            if not rest:
                raise CommandError("usage: dataflow demangle SYMBOL")
            return [self.session.demangle(rest)]
        if topic == "events":
            if rest == "on":
                self.session.enable_event_journal()
                return ["event journal enabled"]
            if rest == "off":
                self.session.disable_event_journal()
                return ["event journal disabled"]
            if rest and not rest.isdigit():
                raise CommandError("usage: dataflow events [on|off|N]")
            count = int(rest) if rest else 20
            return self.session.journal_tail(count) or ["(journal empty)"]
        if topic == "capture":
            if not rest:
                return [f"data capture mode: {self.session.capture.data_mode}"]
            mode = rest if rest in ("all", "none", "control-only") else [
                part.strip() for part in rest.split(",")
            ]
            self.session.set_data_capture(mode)
            return [f"data capture mode set to {mode}"]
        if topic == "update":
            self.session.set_graph_update(rest)
            return [f"graph update mode set to {rest}"]
        if topic in ("info", ""):
            return [
                f"program: {model.program_name or '<not initialized>'}",
                f"modules: {', '.join(model.modules) or '-'}",
                f"actors: {len(model.actors)}  links: {len(model.links)}",
                f"tokens in flight: {len(in_flight)}",
                f"framework events processed: {self.session.capture.events_processed}",
                f"data capture mode: {self.session.capture.data_mode}",
            ]
        raise CommandError(f"dataflow: unknown topic {topic!r}")

    # --------------------------------------------------------- record/replay

    def cmd_record(self, arg: str) -> List[str]:
        mgr = self.session.replay
        verb, _, rest = arg.strip().partition(" ")
        if verb == "on":
            opts = parse_keyword_options(
                rest,
                "record on [every N] [segments DIR] [window N] [snapshot M]",
                int_keys=("every", "window", "snapshot"),
                str_keys=("segments",),
            )
            return mgr.record_on(
                interval=opts.get("every"),
                segment_dir=opts.get("segments"),
                window=opts.get("window"),
                snapshot_every=opts.get("snapshot"),
            )
        if verb == "off":
            return mgr.record_off()
        if verb == "":
            return mgr.info()
        raise CommandError(f"record: unknown verb {verb!r} (on/off)")

    def cmd_replay(self, arg: str) -> List[str]:
        verb, _, rest = arg.strip().partition(" ")
        if verb == "snapshots":
            rest = rest.strip()
            if rest == "off":
                return self.session.replay.set_pool_limit(0)
            if rest.isdigit():
                return self.session.replay.set_pool_limit(int(rest))
            raise CommandError("usage: replay snapshots N|off")
        if verb != "to":
            raise CommandError("usage: replay to seq N|time T|event K|end | replay snapshots N|off")
        ev = self.session.replay.replay_to(rest)
        # the hop may have handed self.session over to another machine
        return self.cli.render_stop(ev)

    def cmd_reverse_continue(self, arg: str) -> List[str]:
        if arg.strip():
            raise CommandError("reverse-continue takes no argument")
        ev = self.session.replay.reverse_continue()
        return self.cli.render_stop(ev)

    def cmd_info_replay(self, arg: str) -> List[str]:
        return self.session.replay.info()

    def cmd_info_shards(self, arg: str) -> List[str]:
        """``info shards`` — per-shard actor counts, clocks, dispatch
        counts and cross-shard channel horizons."""
        sharding = getattr(self.session, "sharding", None)
        if sharding is None:
            return ["(execution is not sharded)"]
        return sharding.info_lines()

    # ------------------------------------------------------------- telemetry

    def cmd_trace(self, arg: str) -> List[str]:
        tel = self.session.telemetry
        verb, _, rest = arg.strip().partition(" ")
        rest = rest.strip()
        if verb == "on":
            opts = parse_keyword_options(
                rest, "trace on [limit N] [ring]",
                int_keys=("limit",), flags=("ring",),
            )
            # a bare `trace on` resumes the existing sink with its bound
            bound = (opts.get("limit"), bool(opts.get("ring"))) if opts else tel.bound
            tel.enable(*bound)
            return ["telemetry enabled (spans + metrics collecting)"]
        if verb == "off":
            tel.disable()
            return ["telemetry disabled (collected data retained)"]
        if verb == "clear":
            was_on, bound = tel.enabled, tel.bound
            tel.disable()
            tel.clear()
            if was_on:
                tel.enable(*bound)
            return ["telemetry data cleared"]
        if verb in ("status", ""):
            return tel.status_lines()
        if verb == "export":
            target, force = _parse_export_target(rest, "trace export FILE [force]")
            name = self.session.model.program_name or "repro"
            count, nbytes = tel.export_file(target, process_name=name, force=force)
            return [
                f"wrote {count} span(s), {nbytes} byte(s) to {target} "
                "(Chrome trace-event JSON)"
            ]
        raise CommandError(f"trace: unknown verb {verb!r} (on/off/clear/status/export)")

    def cmd_info_metrics(self, arg: str) -> List[str]:
        """``info metrics [N|all] [sort name|busy|traffic]`` — capped so
        large synthetic graphs don't flood the CLI."""
        tel = self.session.telemetry
        if tel.metrics is None:
            return ["no telemetry collected (use `trace on`)"]
        limit, sort = _parse_listing_options(
            arg, ("name", "busy", "traffic"), "info metrics [N|all] [sort name|busy|traffic]"
        )
        metrics = tel.metrics
        lines: List[str] = []
        warn = tel.drop_warning()
        if warn:
            lines.append(warn)
        lines.append(f"metrics through t={metrics.last_time}")

        def actor_key(name):
            m = metrics.actors[name]
            if sort == "busy":
                return (-m.busy, name)
            if sort == "traffic":
                return (-(m.produced + m.consumed), name)
            return (name,)

        def link_key(name):
            m = metrics.links[name]
            if sort == "busy" or sort == "traffic":
                return (-(m.pushes + m.pops), name)
            return (name,)

        actors = sorted(metrics.actors, key=actor_key)
        shown = actors if limit <= 0 else actors[:limit]
        lines.append("actors:")
        for name in shown:
            lines.append(f"  {name}: {metrics.actors[name].render()}")
        if not actors:
            lines.append("  (none)")
        elif len(shown) < len(actors):
            lines.append(
                f"  … ({len(actors) - len(shown)} more actor(s); "
                "`info metrics all` shows all)"
            )
        links = sorted(metrics.links, key=link_key)
        shown = links if limit <= 0 else links[:limit]
        lines.append("links:")
        for name in shown:
            head, *detail = metrics.links[name].render(metrics.last_time)
            lines.append(f"  {name}: {head}")
            lines.extend(f"  {r}" for r in detail)
        if not links:
            lines.append("  (none)")
        elif len(shown) < len(links):
            lines.append(
                f"  … ({len(links) - len(shown)} more link(s); "
                "`info metrics all` shows all)"
            )
        return lines

    def cmd_info_spans(self, arg: str) -> List[str]:
        """``info spans [N|all] [sort time|dur|name]`` — most recent N by
        default; duration/name sorts list the top N instead."""
        tel = self.session.telemetry
        if tel.sink is None:
            return ["no telemetry collected (use `trace on`)"]
        limit, sort = _parse_listing_options(
            arg, ("time", "dur", "name"), "info spans [N|all] [sort time|dur|name]"
        )
        snap = tel.sink.snapshot()
        lines = []
        warn = tel.drop_warning()
        if warn:
            lines.append(warn)
        by_name = ", ".join(f"{k}={v}" for k, v in sorted(snap.name_counts.items())) or "-"
        lines.append(f"{len(snap.spans)} span(s) stored; lifetime by name: {by_name}")
        spans = snap.spans
        if sort == "dur":
            spans = sorted(spans, key=lambda s: (-s.duration, s.begin, s.track, s.name))
        elif sort == "name":
            spans = sorted(spans, key=lambda s: (s.name, s.begin, s.track))
        if limit <= 0 or limit >= len(spans):
            shown = spans
        elif sort == "time":
            shown = spans[-limit:]  # most recent window
        else:
            shown = spans[:limit]  # top of the requested order
        if len(shown) < len(spans):
            lines.append(
                f"  … ({len(spans) - len(shown)} more span(s); "
                "`info spans all` shows all)"
            )
        lines.extend("  " + span.describe() for span in shown)
        return lines

    def cmd_info_opcodes(self, arg: str) -> List[str]:
        """Per-opcode cycle attribution from the VM."""
        cycles = self.session.prof.opcode_totals()
        if not cycles:
            return ["no opcode cycles counted (needs `prof on`)"]
        out = [f"{'opcode':<10} {'cycles':>12}"]
        for name, cyc in sorted(cycles.items(), key=lambda kv: (-kv[1], kv[0])):
            out.append(f"{name:<10} {cyc:>12}")
        out.append(f"{'total':<10} {sum(cycles.values()):>12}")
        return out

    def cmd_metrics(self, arg: str) -> List[str]:
        """``metrics export FILE [force]`` / ``metrics show`` — the
        OpenMetrics (Prometheus-scrapeable) exposition of the registry."""
        from ..obs.openmetrics import to_openmetrics

        tel = self.session.telemetry
        verb, _, rest = arg.strip().partition(" ")
        rest = rest.strip()
        if verb in ("export", "show") and tel.metrics is None:
            raise DataflowDebugError("no telemetry collected (use `trace on` first)")
        if verb == "export":
            from ..obs.export import write_artifact

            target, force = _parse_export_target(rest, "metrics export FILE [force]")
            nbytes = write_artifact(target, to_openmetrics(tel.metrics), force=force)
            return [f"wrote {nbytes} byte(s) of OpenMetrics text to {target}"]
        if verb == "show":
            return to_openmetrics(tel.metrics).rstrip("\n").split("\n")
        raise CommandError("usage: metrics export FILE [force] | metrics show")

    def cmd_prof(self, arg: str) -> List[str]:
        """The attributed profiler (cycles → actor/call path)."""
        prof = self.session.prof
        verb, _, rest = arg.strip().partition(" ")
        rest = rest.strip()
        if verb == "on":
            prof.enable()
            return ["profiler enabled (attributing flushed cycles; no hook armed)"]
        if verb == "off":
            prof.disable()
            return ["profiler disabled (profile retained)"]
        if verb == "clear":
            was_on = prof.enabled
            prof.disable()
            prof.clear()
            if was_on:
                prof.enable()
            return ["profile cleared"]
        if verb in ("status", ""):
            return prof.status_lines()
        if verb == "top":
            if rest and not rest.lstrip("-").isdigit():
                raise CommandError("usage: prof top [N]")
            n = int(rest) if rest else 10
            rows = prof._require().top(n)
            out = [f"{'self':>10} {'incl':>10}  actor function"]
            out.extend(
                f"{self_c:>10} {incl:>10}  {actor} {func}"
                for self_c, incl, actor, func in rows
            )
            return out
        if verb == "export":
            target, force = _parse_export_target(rest, "prof export FILE [force]")
            nbytes = prof.export_collapsed(target, force=force)
            return [f"wrote {nbytes} byte(s) of collapsed stacks to {target}"]
        if verb == "flame":
            target, force = _parse_export_target(rest, "prof flame FILE [force]")
            nbytes = prof.export_flamegraph(target, force=force)
            return [f"wrote {nbytes} byte(s) of flamegraph SVG to {target}"]
        raise CommandError(
            f"prof: unknown verb {verb!r} (on/off/clear/status/top/export/flame)"
        )

    def cmd_flight(self, arg: str) -> List[str]:
        """The always-on flight recorder (post-mortem bundles)."""
        flight = self.session.flight
        verb, _, rest = arg.strip().partition(" ")
        rest = rest.strip()
        if verb in ("", "status"):
            return flight.status_lines()
        if verb == "dump":
            if rest:
                target, force = _parse_export_target(rest, "flight dump [FILE] [force]")
                path = flight.dump(path=target, force=force)
            else:
                path = flight.dump()
            return [f"flight bundle written to {path}"]
        if verb == "auto":
            if rest not in ("on", "off"):
                raise CommandError("usage: flight auto on|off")
            flight.auto_dump = rest == "on"
            return [f"flight auto-dump {rest}"]
        raise CommandError(f"flight: unknown verb {verb!r} (status/dump/auto)")

    def cmd_info_profile(self, arg: str) -> List[str]:
        return self.session.prof.status_lines()

    def cmd_info_flight(self, arg: str) -> List[str]:
        return self.session.flight.status_lines()

    def cmd_info_aggregate(self, arg: str) -> List[str]:
        """``info aggregate`` — the stitched run-level telemetry view
        (cross-shard when the run is sharded, journal-derived otherwise)."""
        from ..obs.aggregate import aggregate_journal, aggregate_sharded

        sharding = getattr(self.session, "sharding", None)
        if sharding is not None:
            return aggregate_sharded(sharding).render()
        master = self.session.replay.master
        if master is not None and master.total_events:
            return aggregate_journal(master).render()
        return ["nothing to aggregate (record the run, or run sharded)"]

    def cmd_info_trace(self, arg: str) -> List[str]:
        lines: List[str] = []
        if self.session.tap.recorder is not None:
            journal = self.session.tap.recorder.journal
        else:
            journal = getattr(self.session.replay, "master", None)
        if journal is not None:
            lines.append(
                f"replay journal: {len(journal.events)} event(s) in memory "
                f"of {journal.total_events} recorded"
            )
        else:
            lines.append("replay journal: none (use `record on` before run)")
        lines.extend(self.session.telemetry.status_lines())
        return lines

    # ---------------------------------------------------------------- checks

    _CHECK_VERBS = ("add", "remove", "enable", "disable", "list", "derive")
    _CHECK_KEYWORDS = (
        "stop", "log", "mark",
        "occupancy", "rate", "order", "progress", "deadlock-free",
        "before", "every", "tol",
    )

    def complete_check(self, text: str) -> List[str]:
        """Verbs/actions/property keywords, then names from the
        reconstructed graph (Contribution #1 autocompletion)."""
        words = text.split()
        last = "" if (not words or text.endswith(" ")) else words[-1]
        completing_verb = not words or (len(words) == 1 and not text.endswith(" "))
        if completing_verb:
            return [v for v in self._CHECK_VERBS if v.startswith(last)]
        pool = list(self._CHECK_KEYWORDS) + self.session.completion_names()
        return [n for n in pool if n.startswith(last)]

    def cmd_check(self, arg: str) -> List[str]:
        checks = self.session.checks
        verb, _, rest = arg.strip().partition(" ")
        rest = rest.strip()
        if verb == "add":
            action = "stop"
            first, _, more = rest.partition(" ")
            if first in ("stop", "log", "mark"):
                action, rest = first, more.strip()
            if not rest:
                raise CommandError(
                    "usage: check add [stop|log|mark] PROPERTY — e.g. "
                    "`check add occupancy a::o->b::i <= 4` or `check add log deadlock-free`"
                )
            check = checks.add(rest, action=action)
            return [f"armed {check.status()}"]
        if verb == "remove":
            if not rest.isdigit():
                raise CommandError("usage: check remove ID")
            check = checks.remove(int(rest))
            return [f"removed check {check.id}: {check.text}"]
        if verb in ("enable", "disable"):
            if not rest.isdigit():
                raise CommandError(f"usage: check {verb} ID")
            check = checks.set_enabled(int(rest), verb == "enable")
            return [f"{verb}d check {check.id}: {check.text}"]
        if verb in ("list", ""):
            return checks.status_lines()
        if verb == "derive":
            verdicts = checks.derive()
            if not verdicts:
                return ["replay-derived verdicts: none (all checks hold over the journal)"]
            lines = [f"replay-derived verdicts: {len(verdicts)}"]
            for verdict in verdicts:
                lines.extend(verdict.render())
            return lines
        raise CommandError(
            f"check: unknown verb {verb!r} (add/remove/enable/disable/list/derive)"
        )

    def cmd_info_checks(self, arg: str) -> List[str]:
        return self.session.checks.status_lines()

    def cmd_info_verdict(self, arg: str) -> List[str]:
        which = int(arg) if arg.strip().isdigit() else None
        return self.session.checks.verdict_lines(which)

    # ----------------------------------------------------------------- sched

    def cmd_sched(self, arg: str) -> List[str]:
        verb, _, rest = arg.partition(" ")
        rest = rest.strip()
        if verb in ("status", ""):
            return self.session.sched_status(rest or None)
        if verb == "pred":
            if not rest:
                return self.session.predicates_report()
            parts = rest.split()
            if len(parts) != 3 or parts[2] not in ("true", "false"):
                raise CommandError("usage: sched pred [MODULE NAME true|false]")
            self.session.set_predicate(parts[0], parts[1], parts[2] == "true")
            return [f"Predicate {parts[0]}.{parts[1]} set to {parts[2]}"]
        if verb == "catch":
            what, _, target = rest.partition(" ")
            target = target.strip() or None
            if what == "step-begin":
                cp = self.session.catch_step("begin", target)
            elif what == "step-end":
                cp = self.session.catch_step("end", target)
            elif what == "start":
                cp = self.session.catch_schedule(target)
            elif what == "pred":
                cp = self.session.catch_pred(target)
            else:
                raise CommandError("usage: sched catch step-begin|step-end|start|pred [NAME]")
            return [f"Catchpoint {cp.id}: {cp.what()}"]
        raise CommandError(f"sched: unknown verb {verb!r}")
