"""A thin Debug Adapter Protocol bridge over the daemon's sessions.

Enough of DAP for a stock front-end (VS Code with a trivial launch
config) to drive a dataflow machine: initialize / launch /
setBreakpoints / setFunctionBreakpoints / configurationDone / threads /
stackTrace / scopes / variables / continue / next / stepIn / pause /
evaluate / completions / disconnect — plus the reverse-debugging pair
the paper's record-replay machinery makes possible: the standard
``reverseContinue`` request and a custom ``replayTo`` request
(``{"target": "event 10"}``).

Mapping choices (the bridge is deliberately thin):

- *threads are actors* — each dataflow actor is presented as one DAP
  thread (thread ids are 1-based indexes into the sorted qualname list);
- *frameId = threadId * 1000 + frameIndex*, so scopes/variables requests
  recover the actor and frame without server-side handle tables;
- a stop anywhere is reported as a single ``stopped`` event with the
  stopping actor's thread id (``allThreadsStopped``: the kernel is
  cooperative, a stop parks the whole machine).

Plumbing: the daemon's :class:`~repro.serve.daemon.Connection` feeds the
bridge's stream reader after the first-byte sniff, and responses are
written to the transport from the event-loop thread.  Session work runs
on the session's worker (:class:`~repro.serve.sessions.SessionWorker`):
requests that need an answer await its ``call``, and run-control
requests queue their command with its ``submit`` and return, so one
worker keeps every request of the session in order.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from . import protocol as proto
from .sessions import SessionQuota

#: StopEvent.kind.value -> DAP "stopped" reason
_STOP_REASONS = {
    "breakpoint": "breakpoint",
    "function-breakpoint": "function breakpoint",
    "api-breakpoint": "breakpoint",
    "isa-breakpoint": "instruction breakpoint",
    "watchpoint": "data breakpoint",
    "register-watchpoint": "data breakpoint",
    "step": "step",
    "finish": "step",
    "paused": "pause",
    "violation": "exception",
    "deadlock": "exception",
    "error": "exception",
    "replay": "goto",
}


class DapBridge:
    """One DAP client connection bound to (at most) one session."""

    def __init__(self, daemon, conn):
        self.daemon = daemon
        self.conn = conn
        self.handle = None  # SessionHandle once launched
        self._seq = 0
        self._threads: List[str] = []  # index+1 == DAP threadId
        self._terminated = False

    # ------------------------------------------------------------- plumbing

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _send(self, obj: Dict[str, Any]) -> None:
        obj["seq"] = self._next_seq()
        self.conn.write(proto.encode_dap(obj))

    def _send_threadsafe(self, obj: Dict[str, Any]) -> None:
        obj["seq"] = self._next_seq()
        self.conn.push(proto.encode_dap(obj))

    def _respond(self, request: Dict[str, Any], body: Any = None,
                 success: bool = True, message: Optional[str] = None) -> None:
        resp: Dict[str, Any] = {
            "type": "response",
            "request_seq": request.get("seq", 0),
            "command": request.get("command", ""),
            "success": success,
        }
        if body is not None:
            resp["body"] = body
        if message is not None:
            resp["message"] = message
        self._send(resp)

    def _event(self, name: str, body: Optional[Dict[str, Any]] = None,
               threadsafe: bool = False) -> None:
        obj: Dict[str, Any] = {"type": "event", "event": name}
        if body is not None:
            obj["body"] = body
        (self._send_threadsafe if threadsafe else self._send)(obj)

    # ------------------------------------------------------------ main loop

    async def serve(self) -> None:
        message = await proto.read_dap_message(self.conn.reader)
        while message is not None:
            if message.get("type") == "request":
                try:
                    await self._handle_request(message)
                except Exception as exc:  # noqa: BLE001 - isolation boundary
                    self._respond(message, success=False,
                                  message=f"{type(exc).__name__}: {exc}")
            if self._terminated:
                return
            message = await proto.read_dap_message(self.conn.reader)

    async def _handle_request(self, request: Dict[str, Any]) -> None:
        command = request.get("command", "")
        handler = getattr(self, f"_req_{command}", None)
        if handler is None:
            self._respond(request, success=False,
                          message=f"unsupported request {command!r}")
            return
        await handler(request, request.get("arguments") or {})

    def _spawn_run(self, command: str) -> None:
        """Queue a (possibly long) run-control command on the session's
        worker WITHOUT awaiting it — a ``pause`` request must stay
        deliverable while the machine executes.  The resulting stop
        reaches the client as an asynchronous ``stopped`` event via the
        fan-out."""
        handle = self.handle

        def run() -> None:
            try:
                handle.execute(command)
            except Exception:  # noqa: BLE001 - surfaced through events / later requests
                pass

        handle.worker.submit(run)

    # ------------------------------------------------------------- requests

    async def _req_initialize(self, request, args) -> None:
        self._respond(request, body={
            "supportsConfigurationDoneRequest": True,
            "supportsFunctionBreakpoints": True,
            "supportsConditionalBreakpoints": True,
            "supportsStepBack": True,  # reverseContinue via the journal
            "supportsEvaluateForHovers": True,
            "supportsCompletionsRequest": True,
            "supportsTerminateRequest": True,
        })
        self._event("initialized")

    async def _req_launch(self, request, args) -> None:
        program = args.get("program", "rle")
        quota = SessionQuota.from_params(args.get("quota"))
        handle = await self.daemon.loop.run_in_executor(
            self.daemon.builder,
            lambda: self.daemon.registry.create(
                program,
                bug=args.get("bug"),
                values=args.get("values"),
                quota=quota,
                name=args.get("name"),
            ),
        )
        self.handle = handle
        self.conn.attached.add(handle.id)
        handle.attached += 1
        # pushed stops (from any thread) become DAP "stopped" events; the
        # subscription is dropped with the connection on disconnect
        sub = handle.service.subscribe(self._forward_stop)
        self.conn.subscriptions[handle.id] = sub
        self._respond(request, body={"session": handle.id})

    def _forward_stop(self, event: Dict[str, Any]) -> None:
        if event["type"] not in ("stop", "violation"):
            return
        data = event["data"]
        try:
            # safe here: this callback runs on the thread that executed
            # the command, so the service's RLock is reentrant for us,
            # and the machine is parked at the stop
            self._threads = [a["qualname"] for a in self.handle.service.actors()]
        except Exception:
            pass
        if data.get("kind") == "exited":
            self._event("terminated", threadsafe=True)
            self._event("exited", {"exitCode": 0}, threadsafe=True)
            return
        self._event(
            "stopped",
            {
                "reason": _STOP_REASONS.get(data.get("kind"), "pause"),
                "description": data.get("message", ""),
                "threadId": self._thread_id_for(data.get("actor")),
                "allThreadsStopped": True,
                "text": "\n".join(data.get("banner", [])),
            },
            threadsafe=True,
        )

    def _thread_id_for(self, qualname: Optional[str]) -> int:
        if qualname and qualname in self._threads:
            return self._threads.index(qualname) + 1
        return 1

    async def _req_setBreakpoints(self, request, args) -> None:
        source = args.get("source") or {}
        path = source.get("path") or source.get("name") or ""
        # the machine's filenames are basenames of Filter-C units
        filename = path.replace("\\", "/").rsplit("/", 1)[-1]
        wanted = args.get("breakpoints") or []
        # replace this source's breakpoints wholesale (DAP semantics)
        existing = await self.handle.worker.call(self.handle.service.breakpoints)
        for bp in existing:
            if bp["kind"] == "source" and bp["what"].startswith(f"{filename}:"):
                await self.handle.worker.call(self.handle.execute, f"delete {bp['id']}")
        placed = []
        for spec in wanted:
            line = spec.get("line")
            command = f"break {filename}:{line}"
            if spec.get("condition"):
                command += f" if {spec['condition']}"
            result = await self.handle.worker.call(self.handle.execute, command)
            placed.append({
                "verified": result.ok,
                "line": line,
                "message": result.error,
            })
        self._respond(request, body={"breakpoints": placed})

    async def _req_setFunctionBreakpoints(self, request, args) -> None:
        placed = []
        for spec in args.get("breakpoints") or []:
            result = await self.handle.worker.call(
                self.handle.execute, f"break {spec.get('name', '')}"
            )
            placed.append({"verified": result.ok, "message": result.error})
        self._respond(request, body={"breakpoints": placed})

    async def _req_configurationDone(self, request, args) -> None:
        self._respond(request)
        # start the program; the resulting stop arrives via _forward_stop
        self._spawn_run("run")

    async def _req_threads(self, request, args) -> None:
        actors = await self.handle.worker.call(self.handle.service.actors)
        self._threads = [a["qualname"] for a in actors]
        self._respond(request, body={
            "threads": [
                {"id": i + 1, "name": f"{a['qualname']} ({a['kind']})"}
                for i, a in enumerate(actors)
            ]
        })

    async def _req_stackTrace(self, request, args) -> None:
        thread_id = int(args.get("threadId", 1))
        qualname = self._qualname(thread_id)
        frames = await self.handle.worker.call(self.handle.service.frames, qualname)
        self._respond(request, body={
            "stackFrames": [
                {
                    "id": thread_id * 1000 + f["index"],
                    "name": f["name"],
                    "source": {"name": f["filename"], "path": f["filename"]},
                    "line": f["line"],
                    "column": 1,
                }
                for f in frames
            ],
            "totalFrames": len(frames),
        })

    def _qualname(self, thread_id: int) -> Optional[str]:
        if 1 <= thread_id <= len(self._threads):
            return self._threads[thread_id - 1]
        return None

    async def _req_scopes(self, request, args) -> None:
        frame_id = int(args.get("frameId", 1000))
        self._respond(request, body={
            "scopes": [{
                "name": "Locals",
                "variablesReference": frame_id,
                "expensive": False,
            }]
        })

    async def _req_variables(self, request, args) -> None:
        ref = int(args.get("variablesReference", 1000))
        thread_id, frame_index = divmod(ref, 1000)
        qualname = self._qualname(thread_id)
        variables = await self.handle.worker.call(
            self.handle.service.variables, qualname, frame_index
        )
        self._respond(request, body={
            "variables": [
                {
                    "name": v["name"],
                    "value": v["value"],
                    "type": v["type"],
                    "variablesReference": 0,
                }
                for v in variables
            ]
        })

    async def _req_continue(self, request, args) -> None:
        # respond first (DAP contract), then run; the stop arrives as an
        # asynchronous "stopped" event through the fan-out
        self._respond(request, body={"allThreadsContinued": True})
        self._spawn_run("continue")

    async def _req_next(self, request, args) -> None:
        self._respond(request)
        self._spawn_run("next")

    async def _req_stepIn(self, request, args) -> None:
        self._respond(request)
        self._spawn_run("step")

    async def _req_stepOut(self, request, args) -> None:
        self._respond(request)
        self._spawn_run("finish")

    async def _req_pause(self, request, args) -> None:
        self.handle.interrupt()  # async-safe; not via the busy worker
        self._respond(request)

    async def _req_evaluate(self, request, args) -> None:
        result = await self.handle.worker.call(
            self.handle.service.evaluate, args.get("expression", "")
        )
        if result.get("ok"):
            self._respond(request, body={
                "result": result["value"],
                "type": result["type"],
                "variablesReference": 0,
            })
        else:
            self._respond(request, success=False, message=result.get("error"))

    async def _req_completions(self, request, args) -> None:
        """The CLI's Tab completion of a debug-console line (1-based columns)."""
        text = args.get("text", "")
        text = text[: max(0, args.get("column", len(text) + 1) - 1)]
        candidates = await self.handle.worker.call(self.handle.service.cli.complete, text)
        word = text.rpartition(" ")[2]
        start = len(text) - len(word) + 1
        self._respond(request, body={"targets": [
            {"label": c, "start": start, "length": len(word)} for c in candidates
        ]})

    async def _req_reverseContinue(self, request, args) -> None:
        self._respond(request)
        self._spawn_run("reverse-continue")

    async def _req_replayTo(self, request, args) -> None:
        target = args.get("target", "end")
        result = await self.handle.worker.call(self.handle.execute, f"replay to {target}")
        self._respond(request, body=result.to_dict(), success=result.ok,
                      message=result.error)

    async def _req_terminate(self, request, args) -> None:
        self._respond(request)
        self._event("terminated")

    async def _req_disconnect(self, request, args) -> None:
        if self.handle is not None:
            try:
                self.daemon.registry.destroy(self.handle.id)
            except KeyError:
                pass
            self.conn.subscriptions.pop(self.handle.id, None)
            self.conn.attached.discard(self.handle.id)
        self._respond(request)
        self._terminated = True
