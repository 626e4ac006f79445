"""The asyncio debug daemon: one port, many sessions, three protocols.

Connections are classified by their first byte (:func:`sniff_protocol`):
JSON-RPC lines, DAP frames, or an HTTP GET for OpenMetrics scrapes.
Blocking debugger work runs on each session's single worker thread
(:class:`~repro.serve.sessions.SessionWorker`), so the event loop never stalls behind a
``continue`` and commands against one session are strictly ordered while
sessions proceed in parallel.

Each JSON-RPC request costs one event-loop callback on the way in and
one on the way out.  :class:`Connection` is the transport's protocol: it
frames lines straight from ``data_received`` (:class:`LineFramer`) and
dispatches them with one request in flight per connection, so replies
come back in request order.  Daemon-level methods answer on the loop.
A session-bound method's handler validates its params on the loop and
returns an :class:`_Offload`; the session's worker runs it, builds and
encodes the reply, and hands the line back with one
``loop.call_soon_threadsafe``.  ``create`` does the same on the
daemon's build pool.  Replies and fan-out pushes are written to
the transport from the loop thread, in call order.

Structure of a JSON-RPC exchange (one JSON object per line)::

    -> {"jsonrpc":"2.0","id":1,"method":"create","params":{"program":"rle"}}
    <- {"jsonrpc":"2.0","id":1,"result":{"session":"s1",...}}
    -> {"jsonrpc":"2.0","id":2,"method":"execute",
        "params":{"session":"s1","command":"break pack.c:7"}}
    <- {"jsonrpc":"2.0","id":2,"result":{"ok":true,"lines":[...],...}}

Server-pushed events (after ``subscribe``) are id-less notifications::

    <- {"jsonrpc":"2.0","method":"event",
        "params":{"session":"s1","type":"stop","data":{...}}}

Robustness invariants, each covered by tests:

- one session's exception becomes an ``error`` response; the daemon and
  sibling sessions are untouched;
- a line longer than ``MAX_LINE_BYTES`` is answered with a parse error
  and skipped; the connection stays usable;
- quotas surface as code-1002 errors with the quota name in ``data``;
- idle sessions are reaped; SIGTERM drains gracefully (stop accepting,
  finish in-flight commands, notify subscribers, exit).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional, Set, Union

from ..errors import ReproError
from . import protocol as proto
from .sessions import QuotaExceeded, SessionQuota, SessionRegistry, SessionWorker

REAP_CHECK_S = 5.0

#: methods a draining daemon still answers
DRAIN_METHODS = frozenset({"ping", "sessions", "shutdown"})


class Connection(asyncio.Protocol):
    """One live client connection (any protocol), fed by its transport.

    JSON-RPC bytes go through the line framer and are dispatched here;
    after the first-byte sniff, DAP and HTTP bytes feed a
    :class:`asyncio.StreamReader` that their coroutine reads."""

    def __init__(self, daemon: "DebugDaemon"):
        self.daemon = daemon
        self.transport: Optional[asyncio.Transport] = None
        self.kind: Optional[str] = None
        #: the DAP / HTTP coroutine's input and task (None for JSON-RPC)
        self.reader: Optional[asyncio.StreamReader] = None
        self.stream_task: Optional[asyncio.Task] = None
        #: session id -> handle of our fan-out subscription
        self.subscriptions: Dict[str, int] = {}
        #: sessions this connection is attached to (for detach-on-close)
        self.attached: Set[str] = set()
        self._framer = proto.LineFramer()
        #: framed lines queued behind the request in flight
        self._pending: Deque[Optional[bytes]] = deque()
        self._busy = False  # a request is on a worker
        self._paused = False  # reading paused while lines queue
        self._eof = False
        self._closed = False

    # ------------------------------------------------------ protocol hooks

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.daemon.connections.add(self)

    def data_received(self, data: bytes) -> None:
        if self.kind is None:
            self._sniff(data)
        if self.reader is not None:
            self.reader.feed_data(data)
            return
        lines = self._framer.feed(data)
        if not lines:
            return
        self._pending.extend(lines)
        if not self._busy:
            self._next()
        elif not self._paused:
            # one request at a time: hold further input at the socket
            self._paused = True
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self._eof = True
        if self.reader is not None:
            self.reader.feed_eof()
        elif not self._busy:
            self.close()
        return True  # stay open for writing: replies may be in flight

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.close()

    def _sniff(self, data: bytes) -> None:
        kind = self.kind = proto.sniff_protocol(data[:1])
        self.daemon.protocol_counts[kind] += 1
        if kind != "jsonrpc":
            self.reader = asyncio.StreamReader()
            self.reader.set_transport(self.transport)
            self.stream_task = self.daemon.loop.create_task(self.daemon.serve_stream(self))

    # ------------------------------------------------------------- JSON-RPC

    def _next(self) -> None:
        """Dispatch queued lines in order until one goes to a worker."""
        pending = self._pending
        dispatch = self.daemon.dispatch_line
        while pending:
            if dispatch(self, pending.popleft()):
                self._busy = True
                return
        self._busy = False
        if self._eof:
            self.close()
        elif self._paused:
            self._paused = False
            self.transport.resume_reading()

    def reply(self, line: Optional[bytes]) -> None:
        """Loop-thread completion of the request in flight: send its
        reply (None for a notification), then dispatch what queued."""
        if self._closed:
            return
        if line is not None:
            self.transport.write(line)
        self._next()

    # --------------------------------------------------------------- output

    def write(self, data: bytes) -> None:
        """Send from the event-loop thread."""
        if not self._closed:
            self.transport.write(data)

    def push(self, data: bytes) -> None:
        """Send from any thread (fan-out callbacks run on session workers)."""
        self.daemon.loop.call_soon_threadsafe(self.write, data)

    def close(self) -> None:
        """Drop subscriptions and attachments, flush and close; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._pending.clear()
        self.daemon.connections.discard(self)
        for sid, sub in list(self.subscriptions.items()):
            try:
                self.daemon.registry.get(sid).service.unsubscribe(sub)
            except KeyError:
                pass
        self.subscriptions.clear()
        for sid in list(self.attached):
            try:
                self.daemon.registry.get(sid).attached -= 1
            except KeyError:
                pass
        self.attached.clear()
        if self.reader is not None:
            self.reader.feed_eof()
        self.transport.close()  # queued output is flushed first


class _Offload(NamedTuple):
    """A handler's answer when its work must leave the event loop:
    ``fn`` runs on ``worker`` (the session's, for session-bound
    methods), which also builds and encodes the reply."""

    worker: Union[SessionWorker, ThreadPoolExecutor]
    fn: Callable[[], Any]


def error_reply(req_id: Any, method: str, exc: Exception) -> Dict[str, Any]:
    """The one exception -> JSON-RPC error mapping, on the loop and on
    the workers alike."""
    if isinstance(exc, QuotaExceeded):
        return proto.error_response(req_id, proto.ERR_QUOTA, str(exc), exc.to_data())
    if isinstance(exc, KeyError):
        missing = exc.args[0] if exc.args else ""
        return proto.error_response(
            req_id, proto.ERR_NO_SESSION, f"no such session: {missing}"
        )
    if isinstance(exc, _MethodNotFound):
        return proto.error_response(
            req_id, proto.ERR_METHOD_NOT_FOUND, f"unknown method {method!r}"
        )
    if isinstance(exc, _InvalidParams):
        return proto.error_response(req_id, proto.ERR_INVALID_PARAMS, str(exc))
    if isinstance(exc, _ShuttingDown):
        return proto.error_response(req_id, proto.ERR_SHUTTING_DOWN, "daemon is draining")
    if isinstance(exc, ReproError):
        # a session-level failure: structured error, daemon unharmed
        return proto.error_response(req_id, proto.ERR_SESSION_FAILED, str(exc))
    return proto.error_response(
        req_id, proto.ERR_INTERNAL, f"internal error: {type(exc).__name__}: {exc}"
    )


class DebugDaemon:
    """The server: registry + listeners + reaper + drain logic."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[SessionRegistry] = None,
        idle_timeout: Optional[float] = None,
        max_sessions: int = 256,
    ):
        self.host = host
        self.port = port
        self.registry = registry or SessionRegistry(max_sessions=max_sessions)
        self.idle_timeout = idle_timeout
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[asyncio.AbstractServer] = None
        self.connections: Set[Connection] = set()
        self.draining = False
        self.started = time.monotonic()
        self.requests_handled = 0
        self.protocol_counts: Dict[str, int] = {"jsonrpc": 0, "dap": 0, "http": 0}
        #: runs ``create``: machine elaboration is CPU work, kept off the
        #: loop; a pool, so a cheap create never queues behind a slow one
        self.builder = ThreadPoolExecutor(thread_name_prefix="session-build")
        self._reaper_task: Optional[asyncio.Task] = None
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.server = await self.loop.create_server(
            lambda: Connection(self), self.host, self.port
        )
        self.port = self.server.sockets[0].getsockname()[1]
        if self.idle_timeout is not None:
            self._reaper_task = self.loop.create_task(self._reap_loop())

    async def serve_forever(self) -> None:
        assert self.server is not None
        await self._stopped.wait()

    async def _reap_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(min(REAP_CHECK_S, self.idle_timeout))
                self.registry.reap_idle(self.idle_timeout)
        except asyncio.CancelledError:
            pass

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, tell subscribers, wait for
        in-flight session work, close everything."""
        if self.draining:
            return
        self.draining = True
        if self.server is not None:
            self.server.close()
        if self._reaper_task is not None:
            self._reaper_task.cancel()
        notice = proto.encode_line(
            proto.event_notification(None, "shutting-down", {"reason": "drain"})
        )
        for conn in list(self.connections):
            conn.write(notice)
        # in-flight creates and worker jobs finish; new requests get 1004
        self.builder.shutdown(wait=True)
        for desc in self.registry.list():
            try:
                handle = self.registry.get(desc["id"])
            except KeyError:
                continue
            handle.worker.shutdown(wait=True)
        await asyncio.sleep(0)  # write the replies those jobs handed back
        for conn in list(self.connections):
            conn.close()
        if self.server is not None:
            await self.server.wait_closed()
        self.registry.close_all()
        self._stopped.set()

    # ------------------------------------------------------------- JSON-RPC

    def dispatch_line(self, conn: Connection, line: Optional[bytes]) -> bool:
        """Answer one framed line on the loop, or hand it to a worker
        (returns True: the reply comes back through ``conn.reply``)."""
        if line is None:
            conn.write(proto.encode_line(proto.error_response(
                None, proto.ERR_PARSE,
                f"line too long (limit {proto.MAX_LINE_BYTES} bytes)",
            )))
            return False
        if not line.strip():
            return False
        request, problem = proto.parse_request(line)
        if request is None:
            conn.write(proto.encode_line(
                proto.error_response(None, proto.ERR_PARSE, problem or "bad request")
            ))
            return False
        req_id = request.get("id")
        method = request["method"]
        self.requests_handled += 1
        try:
            if self.draining and method not in DRAIN_METHODS:
                raise _ShuttingDown()
            handler = getattr(self, f"_rpc_{method.replace('-', '_')}", None)
            if handler is None:
                raise _MethodNotFound()
            result = handler(conn, request["params"])
            if type(result) is _Offload:
                result.worker.submit(partial(self._complete, conn, req_id, method, result.fn))
                return True
            if req_id is None:
                return False  # notification: no reply
            reply = proto.response(req_id, result)
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            reply = error_reply(req_id, method, exc)
        conn.write(proto.encode_line(reply))
        return False

    def _complete(self, conn: Connection, req_id: Any, method: str,
                  fn: Callable[[], Any]) -> None:
        """Worker side of an offloaded request: run it, build and encode
        the reply there, and hand the line to the loop once."""
        try:
            result = fn()
            line = None if req_id is None else proto.encode_line(
                proto.response(req_id, result)
            )
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            line = proto.encode_line(error_reply(req_id, method, exc))
        self.loop.call_soon_threadsafe(conn.reply, line)

    def _handle(self, params: Dict[str, Any]):
        sid = params.get("session")
        if not isinstance(sid, str):
            raise _InvalidParams("missing session id")
        return self.registry.get(sid)

    # -- daemon-level ------------------------------------------------------

    def _rpc_ping(self, conn, params):
        return {
            "pong": True,
            "sessions": len(self.registry),
            "uptime_s": round(time.monotonic() - self.started, 3),
        }

    def _rpc_shutdown(self, conn, params):
        assert self.loop is not None
        self.loop.create_task(self.shutdown())
        return {"draining": True}

    def _rpc_sessions(self, conn, params):
        return {"sessions": self.registry.list()}

    # -- session lifecycle -------------------------------------------------

    def _rpc_create(self, conn, params):
        program = params.get("program")
        if not isinstance(program, str):
            raise _InvalidParams("missing program")
        quota = SessionQuota.from_params(_param(params, "quota", dict))
        values = params.get("values")
        if values is not None and (
            not isinstance(values, list) or not all(isinstance(v, int) for v in values)
        ):
            raise _InvalidParams("values must be a list of integers")
        sharded = _param(params, "sharded", bool, False)
        shards = _param(params, "shards", int, 2)
        name = _param(params, "name", str)
        bug = _param(params, "bug", str)

        def create():
            handle = self.registry.create(
                program,
                bug=bug,
                values=values,
                sharded=sharded,
                shards=shards,
                quota=quota,
                name=name,
            )
            return {"session": handle.id, **handle.describe()}

        return _Offload(self.builder, create)

    def _rpc_attach(self, conn, params):
        handle = self._handle(params)
        if params["session"] not in conn.attached:
            handle.attached += 1
            conn.attached.add(params["session"])
        handle.touch()
        return handle.describe()

    def _rpc_detach(self, conn, params):
        handle = self._handle(params)
        if params["session"] in conn.attached:
            handle.attached -= 1
            conn.attached.discard(params["session"])
        sub = conn.subscriptions.pop(params["session"], None)
        if sub is not None:
            handle.service.unsubscribe(sub)
        return {"detached": True}

    def _rpc_destroy(self, conn, params):
        sid = params.get("session")
        if not isinstance(sid, str):
            raise _InvalidParams("missing session id")
        conn.subscriptions.pop(sid, None)
        conn.attached.discard(sid)
        self.registry.destroy(sid)
        return {"destroyed": sid}

    # -- events ------------------------------------------------------------

    def _rpc_subscribe(self, conn, params):
        handle = self._handle(params)
        sid = params["session"]
        wanted = params.get("events")
        if wanted is not None and not isinstance(wanted, list):
            raise _InvalidParams("events must be a list")
        accept = set(wanted) if wanted else None

        def forward(event: Dict[str, Any]) -> None:
            if accept is not None and event["type"] not in accept:
                return
            conn.push(
                proto.encode_line(
                    proto.event_notification(sid, event["type"], event["data"])
                )
            )

        old = conn.subscriptions.get(sid)
        if old is not None:
            handle.service.unsubscribe(old)
        conn.subscriptions[sid] = handle.service.subscribe(forward)
        return {"subscribed": sid, "events": sorted(accept) if accept else "all"}

    def _rpc_unsubscribe(self, conn, params):
        handle = self._handle(params)
        sub = conn.subscriptions.pop(params["session"], None)
        if sub is not None:
            handle.service.unsubscribe(sub)
        return {"unsubscribed": params["session"]}

    # -- command execution -------------------------------------------------

    def _rpc_execute(self, conn, params):
        handle = self._handle(params)
        command = params.get("command")
        if not isinstance(command, str):
            raise _InvalidParams("missing command")
        return _Offload(handle.worker, lambda: handle.execute(command).to_dict())

    def _rpc_script(self, conn, params):
        handle = self._handle(params)
        commands = params.get("commands")
        if not isinstance(commands, list) or not all(
            isinstance(c, str) for c in commands
        ):
            raise _InvalidParams("commands must be a list of strings")
        return _Offload(
            handle.worker,
            lambda: {"results": [handle.execute(c).to_dict() for c in commands]},
        )

    def _rpc_interrupt(self, conn, params):
        # deliberately NOT routed through the worker: the worker is busy
        # inside the very command this is meant to stop
        handle = self._handle(params)
        handle.interrupt()
        return {"interrupted": params["session"]}

    def _rpc_run_sharded(self, conn, params):
        handle = self._handle(params)
        return _Offload(handle.worker, handle.run_sharded)

    # -- structured inspection ---------------------------------------------

    def _rpc_state(self, conn, params):
        handle = self._handle(params)

        def state():
            out = handle.service.state()
            out["serve"] = handle.describe()
            return out

        return _Offload(handle.worker, state)

    def _rpc_actors(self, conn, params):
        handle = self._handle(params)
        return _Offload(handle.worker, lambda: {"actors": handle.service.actors()})

    def _rpc_frames(self, conn, params):
        handle = self._handle(params)
        actor = _param(params, "actor", str)
        return _Offload(handle.worker, lambda: {"frames": handle.service.frames(actor)})

    def _rpc_variables(self, conn, params):
        handle = self._handle(params)
        actor = _param(params, "actor", str)
        frame = _param(params, "frame", int, 0)
        return _Offload(
            handle.worker,
            lambda: {"variables": handle.service.variables(actor, frame)},
        )

    def _rpc_evaluate(self, conn, params):
        handle = self._handle(params)
        expr = params.get("expr")
        if not isinstance(expr, str):
            raise _InvalidParams("missing expr")
        return _Offload(handle.worker, lambda: handle.service.evaluate(expr))

    def _rpc_breakpoints(self, conn, params):
        handle = self._handle(params)
        return _Offload(
            handle.worker, lambda: {"breakpoints": handle.service.breakpoints()}
        )

    def _rpc_metrics(self, conn, params):
        handle = self._handle(params)
        return _Offload(handle.worker, lambda: {"openmetrics": handle.metrics_text()})

    def _rpc_flight(self, conn, params):
        handle = self._handle(params)
        return _Offload(handle.worker, lambda: {"bundle": handle.flight_bundle()})

    # ------------------------------------------------------ DAP and HTTP

    async def serve_stream(self, conn: Connection) -> None:
        """The coroutine of a DAP or HTTP connection: it reads what
        ``conn`` feeds its stream reader, and closes ``conn`` at the end."""
        try:
            if conn.kind == "http":
                await self._serve_http(conn)
            else:
                from .dap import DapBridge

                await DapBridge(self, conn).serve()
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            conn.close()

    async def _serve_http(self, conn: Connection) -> None:
        """One-shot scrape endpoint:

        - ``GET /metrics`` — daemon-level exposition;
        - ``GET /sessions/<id>/metrics`` — that session's exposition.
        """
        try:
            request_line = await conn.reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            return
        # drain (and ignore) the remaining request headers
        try:
            while True:
                line = await asyncio.wait_for(conn.reader.readuntil(b"\n"), timeout=2.0)
                if line in (b"\r\n", b"\n"):
                    break
        except (asyncio.IncompleteReadError, asyncio.TimeoutError):
            pass
        parts = request_line.decode("latin-1").split()
        path = parts[1] if len(parts) >= 2 else "/"
        status, body = await self._http_response(path)
        ctype = (
            "application/openmetrics-text; version=1.0.0; charset=utf-8"
            if status == 200
            else "text/plain; charset=utf-8"
        )
        payload = body.encode()
        head = (
            f"HTTP/1.1 {status} {'OK' if status == 200 else 'Not Found'}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        conn.write(head.encode() + payload)

    async def _http_response(self, path: str):
        if path == "/metrics":
            return 200, self.daemon_metrics_text()
        if path.startswith("/sessions/") and path.endswith("/metrics"):
            sid = path[len("/sessions/") : -len("/metrics")].strip("/")
            try:
                handle = self.registry.get(sid)
            except KeyError:
                return 404, f"no such session: {sid}\n"
            text = await handle.worker.call(handle.metrics_text)
            return 200, text
        return 404, "try /metrics or /sessions/<id>/metrics\n"

    def daemon_metrics_text(self) -> str:
        lines = [
            "# TYPE repro_serve_sessions gauge",
            "# HELP repro_serve_sessions Sessions currently hosted.",
            f"repro_serve_sessions {len(self.registry)}",
            "# TYPE repro_serve_sessions_created counter",
            "# HELP repro_serve_sessions_created Sessions created since boot.",
            f"repro_serve_sessions_created_total {self.registry.created_total}",
            "# TYPE repro_serve_sessions_reaped counter",
            "# HELP repro_serve_sessions_reaped Idle sessions reaped.",
            f"repro_serve_sessions_reaped_total {self.registry.reaped_total}",
            "# TYPE repro_serve_connections gauge",
            "# HELP repro_serve_connections Open client connections.",
            f"repro_serve_connections {len(self.connections)}",
            "# TYPE repro_serve_requests counter",
            "# HELP repro_serve_requests JSON-RPC requests handled.",
            f"repro_serve_requests_total {self.requests_handled}",
        ]
        lines.append("# TYPE repro_serve_connections_by_protocol counter")
        lines.append("# HELP repro_serve_connections_by_protocol Connections accepted, by wire protocol.")
        for kind, count in sorted(self.protocol_counts.items()):
            lines.append(f'repro_serve_connections_by_protocol_total{{protocol="{kind}"}} {count}')
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


class _MethodNotFound(Exception):
    pass


class _InvalidParams(Exception):
    pass


_TYPE_NAMES = {bool: "a boolean", int: "an integer", str: "a string", dict: "an object"}


def _param(params: Dict[str, Any], key: str, kind: type, default: Any = None) -> Any:
    """``params[key]`` checked against its JSON type (a boolean is not
    an integer); ``default`` when absent or null."""
    value = params.get(key)
    if value is None:
        return default
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise _InvalidParams(f"{key} must be {_TYPE_NAMES[kind]}")
    return value


class _ShuttingDown(Exception):
    pass


# ------------------------------------------------------------- entry point


async def _amain(args) -> int:
    daemon = DebugDaemon(
        host=args.host,
        port=args.port,
        idle_timeout=args.idle_timeout,
        max_sessions=args.max_sessions,
    )
    await daemon.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, lambda: loop.create_task(daemon.shutdown()))
        except NotImplementedError:  # pragma: no cover - non-unix
            pass
    print(f"repro debug daemon listening on {daemon.host}:{daemon.port}", flush=True)
    await daemon.serve_forever()
    print("repro debug daemon drained", flush=True)
    return 0


def serve_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="debug-server daemon: concurrent wire-attached sessions "
        "(line JSON-RPC + DAP + OpenMetrics scrape on one port)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9595,
                        help="listen port (0 picks a free one; default 9595)")
    parser.add_argument("--idle-timeout", type=float, default=None, metavar="S",
                        help="reap sessions idle longer than S seconds")
    parser.add_argument("--max-sessions", type=int, default=256)
    args = parser.parse_args(argv)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
