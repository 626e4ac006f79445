"""The asyncio debug daemon: one port, many sessions, three protocols.

Connections are classified by their first byte (:func:`sniff_protocol`):
JSON-RPC lines, DAP frames, or an HTTP GET for OpenMetrics scrapes.
Blocking debugger work runs on each session's single-thread executor via
``run_in_executor``, so the event loop never stalls behind a ``continue``
and commands against one session are strictly ordered while sessions
proceed in parallel.

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
from typing import Any, Dict, List, Optional, Set

from ..errors import ReproError
from . import protocol as proto
from .sessions import QuotaExceeded, SessionQuota, SessionRegistry

REAP_CHECK_S = 5.0


class Connection:
    """One live client connection (any protocol)."""

    def __init__(self, daemon: "DebugDaemon", reader, writer):
        self.daemon = daemon
        self.reader = reader
        self.writer = writer
        #: session id -> handle of our fan-out subscription
        self.subscriptions: Dict[str, int] = {}
        #: sessions this connection is attached to (for detach-on-close)
        self.attached: Set[str] = set()
        self.outbox: "asyncio.Queue[bytes]" = asyncio.Queue()
        self._writer_task: Optional[asyncio.Task] = None
        self._closed = False

    def start_writer(self) -> None:
        self._writer_task = asyncio.get_running_loop().create_task(self._drain())

    async def _drain(self) -> None:
        try:
            while True:
                data = await self.outbox.get()
                self.writer.write(data)
                await self.writer.drain()
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass

    def push(self, data: bytes) -> None:
        """Thread-safe enqueue (fan-out callbacks run on kernel threads)."""
        self.daemon.loop.call_soon_threadsafe(self.outbox.put_nowait, data)

    def push_local(self, data: bytes) -> None:
        """Enqueue from the event loop thread."""
        self.outbox.put_nowait(data)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
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
        try:
            if self._writer_task is not None:
                # give queued output a bounded chance to flush
                for _ in range(100):
                    if self.outbox.empty():
                        break
                    await asyncio.sleep(0.01)
                self._writer_task.cancel()
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # loop teardown raced our flush: finish closing quietly
            self.writer.close()


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
        self._reaper_task: Optional[asyncio.Task] = None
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
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
            await self.server.wait_closed()
        if self._reaper_task is not None:
            self._reaper_task.cancel()
        notice = proto.encode_line(
            proto.event_notification(None, "shutting-down", {"reason": "drain"})
        )
        for conn in list(self.connections):
            conn.push_local(notice)
        # in-flight executor work finishes; new requests get 1004
        for desc in self.registry.list():
            try:
                handle = self.registry.get(desc["id"])
            except KeyError:
                continue
            handle.executor.shutdown(wait=True)
        for conn in list(self.connections):
            await conn.close()
        self.registry.close_all()
        self._stopped.set()

    # ---------------------------------------------------------- connections

    async def _handle_connection(self, reader, writer) -> None:
        first = await reader.read(1)
        if not first:
            writer.close()
            return
        kind = proto.sniff_protocol(first)
        self.protocol_counts[kind] += 1
        conn = Connection(self, reader, writer)
        self.connections.add(conn)
        conn.start_writer()
        try:
            if kind == "http":
                await self._serve_http(conn, first)
            elif kind == "dap":
                from .dap import DapBridge

                await DapBridge(self, conn).serve(first)
            else:
                await self._serve_jsonrpc(conn, first)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            self.connections.discard(conn)
            await conn.close()

    # ------------------------------------------------------------- JSON-RPC

    async def _serve_jsonrpc(self, conn: Connection, first: bytes) -> None:
        buffer = first
        while True:
            try:
                rest = await conn.reader.readuntil(b"\n")
            except asyncio.IncompleteReadError:
                return
            except asyncio.LimitOverrunError:
                conn.push_local(
                    proto.encode_line(
                        proto.error_response(None, proto.ERR_PARSE, "line too long")
                    )
                )
                return
            line, buffer = buffer + rest, b""
            if not line.strip():
                continue
            response = await self._dispatch_line(conn, line)
            if response is not None:
                conn.push_local(proto.encode_line(response))

    async def _dispatch_line(
        self, conn: Connection, line: bytes
    ) -> Optional[Dict[str, Any]]:
        request, problem = proto.parse_request(line)
        if request is None:
            return proto.error_response(None, proto.ERR_PARSE, problem or "bad request")
        req_id = request.get("id")
        method = request["method"]
        params = request["params"]
        self.requests_handled += 1
        try:
            result = await self._call_method(conn, method, params)
        except QuotaExceeded as exc:
            return proto.error_response(req_id, proto.ERR_QUOTA, str(exc), exc.to_data())
        except KeyError as exc:
            return proto.error_response(
                req_id, proto.ERR_NO_SESSION, f"no such session: {exc.args[0]}"
            )
        except _MethodNotFound:
            return proto.error_response(
                req_id, proto.ERR_METHOD_NOT_FOUND, f"unknown method {method!r}"
            )
        except _InvalidParams as exc:
            return proto.error_response(req_id, proto.ERR_INVALID_PARAMS, str(exc))
        except _ShuttingDown:
            return proto.error_response(
                req_id, proto.ERR_SHUTTING_DOWN, "daemon is draining"
            )
        except ReproError as exc:
            # a session-level failure: structured error, daemon unharmed
            return proto.error_response(req_id, proto.ERR_SESSION_FAILED, str(exc))
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            return proto.error_response(
                req_id,
                proto.ERR_INTERNAL,
                f"internal error: {type(exc).__name__}: {exc}",
            )
        if req_id is None:
            return None  # notification: no reply
        return proto.response(req_id, result)

    async def _call_method(
        self, conn: Connection, method: str, params: Dict[str, Any]
    ) -> Any:
        if self.draining and method not in ("ping", "sessions", "shutdown"):
            raise _ShuttingDown()
        handler = getattr(self, f"_rpc_{method.replace('-', '_')}", None)
        if handler is None:
            raise _MethodNotFound()
        return await handler(conn, params)

    def _handle(self, params: Dict[str, Any]):
        sid = params.get("session")
        if not isinstance(sid, str):
            raise _InvalidParams("missing session id")
        return self.registry.get(sid)

    async def _on_executor(self, handle, fn, *args):
        assert self.loop is not None
        return await self.loop.run_in_executor(handle.executor, fn, *args)

    # -- daemon-level ------------------------------------------------------

    async def _rpc_ping(self, conn, params):
        return {
            "pong": True,
            "sessions": len(self.registry),
            "uptime_s": round(time.monotonic() - self.started, 3),
        }

    async def _rpc_shutdown(self, conn, params):
        assert self.loop is not None
        self.loop.create_task(self.shutdown())
        return {"draining": True}

    async def _rpc_sessions(self, conn, params):
        return {"sessions": self.registry.list()}

    # -- session lifecycle -------------------------------------------------

    async def _rpc_create(self, conn, params):
        program = params.get("program")
        if not isinstance(program, str):
            raise _InvalidParams("missing program")
        quota = SessionQuota.from_params(_param(params, "quota", dict))
        values = params.get("values")
        if values is not None and (
            not isinstance(values, list) or not all(isinstance(v, int) for v in values)
        ):
            raise _InvalidParams("values must be a list of integers")
        tier = _param(params, "tier", str, "auto")
        sharded = _param(params, "sharded", bool, False)
        shards = _param(params, "shards", int, 2)
        name = _param(params, "name", str)
        bug = _param(params, "bug", str)
        # machine elaboration is CPU work: keep it off the event loop
        assert self.loop is not None
        handle = await self.loop.run_in_executor(
            None,
            lambda: self.registry.create(
                program,
                bug=bug,
                tier=tier,
                values=values,
                sharded=sharded,
                shards=shards,
                quota=quota,
                name=name,
            ),
        )
        return {"session": handle.id, **handle.describe()}

    async def _rpc_attach(self, conn, params):
        handle = self._handle(params)
        if params["session"] not in conn.attached:
            handle.attached += 1
            conn.attached.add(params["session"])
        handle.touch()
        return handle.describe()

    async def _rpc_detach(self, conn, params):
        handle = self._handle(params)
        if params["session"] in conn.attached:
            handle.attached -= 1
            conn.attached.discard(params["session"])
        sub = conn.subscriptions.pop(params["session"], None)
        if sub is not None:
            handle.service.unsubscribe(sub)
        return {"detached": True}

    async def _rpc_destroy(self, conn, params):
        sid = params.get("session")
        if not isinstance(sid, str):
            raise _InvalidParams("missing session id")
        conn.subscriptions.pop(sid, None)
        conn.attached.discard(sid)
        self.registry.destroy(sid)
        return {"destroyed": sid}

    # -- events ------------------------------------------------------------

    async def _rpc_subscribe(self, conn, params):
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

    async def _rpc_unsubscribe(self, conn, params):
        handle = self._handle(params)
        sub = conn.subscriptions.pop(params["session"], None)
        if sub is not None:
            handle.service.unsubscribe(sub)
        return {"unsubscribed": params["session"]}

    # -- command execution -------------------------------------------------

    async def _rpc_execute(self, conn, params):
        handle = self._handle(params)
        command = params.get("command")
        if not isinstance(command, str):
            raise _InvalidParams("missing command")
        result = await self._on_executor(handle, handle.execute, command)
        return result.to_dict()

    async def _rpc_script(self, conn, params):
        handle = self._handle(params)
        commands = params.get("commands")
        if not isinstance(commands, list) or not all(
            isinstance(c, str) for c in commands
        ):
            raise _InvalidParams("commands must be a list of strings")

        def run_all():
            return [handle.execute(c).to_dict() for c in commands]

        return {"results": await self._on_executor(handle, run_all)}

    async def _rpc_interrupt(self, conn, params):
        # deliberately NOT routed through the executor: the executor is
        # busy inside the very command this is meant to stop
        handle = self._handle(params)
        handle.interrupt()
        return {"interrupted": params["session"]}

    async def _rpc_run_sharded(self, conn, params):
        handle = self._handle(params)
        return await self._on_executor(handle, handle.run_sharded)

    # -- structured inspection ---------------------------------------------

    async def _rpc_state(self, conn, params):
        handle = self._handle(params)
        state = await self._on_executor(handle, handle.service.state)
        state["serve"] = handle.describe()
        return state

    async def _rpc_actors(self, conn, params):
        handle = self._handle(params)
        return {"actors": await self._on_executor(handle, handle.service.actors)}

    async def _rpc_frames(self, conn, params):
        handle = self._handle(params)
        actor = _param(params, "actor", str)
        return {
            "frames": await self._on_executor(handle, handle.service.frames, actor)
        }

    async def _rpc_variables(self, conn, params):
        handle = self._handle(params)
        return {
            "variables": await self._on_executor(
                handle,
                handle.service.variables,
                _param(params, "actor", str),
                _param(params, "frame", int, 0),
            )
        }

    async def _rpc_evaluate(self, conn, params):
        handle = self._handle(params)
        expr = params.get("expr")
        if not isinstance(expr, str):
            raise _InvalidParams("missing expr")
        return await self._on_executor(handle, handle.service.evaluate, expr)

    async def _rpc_breakpoints(self, conn, params):
        handle = self._handle(params)
        return {
            "breakpoints": await self._on_executor(handle, handle.service.breakpoints)
        }

    async def _rpc_metrics(self, conn, params):
        handle = self._handle(params)
        return {"openmetrics": await self._on_executor(handle, handle.metrics_text)}

    async def _rpc_flight(self, conn, params):
        handle = self._handle(params)
        return {"bundle": await self._on_executor(handle, handle.flight_bundle)}

    # ----------------------------------------------------------------- HTTP

    async def _serve_http(self, conn: Connection, first: bytes) -> None:
        """One-shot scrape endpoint:

        - ``GET /metrics`` — daemon-level exposition;
        - ``GET /sessions/<id>/metrics`` — that session's exposition.
        """
        try:
            request_line = first + await conn.reader.readuntil(b"\n")
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
        conn.push_local(head.encode() + payload)
        # let the writer drain before the connection teardown in _handle_connection
        while not conn.outbox.empty():
            await asyncio.sleep(0)

    async def _http_response(self, path: str):
        if path == "/metrics":
            return 200, self.daemon_metrics_text()
        if path.startswith("/sessions/") and path.endswith("/metrics"):
            sid = path[len("/sessions/") : -len("/metrics")].strip("/")
            try:
                handle = self.registry.get(sid)
            except KeyError:
                return 404, f"no such session: {sid}\n"
            text = await self._on_executor(handle, handle.metrics_text)
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
