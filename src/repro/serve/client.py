"""A small blocking client for the daemon's JSON-RPC protocol.

Used by the test suite, the CI smoke script, the load test and the
serve bench — and usable as a library::

    from repro.serve.client import DebugClient

    with DebugClient("127.0.0.1", 9595) as dbg:
        sid = dbg.create("rle")["session"]
        dbg.subscribe(sid)
        dbg.execute(sid, "break pack.c:7")
        result = dbg.execute(sid, "run")
        print(result["stop"]["kind"], result["stop"]["actor"])

The client is synchronous and single-threaded by design: requests are
matched to responses by id, and server-pushed event notifications that
arrive interleaved with responses are buffered (``next_event`` /
``drain_events`` read them out).  :class:`DapClient` is the same kind
of scripted front-end for the daemon's Debug Adapter Protocol port.
"""

from __future__ import annotations

import itertools
import json
import socket
from collections import deque
from typing import Any, Dict, List, Optional


class RpcError(Exception):
    """A JSON-RPC error response, with the structured fields kept."""

    def __init__(self, code: int, message: str, data: Optional[Dict[str, Any]] = None):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.data = data or {}


class DebugClient:
    """One JSON-RPC connection to a debug daemon."""

    def __init__(self, host: str = "127.0.0.1", port: int = 9595,
                 timeout: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.file = self.sock.makefile("rb")
        self.events: deque = deque()
        self._next_id = 1

    # ------------------------------------------------------------- plumbing

    def close(self) -> None:
        try:
            self.file.close()
        finally:
            self.sock.close()

    def __enter__(self) -> "DebugClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def call(self, method: str, **params: Any) -> Any:
        """One request/response round trip; pushed events seen on the
        way are buffered, an error response raises :class:`RpcError`."""
        req_id = self._next_id
        self._next_id += 1
        payload = {"jsonrpc": "2.0", "id": req_id, "method": method,
                   "params": params}
        self.sock.sendall(json.dumps(payload).encode() + b"\n")
        while True:
            message = self._read_message()
            if message.get("id") == req_id:
                if "error" in message:
                    err = message["error"]
                    raise RpcError(err.get("code", -1), err.get("message", ""),
                                   err.get("data"))
                return message.get("result")
            if message.get("method") == "event":
                self.events.append(message["params"])
            # responses to other ids (pipelined callers) are dropped:
            # this client issues one request at a time

    def _read_message(self) -> Dict[str, Any]:
        line = self.file.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line.decode())

    # --------------------------------------------------------------- events

    def next_event(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """The next pushed event, waiting for one if the buffer is empty."""
        if self.events:
            return self.events.popleft()
        old = self.sock.gettimeout()
        if timeout is not None:
            self.sock.settimeout(timeout)
        try:
            while True:
                message = self._read_message()
                if message.get("method") == "event":
                    return message["params"]
        finally:
            self.sock.settimeout(old)

    def drain_events(self) -> List[Dict[str, Any]]:
        """Buffered events only (no blocking read)."""
        out = list(self.events)
        self.events.clear()
        return out

    # --------------------------------------------------------- conveniences

    def ping(self) -> Dict[str, Any]:
        return self.call("ping")

    def create(self, program: str, **opts: Any) -> Dict[str, Any]:
        return self.call("create", program=program, **opts)

    def attach(self, session: str) -> Dict[str, Any]:
        return self.call("attach", session=session)

    def detach(self, session: str) -> Dict[str, Any]:
        return self.call("detach", session=session)

    def destroy(self, session: str) -> Dict[str, Any]:
        return self.call("destroy", session=session)

    def sessions(self) -> List[Dict[str, Any]]:
        return self.call("sessions")["sessions"]

    def execute(self, session: str, command: str) -> Dict[str, Any]:
        return self.call("execute", session=session, command=command)

    def script(self, session: str, commands: List[str]) -> List[Dict[str, Any]]:
        return self.call("script", session=session, commands=commands)["results"]

    def subscribe(self, session: str,
                  events: Optional[List[str]] = None) -> Dict[str, Any]:
        if events is None:
            return self.call("subscribe", session=session)
        return self.call("subscribe", session=session, events=events)

    def unsubscribe(self, session: str) -> Dict[str, Any]:
        return self.call("unsubscribe", session=session)

    def interrupt(self, session: str) -> Dict[str, Any]:
        return self.call("interrupt", session=session)

    def state(self, session: str) -> Dict[str, Any]:
        return self.call("state", session=session)

    def actors(self, session: str) -> List[Dict[str, Any]]:
        return self.call("actors", session=session)["actors"]

    def frames(self, session: str, actor: Optional[str] = None) -> List[Dict[str, Any]]:
        return self.call("frames", session=session, actor=actor)["frames"]

    def variables(self, session: str, actor: Optional[str] = None,
                  frame: int = 0) -> List[Dict[str, Any]]:
        return self.call("variables", session=session, actor=actor,
                         frame=frame)["variables"]

    def evaluate(self, session: str, expr: str) -> Dict[str, Any]:
        return self.call("evaluate", session=session, expr=expr)

    def breakpoints(self, session: str) -> List[Dict[str, Any]]:
        return self.call("breakpoints", session=session)["breakpoints"]

    def metrics(self, session: str) -> str:
        return self.call("metrics", session=session)["openmetrics"]

    def flight(self, session: str) -> Dict[str, Any]:
        return self.call("flight", session=session)["bundle"]

    def run_sharded(self, session: str) -> Dict[str, Any]:
        return self.call("run_sharded", session=session)

    def shutdown(self) -> Dict[str, Any]:
        return self.call("shutdown")


class DapClient:
    """One scripted DAP connection: Content-Length framing, responses
    matched to requests by command, events buffered until waited for."""

    def __init__(self, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.file = self.sock.makefile("rb")
        self._seq = itertools.count(1)
        self.events: List[Dict[str, Any]] = []

    def close(self) -> None:
        self.file.close()
        self.sock.close()

    def send(self, command: str, arguments: Optional[Dict[str, Any]] = None) -> None:
        body: Dict[str, Any] = {"seq": next(self._seq), "type": "request", "command": command}
        if arguments is not None:
            body["arguments"] = arguments
        data = json.dumps(body).encode()
        self.sock.sendall(f"Content-Length: {len(data)}\r\n\r\n".encode() + data)

    def recv(self) -> Dict[str, Any]:
        length = None
        while True:
            line = self.file.readline()
            if not line:
                raise ConnectionError("daemon closed the DAP stream")
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        if length is None:
            raise ConnectionError("DAP message without a Content-Length header")
        return json.loads(self.file.read(length))

    def request(self, command: str, arguments: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Round trip; events arriving before the response are buffered."""
        self.send(command, arguments)
        while True:
            message = self.recv()
            if message["type"] == "response" and message["command"] == command:
                return message
            if message["type"] == "event":
                self.events.append(message)

    def wait_event(self, name: str) -> Dict[str, Any]:
        for i, ev in enumerate(self.events):
            if ev["event"] == name:
                return self.events.pop(i)
        while True:
            message = self.recv()
            if message["type"] == "event":
                if message["event"] == name:
                    return message
                self.events.append(message)


def scrape_metrics(host: str, port: int, path: str = "/metrics",
                   timeout: float = 10.0) -> str:
    """Plain HTTP GET against the daemon's scrape endpoint; returns the
    OpenMetrics body (raises on non-200)."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0].split()
    if len(status) < 2 or status[1] != b"200":
        raise ConnectionError(f"scrape failed: {head.decode('latin-1', 'replace')}")
    return body.decode()
