"""Wire framing: line-delimited JSON-RPC 2.0 and DAP Content-Length.

One daemon port speaks three protocols, distinguished by the first byte
a client sends (see :func:`sniff_protocol`):

- ``{`` — line-delimited JSON-RPC 2.0: one JSON object per ``\\n``-
  terminated line, requests carry ``id``, server-pushed events are
  id-less notifications with ``method: "event"``;
- ``C`` — DAP: ``Content-Length: N\\r\\n\\r\\n<N bytes of JSON>`` frames,
  the Debug Adapter Protocol's standard transport;
- ``G`` — HTTP ``GET``: the OpenMetrics scrape endpoint.

Everything here is transport-only (bytes and dicts, and the JSON-RPC
line framer); semantics live in :mod:`repro.serve.daemon` and
:mod:`repro.serve.dap`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Tuple

# JSON-RPC 2.0 reserved codes
ERR_PARSE = -32700
ERR_INVALID_REQUEST = -32600
ERR_METHOD_NOT_FOUND = -32601
ERR_INVALID_PARAMS = -32602
ERR_INTERNAL = -32603

# application codes (documented in README's "Debug server" section)
ERR_NO_SESSION = 1001  # unknown / already-destroyed session id
ERR_QUOTA = 1002  # a per-session quota is exhausted (data names which)
ERR_SESSION_FAILED = 1003  # the session raised; the daemon survives
ERR_SHUTTING_DOWN = 1004  # daemon is draining; no new work accepted

MAX_LINE_BYTES = 1 << 20  # one wire request, newline excluded
MAX_DAP_HEADER_BYTES = 8192  # one DAP header block, separator included


class LineFramer:
    """Splits a JSON-RPC byte stream into ``\\n``-terminated lines.

    :meth:`feed` takes whatever chunk the transport delivered and returns
    the lines it completed, without their newline, in order.  A line
    longer than ``MAX_LINE_BYTES`` comes out once as ``None``, as soon as
    it is known to be too long, and its bytes are discarded up to its
    newline, so the stream stays in step and the connection stays usable.
    """

    def __init__(self) -> None:
        self._partial = b""
        self._discarding = False

    def feed(self, data: bytes) -> List[Optional[bytes]]:
        if self._discarding:
            end = data.find(b"\n")
            if end < 0:
                return []
            self._discarding = False
            data = data[end + 1 :]
        if self._partial:
            data = self._partial + data
        lines: List[Optional[bytes]] = data.split(b"\n")
        self._partial = lines.pop()
        limit = MAX_LINE_BYTES
        if lines and max(map(len, lines)) > limit:
            lines = [line if len(line) <= limit else None for line in lines]
        if len(self._partial) > limit:
            lines.append(None)
            self._partial = b""
            self._discarding = True
        return lines


def encode_line(obj: Dict[str, Any]) -> bytes:
    """One protocol line (compact separators: the framing is the
    newline, not whitespace)."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode() + b"\n"


def response(req_id: Any, result: Any) -> Dict[str, Any]:
    return {"jsonrpc": "2.0", "id": req_id, "result": result}


def error_response(
    req_id: Any, code: int, message: str, data: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    err: Dict[str, Any] = {"code": code, "message": message}
    if data is not None:
        err["data"] = data
    return {"jsonrpc": "2.0", "id": req_id, "error": err}


def event_notification(session_id: Optional[str], kind: str, data: Any) -> Dict[str, Any]:
    """A server-pushed event (no ``id``: notifications expect no reply)."""
    return {
        "jsonrpc": "2.0",
        "method": "event",
        "params": {"session": session_id, "type": kind, "data": data},
    }


def parse_request(line: bytes) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """Decode one request line; returns ``(request, problem)`` with
    exactly one side set."""
    try:
        obj = json.loads(line.decode("utf-8", errors="replace"))
    except (ValueError, UnicodeError) as exc:
        return None, f"parse error: {exc}"
    if not isinstance(obj, dict):
        return None, "invalid request: not an object"
    method = obj.get("method")
    if not isinstance(method, str) or not method:
        return None, "invalid request: missing method"
    params = obj.get("params", {})
    if params is None:
        params = {}
    if not isinstance(params, dict):
        return None, "invalid request: params must be an object"
    obj["params"] = params
    return obj, None


def sniff_protocol(first_byte: bytes) -> str:
    """Classify a connection by its first byte: ``jsonrpc`` / ``dap`` /
    ``http`` (anything unrecognisable is treated as JSON-RPC so the
    client at least gets a parse error back)."""
    if first_byte == b"C":
        return "dap"
    if first_byte == b"G":
        return "http"
    return "jsonrpc"


# ------------------------------------------------------------- DAP framing


def encode_dap(obj: Dict[str, Any]) -> bytes:
    body = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()
    return f"Content-Length: {len(body)}\r\n\r\n".encode() + body


async def read_dap_message(reader) -> Optional[Dict[str, Any]]:
    """Read one Content-Length framed DAP message; None at EOF or on a
    bad frame.  One ``readuntil`` takes the header (at most
    ``MAX_DAP_HEADER_BYTES``, separator included) and one
    ``readexactly`` the body."""
    try:
        header = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
        return None
    if len(header) > MAX_DAP_HEADER_BYTES:
        return None
    length = None
    for line in header[:-4].split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            try:
                length = int(value.strip())
            except ValueError:
                return None
    if length is None or length < 0 or length > MAX_LINE_BYTES:
        return None
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        return None
    try:
        obj = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeError):
        return None
    return obj if isinstance(obj, dict) else None
