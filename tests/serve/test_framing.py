"""Wire-fuzz slice: JSON-RPC framing is independent of how the bytes
arrive.

Whatever chunks the transport delivers a pipelined request stream in —
blank lines, ``\\r\\n`` endings, several requests per chunk, a split
inside a multi-byte UTF-8 character — the connection answers exactly as
it does when every request arrives in its own write: the same replies,
in request order, one request in flight at a time.  The property runs
against :class:`~repro.serve.daemon.Connection` on a recording
transport; one case drives a live daemon over a socket.
"""

import asyncio
import json
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.daemon import Connection, DebugDaemon
from repro.serve.sessions import SessionRegistry


def _line(obj, end=b"\n"):
    # raw UTF-8 on the wire (no \\u escapes), so a chunk can split a character
    return json.dumps(obj, ensure_ascii=False).encode() + end


#: request kinds; ``{id}`` is filled in per position.  The session-bound
#: ones go to the session's worker, the rest are answered on the loop.
KINDS = {
    "breakpoints": lambda i: _line({"id": i, "method": "breakpoints",
                                    "params": {"session": "s1"}}),
    "actors": lambda i: _line({"id": i, "method": "actors",
                               "params": {"session": "s1"}}),
    "notify": lambda i: _line({"method": "breakpoints", "params": {"session": "s1"}}),
    "unknown-utf8": lambda i: _line({"id": i, "method": "nöpe-🐛"}),
    "crlf": lambda i: _line({"id": i, "method": "frobnicate"}, end=b"\r\n"),
    "no-session": lambda i: _line({"id": i, "method": "state",
                                   "params": {"session": "s404"}}),
    "bad-params": lambda i: _line({"id": i, "method": "frames"}),
    "garbage": lambda i: b"{not json \xc3\xa9\n",
    "blank": lambda i: b"\n",
    "blank-crlf": lambda i: b"  \r\n",
}


class _Transport:
    """Records writes and honours pause/resume like a socket transport."""

    def __init__(self):
        self.out = bytearray()
        self.paused = False
        self.closed = False

    def write(self, data):
        self.out += data

    def pause_reading(self):
        self.paused = True

    def resume_reading(self):
        self.paused = False

    def close(self):
        self.closed = True


@pytest.fixture(scope="module")
def offline():
    """A daemon that listens nowhere, with one session, ``s1``."""
    registry = SessionRegistry()
    registry.create("rle")  # s1
    yield DebugDaemon(registry=registry)
    registry.close_all()


def _replies(daemon, chunks, expect):
    """Feed ``chunks`` to one connection (waiting while it holds input
    back, as a socket would) and return the reply objects."""
    loop = asyncio.new_event_loop()
    daemon.loop = loop
    transport = _Transport()
    conn = Connection(daemon)
    conn.connection_made(transport)

    async def drive():
        deadline = time.monotonic() + 30
        for chunk in chunks:
            while transport.paused and time.monotonic() < deadline:
                await asyncio.sleep(0.0005)
            conn.data_received(chunk)
        while transport.out.count(b"\n") < expect and time.monotonic() < deadline:
            await asyncio.sleep(0.0005)
        # nothing beyond the expected replies trails in
        await asyncio.sleep(0.01)

    try:
        loop.run_until_complete(drive())
    finally:
        conn.close()
        loop.close()
    return [json.loads(line) for line in bytes(transport.out).splitlines()]


def _stream(kinds):
    return [KINDS[kind](i) for i, kind in enumerate(kinds, 1)]


def _expected_count(kinds):
    return sum(kind not in ("notify", "blank", "blank-crlf") for kind in kinds)


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=10),
    data=st.data(),
)
def test_any_chunking_gives_the_replies_of_one_write_per_request(offline, kinds, data):
    requests = _stream(kinds)
    expect = _expected_count(kinds)
    reference = _replies(offline, requests, expect)
    assert len(reference) == expect
    # replies come back in request order
    ids = [r["id"] for r in reference if r["id"] is not None]
    assert ids == sorted(ids)

    stream = b"".join(requests)
    cuts = data.draw(
        st.lists(st.integers(1, max(1, len(stream) - 1)), unique=True, max_size=40)
    )
    bounds = [0, *sorted(cuts), len(stream)]
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    assert _replies(offline, chunks, expect) == reference


def test_byte_at_a_time_splits_every_utf8_character(offline):
    kinds = ["unknown-utf8", "breakpoints", "garbage", "crlf", "blank", "unknown-utf8"]
    requests = _stream(kinds)
    stream = b"".join(requests)
    assert "🐛".encode() in stream and "ö".encode() in stream
    expect = _expected_count(kinds)
    reference = _replies(offline, requests, expect)
    assert [r.get("error", {}).get("code") for r in reference] == [
        -32601, None, -32700, -32601, -32601,
    ]
    assert "nöpe-🐛" in reference[0]["error"]["message"]
    single_bytes = [stream[i:i + 1] for i in range(len(stream))]
    assert _replies(offline, single_bytes, expect) == reference


def test_live_daemon_pipelined_stream_any_chunking(client, daemon):
    sid = client.create("rle")["session"]
    client.execute(sid, "break pack.c:7")
    requests = [
        _line({"id": 1, "method": "breakpoints", "params": {"session": sid}}),
        b"\r\n",
        _line({"id": 2, "method": "nöpe-🐛"}),
        _line({"id": 3, "method": "frames", "params": {"session": sid}}, end=b"\r\n"),
        _line({"method": "actors", "params": {"session": sid}}),
        _line({"id": 4, "method": "evaluate", "params": {"session": sid, "expr": "1+2"}}),
        b"{oops\n",
        _line({"id": 5, "method": "actors", "params": {"session": sid}}),
    ]

    def exchange(chunks):
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=30) as sock:
            f = sock.makefile("rb")
            for chunk in chunks:
                sock.sendall(chunk)
                time.sleep(0.002)
            return [json.loads(f.readline()) for _ in range(6)]

    one_each = exchange(requests)
    assert [r["id"] for r in one_each] == [1, 2, 3, 4, None, 5]
    stream = b"".join(requests)
    # 5-byte chunks split the 4-byte emoji and several requests
    assert exchange([stream[i:i + 5] for i in range(0, len(stream), 5)]) == one_each
    assert exchange([stream]) == one_each
