"""Transport-layer units: line JSON-RPC framing, sniffing, DAP frames."""

import asyncio
import json

from repro.serve import protocol as proto


def test_encode_line_is_compact_newline_terminated():
    data = proto.encode_line({"b": 1, "a": [1, 2]})
    assert data.endswith(b"\n")
    assert b" " not in data  # compact separators: the newline is the framing
    assert json.loads(data) == {"a": [1, 2], "b": 1}


def test_response_and_error_shapes():
    ok = proto.response(7, {"x": 1})
    assert ok == {"jsonrpc": "2.0", "id": 7, "result": {"x": 1}}
    err = proto.error_response(7, proto.ERR_QUOTA, "spent", {"quota": "max_events"})
    assert err["error"]["code"] == 1002
    assert err["error"]["data"] == {"quota": "max_events"}
    bare = proto.error_response(None, proto.ERR_PARSE, "bad")
    assert "data" not in bare["error"]


def test_event_notification_has_no_id():
    note = proto.event_notification("s1", "stop", {"kind": "breakpoint"})
    assert "id" not in note
    assert note["method"] == "event"
    assert note["params"]["session"] == "s1"
    assert note["params"]["type"] == "stop"


def test_parse_request_happy_path():
    request, problem = proto.parse_request(
        b'{"jsonrpc":"2.0","id":1,"method":"ping"}\n'
    )
    assert problem is None
    assert request["method"] == "ping"
    assert request["params"] == {}  # defaulted, always a dict


def test_parse_request_null_params_normalised():
    request, problem = proto.parse_request(
        b'{"id":1,"method":"ping","params":null}'
    )
    assert problem is None
    assert request["params"] == {}


def test_parse_request_rejects_garbage():
    request, problem = proto.parse_request(b"{nope")
    assert request is None and "parse error" in problem

    request, problem = proto.parse_request(b"[1,2,3]")
    assert request is None and "not an object" in problem

    request, problem = proto.parse_request(b'{"id":1}')
    assert request is None and "missing method" in problem

    request, problem = proto.parse_request(b'{"method":"x","params":[1]}')
    assert request is None and "params must be an object" in problem


def test_sniff_protocol():
    assert proto.sniff_protocol(b"{") == "jsonrpc"
    assert proto.sniff_protocol(b"C") == "dap"
    assert proto.sniff_protocol(b"G") == "http"
    # unknown first bytes fall back to JSON-RPC so the client at least
    # gets a parse error back instead of silence
    assert proto.sniff_protocol(b"x") == "jsonrpc"


def _feed_reader(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def _read_dap(data: bytes):
    async def go():
        return await proto.read_dap_message(_feed_reader(data))

    return asyncio.run(go())


def test_dap_round_trip():
    message = {"type": "request", "command": "initialize", "seq": 1}
    assert _read_dap(proto.encode_dap(message)) == message


def test_dap_eof_and_bad_frames_return_none():
    assert _read_dap(b"") is None
    assert _read_dap(b"Content-Length: nope\r\n\r\n{}") is None
    assert _read_dap(b"X-Whatever: 1\r\n\r\n{}") is None  # no length at all
    # truncated body
    assert _read_dap(b'Content-Length: 99\r\n\r\n{"a":1}') is None
    # body is not an object
    assert _read_dap(b"Content-Length: 7\r\n\r\n[1,2,3]") is None


def test_dap_eof_mid_header_returns_none():
    assert _read_dap(b"Content-Length: 2\r\n") is None


def test_dap_overlong_header_returns_none():
    pad = b"X-Pad: " + b"x" * 8192 + b"\r\n"  # the 8 KiB header cap
    assert _read_dap(pad + b"Content-Length: 2\r\n\r\n{}") is None
    # without a separator in reach of the stream's limit as well
    assert _read_dap(b"x" * (1 << 17)) is None


def test_dap_body_over_the_wire_limit_returns_none():
    length = proto.MAX_LINE_BYTES + 1
    assert _read_dap(b"Content-Length: %d\r\n\r\n{}" % length) is None


def test_dap_bad_json_returns_none():
    assert _read_dap(b"Content-Length: 3\r\n\r\n{x}") is None


class CountingReader:
    """A StreamReader proxy that counts every read call."""

    def __init__(self, reader):
        self.reader = reader
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.reader, name)
        if not name.startswith("read"):
            return method

        async def counted(*args):
            self.calls += 1
            return await method(*args)

        return counted


def test_dap_frame_takes_one_header_read_and_one_body_read():
    frames = [{"type": "request", "command": "stackTrace", "seq": n,
               "arguments": {"threadId": 1000 + n}} for n in range(3)]

    async def go():
        reader = CountingReader(_feed_reader(b"".join(proto.encode_dap(f) for f in frames)))
        got = []
        for _ in frames:
            got.append(await proto.read_dap_message(reader))
            assert reader.calls == 2 * len(got)
        return got

    assert asyncio.run(go()) == frames


# ------------------------------------------------------- JSON-RPC framing


def test_line_framer_splits_and_keeps_the_partial_tail():
    framer = proto.LineFramer()
    assert framer.feed(b'{"a":1}\n{"b"') == [b'{"a":1}']
    assert framer.feed(b":2}\n\n") == [b'{"b":2}', b""]
    assert framer.feed(b"") == []
    assert framer.feed(b"x\r\n") == [b"x\r"]


def test_line_framer_rejects_an_overlong_line_once_and_resyncs(monkeypatch):
    monkeypatch.setattr(proto, "MAX_LINE_BYTES", 8)
    framer = proto.LineFramer()
    assert framer.feed(b"12345678\n") == [b"12345678"]  # at the limit: kept
    assert framer.feed(b"123456789\nok\n") == [None, b"ok"]
    # known too long before its newline arrives: reported at once, and
    # the rest of it is discarded up to the newline, across chunks
    assert framer.feed(b"abcdefghij") == [None]
    assert framer.feed(b"klmnop") == []
    assert framer.feed(b"qrs\nnext\npart") == [b"next"]
    assert framer.feed(b"ial\n") == [b"partial"]
