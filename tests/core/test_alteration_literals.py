"""Nested value literals, drop accounting and record idempotence (§III, §VI-D)."""

import pytest

from repro.cminus.typesys import S32, U32, ArrayType, StructType
from repro.core import parse_value_literal
from repro.core.model import DbgToken
from repro.core.record import TokenRecorder
from repro.errors import DataflowDebugError

from .util import make_session

NESTED = StructType(
    name="T", fields=(("a", ArrayType(elem=S32, size=3)), ("b", S32))
)


# ------------------------------------------------------- nested literal parsing


def test_struct_with_array_field_parses():
    assert parse_value_literal("{a=[1, 2, 3], b=5}", NESTED) == {"a": [1, 2, 3], "b": 5}


def test_nested_literal_defaults_missing_elements():
    assert parse_value_literal("{a=[7], b=2}", NESTED) == {"a": [7, 0, 0], "b": 2}
    assert parse_value_literal("{b=2}", NESTED) == {"a": [0, 0, 0], "b": 2}


def test_array_of_structs_parses():
    point = StructType(name="P", fields=(("x", S32), ("y", S32)))
    ctype = ArrayType(elem=point, size=2)
    assert parse_value_literal("[{x=1, y=2}, {x=3}]", ctype) == [
        {"x": 1, "y": 2},
        {"x": 3, "y": 0},
    ]


def test_struct_in_struct_parses():
    inner = StructType(name="I", fields=(("v", U32),))
    outer = StructType(name="O", fields=(("i", inner), ("n", U32)))
    assert parse_value_literal("{i={v=0x10}, n=3}", outer) == {"i": {"v": 16}, "n": 3}


def test_unbalanced_brackets_rejected():
    with pytest.raises(DataflowDebugError, match="unbalanced"):
        parse_value_literal("{a=[1, 2, b=5}", NESTED)
    with pytest.raises(DataflowDebugError, match="unbalanced"):
        parse_value_literal("{a=1], b=5}", NESTED)


def test_unknown_field_rejected():
    with pytest.raises(DataflowDebugError, match="no field"):
        parse_value_literal("{c=1}", NESTED)


# -------------------------------------------------- round-trip through the CLI


def test_nested_literal_round_trips_through_insert_and_poke():
    session, cli, dbg, runtime, sink = make_session([5], stop_on_init=True)
    dbg.run()
    link = runtime.find_iface("stim::out").link
    link.ctype = NESTED
    out = cli.execute("iface stim::out insert {a=[1, 2, 3], b=5}")
    assert out[0].startswith("Token inserted on `stim::out'")
    assert link.tokens()[-1].value == {"a": [1, 2, 3], "b": 5}
    idx = link.occupancy - 1
    cli.execute(f"iface stim::out poke {idx} {{a=[9, 8], b=1}}")
    assert link.tokens()[-1].value == {"a": [9, 8, 0], "b": 1}


# --------------------------------------------------------------- drop purging


def test_drop_purges_debugger_model():
    session, cli, dbg, runtime, sink = make_session([5], stop_on_init=True)
    dbg.run()
    token = session.alter.insert("stim::out", "42")
    dbg_link = session.model.find_connection("stim::out").link
    mirrored = [t for t in dbg_link.in_flight if t.seq == token.seq]
    assert len(mirrored) == 1
    dbg_tok = mirrored[0]

    session.alter.drop("stim::out", dbg_link.in_flight.index(dbg_tok))
    assert all(t.seq != token.seq for t in dbg_link.in_flight)
    assert dbg_tok.popped_at is not None  # lingering references read as consumed
    assert dbg_tok.consumed_by == "<dropped>"
    assert dbg_link.total_dropped == 1
    report = "\n".join(session.links_report())
    assert "dropped 1" in report


def test_insert_mirror_gated_on_narrowed_capture():
    session, cli, dbg, runtime, sink = make_session([5], stop_on_init=True)
    dbg.run()
    session.capture.set_data_mode("none")
    token = session.alter.insert("stim::out", "42")
    # runtime link holds the token, but the model must not grow a phantom
    # in-flight entry whose pop will never be observed
    assert any(t.seq == token.seq for t in runtime.find_iface("stim::out").link.tokens())
    dbg_link = session.model.find_connection("stim::out").link
    assert all(t.seq != token.seq for t in dbg_link.in_flight)


# -------------------------------------------------------- record idempotence


def _tok(seq):
    return DbgToken(seq=seq, value=seq, ctype_name="U32", src_actor="a",
                    dst_actor="b", src_iface="a::o", dst_iface="b::i")


def test_record_enable_is_idempotent():
    rec = TokenRecorder()
    buf = rec.enable("f::out", 4)
    for i in range(5):
        buf.append(_tok(i))
    assert [t.seq for t in buf.entries] == [1, 2, 3, 4]
    assert buf.dropped == 1 and buf.recorded == 5

    again = rec.enable("f::out")
    assert again is buf
    assert [t.seq for t in again.entries] == [1, 2, 3, 4]
    assert again.recorded == 5 and again.dropped == 1


def test_record_enable_resize_trims_oldest_into_dropped():
    rec = TokenRecorder()
    buf = rec.enable("f::out", 4)
    for i in range(4):
        buf.append(_tok(i))
    shrunk = rec.enable("f::out", 2)
    assert shrunk is buf
    assert [t.seq for t in buf.entries] == [2, 3]
    assert buf.dropped == 2
    grown = rec.enable("f::out", 8)
    assert grown is buf and buf.capacity == 8
    assert [t.seq for t in buf.entries] == [2, 3]
