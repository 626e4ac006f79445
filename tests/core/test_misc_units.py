"""Small-unit coverage: stop rendering, DOT options, token formatting."""

from repro.cminus.typesys import U16, U32
from repro.core.dot import render_dot
from repro.core.model import DataflowModel, DbgActor, DbgConnection, DbgLink, DbgToken
from repro.dbg.stop import StopEvent, StopKind
from repro.pedf.tokens import Token


def test_stop_event_descriptions():
    cases = {
        StopKind.BREAKPOINT: StopEvent(StopKind.BREAKPOINT, actor="a", filename="f.c", line=3, bp_id=1),
        StopKind.WATCHPOINT: StopEvent(StopKind.WATCHPOINT, "x: old = 1, new = 2", actor="a", bp_id=2),
        StopKind.FUNCTION_BP: StopEvent(StopKind.FUNCTION_BP, "f", actor="a", bp_id=3),
        StopKind.API_BP: StopEvent(StopKind.API_BP, "entry pedf_rt_push", bp_id=4),
        StopKind.FINISH: StopEvent(StopKind.FINISH, "f returned 3", actor="a"),
        StopKind.STEP: StopEvent(StopKind.STEP, actor="a", filename="f.c", line=9),
        StopKind.TRAP: StopEvent(StopKind.TRAP, actor="a"),
        StopKind.DATAFLOW: StopEvent(StopKind.DATAFLOW, "[Stopped ...]"),
        StopKind.DEADLOCK: StopEvent(StopKind.DEADLOCK, "blocked actors: x"),
        StopKind.EXITED: StopEvent(StopKind.EXITED, "done"),
        StopKind.ERROR: StopEvent(StopKind.ERROR, "boom", actor="a"),
        StopKind.PAUSED: StopEvent(StopKind.PAUSED, "interrupted"),
    }
    for kind, ev in cases.items():
        lines = ev.describe()
        assert lines and all(isinstance(l, str) for l in lines), kind
    assert "Breakpoint 1" in cases[StopKind.BREAKPOINT].describe()[0]
    assert "[Program exited: done]" == cases[StopKind.EXITED].describe()[0]
    no_msg = StopEvent(StopKind.EXITED)
    assert no_msg.describe() == ["[Program exited]"]


def make_tiny_model():
    model = DataflowModel()
    model.program_name = "tiny"
    a = model.add_actor(DbgActor(name="a", qualname="m.a", module="m", kind="filter"))
    b = model.add_actor(DbgActor(name="b", qualname="m.b", module="m", kind="filter"))
    out = DbgConnection(actor=a, name="o", direction="output", ctype_name="U32")
    inp = DbgConnection(actor=b, name="i", direction="input", ctype_name="U32")
    a.outbound["o"] = out
    b.inbound["i"] = inp
    link = model.add_link(DbgLink(src=out, dst=inp))
    return model, link


def test_dot_without_counts():
    model, link = make_tiny_model()
    link.in_flight.append(
        DbgToken(seq=1, value=5, ctype_name="U32", src_actor="a", dst_actor="b",
                 src_iface="a::o", dst_iface="b::i")
    )
    with_counts = render_dot(model)
    without = render_dot(model, include_counts=False)
    assert 'label="1"' in with_counts
    assert 'label="1"' not in without
    assert render_dot(model, title="custom").startswith('digraph "custom"')


def test_dbg_token_hop_formatting():
    t = DbgToken(seq=3, value={"Addr": 0x145D, "Izz": 9}, ctype_name="CbCrMB_t",
                 src_actor="red", dst_actor="pipe",
                 src_iface="red::o", dst_iface="pipe::i")
    assert t.format_hop() == "red -> pipe (CbCrMB_t) {Addr=0x145d, Izz=9}"
    t2 = DbgToken(seq=4, value=[1, 2], ctype_name="U8[2]", src_actor="x", dst_actor="y",
                  src_iface="x::o", dst_iface="y::i")
    assert t2.format_payload() == "{1, 2}"
    nested = DbgToken(seq=5, value={"m": {"q": 1}, "l": [1]}, ctype_name="S",
                      src_actor="x", dst_actor="y", src_iface="x::o", dst_iface="y::i")
    assert nested.format_payload() == "{m={...}, l=[...]}"


def test_runtime_token_str():
    tok = Token(value=7, ctype=U16, seq=2, src_iface="a::o", dst_iface="b::i")
    assert str(tok) == "#2 (U16) 7"

