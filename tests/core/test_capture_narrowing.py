"""Capture-mode transitions mid-run: the model degrades gracefully."""

from repro.dbg import StopKind

from .util import make_session


def test_tokens_pushed_while_blind_are_reconstructed_on_pop():
    """Disable data capture, let tokens be produced, re-enable: the pops
    of never-seen tokens are reconstructed from the runtime token's own
    metadata (the §V mitigation's model-staleness, bounded)."""
    session, cli, dbg, runtime, sink = make_session([1, 2], stop_on_init=True)
    dbg.run()
    session.set_data_capture("none")
    # run until the first step completes, blind
    cp = session.catch_step("end", temporary=True)
    ev = dbg.cont()
    assert "end of step 1" in ev.message
    session.set_data_capture("all")
    ev = dbg.cont()
    assert ev.kind == StopKind.EXITED
    # the second value flowed under full capture; tokens that were pushed
    # blind but popped captured exist as reconstructed entries
    f1 = session.model.find_actor("filter_1")
    assert f1.last_token_in is not None
    # every retained token (in flight or last in/out) has consistent endpoints
    retained = [t for link in session.model.links for t in link.in_flight]
    for actor in session.model.actors.values():
        retained += [t for t in (actor.last_token_in, actor.last_token_out) if t is not None]
    assert retained
    for token in retained:
        assert token.dst_iface
        assert token.src_iface


def test_mode_changes_are_idempotent_and_switchable():
    session, cli, dbg, runtime, sink = make_session([1, 2, 3], stop_on_init=True)
    dbg.run()
    for mode in ("none", "none", "control-only", ["filter_1"], "all"):
        session.set_data_capture(mode)
    assert session.capture.data_mode == "all"
    ev = dbg.cont()
    assert ev.kind == StopKind.EXITED
    assert len(sink.values) == 3


def test_graph_before_init_is_empty_but_valid():
    session, cli, dbg, runtime, sink = make_session([1])
    dot = session.graph_dot()
    assert dot.startswith("digraph")
    assert "->" not in dot
