"""A scripted DAP front-end: initialize → launch → breakpoints →
configurationDone → stopped → stacks/scopes/variables → continue →
terminated — plus the reverse pair (reverseContinue / replayTo)."""

import pytest

from repro.serve.client import DapClient


@pytest.fixture
def dap(daemon):
    c = DapClient(daemon.port)
    yield c
    c.close()


def _launch(dap, **extra):
    init = dap.request("initialize", {"adapterID": "repro"})
    assert init["success"]
    caps = init["body"]
    assert caps["supportsConfigurationDoneRequest"]
    assert caps["supportsStepBack"]
    dap.wait_event("initialized")
    launch = dap.request("launch", {"program": "rle", **extra})
    assert launch["success"]
    return launch["body"]["session"]


def test_scripted_session_reaches_breakpoint_and_reads_frames(dap, daemon):
    sid = _launch(dap)
    assert sid in {s["id"] for s in daemon.daemon.registry.list()}

    bps = dap.request("setBreakpoints", {
        "source": {"path": "/work/codec/pack.c"},  # basename is what counts
        "breakpoints": [{"line": 7}],
    })
    assert bps["body"]["breakpoints"] == [
        {"verified": True, "line": 7, "message": None}
    ]
    assert dap.request("configurationDone")["success"]

    stopped = dap.wait_event("stopped")["body"]
    # stop_on_init parks at framework init first; continue to the bp
    if stopped["reason"] != "breakpoint":
        assert dap.request("continue")["body"]["allThreadsContinued"]
        stopped = dap.wait_event("stopped")["body"]
    assert stopped["reason"] == "breakpoint"
    assert stopped["allThreadsStopped"] is True
    assert stopped["text"]  # the human banner rides along

    threads = dap.request("threads")["body"]["threads"]
    names = {t["name"] for t in threads}
    assert any("codec.pack" in n for n in names)
    pack_id = next(t["id"] for t in threads if "codec.pack" in t["name"])
    assert stopped["threadId"] == pack_id

    stack = dap.request("stackTrace", {"threadId": pack_id})["body"]
    frame = stack["stackFrames"][0]
    assert frame["name"] == "PackFilter_work_function"
    assert frame["source"]["name"] == "pack.c"
    assert frame["line"] == 7
    assert frame["id"] == pack_id * 1000

    scopes = dap.request("scopes", {"frameId": frame["id"]})["body"]["scopes"]
    assert scopes[0]["name"] == "Locals"
    variables = dap.request(
        "variables", {"variablesReference": scopes[0]["variablesReference"]}
    )["body"]["variables"]
    assert {"have", "value"} <= {v["name"] for v in variables}
    assert all(v["variablesReference"] == 0 for v in variables)

    result = dap.request("evaluate", {"expression": "value"})
    assert result["success"]
    assert result["body"]["type"] == "U32"

    bad = dap.request("evaluate", {"expression": "no_such +"})
    assert bad["success"] is False

    disconnect = dap.request("disconnect")
    assert disconnect["success"]
    assert sid not in {s["id"] for s in daemon.daemon.registry.list()}


def test_function_breakpoints_and_stepping(dap):
    _launch(dap)
    placed = dap.request(
        "setFunctionBreakpoints",
        {"breakpoints": [{"name": "PackFilter_work_function"}]},
    )["body"]["breakpoints"]
    assert placed[0]["verified"]
    dap.request("configurationDone")
    stopped = dap.wait_event("stopped")["body"]
    if stopped["reason"] != "function breakpoint":
        dap.request("continue")
        stopped = dap.wait_event("stopped")["body"]
    assert stopped["reason"] == "function breakpoint"
    dap.request("next")
    assert dap.wait_event("stopped")["body"]["reason"] == "step"
    dap.request("stepIn")
    assert dap.wait_event("stopped")["body"]["reason"] == "step"


def test_step_out_returns_to_the_caller(dap):
    _launch(dap, program="amodule")
    dap.request("setBreakpoints", {
        "source": {"path": "the_source.c"},
        "breakpoints": [{"line": 6}],
    })
    dap.request("configurationDone")
    stopped = dap.wait_event("stopped")["body"]
    while stopped["reason"] != "breakpoint":
        dap.request("continue")
        stopped = dap.wait_event("stopped")["body"]
    thread = stopped["threadId"]
    assert dap.request("stepOut", {"threadId": thread})["success"]
    stopped = dap.wait_event("stopped")["body"]
    assert stopped["reason"] == "step"
    assert stopped["text"].startswith("Run till exit [AModule.filter_1]")


def test_register_watch_stop_is_a_data_breakpoint(dap, daemon):
    sid = _launch(dap, program="amodule")
    with daemon.connect() as client:
        assert client.execute(sid, "rwatch Filter1Filter_work_function r3")["ok"]
    dap.request("configurationDone")
    stopped = dap.wait_event("stopped")["body"]
    while stopped["text"].startswith("[Dataflow graph"):
        dap.request("continue")
        stopped = dap.wait_event("stopped")["body"]
    assert stopped["reason"] == "data breakpoint"
    assert stopped["text"].startswith("Register watchpoint 1: [AModule.filter_1] r3")


def test_terminate_is_acknowledged_with_a_terminated_event(dap, daemon):
    sid = _launch(dap)
    assert dap.request("terminate")["success"]
    dap.wait_event("terminated")
    # the session lives until the client disconnects
    assert sid in {s["id"] for s in daemon.daemon.registry.list()}
    assert dap.request("disconnect")["success"]
    assert sid not in {s["id"] for s in daemon.daemon.registry.list()}


def test_run_to_completion_emits_terminated(dap):
    _launch(dap)
    dap.request("configurationDone")
    dap.wait_event("stopped")  # init stop
    dap.request("continue")
    dap.wait_event("terminated")
    exited = dap.wait_event("exited")
    assert exited["body"]["exitCode"] == 0


def test_pause_parks_a_running_continue(dap):
    _launch(dap, values=[1 + (i % 9) for i in range(20000)])
    dap.request("configurationDone")
    dap.wait_event("stopped")  # init stop
    dap.request("continue")
    # the read loop stays free while the machine runs: pause lands
    dap.request("pause")
    stopped = dap.wait_event("stopped")["body"]
    assert stopped["reason"] == "pause"


def test_replay_to_and_reverse_continue(dap, daemon):
    sid = _launch(dap)
    # the DAP session is a daemon session like any other: arm the journal
    # through the JSON-RPC surface before the program starts (commands
    # serialise on the session's executor, so ordering holds)
    with daemon.connect() as rpc:
        assert rpc.execute(sid, "record on")["ok"]
        dap.request("setBreakpoints", {
            "source": {"path": "pack.c"},
            "breakpoints": [{"line": 7}],
        })
        dap.request("configurationDone")
        stopped = dap.wait_event("stopped")["body"]
        if stopped["reason"] != "breakpoint":
            dap.request("continue")
            stopped = dap.wait_event("stopped")["body"]
        assert stopped["reason"] == "breakpoint"
        # time travel, standard DAP flavour: back to the previous stop
        assert dap.request("reverseContinue")["success"]
        assert dap.wait_event("stopped")["body"]["reason"] == "goto"
        # and the custom absolute form: an exact journal coordinate
        resp = dap.request("replayTo", {"target": "event 3"})
        assert resp["success"]
        assert resp["body"]["stop"]["kind"] == "replay"
        assert dap.wait_event("stopped")["body"]["reason"] == "goto"
        # replaying without a recording is a clean failure, not a hangup
        fresh = rpc.create("rle")["session"]
        result = rpc.execute(fresh, "replay to event 3")
        assert not result["ok"]


def test_completions_answer_from_the_cli(dap):
    init = dap.request("initialize", {"adapterID": "repro"})
    assert init["body"]["supportsCompletionsRequest"]
    dap.wait_event("initialized")
    dap.request("launch", {"program": "rle"})
    dap.request("configurationDone")
    dap.wait_event("stopped")  # graph reconstruction: the model is known
    targets = dap.request("completions", {"text": "filter pa", "column": 10})["body"]["targets"]
    assert targets[0] == {"label": "pack", "start": 8, "length": 2}
    assert {t["label"] for t in targets} == {"pack", "pack::i", "pack::o"}
    # only the text left of the cursor counts
    body = dap.request("completions", {"text": "info br xyz", "column": 8})["body"]
    assert [t["label"] for t in body["targets"]] == ["breakpoints"]
    labels = [t["label"] for t in dap.request("completions", {"text": "ba"})["body"]["targets"]]
    assert labels == ["backtrace"]


def test_unsupported_request_is_answered_not_fatal(dap):
    _launch(dap)
    resp = dap.request("restartFrame", {"frameId": 1})
    assert resp["success"] is False
    assert "unsupported" in resp["message"]
    # the bridge keeps serving afterwards
    assert dap.request("threads")["success"]


def test_variables_at_an_isa_stop_read_vm_registers(dap, daemon):
    """Regression: at an ISA stop on the default tier the VM frame's
    locals come from its registers (``cmd`` is in scope at pc 4)."""
    sid = _launch(dap, program="amodule")
    with daemon.connect() as client:
        assert client.execute(sid, "breaki Filter1Filter_work_function+4")["ok"]
    dap.request("configurationDone")
    stopped = dap.wait_event("stopped")["body"]
    if stopped["reason"] != "instruction breakpoint":
        dap.request("continue")
        stopped = dap.wait_event("stopped")["body"]
    assert stopped["reason"] == "instruction breakpoint"
    thread = stopped["threadId"]
    frame = dap.request("stackTrace", {"threadId": thread})["body"]["stackFrames"][0]
    assert (frame["name"], frame["line"]) == ("Filter1Filter_work_function", 4)
    variables = dap.request("variables", {"variablesReference": frame["id"]})["body"]["variables"]
    assert [(v["name"], v["value"]) for v in variables] == [("cmd", "1")]
