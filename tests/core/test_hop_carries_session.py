"""A time-travel hop hands the whole debugging session to the machine it
lands on: breakpoints, the history views, the RV checks (their verdicts
and marks re-derived from the landed journal), the profiler's armed
state and the session's settings.  A hop that fails leaves every part
where it was."""

import pytest

from repro.errors import ReplayError
from repro.serve.builders import build_program_cli

#: the rle demo stopped at its second ``pack.c:7`` hit, event 103
PREFIX = ("record on", "break pack.c:7", "run", "continue", "continue")
#: one check of each action; check 1 trips at event 117, check 2 at 119
CHECKS = (
    "check add log occupancy pack::o->expand::i <= 0",
    "check add mark rate expand::o == 1 * expand::i",
    "check add log deadlock-free",
)
#: check 2 off until the next hit (event 139), so it trips at 157
TOGGLED = ("check disable 2", "continue", "check enable 2")


def rle(*commands):
    cli, _sink = build_program_cli("rle")
    execute(cli, *commands)
    return cli


def execute(cli, *commands):
    for command in commands:
        out = cli.execute(command)
        assert not any(line.startswith("error:") for line in out), (command, out)


def session_of(cli):
    return cli.dataflow_handler.session


def stop_at(cli, position):
    """Run on to event ``position``, as a live run stopped there."""
    session_of(cli).replay.recorder.target_index = position
    assert cli.execute("continue")[0].startswith("Replay stop")
    assert session_of(cli).tap.position == position


def hop(cli, position):
    assert cli.execute(f"replay to event {position}")[0].startswith("Replay stop")


def verdicts(cli):
    return cli.execute("check list") + cli.execute("info verdict")


def parts(cli):
    """What the user set up, as the commands and the session read it."""
    session = session_of(cli)
    return {
        "checks": verdicts(cli),
        "profiler": cli.execute("prof status")[0],
        "capture": cli.execute("dataflow info")[-1],
        "graph_update": session.graph_update,
        "state_recorded": sorted(session.state_recorded),
        "breakpoints": cli.execute("info breakpoints"),
        "trace": cli.execute("trace status")[0],
        "flight": cli.execute("flight status")[3],
    }


def test_the_rle_transcript_keeps_every_part():
    cli = rle("record on", "dataflow update realtime", "dataflow capture none", "run",
              "filter pack record state", "check add log deadlock-free", "prof on",
              "filter pack catch work", "flight auto off")
    before = parts(cli)
    assert before["flight"] == "  auto-dump: off (violation, error, deadlock)"
    assert before["checks"][0] == "checks: armed (1 defined, 0 verdict(s))"
    assert before["capture"] == "data capture mode: none"
    assert (before["graph_update"], before["state_recorded"]) == ("realtime", ["codec.pack"])
    left = session_of(cli)
    hop(cli, 5)
    landed = session_of(cli)
    assert landed is not left
    assert parts(cli) == before
    assert "  counts cover the events after #5 (a hop restarts them)" in cli.execute("prof status")
    # the machine the hop left keeps none of it
    assert not left.checks.checks and not left.prof.enabled and not left.tap.consumers
    assert (left.graph_update, left.state_recorded, left.capture.data_mode) == (
        "on-stop", set(), "all")
    assert left.flight.auto_dump
    assert cli.execute("continue")[0] == "[Stopped at WORK method of filter `pack']"
    assert verdicts(cli) == before["checks"]
    assert landed.tap.consumers == (landed.checks.feed,)
    status = cli.execute("prof status")
    assert status[0] == "profiler: on" and not status[1].startswith("profile: 0 cycle(s)")


def test_verdicts_after_a_hop_past_the_checks_match_the_live_run():
    """Check 1 tripped and was removed, check 2 tripped after its disabled
    stretch: the landed checks judged exactly what the live ones had at
    event 170, the removed check's verdict included."""
    cli = rle(*PREFIX, *CHECKS, *TOGGLED, "delete", "check remove 1", "continue")
    hop(cli, 170)
    live = rle(*PREFIX, *CHECKS, *TOGGLED, "delete", "check remove 1")
    stop_at(live, 170)
    assert verdicts(cli) == verdicts(live)
    assert verdicts(cli)[3].startswith("check 1 (occupancy pack::o->expand::i <= 0) violated")
    assert verdicts(cli)[-1] == "marked for replay: event #157  (use `replay to event N`)"


def test_checks_landed_before_they_were_added_judge_from_the_landing():
    """Landed at event 60, before the checks existed, they stay armed from
    there on: the run judges what a live run that added them at 60 does."""
    cli = rle(*PREFIX, *CHECKS, *TOGGLED, "delete", "continue")
    hop(cli, 60)
    live = rle("record on", "run")
    stop_at(live, 60)
    execute(live, *CHECKS)
    assert verdicts(cli) == verdicts(live)
    execute(cli, "continue")
    execute(live, "continue")
    assert verdicts(cli) == verdicts(live)
    assert verdicts(cli)[-1] == "marked for replay: event #72  (use `replay to event N`)"


def test_a_failed_hop_leaves_every_part_as_it_was():
    cli = rle(*PREFIX, *CHECKS, "trace on", "dataflow events on", "dataflow update realtime",
              "prof on", "watch have")
    session = session_of(cli)
    before = parts(cli)
    ranges = [[list(r) for r in view.ranges] for view in (session.telemetry, session.event_tail)]
    session.replay.builder = lambda: session  # an already running machine
    with pytest.raises(ReplayError, match="already-running"):
        session.replay.replay_to("event 5")
    assert session_of(cli) is session and cli.dbg is session.dbg
    assert parts(cli) == before
    assert [view.ranges for view in (session.telemetry, session.event_tail)] == ranges
    assert session.tap.consumers == (session.checks.feed,) and session.prof.enabled


def test_a_backward_hop_then_a_forward_hop():
    """Back before the first verdict (a rebuild), then forward on the same
    machine past both: the forward drive judges the events it passes, as
    the live run did, and every other part stays."""
    cli = rle(*PREFIX, *CHECKS, "delete", "prof on", "dataflow capture none", "continue")
    hop(cli, 110)
    assert cli.execute("info verdict") == ["no verdicts (all armed checks hold so far)"]
    landed = session_of(cli)
    before = parts(cli)
    hop(cli, 170)
    assert session_of(cli) is landed
    live = rle(*PREFIX, *CHECKS, "delete")
    stop_at(live, 170)
    assert verdicts(cli) == verdicts(live)
    after = parts(cli)
    assert {k: v for k, v in after.items() if k != "checks"} == {
        k: v for k, v in before.items() if k != "checks"}
    assert (after["profiler"], after["capture"]) == ("profiler: on", "data capture mode: none")
