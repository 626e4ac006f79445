"""User breakpoints, catchpoints, ``$N`` values and the taken init stop
follow a time-travel hop: they come off the machine a hop leaves before
anything is driven and go onto the machine it lands on, numbers and
state intact."""

from repro.dbg import StopKind
from repro.pedf import SYM_PUSH
from repro.serve.builders import build_program_cli


def rle_cli():
    cli, _sink = build_program_cli("rle")
    return cli


def session_of(cli):
    return cli.dataflow_handler.session


def stopped_at_pack7(cli):
    """``record on``, ``break pack.c:7``, ``run``, ``continue``."""
    for line in ("record on", "break pack.c:7", "run"):
        cli.execute(line)
    out = cli.execute("continue")
    assert out[0] == "Breakpoint 1, [codec.pack] at pack.c:7"
    return out


def test_a_hop_into_init_does_not_replay_the_init_stop():
    """The graph-reconstruction stop was taken before the hop; landing at
    event 5 (inside the init phase) does not report it again."""
    cli = rle_cli()
    stopped_at_pack7(cli)
    assert cli.execute("replay to event 5")[0].startswith("Replay stop: [Replayed to event #5,")
    assert cli.execute("continue")[0] == "Breakpoint 1, [codec.pack] at pack.c:7"


def test_breakpoints_and_history_follow_a_hop():
    cli = rle_cli()
    stopped_at_pack7(cli)
    assert cli.execute("print have") == ["$1 = 0"]
    before = cli.dbg
    assert cli.execute("replay to event 5")[0].startswith("Replay stop")
    assert cli.dbg is not before  # a rebuilt machine
    assert cli.execute("info breakpoints") == ["Num\tType\tEnb\tWhat", "1\tsource\ty\tpack.c:7"]
    assert cli.execute("print $1") == ["$2 = 0"]
    assert cli.execute("continue")[0] == "Breakpoint 1, [codec.pack] at pack.c:7"
    # the next number continues the old machine's numbering
    assert cli.execute("break pack.c:9")[0].startswith("Breakpoint 2 at pack.c:")
    # the abandoned machine was parked without them
    assert not before.breakpoints.visible()


def test_state_counts_and_numbers_survive_two_hops():
    cli = rle_cli()
    stopped_at_pack7(cli)
    cli.execute("break pack.c:9 if have > 100")
    cli.execute("disable 2")
    cli.execute("ignore 1 1")
    bp1 = cli.dbg.breakpoints.get(1)
    hits = bp1.hit_count
    cli.execute("replay to event 5")
    cli.execute("replay to event 40")
    reg = cli.dbg.breakpoints
    assert sorted(bp.id for bp in reg.visible()) == [1, 2]
    assert reg.get(1) is bp1 and bp1.hit_count == hits and bp1.ignore_count == 1
    bp2 = reg.get(2)
    assert not bp2.enabled and bp2.condition == "have > 100"
    assert reg.next_id == 3
    assert cli.execute("info breakpoints")[1:] == [
        "1\tsource\ty\tpack.c:7",
        f"2\tsource\tn\t{bp2.filename}:{bp2.line} if have > 100",
    ]


def test_temporary_breakpoint_is_not_used_up_by_hops():
    cli = rle_cli()
    stopped_at_pack7(cli)
    cli.execute("delete 1")
    cli.execute("tbreak pack.c:7")
    tb = cli.dbg.breakpoints.get(2)
    cli.execute("replay to event 5")  # rebuild, driven past pack.c:7
    cli.execute("replay to event 60")  # forward drive of the current machine
    assert cli.dbg.breakpoints.get(2) is tb and tb.hit_count == 0 and not tb.deleted
    out = cli.execute("continue")
    assert out[0] == "Breakpoint 2, [codec.pack] at pack.c:7"
    assert tb.deleted
    assert cli.execute("info breakpoints") == ["No breakpoints or watchpoints."]


def test_catchpoint_follows_a_hop_and_adds_no_stops_to_it():
    cli = rle_cli()
    session = session_of(cli)
    cli.execute("record on")
    cli.execute("run")
    cp = session.catch_work("pack")
    assert cli.execute("continue")[0].startswith("[Stopped at WORK method")
    cli.execute("replay to event 30")
    replayed = session.replay.session
    assert replayed is not session
    assert replayed.replay.recorder.journal.stops == []  # the drive never stopped
    assert replayed.dbg.breakpoints.get(cp.id) is cp
    assert cli.execute("continue")[0].startswith("[Stopped at WORK method")


def test_api_breakpoint_resubscribes_and_frames_die_with_their_machine():
    cli = rle_cli()
    stopped_at_pack7(cli)
    dbg = cli.dbg
    seen = []
    api = dbg.break_api(SYM_PUSH, actor="codec.pack", stop_fn=lambda e: seen.append(e) and False)
    cli.execute("watch have")  # a local of pack's frame
    finish = dbg.finish_breakpoint()
    assert len(dbg.breakpoints.visible()) == 3
    old_sub = api.subscription
    cli.execute("replay to event 30")
    assert seen == []  # lifted while the hop drove
    new = cli.dbg
    assert [bp.id for bp in new.breakpoints.visible()] == [1, api.id]
    assert finish.deleted and finish.id not in new.breakpoints.all
    assert api.subscription is not None and api.subscription is not old_sub
    assert old_sub not in dbg.runtime.bus._listeners.get(old_sub.key, ())
    cli.execute("delete 1")
    assert cli.execute("continue")[0].startswith("[Program exited")
    assert seen and all(e.actor == "codec.pack" for e in seen)


def test_failed_hop_puts_them_back():
    cli = rle_cli()
    stopped_at_pack7(cli)
    dbg = cli.dbg
    assert cli.execute("replay to event 999999")[0].startswith("error:")
    assert cli.dbg is dbg
    session = session_of(cli)
    session.replay.builder = lambda: (_ for _ in ()).throw(RuntimeError("no build"))
    try:
        session.replay.replay_to("event 5")
    except RuntimeError:
        pass
    assert cli.dbg is dbg
    assert [bp.id for bp in dbg.breakpoints.visible()] == [1]
    assert dbg.cont().kind == StopKind.BREAKPOINT
