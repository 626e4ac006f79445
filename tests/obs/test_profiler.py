"""Attributed cycle profiler: live attribution, tier labels, hook-free
arming, replay-side derivation equality, and the export formats.
"""

import pytest

from repro.apps.amodule import build_demo
from repro.apps.rle import build_rle_pipeline
from repro.core import DataflowSession, install_dataflow_commands
from repro.dbg import CommandCli, Debugger, StopKind
from repro.obs import derive_profile, flame_svg
from repro.obs.prof import Profile


def rle_session(values=(5, 5, 5, 2, 7, 7), tier="auto"):
    sched, runtime, _sink = build_rle_pipeline(list(values))
    session = DataflowSession(Debugger(sched, runtime))
    runtime.config.interp_tier = tier
    for actor in runtime.all_actors():
        if getattr(actor, "interp", None) is not None:
            actor.interp.tier = tier
    return session


def run_to_exit(dbg):
    ev = dbg.run()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


# ------------------------------------------------------------ arming model


def test_profiler_off_by_default_and_armed_on_enable():
    session = rle_session()
    dbg = session.dbg
    caps = dbg.hook.capabilities
    assert not session.prof.enabled
    assert dbg.hook.profile_sink is None
    session.prof.enable()
    assert dbg.hook.profile_sink is not None
    # the sink is not a mask bit and arms no hook: the only new work is
    # the cycle-flush charge and the VM's per-opcode prelude
    assert dbg.hook.capabilities == caps
    for actor in dbg.runtime.all_actors():
        interp = getattr(actor, "interp", None)
        if interp is not None:
            assert not (interp._want_stmt or interp._want_call or interp._want_ret)
            assert interp._profile is not None
            assert interp._vm_trace
    session.prof.disable()
    assert dbg.hook.profile_sink is None
    for actor in dbg.runtime.all_actors():
        interp = getattr(actor, "interp", None)
        if interp is not None:
            assert interp._profile is None
            assert not interp._vm_trace


# --------------------------------------------------- attribution exactness


@pytest.mark.parametrize("tier", ["auto", "vm", "slow"])
def test_profile_total_equals_span_busy(tier):
    """Two independent mechanisms agree per actor: the profiler's
    flush-site charges and telemetry's busy time, which the span builder
    derives from event timestamps without ever seeing an interpreter."""
    session = rle_session(tier=tier)
    session.telemetry.enable()
    session.prof.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    profile = session.prof.profile
    assert profile.total > 0
    # every flushed cycle is charged to exactly one call-tree node
    assert sum(profile.nodes.values()) == profile.total
    charged = {}
    for (actor, _tier, _path), cycles in profile.nodes.items():
        charged[actor] = charged.get(actor, 0) + cycles
    busy = {
        name: m.busy for name, m in session.telemetry.metrics.actors.items() if m.busy
    }
    assert charged == busy


@pytest.mark.parametrize(
    "tier,label", [("auto", "vm"), ("vm", "vm"), ("slow", "tree")]
)
def test_tier_attribution_labels(tier, label):
    session = rle_session(tier=tier)
    session.prof.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    tiers = session.prof.profile.tier_cycles()
    assert label in tiers
    # the dominant tier is the forced one
    assert tiers[label] == max(tiers.values())


def test_profile_attributes_to_known_actors_and_functions():
    session = rle_session()
    session.prof.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    actors = {actor for (actor, _tier, _path) in session.prof.profile.nodes}
    assert "codec.pack" in actors and "codec.expand" in actors
    funcs = {
        path[-1] for (_actor, _tier, path) in session.prof.profile.nodes if path
    }
    assert "PackFilter_work_function" in funcs


# ---------------------------------------------------- replay-side deriving


@pytest.mark.parametrize("tier", ["auto", "vm"])
def test_derived_profile_equals_live_profile(tier):
    session = rle_session(tier=tier)
    session.replay.record_on()
    session.prof.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    live = session.prof.profile

    derived = derive_profile(session.replay.master, rle_session, tier=tier)
    assert derived.profile.collapsed() == live.collapsed()
    assert derived.profile.total == live.total


def test_derive_profile_from_unprofiled_recording():
    """A run recorded *without* the profiler armed is still profilable
    after the fact — the deriver re-executes with only the profiler on."""
    session = rle_session()
    session.replay.record_on()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    assert not session.prof.enabled
    derived = derive_profile(session.replay.master, rle_session)
    assert derived.profile.total > 0


def amodule_session():
    sched, _platform, runtime, _source, _sink = build_demo()
    return DataflowSession(Debugger(sched, runtime), stop_on_init=True)


def test_derive_profile_reapplies_recorded_alterations():
    """A token inserted mid-run is journaled; the derivation re-applies
    it at its recorded position, so the re-execution verifies event for
    event and reproduces the live profile."""
    session = amodule_session()
    cli = CommandCli(session.dbg)
    install_dataflow_commands(cli, session)
    session.replay.record_on()
    session.prof.enable()
    assert session.dbg.run().kind == StopKind.DATAFLOW  # graph reconstructed
    session.catch_iface("stim::out", event="push", temporary=True)
    assert session.dbg.cont().kind == StopKind.DATAFLOW
    assert "Token inserted" in cli.execute("iface stim::out insert 42")[0]
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    assert session.replay.master.alterations
    live = session.prof.profile

    derived = derive_profile(session.replay.master, amodule_session)
    assert derived.profile.collapsed() == live.collapsed()
    assert derived.profile.total == live.total


# -------------------------------------------------------- profile algebra


def _toy_profile():
    p = Profile()
    p.add("a.x", "tree", ("main", "work"), 10)
    p.add("a.x", "tree", ("main",), 5)
    p.add("a.y", "vm", ("main", "work", "leaf"), 7)
    return p


def test_self_and_inclusive_cycles():
    p = _toy_profile()
    self_c = p.self_cycles()
    assert self_c[("a.x", "work")] == 10
    assert self_c[("a.x", "main")] == 5
    incl = p.inclusive_cycles()
    assert incl[("a.x", "main")] == 15  # main + its callee
    assert incl[("a.y", "work")] == 7
    assert p.total == 22


def test_recursive_paths_do_not_double_count_inclusive():
    p = Profile()
    p.add("a.r", "tree", ("f", "f", "f"), 9)
    assert p.inclusive_cycles()[("a.r", "f")] == 9


def test_top_zero_shows_all_rows():
    p = _toy_profile()
    assert len(p.top(2)) == 2
    assert len(p.top(0)) == len(p.top(10**6))


def test_collapsed_is_sorted_and_parseable():
    p = _toy_profile()
    lines = p.collapsed()
    assert lines == sorted(lines)
    for line in lines:
        stack, _, cycles = line.rpartition(" ")
        assert int(cycles) > 0
        parts = stack.split(";")
        assert len(parts) >= 2  # actor;tier[;frames...]


# ------------------------------------------------------------- exports


def test_flame_svg_renders_deterministically(tmp_path):
    session = rle_session()
    session.prof.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    svg = flame_svg(session.prof.profile)
    assert svg.startswith("<svg") or svg.startswith("<?xml")
    assert "PackFilter_work_function" in svg
    assert svg == flame_svg(session.prof.profile)  # pure function

    target = tmp_path / "deep" / "flame.svg"
    nbytes = session.prof.export_flamegraph(str(target))
    assert target.exists() and nbytes == len(target.read_bytes())

    stacks = tmp_path / "prof.collapsed"
    session.prof.export_collapsed(str(stacks))
    assert stacks.read_text().splitlines() == session.prof.profile.collapsed()


# ------------------------------------------------------------ prof command


def test_prof_command_lifecycle_through_the_cli(tmp_path):
    session = rle_session()
    cli = CommandCli(session.dbg)
    install_dataflow_commands(cli, session)
    assert cli.execute("prof status") == [
        "profiler: off", "  (nothing collected; use `prof on`)"
    ]
    assert cli.execute("prof top") == ["error: no profile collected (use `prof on` first)"]

    assert cli.execute("prof on")[0].startswith("profiler enabled")
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    profile = session.prof.profile
    status = cli.execute("prof status")
    assert status[0] == "profiler: on"
    assert status[1:1 + len(profile.render())] == profile.render()

    # top N renders exactly the profile's top rows; bare top means 10
    top2 = cli.execute("prof top 2")
    assert top2[0].split() == ["self", "incl", "actor", "function"]
    assert [line.split() for line in top2[1:]] == [
        [str(s), str(i), actor, func] for s, i, actor, func in profile.top(2)
    ]
    assert cli.execute("prof top")[1:] == cli.execute("prof top 10")[1:]
    assert cli.execute("prof top abc") == ["error: usage: prof top [N]"]

    stacks = tmp_path / "prof.collapsed"
    out = cli.execute(f"prof export {stacks}")
    assert out == [f"wrote {stacks.stat().st_size} byte(s) of collapsed stacks to {stacks}"]
    assert stacks.read_text().splitlines() == profile.collapsed()
    assert cli.execute(f"prof export {stacks}")[0].startswith("error: refusing to overwrite")
    flame = tmp_path / "flame.svg"
    assert cli.execute(f"prof flame {flame}")[0].startswith("wrote ")
    assert flame.read_text() == flame_svg(profile)

    # clear while armed keeps the profiler armed, with an empty profile
    assert cli.execute("prof clear") == ["profile cleared"]
    assert session.prof.enabled and session.prof.profile.total == 0
    assert cli.execute("prof off") == ["profiler disabled (profile retained)"]
    assert cli.execute("prof status")[0] == "profiler: off"
    assert session.dbg.hook.profile_sink is None
    assert cli.execute("prof frob")[0].startswith("error: prof: unknown verb 'frob'")
