"""FrameworkEventBus dispatch semantics.

The bus keeps each key's subscribers as a tuple that (un)subscribing
replaces, and skips actor-qualified keys while none is subscribed.
These tests pin what a listener observes: keys are visited in the order
symbol, ``sym@actor``, ``"*"``, each key's subscribers are the ones it
held when dispatch reached it, and ``wants()`` follows the live set.
"""

from repro.pedf.api import SYM_POP, SYM_PUSH, FrameworkEvent, FrameworkEventBus
from repro.sim.process import Suspend


def event(symbol=SYM_PUSH, actor="m.f", phase="exit"):
    return FrameworkEvent(phase, symbol, {}, actor)


def recorder(calls, name, result=None):
    def listener(ev):
        calls.append((name, ev.phase))
        return result

    return listener


def test_keys_dispatch_in_symbol_qualified_star_order():
    bus = FrameworkEventBus()
    calls = []
    bus.subscribe("*", recorder(calls, "star"))
    bus.subscribe(SYM_PUSH, recorder(calls, "qualified"), actor="m.f")
    bus.subscribe(SYM_PUSH, recorder(calls, "symbol"))
    bus.subscribe(SYM_PUSH, recorder(calls, "other actor"), actor="m.g")
    bus.emit(event())
    assert calls == [("symbol", "exit"), ("qualified", "exit"), ("star", "exit")]


def test_actor_qualified_subscription_fires_for_its_actor_and_phase_only():
    bus = FrameworkEventBus()
    calls = []
    bus.subscribe(SYM_PUSH, recorder(calls, "q"), actor="m.f", phase="entry")
    bus.emit(event(phase="exit"))
    bus.emit(event(actor="m.g", phase="entry"))
    bus.emit(event(symbol=SYM_POP, phase="entry"))
    assert calls == []
    bus.emit(event(phase="entry"))
    assert calls == [("q", "entry")]


def test_star_listener_subscribed_mid_emit_sees_the_same_event():
    """``"*"`` is reached after the symbol key, so a ``"*"`` listener a
    symbol listener subscribes is called for the event in flight."""
    bus = FrameworkEventBus()
    calls = []
    star = recorder(calls, "star")

    def arm(ev):
        calls.append(("arm", ev.phase))
        if len(calls) == 1:
            bus.subscribe("*", star)

    bus.subscribe(SYM_PUSH, arm)
    bus.emit(event(phase="entry"))
    bus.emit(event(phase="exit"))
    assert calls == [("arm", "entry"), ("star", "entry"), ("arm", "exit"), ("star", "exit")]


def test_same_key_changes_mid_emit_apply_from_the_next_event():
    """Unsubscribing a later listener on the same key, or subscribing a
    new one, does not change who sees the event in flight."""
    bus = FrameworkEventBus()
    calls = []
    subs = {}

    def first(ev):
        calls.append(("first", ev.phase))
        if ev.phase == "entry":
            subs["second"].unsubscribe()
            bus.subscribe(SYM_PUSH, recorder(calls, "third"))

    subs["first"] = bus.subscribe(SYM_PUSH, first)
    subs["second"] = bus.subscribe(SYM_PUSH, recorder(calls, "second"))
    bus.emit(event(phase="entry"))
    assert calls == [("first", "entry"), ("second", "entry")]
    calls.clear()
    bus.emit(event(phase="exit"))
    assert calls == [("first", "exit"), ("third", "exit")]


def test_first_suspend_wins_but_every_listener_observes():
    bus = FrameworkEventBus()
    calls = []
    a, b = Suspend("a"), Suspend("b")
    bus.subscribe(SYM_PUSH, recorder(calls, "symbol", a))
    bus.subscribe("*", recorder(calls, "star", b))
    assert bus.emit(event()) is a
    assert [name for name, _ in calls] == ["symbol", "star"]


def test_wants_follows_the_live_qualified_subscriptions():
    bus = FrameworkEventBus()
    assert not bus.wants(SYM_PUSH, "m.f")
    one = bus.subscribe(SYM_PUSH, lambda ev: None, actor="m.f")
    two = bus.subscribe(SYM_PUSH, lambda ev: None, actor="m.f")
    assert bus.wants(SYM_PUSH, "m.f")
    assert not bus.wants(SYM_PUSH, "m.g")
    assert not bus.wants(SYM_PUSH)
    one.unsubscribe()
    assert bus.wants(SYM_PUSH, "m.f")
    two.unsubscribe()
    two.unsubscribe()  # idempotent
    assert not bus.wants(SYM_PUSH, "m.f")
    assert not bus.has_listeners
    assert bus._qualified == 0  # emit and wants() skip sym@actor keys again
    # with the qualified count back at zero, a plain symbol still works
    bus.subscribe(SYM_PUSH, lambda ev: None)
    assert bus.wants(SYM_PUSH, "m.f") and not bus.wants(SYM_POP, "m.f")
