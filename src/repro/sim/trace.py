""":class:`EventRecord`, the one normalised framework-event record."""

from __future__ import annotations

from typing import NamedTuple, Optional


class EventRecord(NamedTuple):
    """One framework event, reduced to its journal fields.

    The single normalised event every consumer sees: live (the
    session's event tap builds it once per bus event), in the replay
    journal (which stores it as built, in memory and in on-disk
    segments) and post hoc (:func:`~repro.sim.replay.replay_into`
    hands the stored records back unchanged).  Simulated time, phase,
    symbol and acting actor; the token seq of data-exchange exits; the
    link of every push/pop event and the target filter of every
    ``actor_start``/``actor_sync`` event.  Nothing live-only (argument
    dicts, object identities, wall-clock anything) fits in it, so live
    and replay-derived consumer output match byte for byte."""

    time: int
    phase: str  # "entry" | "exit"
    symbol: str
    actor: str  # qualified acting actor, or "" (elaboration)
    seq: Optional[int]  # token seq (push/pop exits only)
    link: Optional[str]  # link name (push/pop only)
    target: Optional[str]  # target filter (actor_start/actor_sync only)

    def describe(self) -> str:
        """Deterministic one-line rendering."""
        extra = ""
        if self.link is not None:
            extra += f" link={self.link}"
        if self.seq is not None:
            extra += f" seq={self.seq}"
        if self.target is not None:
            extra += f" target={self.target}"
        who = f" [{self.actor}]" if self.actor else ""
        return f"t={self.time} {self.symbol}:{self.phase}{who}{extra}"
