"""The dataflow debugger's internal representation (paper Fig. 3).

- :class:`DbgActor` — filters, controllers and modules; keeps a reference
  to the execution context (actor qualname → runtime process) and the
  inbound/outbound connection lists;
- :class:`DbgConnection` — one data dependency endpoint of an actor,
  associated with the runtime entity responsible for the transfer;
- :class:`DbgLink` — binds an outgoing and an incoming connection;
  receives, holds and transmits TOKEN objects;
- :class:`DbgToken` — "not associated with any framework object, their
  state only correspond to the logical implications of runtime events."

Everything here is populated exclusively by :mod:`repro.core.capture`
interpreting framework events — never by reaching into the runtime — so
the model is an honest reconstruction, exactly like the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cminus.values import Raw, format_value
from ..errors import DataflowDebugError


@dataclass
class DbgToken:
    """A token as the debugger understands it."""

    seq: int
    value: Raw
    ctype_name: str
    src_actor: str  # short actor name ("red")
    dst_actor: str
    src_iface: str  # "red::CbCrMB_out"
    dst_iface: str
    pushed_at: int = 0
    popped_at: Optional[int] = None
    consumed_by: Optional[str] = None
    #: provenance: the token(s) whose consumption produced this one
    parents: List["DbgToken"] = field(default_factory=list)
    injected: bool = False
    #: snapshot of the producer's data/attributes at push time, when state
    #: recording is enabled for that filter (paper §VI-D: "further details
    #: about the filter state can be recorded, such as attribute values")
    producer_state: Optional[Dict[str, str]] = None

    @property
    def primary_parent(self) -> Optional["DbgToken"]:
        return self.parents[0] if self.parents else None

    def format_hop(self) -> str:
        """One line of the `info last_token` walk:
        ``red -> pipe (CbCrMB_t) {Addr=0x145D,...}``"""
        return f"{self.src_actor} -> {self.dst_actor} ({self.ctype_name}) {self.format_payload()}"

    def format_payload(self) -> str:
        if isinstance(self.value, dict):
            inner = ", ".join(f"{k}={self._fmt_scalar(k, v)}" for k, v in self.value.items())
            return "{" + inner + "}"
        if isinstance(self.value, list):
            return "{" + ", ".join(str(v) for v in self.value) + "}"
        return str(self.value)

    @staticmethod
    def _fmt_scalar(name: str, value) -> str:
        if isinstance(value, int) and not isinstance(value, bool) and name.lower().startswith("addr"):
            return hex(value)
        if isinstance(value, dict):
            return "{...}"
        if isinstance(value, list):
            return "[...]"
        return str(value)

    def __str__(self) -> str:
        return f"#{self.seq} ({self.ctype_name}) {self.format_payload()}"


@dataclass
class DbgConnection:
    """One interface endpoint of an actor."""

    actor: "DbgActor"
    name: str
    direction: str  # "input" | "output"
    ctype_name: str
    link: Optional["DbgLink"] = None
    pushed: int = 0
    popped: int = 0
    #: ``actor::iface``, built once
    qualname: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.qualname = f"{self.actor.name}::{self.name}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Conn {self.qualname} {self.direction}>"


@dataclass
class DbgLink:
    """A reconstructed arc of the dataflow graph."""

    src: DbgConnection
    dst: DbgConnection
    kind: str = "data"  # "data" | "control"
    capacity: int = 0
    memory: str = ""
    dma: bool = False
    #: tokens pushed but not yet popped, oldest first
    in_flight: List[DbgToken] = field(default_factory=list)
    total_pushed: int = 0
    total_popped: int = 0
    #: tokens deleted from the link by the debugger (``iface ... drop``)
    total_dropped: int = 0

    @property
    def name(self) -> str:
        return f"{self.src.qualname}->{self.dst.qualname}"

    @property
    def occupancy(self) -> int:
        return len(self.in_flight)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DbgLink {self.name} [{self.occupancy}]>"


@dataclass
class DbgActor:
    """A reconstructed filter, controller, source or sink."""

    name: str  # short display name, e.g. "ipf"
    qualname: str  # "pred.ipf"
    module: str
    kind: str  # "filter" | "controller" | "source" | "sink"
    resource: str = ""
    work_symbol: str = ""
    source_file: str = ""
    inbound: Dict[str, DbgConnection] = field(default_factory=dict)
    outbound: Dict[str, DbgConnection] = field(default_factory=dict)
    # scheduling-monitor state (Contribution #2)
    sched_state: str = "not-scheduled"  # not-scheduled | scheduled | running | finished
    starts_seen: int = 0
    works_begun: int = 0
    works_done: int = 0
    # information-flow state (Contribution #3)
    behavior: str = "default"  # default | splitter | joiner | map
    consumed_this_work: List[DbgToken] = field(default_factory=list)
    produced_this_work: int = 0
    last_token_in: Optional[DbgToken] = None
    last_token_out: Optional[DbgToken] = None

    def connection(self, iface: str) -> DbgConnection:
        conn = self.inbound.get(iface) or self.outbound.get(iface)
        if conn is None:
            known = ", ".join(sorted(list(self.inbound) + list(self.outbound))) or "none"
            raise DataflowDebugError(
                f"actor {self.name!r} has no interface {iface!r} (known: {known})"
            )
        return conn

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DbgActor {self.qualname} ({self.kind}) {self.sched_state}>"


class DataflowModel:
    """The reconstructed application: actors, links and the tokens in flight."""

    def __init__(self) -> None:
        self.program_name: str = ""
        self.initialized = False  # set when the init phase completes
        self.modules: List[str] = []
        self.actors: Dict[str, DbgActor] = {}  # by qualname
        self.links: List[DbgLink] = []
        # controller step counters, by controller qualname
        self.steps: Dict[str, int] = {}
        # scheduling predicates, by module then name
        self.predicates: Dict[str, Dict[str, bool]] = {}

    # ------------------------------------------------------------ building

    def add_actor(self, actor: DbgActor) -> DbgActor:
        self.actors[actor.qualname] = actor
        return actor

    def add_link(self, link: DbgLink) -> DbgLink:
        self.links.append(link)
        link.src.link = link
        link.dst.link = link
        return link

    # ------------------------------------------------------------- queries

    def find_actor(self, name: str) -> DbgActor:
        actor = self.actors.get(name)
        if actor is not None:
            return actor
        if not self.actors and not self.initialized:
            raise DataflowDebugError(
                "the dataflow graph has not been reconstructed yet — run the "
                "program through the framework init phase first (e.g. attach "
                "the session with stop_on_init=True and issue `run`)"
            )
        matches = [a for a in self.actors.values() if a.name == name]
        if not matches:
            known = ", ".join(sorted(a.name for a in self.actors.values()))
            raise DataflowDebugError(f"no dataflow actor {name!r} (known: {known})")
        if len(matches) > 1:
            quals = ", ".join(a.qualname for a in matches)
            raise DataflowDebugError(f"actor name {name!r} is ambiguous: {quals}")
        return matches[0]

    def find_connection(self, spec: str) -> DbgConnection:
        """Resolve ``actor::iface``."""
        if "::" not in spec:
            raise DataflowDebugError(f"bad interface spec {spec!r} (expected actor::iface)")
        actor_name, iface = spec.split("::", 1)
        return self.find_actor(actor_name).connection(iface)

    def filters(self, module: Optional[str] = None) -> List[DbgActor]:
        return [
            a
            for a in self.actors.values()
            if a.kind == "filter" and (module is None or a.module == module)
        ]

    def link_between(self, src_spec: str, dst_spec: str) -> Optional[DbgLink]:
        for link in self.links:
            if link.src.qualname == src_spec and link.dst.qualname == dst_spec:
                return link
        return None

    def completion_names(self) -> List[str]:
        """Every name worth auto-completing (Contribution #1)."""
        names: List[str] = []
        for a in self.actors.values():
            names.append(a.name)
            names.append(a.qualname)
            for conn in list(a.inbound.values()) + list(a.outbound.values()):
                names.append(conn.qualname)
        return sorted(set(names))
