"""Host-side test-bench actors: sources feed data, sinks drain it.

These model the host-side of the application (e.g. the bitstream reader
feeding the fabric and the display consuming decoded macroblocks).  They
run on the :class:`~repro.p2012.pe.HostCpu`, so links to/from them are
DMA-assisted through L3 — exactly the host↔fabric path of Fig. 1.

They speak the same framework API as real actors (their pushes and pops
emit ``pedf_rt_push``/``pedf_rt_pop`` events), so the debugger sees them
as actors of the graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..cminus.typesys import CType
from ..cminus.values import Raw
from ..sim.process import Delay
from .decls import IfaceDecl
from .links import IfaceInst
from .tokens import Token

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import PedfRuntime


class _HostActorBase:
    """Duck-typed minimum of ActorInst that IfaceInst needs."""

    kind = "host"

    def __init__(self, name: str, runtime: "PedfRuntime"):
        self.name = name
        self.qualname = f"host.{name}"
        self.runtime = runtime
        self.module = None
        self.resource = runtime.platform.host
        self.ifaces: Dict[str, IfaceInst] = {}
        self.printed: List[str] = []
        self.process = None
        self.works_begun = 0
        self.works_done = 0
        self.last_token_in: Optional[Token] = None
        self.last_token_out: Optional[Token] = None

    def note_token_in(self, token: Token) -> None:
        self.last_token_in = token

    def note_token_out(self, token: Token) -> None:
        self.last_token_out = token

    def current_line(self) -> Optional[int]:
        return None

    @property
    def blocked(self) -> bool:
        from ..sim.process import ProcessState

        return self.process is not None and self.process.state == ProcessState.WAITING


class SourceActor(_HostActorBase):
    """Feeds a list of raw values into one output interface."""

    kind = "source"

    def __init__(
        self,
        name: str,
        runtime: "PedfRuntime",
        ctype: CType,
        values: Sequence[Raw],
        period: int = 0,
        iface_name: str = "out",
    ):
        super().__init__(name, runtime)
        self.values = list(values)
        self.period = period
        decl = IfaceDecl(iface_name, "output", ctype)
        self.out = IfaceInst(self, decl, runtime.api, runtime.next_seq)
        self.ifaces[iface_name] = self.out
        self.sent = 0

    def body(self):
        for i, value in enumerate(self.values):
            token = yield from self.out.push(value, i)
            self.note_token_out(token)
            self.sent += 1
            if self.period:
                yield Delay(self.period)


class SinkActor(_HostActorBase):
    """Drains one input interface, recording the payloads it receives.

    ``expect`` bounds the number of tokens (the process then terminates,
    letting the simulation end cleanly); ``None`` drains forever.
    """

    kind = "sink"

    def __init__(
        self,
        name: str,
        runtime: "PedfRuntime",
        ctype: CType,
        expect: Optional[int] = None,
        iface_name: str = "in",
    ):
        super().__init__(name, runtime)
        self.expect = expect
        decl = IfaceDecl(iface_name, "input", ctype)
        self.inp = IfaceInst(self, decl, runtime.api, runtime.next_seq)
        self.ifaces[iface_name] = self.inp
        #: the payloads received, in order; the tokens themselves are
        #: not kept (provenance reads the last one, ``last_token_in``)
        self.values: List[Raw] = []

    def body(self):
        index = 0
        while self.expect is None or index < self.expect:
            token = yield from self.inp.pop(index)
            self.note_token_in(token)
            self.values.append(token.value)
            index += 1
