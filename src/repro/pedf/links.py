"""Runtime links and interface endpoints.

A :class:`LinkInst` is the elaborated form of a binding: a FIFO of
:class:`~repro.pedf.tokens.Token` living in some platform memory, with
push/pop latencies and (for host↔fabric links) DMA assistance.  An
:class:`IfaceInst` is one actor-side endpoint; its ``push``/``pop``
coroutines route through the framework API so the debugger observes every
token movement (paper Contribution #3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional

from ..cminus.typesys import CType, word_count
from ..cminus.values import Raw, copy_raw
from ..errors import PedfError
from ..sim.channels import Fifo
from ..sim.process import Delay
from .api import SYM_POP, SYM_PUSH, FrameworkAPI
from .decls import IfaceDecl
from .tokens import Token

if TYPE_CHECKING:  # pragma: no cover
    from ..p2012.soc import LinkCost
    from .actors import ActorInst


class LinkInst:
    """One elaborated data dependency (an arc of the dataflow graph)."""

    def __init__(
        self,
        name: str,
        fifo: Fifo,
        ctype: CType,
        kind: str,  # "data" | "control"
        cost: "LinkCost",
        capacity: int,
    ):
        self.name = name
        self.fifo = fifo
        self.ctype = ctype
        self.kind = kind
        self.cost = cost
        self.capacity = capacity
        self.src: Optional["IfaceInst"] = None
        self.dst: Optional["IfaceInst"] = None
        self.words = word_count(ctype)
        self.total_pushed = 0
        self.total_popped = 0

    @property
    def dma_assisted(self) -> bool:
        return self.cost.dma_assisted

    @property
    def occupancy(self) -> int:
        return len(self.fifo)

    def tokens(self) -> List[Token]:
        """Snapshot of the queued tokens (oldest first)."""
        return self.fifo.snapshot()

    # -------------------------------------------- debugger-side alteration

    def inject(self, value: Raw, index: Optional[int] = None, seq: int = -1) -> Token:
        """Insert a token from outside any actor (paper §III: altering the
        normal execution, e.g. to untie a deadlock)."""
        src = self.src.qualname if self.src else "<debugger>"
        dst = self.dst.qualname if self.dst else "<unbound>"
        token = Token(copy_raw(value), self.ctype, seq, src, dst)
        self.fifo.force_put(token, index)
        self.total_pushed += 1
        return token

    def remove(self, index: int) -> Token:
        return self.fifo.remove_at(index)

    def replace(self, index: int, value: Raw) -> Token:
        old: Token = self.fifo.peek(index)
        new = Token(copy_raw(value), self.ctype, old.seq, old.src_iface, old.dst_iface,
                    old.step_index, old.produced_at)
        self.fifo.replace_at(index, new)
        return old

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Link {self.name} [{self.occupancy}/{self.capacity or 'inf'}] {self.kind}>"


class IfaceInst:
    """One actor-side connection endpoint."""

    def __init__(self, actor: "ActorInst", decl: IfaceDecl, api: FrameworkAPI, seq_alloc):
        self.actor = actor
        self.decl = decl
        #: display name as the paper writes it, ``actor::iface``, and the
        #: module-qualified ``module.actor::iface``, both built once
        self.qualname = f"{actor.name}::{decl.name}"
        self.full_qualname = f"{actor.qualname}::{decl.name}"
        self.api = api
        self._next_seq = seq_alloc  # callable returning a fresh global seq
        self.link: Optional[LinkInst] = None
        self.pushed = 0
        self.popped = 0

    @property
    def name(self) -> str:
        return self.decl.name

    @property
    def direction(self) -> str:
        return self.decl.direction

    @property
    def ctype(self) -> CType:
        return self.decl.ctype

    def bind(self, link: LinkInst) -> None:
        if self.link is not None:
            raise PedfError(f"interface {self.qualname} already bound")
        self.link = link
        if self.direction == "output":
            link.src = self
        else:
            link.dst = self

    # ----------------------------------------------------------- dataflow

    def push(self, value: Raw, step_index: int):
        """Coroutine: emit a token (the 'dataflow assignment')."""
        if self.direction != "output":
            raise PedfError(f"cannot push on input interface {self.qualname}")
        link = self._require_link()
        args = {
            "actor": self.actor.qualname,
            "iface": self.name,
            "index": step_index,
            "value": value,
            "link": link.name,
            "kind": link.kind,
        }
        return (
            yield from self.api.call(
                SYM_PUSH, args, impl=self._push_impl(value, step_index, link),
                actor=self.actor.qualname,
            )
        )

    def _push_impl(self, value: Raw, step_index: int, link: LinkInst):
        token = Token(
            value=copy_raw(value),
            ctype=self.ctype,
            seq=self._next_seq(),
            src_iface=self.qualname,
            dst_iface=link.dst.qualname if link.dst else "<unbound>",
            step_index=step_index,
            produced_at=self.api.scheduler.now,
        )
        cost = link.cost
        if cost.dma is not None:
            yield from cost.dma.transfer(link.words, dst=cost.memory)
        else:
            cost.memory.write_cost(link.words)
            if cost.push_cycles:
                yield Delay(cost.push_cycles * link.words)
        yield from link.fifo.put(token)
        link.total_pushed += 1
        self.pushed += 1
        return token

    def pop(self, step_index: int):
        """Coroutine: consume the next token; returns the Token object."""
        if self.direction != "input":
            raise PedfError(f"cannot pop from output interface {self.qualname}")
        link = self._require_link()
        args = {
            "actor": self.actor.qualname,
            "iface": self.name,
            "index": step_index,
            "link": link.name,
            "kind": link.kind,
        }
        return (
            yield from self.api.call(
                SYM_POP, args, impl=self._pop_impl(link), actor=self.actor.qualname
            )
        )

    def _pop_impl(self, link: LinkInst):
        token: Token = yield from link.fifo.get()
        cost = link.cost
        if cost.dma is not None:
            yield from cost.dma.transfer(link.words, src=cost.memory)
        else:
            cost.memory.read_cost(link.words)
            if cost.pop_cycles:
                yield Delay(cost.pop_cycles * link.words)
        link.total_popped += 1
        self.popped += 1
        return token

    def _require_link(self) -> LinkInst:
        if self.link is None:
            raise PedfError(
                f"interface {self.qualname} is not bound to any link "
                "(dangling interfaces need a Source/Sink or a binding)"
            )
        return self.link

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        arrow = "<-" if self.direction == "input" else "->"
        return f"<Iface {self.qualname} {arrow} {self.link.name if self.link else 'unbound'}>"
