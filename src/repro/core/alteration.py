"""Altering the normal execution (paper §III).

"Developers should be able to tweak the application in order to test or
verify debugging hypothesis [...] inserting, modifying or deleting tokens
transmitted over data links.  For instance, this capability would allow
developers to untie a deadlock situation."

Insertions wake consumers blocked on empty links, so a deadlocked
application resumes on the next ``continue``.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Optional

from ..cminus.typesys import ArrayType, BoolType, CType, IntType, StructType
from ..cminus.values import Raw, coerce, default_value
from ..errors import DataflowDebugError

if TYPE_CHECKING:  # pragma: no cover
    from .session import DataflowSession


def _split_top_level(body: str) -> list:
    """Split a struct/array body on commas at nesting depth zero.

    ``{a=[1, 2, 3], b=5}`` has commas *inside* the array literal; a naive
    ``split(",")`` would shear the nested literal apart.  Track ``{}``/
    ``[]`` nesting so only top-level commas separate fields/elements.
    """
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(body):
        if ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
            if depth < 0:
                raise DataflowDebugError(f"unbalanced brackets in value literal {body!r}")
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    if depth != 0:
        raise DataflowDebugError(f"unbalanced brackets in value literal {body!r}")
    parts.append(body[start:])
    return parts


def parse_value_literal(text: str, ctype: CType) -> Raw:
    """Parse a user-supplied token payload.

    Scalars: ``42``, ``0x1F``, ``-3``, ``true``.  Structs:
    ``{Addr=0x145D, Izz=5}`` — unnamed fields default to zero.  Arrays:
    ``[1, 2, 3]`` — missing trailing elements default to zero.  Literals
    nest arbitrarily (struct-in-struct, array-in-struct, struct-in-array):
    ``{a=[1, 2, 3], b=5}`` — the splitter is bracket-depth aware, so
    commas inside a nested literal never shear it apart.
    """
    text = text.strip()
    if isinstance(ctype, StructType):
        if not (text.startswith("{") and text.endswith("}")):
            raise DataflowDebugError(
                f"struct value must look like {{field=value, ...}}, got {text!r}"
            )
        raw = default_value(ctype)
        body = text[1:-1].strip()
        if body:
            for part in _split_top_level(body):
                if "=" not in part:
                    raise DataflowDebugError(f"bad struct field assignment {part.strip()!r}")
                name, _, value_text = part.partition("=")
                name = name.strip()
                ftype = ctype.field_type(name)
                if ftype is None:
                    raise DataflowDebugError(
                        f"struct {ctype.name} has no field {name!r} "
                        f"(fields: {', '.join(ctype.field_names())})"
                    )
                raw[name] = parse_value_literal(value_text, ftype)
        return raw
    if isinstance(ctype, ArrayType):
        if not (text.startswith("[") and text.endswith("]")):
            raise DataflowDebugError(f"array value must look like [v, v, ...], got {text!r}")
        raw = default_value(ctype)
        body = text[1:-1].strip()
        if body:
            parts = _split_top_level(body)
            if len(parts) > ctype.size:
                raise DataflowDebugError(
                    f"too many elements for {ctype} (max {ctype.size})"
                )
            for i, part in enumerate(parts):
                raw[i] = parse_value_literal(part, ctype.elem)
        return raw
    if isinstance(ctype, BoolType):
        if text in ("true", "1"):
            return True
        if text in ("false", "0"):
            return False
        raise DataflowDebugError(f"bad bool literal {text!r}")
    if isinstance(ctype, IntType):
        try:
            value = int(text, 0)
        except ValueError as exc:
            raise DataflowDebugError(f"bad integer literal {text!r}") from exc
        return coerce(value, ctype)
    raise DataflowDebugError(f"cannot build a value of type {ctype}")


class Alteration:
    """Debugger-side mutation of link contents."""

    def __init__(self, session: "DataflowSession"):
        self.session = session

    def _runtime_iface(self, conn_spec: str):
        iface = self.session.dbg.runtime.find_iface(conn_spec)
        if iface.link is None:
            raise DataflowDebugError(f"interface {conn_spec!r} is not bound to a link")
        return iface

    def insert(self, conn_spec: str, value_text: str, index: Optional[int] = None):
        """Inject a token; position defaults to the link's tail."""
        iface = self._runtime_iface(conn_spec)
        link = iface.link
        value = parse_value_literal(value_text, link.ctype)
        token = link.inject(value, index=index, seq=self.session.dbg.runtime.next_seq())
        # mirror in the debugger's model so graph counts stay honest — but
        # only when data capture will also observe the eventual pop of this
        # token.  Under a narrowed mode (§V: set_data_mode != "all") the
        # consumer's pop is never captured, so a precise mirror would leave
        # a phantom "in flight" entry forever; the reconstruction path in
        # capture rebuilds what it can if observation is widened later.
        dbg_link = self._model_link(link)
        if dbg_link is not None and self._pop_observed(dbg_link):
            from .model import DbgToken

            dbg_token = DbgToken(
                seq=token.seq,
                value=token.value,
                ctype_name=str(token.ctype),
                src_actor="<debugger>",
                dst_actor=dbg_link.dst.actor.name,
                src_iface="<debugger>",
                dst_iface=dbg_link.dst.qualname,
                pushed_at=self.session.dbg.scheduler.now,
                injected=True,
            )
            pos = len(dbg_link.in_flight) if index is None else min(index, len(dbg_link.in_flight))
            dbg_link.in_flight.insert(pos, dbg_token)
            dbg_link.total_pushed += 1
        self.session.notify_alteration("insert", conn_spec, value_text, index)
        return token

    def drop(self, conn_spec: str, index: int = 0):
        """Delete the token at ``index`` from the link's queue.

        The debugger-side model is purged too: the token leaves the link's
        ``in_flight`` list, and the deletion is counted in
        ``total_dropped`` so ``total_pushed - total_popped -
        total_dropped == occupancy`` stays true.
        """
        iface = self._runtime_iface(conn_spec)
        link = iface.link
        if not 0 <= index < link.occupancy:
            raise DataflowDebugError(
                f"link {link.name} holds {link.occupancy} token(s); no index {index}"
            )
        token = link.remove(index)
        dbg_link = self._model_link(link)
        for i, t in enumerate(dbg_link.in_flight if dbg_link is not None else ()):
            if t.seq == token.seq:
                del dbg_link.in_flight[i]
                dbg_link.total_dropped += 1
                # mark consumed-by-the-debugger so any lingering reference
                # (provenance parents, last_token_out) reads as consumed
                t.popped_at = self.session.dbg.scheduler.now
                t.consumed_by = "<dropped>"
                break
        self.session.notify_alteration("drop", conn_spec, None, index)
        return token

    def poke(self, conn_spec: str, index: int, value_text: str):
        """Replace the payload of the token at ``index``."""
        iface = self._runtime_iface(conn_spec)
        link = iface.link
        if not 0 <= index < link.occupancy:
            raise DataflowDebugError(
                f"link {link.name} holds {link.occupancy} token(s); no index {index}"
            )
        value = parse_value_literal(value_text, link.ctype)
        old = link.replace(index, value)
        dbg_link = self._model_link(link)
        for t in dbg_link.in_flight if dbg_link is not None else ():
            if t.seq == old.seq:
                t.value = value
        self.session.notify_alteration("poke", conn_spec, value_text, index)
        return old

    def _pop_observed(self, dbg_link) -> bool:
        """Will the current data-capture mode see this link's pops?"""
        return self.session.capture.observes_actor(dbg_link.dst.actor.qualname)

    def _model_link(self, rt_link):
        if rt_link.src is None or rt_link.dst is None:
            return None
        return self.session.model.link_between(rt_link.src.qualname, rt_link.dst.qualname)
