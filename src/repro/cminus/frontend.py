"""Front-end memoization: lex/parse/sema results keyed by source digest.

Rebuilding an application — which record/replay does on **every**
``replay to`` / ``reverse-continue`` and which timeline forks repeat many
times over — used to pay the full Filter-C front-end cost (tokenize,
parse, semantic analysis, debug-info construction) for every actor source
on every rebuild.  The front end is deterministic: the same source text
compiled under the same compilation context always produces the same
typed AST and debug info.  This module memoizes that mapping.

The cache key is a SHA-256 digest over everything that can influence the
front end's output:

- the source text and filename (filenames appear in debug info and
  runtime error messages);
- the symbol-mangling plan (PEDF renames ``work`` and helper functions
  per actor, mutating the AST *before* sema — two actors with identical
  sources but different mangles must not share an entry);
- the full :class:`~repro.cminus.sema.ActorContext` signature: kind,
  interface directions/types, data/attribute types, shared struct
  layouts, controller actor names and extra intrinsics.

Cached entries hold the *analyzed* program and its
:class:`~repro.cminus.debuginfo.DebugInfo`.  Both are treated as
immutable after sema (interpreters copy global values at init and never
mutate the AST), so a hit can be shared across actors and replay
re-executions — which also lets them share the bytecode unit memoized
on the Program (see :func:`repro.cminus.vm.compiler.vm_unit`).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, Optional, Tuple

from .typesys import ArrayType, CType, StructType

__all__ = ["FrontendCache", "frontend_cache", "type_signature"]


def type_signature(ct: Optional[CType]) -> str:
    """A stable, structural description of ``ct`` for cache keying.

    ``repr`` is not enough: ``StructType`` prints only its name, and two
    contexts may bind the same struct name to different field layouts.
    """
    if ct is None:
        return "-"
    if isinstance(ct, ArrayType):
        return f"{type_signature(ct.elem)}[{ct.size}]"
    if isinstance(ct, StructType):
        fields = ",".join(f"{nm}:{type_signature(ft)}" for nm, ft in ct.fields)
        return f"struct {ct.name}{{{fields}}}"
    return str(ct)


def _feed(h: "hashlib._Hash", parts: Iterable[str]) -> None:
    for part in parts:
        h.update(part.encode("utf-8", "surrogatepass"))
        h.update(b"\x00")


class FrontendCache:
    """Digest-keyed memo of front-end results.

    Process-wide by design: replay rebuilds construct entirely fresh
    declaration trees, so any per-object caching would never hit.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------- keying

    @staticmethod
    def digest(source: str, filename: str, *salt: str) -> str:
        """SHA-256 over the source text plus every context ``salt`` part
        the caller knows can influence the front end's output."""
        h = hashlib.sha256()
        _feed(h, (source, filename))
        _feed(h, salt)
        return h.hexdigest()

    # ------------------------------------------------------------ lookups

    def get(self, key: str) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, key: str, value: Any) -> Any:
        self._entries[key] = value
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Tuple[int, int, int]:
        """``(entries, hits, misses)``."""
        return (len(self._entries), self.hits, self.misses)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


#: the process-wide cache instance every front-end consumer shares
frontend_cache = FrontendCache()
