"""Shared command-argument parsing.

The GDB-flavoured base CLI (:mod:`repro.dbg.cli`) and the dataflow
command set (:mod:`repro.core.commands`) grew the same small parsers
independently — integer breakpoint numbers, ``LOCATION [if COND]``
splits, ``FILE [force]`` export targets, ``[N|all] [sort KEY]`` listing
options and keyword-walk option lists (``every N limit N …``).  They
live here once, so the interactive CLI, the scripted transcripts and the
wire-attached :mod:`repro.serve` sessions all parse identically.

Every helper raises :class:`~repro.errors.CommandError` with the exact
``usage:`` text its caller advertises, keeping error strings (asserted
by the interactive tests) unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import CommandError


def parse_int_arg(arg: str, what: str, noun: str = "breakpoint number") -> int:
    """``delete N`` / ``frame N`` style single-integer arguments."""
    if not arg.strip().isdigit():
        raise CommandError(f"{what}: expected a {noun}")
    return int(arg.strip())


def parse_break_args(arg: str, what: str = "break") -> Tuple[str, Optional[str]]:
    """Split ``LOCATION [if CONDITION]``; returns ``(location, condition)``."""
    condition = None
    if " if " in arg:
        arg, _, condition = arg.partition(" if ")
    elif arg.startswith("if "):
        raise CommandError(f"{what}: missing location")
    return arg.strip(), (condition.strip() if condition else None)


def parse_export_target(rest: str, usage: str) -> Tuple[str, bool]:
    """Parse ``FILE [force]`` for the export-style commands; returns
    ``(path, force)``."""
    words = rest.split()
    force = False
    if words and words[-1] == "force":
        force = True
        words = words[:-1]
    if not words:
        raise CommandError(f"usage: {usage}")
    return " ".join(words), force


def parse_listing_options(
    arg: str, sorts: Sequence[str], usage: str, default_limit: int = 20
) -> Tuple[int, str]:
    """Parse the shared ``[N|all] [sort KEY]`` listing options used by
    ``info spans`` / ``info metrics``; returns ``(limit, sort)`` with
    ``limit=0`` meaning unlimited."""
    limit = default_limit
    sort = sorts[0]
    words = arg.split()
    i = 0
    while i < len(words):
        word = words[i]
        if word.isdigit():
            limit = int(word)
            i += 1
        elif word == "all":
            limit = 0
            i += 1
        elif word == "limit" and i + 1 < len(words) and words[i + 1].isdigit():
            limit = int(words[i + 1])
            i += 2
        elif word == "sort" and i + 1 < len(words) and words[i + 1] in sorts:
            sort = words[i + 1]
            i += 2
        else:
            raise CommandError(f"usage: {usage}")
    return limit, sort


def parse_keyword_options(
    rest: str,
    usage: str,
    int_keys: Sequence[str] = (),
    str_keys: Sequence[str] = (),
    flags: Sequence[str] = (),
) -> Dict[str, object]:
    """Walk a ``key value key value flag …`` option list (the shape of
    ``record on every 8 segments DIR``, ``trace on limit N
    ring``).  Integer-valued keys insist on digits; unknown words raise
    the caller's ``usage:`` line.  Returns only the keys present."""
    out: Dict[str, object] = {}
    words = rest.split()
    i = 0
    while i < len(words):
        word = words[i]
        if word in int_keys and i + 1 < len(words) and words[i + 1].isdigit():
            out[word] = int(words[i + 1])
            i += 2
        elif word in str_keys and i + 1 < len(words):
            out[word] = words[i + 1]
            i += 2
        elif word in flags:
            out[word] = True
            i += 1
        else:
            raise CommandError(f"usage: {usage}")
    return out
