"""Per-layer host time from a traced run.

:class:`ThreadProfiler` runs stdlib ``cProfile`` on the calling thread
*and* on every thread started while it is active (the serve daemon's
event-loop thread and its per-session executor threads), because one
``cProfile.Profile`` only sees the thread that enabled it.  Every profile
uses ``time.thread_time``, so a thread blocked on a socket or a queue
costs nothing and the client's wait for a reply is not counted twice.

:func:`fold` turns the profiles into self time per layer.  A function
defined under ``repro/`` belongs to the layer its module maps to.  The
self time of any other function (builtins, the stdlib, this benchmark)
is charged to whoever called it, split by the time spent per call edge
and followed up the call graph until a ``repro`` frame is found; time no
``repro`` frame caused goes to the thread's *home* bucket (``other`` on
the main thread, ``serve`` on daemon threads).
"""

from __future__ import annotations

import cProfile
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

#: the measured layers, named after the repo's modules
LAYERS = ("sim", "pedf", "cminus", "dbg", "replay", "obs", "rv", "serve")

#: module path under ``repro/`` → bucket; the first matching prefix wins
_BUCKETS = (
    ("core/replay.py", "replay"),
    ("sim/replay.py", "replay"),
    ("sim/segments.py", "replay"),
    ("sim/snapshot.py", "replay"),
    ("sim/sharding/", "other"),  # unmeasured on purpose (see README)
    ("sim/", "sim"),
    ("pedf/", "pedf"),
    ("cminus/", "cminus"),
    ("dbg/", "dbg"),
    ("core/shards.py", "other"),
    ("core/", "dbg"),
    ("obs/", "obs"),
    ("rv/", "rv"),
    ("serve/", "serve"),
)

Func = Tuple[str, int, str]


def code_key(fn) -> Func:
    """The cProfile key of a Python function or bound method."""
    code = getattr(fn, "__func__", fn).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class ThreadProfiler:
    """``with ThreadProfiler() as prof:`` profiles this thread and every
    thread started inside the block; ``prof.profiles`` afterwards holds
    ``(home_bucket, stats)`` per thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: List[Tuple[str, cProfile.Profile]] = []
        self._threads_before: set = set()
        self.profiles: List[Tuple[str, dict]] = []

    def _start_thread(self, frame, event, arg) -> None:
        prof = cProfile.Profile(time.thread_time)
        with self._lock:
            self._live.append(("serve", prof))
        prof.enable()  # replaces this hook for the rest of the thread

    def __enter__(self) -> "ThreadProfiler":
        self._threads_before = set(threading.enumerate())
        main = cProfile.Profile(time.thread_time)
        self._live.append(("other", main))
        threading.setprofile(self._start_thread)
        main.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._live[0][1].disable()
        threading.setprofile(None)
        # a profile may only be read once its thread is gone
        for thread in set(threading.enumerate()) - self._threads_before:
            thread.join(30)
            if thread.is_alive():
                raise RuntimeError(f"traced thread {thread.name} did not end")
        for home, prof in self._live:
            prof.create_stats()
            self.profiles.append((home, prof.stats))


def bucket_of(filename: str, repro_dir: str) -> Optional[str]:
    """The bucket of a ``repro`` source file, or None for foreign code."""
    if not filename.startswith(repro_dir):
        return None
    rel = filename[len(repro_dir):].replace(os.sep, "/")
    for prefix, bucket in _BUCKETS:
        if rel.startswith(prefix):
            return bucket
    return "other"  # apps/, p2012/, errors.py: not a measured layer


def fold(profiles: List[Tuple[str, dict]], repro_dir: str) -> Dict[str, float]:
    """Self seconds per bucket, summed over every thread's profile."""
    totals: Dict[str, float] = {}
    for home, stats in profiles:
        memo: Dict[Func, Dict[str, float]] = {}

        def shares(func: Func, active: set) -> Dict[str, float]:
            if func in memo:
                return memo[func]
            own = bucket_of(func[0], repro_dir)
            if own is not None:
                return {own: 1.0}
            entry = stats.get(func)
            callers = entry[4] if entry else {}
            if not callers or func in active:
                return {home: 1.0}
            active.add(func)
            weights = {caller: edge[2] for caller, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {caller: 1.0 for caller in callers}
                total = float(len(callers))
            out: Dict[str, float] = {}
            for caller, weight in weights.items():
                for bucket, frac in shares(caller, active).items():
                    out[bucket] = out.get(bucket, 0.0) + frac * weight / total
            active.discard(func)
            memo[func] = out
            return out

        for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
            for bucket, frac in shares(func, set()).items():
                totals[bucket] = totals.get(bucket, 0.0) + tt * frac
    return totals


def calls_from(profiles: List[Tuple[str, dict]], callees: set, caller: Func) -> int:
    """How many times ``caller`` called any function in ``callees``."""
    total = 0
    for _home, stats in profiles:
        for func in callees:
            entry = stats.get(func)
            if entry is not None and caller in entry[4]:
                total += entry[4][caller][0]
    return total
