"""Breakpoint kinds and their registry.

``FunctionBreakpoint`` (on Filter-C symbols) and ``ApiBreakpoint`` (on
framework API symbols, entry or exit phase) together reproduce the
paper's *function breakpoints* + *finish breakpoints* mechanism: a
breakpoint carrying the semantic action to run when its location is hit,
used by the dataflow extension to keep its internal model in sync.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import DebuggerError

if TYPE_CHECKING:  # pragma: no cover
    from ..cminus.interp import Frame, Interpreter
    from ..pedf.api import FrameworkEvent


class BreakpointBase:
    """State common to every breakpoint kind."""

    kind = "breakpoint"
    #: which registry index (and armed-count bucket) this kind lives in;
    #: ``None`` keeps the breakpoint out of the hot-path indices entirely
    index_category: Optional[str] = None

    def __init__(self, *, temporary: bool = False, internal: bool = False,
                 condition: Optional[str] = None, actor: Optional[str] = None):
        self.id: int = -1  # assigned by the registry
        self._enabled = True
        self._registry: Optional["BreakpointRegistry"] = None
        self.temporary = temporary
        #: internal breakpoints do not show in `info breakpoints` — the
        #: dataflow extension's capture breakpoints are internal, like the
        #: paper's
        self.internal = internal
        self.condition = condition
        self.actor = actor  # restrict to one actor (qualified name)
        self.ignore_count = 0
        self.hit_count = 0
        self.deleted = False

    # -- enable/disable -----------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        value = bool(value)
        if value == self._enabled:
            return
        self._enabled = value
        if self._registry is not None:
            self._registry._on_enabled_toggle(self, value)

    # -- bookkeeping --------------------------------------------------------

    def register_hit(self) -> bool:
        """Count a hit; False while the ignore budget is being consumed."""
        self.hit_count += 1
        if self.ignore_count > 0:
            self.ignore_count -= 1
            return False
        return True

    def what(self) -> str:
        return self.kind

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        state = "y" if self.enabled else "n"
        return f"{self.id}\t{self.kind}\t{state}\t{self.what()}"


class SourceBreakpoint(BreakpointBase):
    kind = "source"
    index_category = "source"

    def __init__(self, filename: str, line: int, **kwargs):
        super().__init__(**kwargs)
        self.filename = filename
        self.line = line

    def what(self) -> str:
        s = f"{self.filename}:{self.line}"
        if self.actor:
            s += f" [{self.actor}]"
        if self.condition:
            s += f" if {self.condition}"
        return s


class FunctionBreakpoint(BreakpointBase):
    """Breaks on entry of a Filter-C function (by possibly-mangled symbol)."""

    kind = "function"
    index_category = "function"

    def __init__(self, symbol: str, **kwargs):
        super().__init__(**kwargs)
        self.symbol = symbol

    def what(self) -> str:
        s = self.symbol
        if self.actor:
            s += f" [{self.actor}]"
        if self.condition:
            s += f" if {self.condition}"
        return s


class ApiBreakpoint(BreakpointBase):
    """Breaks on a framework API symbol (entry or exit phase).

    ``phase='exit'`` is the paper's *finish breakpoint* on a framework
    function.  ``stop_fn(event)``, the semantic action, returns False to
    keep running, True (as no ``stop_fn`` does) to stop with ``API_BP``,
    or a :class:`~repro.dbg.stop.StopEvent` to stop with its own.
    """

    kind = "api"

    def __init__(
        self,
        symbol: str,
        phase: str = "entry",
        stop_fn: Optional[Callable[["FrameworkEvent"], Any]] = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if phase not in ("entry", "exit", "both"):
            raise DebuggerError(f"bad phase {phase!r}")
        self.symbol = symbol
        self.phase = phase
        self.stop_fn = stop_fn
        self.subscription = None  # the bus subscription, set by the debugger

    def what(self) -> str:
        s = f"{self.symbol} ({self.phase})"
        if self.actor:
            s += f" [{self.actor}]"
        return s


class Watchpoint(BreakpointBase):
    """Stops when an expression's value changes in a given actor."""

    kind = "watch"
    index_category = "watch"

    def __init__(self, expr_text: str, actor: str, **kwargs):
        super().__init__(actor=actor, **kwargs)
        self.expr_text = expr_text
        self.last: Optional[tuple] = None  # (ctype, raw) or None if unavailable
        self.primed = False
        #: the frame a local in the expression resolved in when the
        #: watchpoint was set (None: globals and ``pedf.data`` only); the
        #: expression is evaluated in it, and its return deletes the
        #: watchpoint
        self.frame: Optional["Frame"] = None

    def what(self) -> str:
        return f"{self.expr_text} [{self.actor}]"


class IsaBreakpoint(BreakpointBase):
    """Breaks before one VM instruction executes (``function+pc``) — the
    instruction-level analogue of a source breakpoint, available only on
    the bytecode tier (arming one raises CAP_ISA)."""

    kind = "isa"
    index_category = "isa"

    def __init__(self, func_name: str, pc: int, **kwargs):
        super().__init__(**kwargs)
        self.func_name = func_name
        self.pc = pc

    def what(self) -> str:
        s = f"{self.func_name}+{self.pc}"
        if self.actor:
            s += f" [{self.actor}]"
        return s


class RegisterWatchpoint(BreakpointBase):
    """Stops when a VM register of a function changes value (compared
    before each instruction while CAP_ISA is armed)."""

    kind = "rwatch"
    index_category = "rwatch"

    def __init__(self, func_name: str, reg: int, **kwargs):
        super().__init__(**kwargs)
        self.func_name = func_name
        self.reg = reg
        self.last: Optional[tuple] = None  # 1-tuple holding the last value
        self.primed = False

    def what(self) -> str:
        s = f"r{self.reg} in {self.func_name}"
        if self.actor:
            s += f" [{self.actor}]"
        return s


class FinishBreakpoint(BreakpointBase):
    """Fires when a specific frame returns (GDB's FinishBreakpoint)."""

    kind = "finish"
    index_category = "finish"

    def __init__(self, frame: "Frame", interp: "Interpreter"):
        super().__init__(temporary=True, internal=True)
        self.frame = frame
        self.interp = interp


class BreakpointRegistry:
    """Owns every breakpoint; provides the lookup indices the hook uses.

    Hot-path queries are O(1) dict lookups, maintained incrementally on
    ``add`` / ``remove`` / enable / disable:

    - source breakpoints are keyed by ``(filename, line)``;
    - function breakpoints by symbol;
    - watchpoints by actor qualname;
    - finish breakpoints by the interpreter they watch;
    - dataflow catchpoints in one flat list.

    API breakpoints are not indexed: each is its own bus subscription.

    ``armed_count(category)`` answers "could anything of this kind fire?"
    without allocating; :attr:`on_change` (set by the debugger) fires on
    every mutation so hook capabilities can be recomputed.
    """

    def __init__(self) -> None:
        self.next_id = 1  # the number the next user breakpoint gets
        self._next_internal_id = itertools.count(-1, -1)
        self.all: Dict[int, BreakpointBase] = {}
        self._source_at: Dict[Tuple[str, int], List[SourceBreakpoint]] = {}
        self._function_at: Dict[str, List[FunctionBreakpoint]] = {}
        self._watch_at: Dict[str, List[Watchpoint]] = {}
        self._isa_at: Dict[Tuple[str, int], List[IsaBreakpoint]] = {}
        self._rwatch_at: Dict[str, List[RegisterWatchpoint]] = {}
        self._finish_at: Dict[int, List[FinishBreakpoint]] = {}
        self._flat: Dict[str, List[BreakpointBase]] = {}  # "catch"
        self._armed: Dict[str, int] = {}
        #: bumped on every structural mutation (add/remove/enable/disable)
        self.generation = 0
        #: notified after every mutation; the debugger re-derives its hook
        #: capability mask here (hook elision)
        self.on_change: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------- indices

    def _slot(self, bp: BreakpointBase) -> Optional[Tuple[Dict[Any, List], Any]]:
        """The index table and key of ``bp``'s bucket (None: unindexed)."""
        cat = bp.index_category
        if cat == "source":
            return self._source_at, (bp.filename, bp.line)
        if cat == "function":
            return self._function_at, bp.symbol
        if cat == "watch":
            return self._watch_at, bp.actor
        if cat == "isa":
            return self._isa_at, (bp.func_name, bp.pc)
        if cat == "rwatch":
            return self._rwatch_at, bp.func_name
        if cat == "finish":
            return self._finish_at, id(bp.interp)
        if cat is not None:
            return self._flat, cat
        return None

    def _changed(self) -> None:
        self.generation += 1
        if self.on_change is not None:
            self.on_change()

    def _on_enabled_toggle(self, bp: BreakpointBase, enabled: bool) -> None:
        cat = bp.index_category
        if cat is not None:
            self._armed[cat] = self._armed.get(cat, 0) + (1 if enabled else -1)
        self._changed()

    def armed_count(self, category: str) -> int:
        """Enabled breakpoints in a category ('source', 'function',
        'watch', 'isa', 'rwatch', 'finish', 'api', 'catch') — O(1), no
        allocation."""
        return self._armed.get(category, 0)

    # ---------------------------------------------------------- life cycle

    def add(self, bp: BreakpointBase) -> BreakpointBase:
        # internal breakpoints get negative numbers, like GDB's, so user
        # commands (`delete 1`) can never hit the extension's capture
        # breakpoints by accident
        if bp.internal:
            bp.id = next(self._next_internal_id)
        else:
            bp.id = self.next_id
            self.next_id += 1
        self._attach(bp)
        self._changed()
        return bp

    def remove(self, bp_id: int) -> BreakpointBase:
        bp = self.all.get(bp_id)
        if bp is None:
            raise DebuggerError(f"no breakpoint {bp_id}")
        self._detach(bp)
        bp.deleted = True
        self._changed()
        return bp

    def _attach(self, bp: BreakpointBase) -> None:
        self.all[bp.id] = bp
        bp._registry = self
        slot = self._slot(bp)
        if slot is not None:
            table, key = slot
            table.setdefault(key, []).append(bp)
            if bp.enabled:
                cat = bp.index_category
                self._armed[cat] = self._armed.get(cat, 0) + 1

    def _detach(self, bp: BreakpointBase) -> None:
        del self.all[bp.id]
        bp._registry = None
        slot = self._slot(bp)
        if slot is not None:
            table, key = slot
            bucket = table[key]
            bucket.remove(bp)
            if not bucket:
                del table[key]
            if bp.enabled:
                self._armed[bp.index_category] -= 1
        if isinstance(bp, ApiBreakpoint) and bp.subscription is not None:
            bp.subscription.unsubscribe()
            bp.subscription = None

    def lift(self) -> List[BreakpointBase]:
        """Take the user's breakpoints and catchpoints off this registry,
        numbers, state and counts intact, for :meth:`land` on another
        machine of the same program.  Finish breakpoints and watchpoints
        on a local are deleted, as GDB deletes them with their frame."""
        lifted, changed = [], False
        for bp in list(self.all.values()):
            dies = isinstance(bp, FinishBreakpoint) or (
                isinstance(bp, Watchpoint) and bp.frame is not None
            )
            if dies or not bp.internal:
                self._detach(bp)
                bp.deleted, changed = dies, True
                if not dies:
                    lifted.append(bp)
        if changed:
            self._changed()
        return lifted

    def land(self, lifted: Sequence[BreakpointBase], next_id: int) -> None:
        """Register what :meth:`lift` took off another registry, as numbered."""
        self.next_id = next_id
        if lifted:
            for bp in lifted:
                self._attach(bp)
            self._changed()

    def get(self, bp_id: int) -> BreakpointBase:
        bp = self.all.get(bp_id)
        if bp is None:
            raise DebuggerError(f"no breakpoint {bp_id}")
        return bp

    def visible(self) -> List[BreakpointBase]:
        return [bp for bp in self.all.values() if not bp.internal]

    # ------------------------------------------------------ hot-path lookups

    def source_bps_at(self, filename: str, line: int) -> Sequence[SourceBreakpoint]:
        """Enabled source breakpoints at exactly ``filename:line``."""
        bucket = self._source_at.get((filename, line))
        if not bucket:
            return ()
        return [bp for bp in bucket if bp._enabled]

    def function_bps_for(self, symbol: str) -> Sequence[FunctionBreakpoint]:
        """Enabled function breakpoints on ``symbol``."""
        bucket = self._function_at.get(symbol)
        if not bucket:
            return ()
        return [bp for bp in bucket if bp._enabled]

    def watchpoints_for(self, actor: str) -> Sequence[Watchpoint]:
        """Enabled watchpoints scoped to one actor qualname."""
        bucket = self._watch_at.get(actor)
        if not bucket:
            return ()
        return [wp for wp in bucket if wp._enabled]

    def isa_bps_at(self, func_name: str, pc: int) -> Sequence[IsaBreakpoint]:
        """Enabled ISA breakpoints at exactly ``func_name+pc``."""
        bucket = self._isa_at.get((func_name, pc))
        if not bucket:
            return ()
        return [bp for bp in bucket if bp._enabled]

    def register_watchpoints_for(self, func_name: str) -> Sequence[RegisterWatchpoint]:
        """Enabled register watchpoints scoped to one VM function."""
        bucket = self._rwatch_at.get(func_name)
        if not bucket:
            return ()
        return [wp for wp in bucket if wp._enabled]

    def finish_bps_for(self, interp: "Interpreter") -> Sequence[FinishBreakpoint]:
        """Enabled finish breakpoints watching frames of ``interp``."""
        bucket = self._finish_at.get(id(interp))
        if not bucket:
            return ()
        return [bp for bp in bucket if bp._enabled]

    def catchpoints(self) -> Sequence[BreakpointBase]:
        """Enabled dataflow catchpoints (the capture layer's per-event scan)."""
        bucket = self._flat.get("catch")
        if not bucket:
            return ()
        return [cp for cp in bucket if cp._enabled]

    # ------------------------------------------- legacy full-list accessors

    def source_bps(self) -> List[SourceBreakpoint]:
        return [bp for bp in self.all.values()
                if isinstance(bp, SourceBreakpoint) and bp.enabled]

    def function_bps(self) -> List[FunctionBreakpoint]:
        return [bp for bp in self.all.values()
                if isinstance(bp, FunctionBreakpoint) and bp.enabled]
