"""Stop events: why the platform stopped and where."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, List, Optional


class StopKind(enum.Enum):
    BREAKPOINT = "breakpoint"
    WATCHPOINT = "watchpoint"
    FUNCTION_BP = "function-breakpoint"
    API_BP = "api-breakpoint"
    FINISH = "finish"
    STEP = "step"
    TRAP = "trap"  # the trap() builtin (programmatic int3)
    DATAFLOW = "dataflow"  # dataflow-extension stops (catchpoints, …)
    DEADLOCK = "deadlock"
    VIOLATION = "violation"  # a runtime-verification check tripped
    EXITED = "exited"
    ERROR = "error"
    PAUSED = "paused"  # external interrupt
    REPLAY = "replay"  # a time-travel target position was reached
    ISA_BP = "isa-breakpoint"  # VM instruction breakpoint / brk instruction
    REGISTER_WATCH = "register-watchpoint"  # a VM register changed value


#: payload of the watchpoint stop that deletes a watchpoint on a local
#: because its frame returned (GDB/MI's ``watchpoint-scope``)
LEFT_SCOPE = "watchpoint-scope"


@dataclass
class StopEvent:
    """Carried as the ``reason`` payload of a kernel ``Suspend``."""

    kind: StopKind
    message: str = ""
    actor: Optional[str] = None  # qualified actor name, if any
    filename: Optional[str] = None
    line: Optional[int] = None
    bp_id: Optional[int] = None
    payload: Any = None  # kind-specific detail (event, exception, …)
    time: int = 0

    def describe(self) -> List[str]:
        """Human-readable lines, GDB style."""
        lines: List[str] = []
        loc = ""
        if self.filename is not None and self.line is not None:
            loc = f" at {self.filename}:{self.line}"
        who = f" [{self.actor}]" if self.actor else ""
        if self.kind == StopKind.BREAKPOINT:
            lines.append(f"Breakpoint {self.bp_id},{who}{loc}")
        elif self.kind == StopKind.WATCHPOINT and self.payload == LEFT_SCOPE:
            lines.append(
                f"Watchpoint {self.bp_id} deleted because the program has left "
                "the block in which its expression is valid."
            )
            lines.append(f"{self.message}{who}{loc}")
        elif self.kind == StopKind.WATCHPOINT:
            lines.append(f"Watchpoint {self.bp_id}:{who} {self.message}")
        elif self.kind == StopKind.FUNCTION_BP:
            lines.append(f"Function breakpoint {self.bp_id},{who} {self.message}{loc}")
        elif self.kind == StopKind.API_BP:
            lines.append(f"Framework breakpoint {self.bp_id},{who} {self.message}")
        elif self.kind == StopKind.FINISH:
            lines.append(f"Run till exit{who}: {self.message}{loc}")
        elif self.kind == StopKind.STEP:
            # a step that ended at the activation's return has no line:
            # its message says where it stopped
            where = loc or (f": {self.message}" if self.message else "")
            lines.append(f"Step{who}{where}")
        elif self.kind == StopKind.TRAP:
            lines.append(f"Program trap(){who}{loc}")
        elif self.kind == StopKind.ISA_BP:
            lines.append(f"ISA breakpoint{who} {self.message}{loc}")
        elif self.kind == StopKind.REGISTER_WATCH:
            lines.append(f"Register watchpoint {self.bp_id}:{who} {self.message}")
        elif self.kind == StopKind.DATAFLOW:
            lines.append(self.message)
        elif self.kind == StopKind.REPLAY:
            lines.append(f"Replay stop{who}: {self.message}")
        elif self.kind == StopKind.VIOLATION:
            lines.append(f"Check violated: {self.message}")
            # the structured verdict rides in the payload; render it fully
            payload = self.payload
            if payload is not None and hasattr(payload, "render"):
                lines.extend(payload.render()[1:])
        elif self.kind == StopKind.DEADLOCK:
            lines.append(f"Deadlock detected: {self.message}")
        elif self.kind == StopKind.EXITED:
            lines.append(f"[Program exited: {self.message}]" if self.message else "[Program exited]")
        elif self.kind == StopKind.ERROR:
            lines.append(f"Program error{who}: {self.message}")
        else:
            lines.append(f"Stopped ({self.kind.value}){who} {self.message}")
        return lines

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "; ".join(self.describe())
