"""Exception hierarchy shared across the reproduction packages.

Every subsystem derives its errors from :class:`ReproError` so callers can
catch "anything raised by this library" with a single except clause, while
still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every error raised by the ``repro`` packages."""


class SimulationError(ReproError):
    """Raised by the discrete-event kernel (``repro.sim``)."""


class DeadlockError(SimulationError):
    """The simulation cannot make progress: every live process is blocked.

    Carries the list of blocked process names so the debugger can report
    *which* actors are stuck and on what.
    """

    def __init__(self, blocked: list[str]):
        self.blocked = list(blocked)
        super().__init__(f"deadlock: all live processes blocked: {', '.join(blocked)}")


class CMinusError(ReproError):
    """Base class for Filter-C front-end and runtime errors."""


class CMinusSyntaxError(CMinusError):
    """Lexical or grammatical error in Filter-C source."""

    def __init__(self, message: str, filename: str = "<source>", line: int = 0, col: int = 0):
        self.filename = filename
        self.line = line
        self.col = col
        super().__init__(f"{filename}:{line}:{col}: {message}")


class CMinusTypeError(CMinusError):
    """Semantic/type error in Filter-C source."""

    def __init__(self, message: str, filename: str = "<source>", line: int = 0):
        self.filename = filename
        self.line = line
        super().__init__(f"{filename}:{line}: {message}")


class CMinusRuntimeError(CMinusError):
    """Error raised while interpreting Filter-C code (e.g. division by zero)."""


class CMinusLoweringError(CMinusError):
    """A function the bytecode compiler could not lower: the program is
    refused rather than run in part."""

    def __init__(self, filename: str, function: str, reason: str):
        self.filename = filename
        self.function = function
        self.reason = reason
        super().__init__(
            f"{filename}: function {function!r} cannot be lowered to bytecode: {reason}"
        )


class MindError(ReproError):
    """Error in a MIND architecture description (parse or elaboration)."""

    def __init__(self, message: str, filename: str = "<adl>", line: int = 0):
        self.filename = filename
        self.line = line
        super().__init__(f"{filename}:{line}: {message}")


class PedfError(ReproError):
    """Error raised by the PEDF dataflow framework runtime."""


class PlatformError(ReproError):
    """Error raised by the P2012 platform model."""


class DebuggerError(ReproError):
    """Error raised by the base source-level debugger (``repro.dbg``)."""


class CommandError(DebuggerError):
    """A CLI command was malformed or referenced an unknown entity."""


class DataflowDebugError(DebuggerError):
    """Error raised by the dataflow-aware debugger extension (``repro.core``)."""


class ReplayError(DataflowDebugError):
    """Error raised by the record/replay subsystem (``repro.core.replay``)."""


class RvError(DataflowDebugError):
    """Error raised by the runtime-verification subsystem (``repro.rv``):
    a malformed property, a name that does not resolve against the
    reconstructed graph, or a check operation on an unknown id."""


class ReplayDivergenceError(ReplayError):
    """A replayed execution did not reproduce the recorded one.

    Raised by the built-in determinism self-check: every replayed framework
    event and periodic checkpoint digest is compared against the journal;
    the first mismatch aborts the replay with the position and the
    expected/observed fingerprints.
    """
