"""Exception hierarchy for the toolkit.

Everything raised on purpose derives from OmtError so callers (and the CLI)
can distinguish our diagnostics from genuine bugs.
"""

from __future__ import annotations


class OmtError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(OmtError):
    """Malformed input text. Carries the 1-based line number and the offending token."""

    def __init__(self, message: str, *, line: int | None = None, token: str | None = None):
        self.line = line
        self.token = token
        where = []
        if line is not None:
            where.append(f"line {line}")
        if token is not None:
            where.append(f"token {token!r}")
        super().__init__(f"{message} ({', '.join(where)})" if where else message)


class InvalidSpec(OmtError):
    """A structure description violates its own well-formedness rules."""


class CycleInCovers(OmtError):
    """The cover relation is not acyclic, so it generates no partial order."""


class NotBounded(OmtError):
    """The ordered set has no global least or no global greatest element."""


class NotALattice(OmtError):
    """Some pair of elements lacks a least upper or greatest lower bound."""

    def __init__(self, message: str, pair: tuple[str, str] | None = None):
        self.pair = pair
        super().__init__(message)


class OrthoViolation(OmtError):
    """The declared pairing is not an antitone involutive complementation."""


class NoOrtho(OmtError):
    """An orthocomplementation is required but the lattice carries none."""


class EmptyRestriction(OmtError):
    """Restricting (or inducing) a relation produced no pairs, so no time frame exists."""


class UnknownTimePoint(OmtError):
    """A named time point does not belong to the frame."""


class TabulatedMiss(OmtError):
    """A tabulated operator has no entry for the given proposition."""


class BudgetExceeded(OmtError):
    """Exhaustive enumeration would overrun the configured budget."""

    def __init__(self, message: str, space: int, budget: int):
        self.space = space
        self.budget = budget
        super().__init__(message)


class TooBigForMemory(OmtError):
    """An array would hold more bytes than the machine has physical memory."""

    def __init__(self, message: str, nbytes: int):
        self.nbytes = nbytes
        super().__init__(message)


class NotAFailure(OmtError):
    """replay_witness was handed a report whose verdict is not 'fail'."""


class UnknownDemo(OmtError):
    """No built-in demo with that name."""
