"""Exception hierarchy shared by every layer of the package.

Separating resource exhaustion from mathematical violations matters for the
script runner: the two map to different process exit codes.
"""

from __future__ import annotations


class ExtlabError(Exception):
    """Base class for all package-specific errors."""


class ParseError(ExtlabError):
    """Raised on malformed polynomial or script source.

    Carries a human-readable position so the CLI can point at the offending
    token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ResourceCapError(ExtlabError):
    """A configured cap (degree, time, matrix size) was exceeded.

    The computation was abandoned, not wrong.
    """


class DegreeCapError(ResourceCapError):
    """A monomial operation would exceed the ring's degree cap."""


class InvariantViolation(ExtlabError):
    """An internal consistency check failed; indicates a genuine bug
    or a counterexample to an asserted theorem, never bad user input."""


class HypothesisNotMet(ExtlabError):
    """A check was invoked on inputs outside its stated hypotheses
    (e.g. a duality test on a ring that is not Gorenstein)."""
