"""Exception types shared across the library."""

from __future__ import annotations


class TropicalError(Exception):
    """Base class for domain-level failures (as opposed to usage errors)."""


class _CycleError(TropicalError):
    """A cycle improves every path through it, so the paths have no fixed
    point. The partially/fully computed result is still attached so callers
    can inspect it: ``matrix`` for closure-style operations (the full Floyd-
    Warshall output), ``vertices`` for the diagonal indices that improved on
    the multiplicative identity.
    """

    def __init__(self, message: str, vertices: tuple[int, ...] = (), matrix=None):
        super().__init__(message)
        self.vertices = vertices
        self.matrix = matrix


class NegativeCycleError(_CycleError):
    """A min-plus computation detected a negative-weight cycle: shortest-path
    values through it fall without bound."""


class PositiveCycleError(_CycleError):
    """A max-plus computation detected a positive-weight cycle: longest-path
    values through it grow without bound."""


class SaturationError(TropicalError):
    """A result lies outside the range its 32-bit values can hold, so it
    would only come out saturated."""


class NoCycleError(TropicalError):
    """The graph contains no cycle, so no cycle mean / period exists."""


class CycleInAcyclicGraphError(TropicalError):
    """A task graph declared acyclic (or its non-feedback part) has a cycle."""

    def __init__(self, message: str, vertices: tuple[int, ...] = ()):
        super().__init__(message)
        self.vertices = vertices


class GraphParseError(ValueError):
    """A graph or schedule file is malformed. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
