"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CliqueSplitterError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(CliqueSplitterError, ValueError):
    """Malformed graph file (DIMACS or adjacency JSON)."""


class RecipeError(CliqueSplitterError, ValueError):
    """Unparseable or unknown generator recipe string."""


class GenerationError(CliqueSplitterError, ValueError):
    """Generator parameters are infeasible for the requested family."""


class PreconditionError(CliqueSplitterError, ValueError):
    """An operation's stated precondition does not hold for the input."""

    def __init__(self, message: str, witness: tuple[int, ...] | None = None):
        super().__init__(message)
        self.witness = witness


class AllStrategiesExhausted(CliqueSplitterError, RuntimeError):
    """Every partition strategy failed on a hypothesis-satisfying input.

    ``proven_infeasible`` is True when an exhaustive search completed
    within its node budget and established that no valid partition
    exists; otherwise the failure is merely a search failure.
    ``diagnostics`` holds one entry per stage that failed (for
    ``kway_clique_partition``: "coloring", "exact" and "recoloring").
    Every search covers the whole input, so ``depth`` is always 0; it is
    kept so that exhausted reports keep their shape.
    """

    def __init__(self, message: str, diagnostics: dict | None = None,
                 depth: int = 0, proven_infeasible: bool = False):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
        self.depth = depth
        self.proven_infeasible = proven_infeasible


class SearchFailureError(CliqueSplitterError, RuntimeError):
    """Internal search failed where success is provable; indicates a bug."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class BudgetExceededError(CliqueSplitterError, RuntimeError):
    """An exhaustive routine refused an input beyond its budget, or ran
    out of its budget part-way."""
