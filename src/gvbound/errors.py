"""Exception hierarchy shared by all gvbound modules.

Every error raised by the library derives from :class:`GVBoundError`, so
callers can catch one base class. Errors that signal invalid argument
values also derive from :class:`ValueError` to stay friendly to generic
callers.
"""

from __future__ import annotations

__all__ = [
    "GVBoundError",
    "DomainError",
    "DimensionMismatchError",
    "NoRootFoundError",
    "NonConvergenceError",
    "SizeLimitError",
    "MemoryBudgetError",
]


class GVBoundError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GVBoundError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DimensionMismatchError(GVBoundError, ValueError):
    """Vector or sequence arguments have incompatible lengths."""


class NoRootFoundError(GVBoundError):
    """A root scan exhausted its search interval without finding a root."""


class NonConvergenceError(GVBoundError):
    """An iterative solver failed to reach the requested tolerance."""


class SizeLimitError(GVBoundError):
    """A brute-force enumeration was requested beyond its feasible size."""


class MemoryBudgetError(GVBoundError):
    """A table build was requested beyond the configured entry budget."""
