"""Rate bounds for constrained channels via pair counting.

The package computes Gilbert-Varshamov, sphere-packing, and crude rate
bounds for two constrained spaces: binary words under sticky insertions
(fixed run density) and DNA strands under a synthesis-cycle budget.  The
common machinery is exact pair counting by dynamic programming and
coefficient asymptotics of the pair generating functions through smooth
critical points.

Channel-specific functionality lives in the sticky and synthesis
submodules; curves and cli drive curve sweeps and the command
line; verify holds the self-check suites.  Names are imported from
their submodules, e.g. ``from gvbound.errors import DomainError``.
"""

from . import acsv, curves, errors, numeric, sticky, synthesis, verify

__version__ = "0.1.0"

__all__ = [
    "acsv",
    "curves",
    "errors",
    "numeric",
    "sticky",
    "synthesis",
    "verify",
    "__version__",
]
