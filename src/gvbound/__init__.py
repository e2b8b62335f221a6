"""Rate bounds for constrained channels via pair counting.

The package computes Gilbert-Varshamov, sphere-packing, and crude rate
bounds for two constrained spaces: binary words under sticky insertions
(fixed run density) and DNA strands under a synthesis-cycle budget.  The
common machinery is exact pair counting (a closed form for the sticky
channel, dynamic programming for the synthesis channel), stored exact or
as log2 counts, and coefficient asymptotics of the pair generating
functions through smooth critical points.

Channel-specific functionality lives in the sticky and synthesis
submodules; curves and cli drive curve sweeps and the command
line; verify holds the self-check suites.  Importing the package loads
no submodule: each loads on first access, as ``gvbound.sticky`` or
``from gvbound import sticky``.  Names are imported from their
submodules, e.g. ``from gvbound.errors import DomainError``.
"""

import importlib

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


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
