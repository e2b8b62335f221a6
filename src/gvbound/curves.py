"""Bound-curve evaluation and CSV/SVG rendering.

A CurveSpec names a channel, a set of bounds, a sweep over beta (sticky)
or delta (synthesis), and tau for synthesis; build_curves is its one
check, then evaluates the channel's evaluate_point record once per sweep
point, lo and hi first, and returns one RateCurve per requested bound
with the record's value and flags for that bound.

rows_to_csv and render_svg take the spec and call build_curves on it, so
a sweep is checked and evaluated once per rendering.  The text is
deliberately plain: CSV with %.12g values, and a fixed-size
self-contained SVG line chart, so the same spec renders the same bytes.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

from .errors import DomainError
from .numeric import _items, _real, _shown, check_sizes

__all__ = [
    "CurveSpec",
    "RateCurve",
    "MAX_STEPS",
    "BOUNDS",
    "build_curves",
    "rows_to_csv",
    "render_svg",
]

MAX_STEPS = 100_000  # largest sweep, checked before the grid is allocated

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _flags(*named: tuple[str, bool]) -> tuple[str, ...]:
    return tuple(name for name, on in named if on)


# Each channel's bounds in column order: name -> the record's value and flags.
BOUNDS = {
    "sticky": {
        "gv": lambda p: (p.gv_rate, _flags(("saturated", p.gv_saturated))),
        "sp": lambda p: (p.sp_rate, ()),
        "lb": lambda p: (p.lb_rate, _flags(("boundary", p.lb_boundary))),
        "capacity": lambda p: (p.capacity, ()),
    },
    "synthesis": {
        "gv": lambda p: (p.gv_rate, _flags(
            ("upper-bound", True), ("saturated", p.saturated), ("floored", p.gv_floored)
        )),
        "lb": lambda p: (p.lb_rate, _flags(("floored", p.lb_floored))),
        "capacity": lambda p: (p.capacity, ()),
    },
}


class CurveSpec(NamedTuple):
    """One sweep request: channel, bounds, sweep grid, and tau for synthesis."""

    channel: str
    bounds: tuple[str, ...]
    lo: float
    hi: float
    steps: int
    tau: float | None = None

    @property
    def sweep_param(self) -> str:
        """The swept parameter: beta for sticky curves, delta for synthesis."""
        return "beta" if self.channel == "sticky" else "delta"

    def grid(self) -> list[float]:
        """steps evenly spaced points from lo + 0.0 to hi; the last one is hi itself."""
        lo, hi = float(self.lo), float(self.hi)
        step = (hi - lo) / (self.steps - 1)
        return [lo + k * step for k in range(self.steps - 1)] + [hi]


class RateCurve(NamedTuple):
    """One bound evaluated over the sweep grid."""

    label: str
    rows: tuple[tuple[float, float, tuple[str, ...]], ...]


def build_curves(spec: CurveSpec) -> list[RateCurve]:
    """Check spec, then evaluate every requested bound over its sweep grid.

    The channel evaluates lo, then hi, which rejects a sweep outside its
    domain before any other grid point; those two records are the first
    and last rows, so a sweep costs steps evaluations.
    """
    if not isinstance(spec, CurveSpec):
        raise DomainError(f"spec must be a CurveSpec, got {type(spec).__name__}")
    if spec.channel not in ("sticky", "synthesis"):
        raise DomainError(f"unknown channel {_shown(spec.channel)}")
    if spec.channel == "synthesis" and spec.tau is None:
        raise DomainError("synthesis curves need --tau")
    if spec.channel == "sticky" and spec.tau is not None:
        raise DomainError("sticky curves take no --tau")
    allowed = BOUNDS[spec.channel]
    bounds = _items(spec.bounds, "bounds must be a sequence of names")
    if not bounds:
        raise DomainError("at least one bound must be requested")
    for b in bounds:
        if not isinstance(b, str) or b not in allowed:  # a list cannot be looked up
            raise DomainError(
                f"bound {_shown(b)} not available for {spec.channel} "
                f"(choose from {', '.join(allowed)})"
            )
    if len(set(bounds)) < len(bounds):
        raise DomainError(f"each bound may be requested once, got {','.join(bounds)}")
    check_sizes(at_least=None, steps=spec.steps)
    if not 2 <= spec.steps <= MAX_STEPS:
        raise DomainError(f"sweep needs 2 <= steps <= {MAX_STEPS}, got {_shown(spec.steps)}")
    try:  # an infinite end passes, for the channel to reject
        lo = _real(spec.lo, "lo", -math.inf, math.inf)
        if not lo < _real(spec.hi, "hi", -math.inf, math.inf):
            raise DomainError
    except DomainError:  # out of order, or not real numbers
        raise DomainError(
            f"sweep range must satisfy lo < hi, got {_shown(spec.lo)}:{_shown(spec.hi)}"
        ) from None
    if spec.channel == "sticky":
        from .sticky import evaluate_point as evaluate
    else:
        from .synthesis import evaluate_point

        evaluate = partial(evaluate_point, spec.tau)
    first, last = evaluate(spec.lo), evaluate(spec.hi)
    grid = spec.grid()
    points = [first, *map(evaluate, grid[1:-1]), last]
    columns = [allowed[bound] for bound in bounds]
    cells = [[column(p) for column in columns] for p in points]
    return [
        RateCurve(label=bound, rows=tuple((x, *c[k]) for x, c in zip(grid, cells)))
        for k, bound in enumerate(bounds)
    ]


def _fmt(value: float) -> str:
    return "%.12g" % value


def rows_to_csv(spec: CurveSpec) -> str:
    """CSV text of build_curves(spec): sweep param, one value column per bound, merged flags."""
    curves = build_curves(spec)
    header = [spec.sweep_param] + [c.label for c in curves] + ["flags"]
    lines = [",".join(header)]
    for row in zip(*(c.rows for c in curves)):
        cells = [_fmt(row[0][0])]
        tokens: list[str] = []
        for c, (_, y, flags) in zip(curves, row):
            cells.append(_fmt(y))
            tokens.extend(f"{c.label}:{f}" for f in flags)
        cells.append(";".join(tokens))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_svg(spec: CurveSpec) -> str:
    """Self-contained 800x600 line chart of build_curves(spec), one path per curve."""
    curves = build_curves(spec)
    width, height = 800, 600
    left, right, top, bottom = 80, 30, 30, 60
    plot_w = width - left - right
    plot_h = height - top - bottom

    x_lo, x_hi = float(spec.lo), float(spec.hi)
    y_values = [row[1] for c in curves for row in c.rows if math.isfinite(row[1])]
    y_lo = 0.0
    y_hi = max(y_values) if y_values else 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_hi *= 1.05

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]

    ticks = 5
    for k in range(ticks + 1):
        xv = x_lo + (x_hi - x_lo) * k / ticks
        px = sx(xv)
        parts.append(
            f'<line x1="{px:.2f}" y1="{top + plot_h}" x2="{px:.2f}" '
            f'y2="{top + plot_h + 6}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{top + plot_h + 22}" font-size="13" '
            f'font-family="sans-serif" text-anchor="middle">{_fmt_tick(xv)}</text>'
        )
        yv = y_lo + (y_hi - y_lo) * k / ticks
        py = sy(yv)
        parts.append(
            f'<line x1="{left - 6}" y1="{py:.2f}" x2="{left}" y2="{py:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 10}" y="{py + 4:.2f}" font-size="13" '
            f'font-family="sans-serif" text-anchor="end">{_fmt_tick(yv)}</text>'
        )

    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 15}" font-size="15" '
        f'font-family="sans-serif" text-anchor="middle">{spec.sweep_param}</text>'
    )
    parts.append(
        f'<text x="22" y="{top + plot_h / 2:.2f}" font-size="15" '
        f'font-family="sans-serif" text-anchor="middle" '
        f'transform="rotate(-90 22 {top + plot_h / 2:.2f})">rate (bits/symbol)</text>'
    )

    for idx, curve in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y, _ in curve.rows if math.isfinite(y)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            'stroke-width="2"/>'
        )

    legend_x = left + plot_w - 150
    legend_y = top + 14
    for idx, curve in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        y0 = legend_y + idx * 20
        parts.append(
            f'<line x1="{legend_x}" y1="{y0}" x2="{legend_x + 28}" y2="{y0}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 34}" y="{y0 + 4}" font-size="13" '
            f'font-family="sans-serif">{curve.label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _fmt_tick(value: float) -> str:
    return "%.4g" % value
