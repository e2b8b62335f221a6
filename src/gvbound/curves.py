"""Bound-curve evaluation and CSV/SVG rendering.

A CurveSpec names a channel, a set of bounds, a sweep over beta (sticky)
or delta (synthesis), and tau for synthesis; build_curves evaluates the
channel's evaluate_point record at every sweep point, serially and in
grid order, and returns one RateCurve per requested bound with the
record's value and flags for that bound.

The writers are deliberately plain: CSV with %.12g values and UNIX
newlines, and a fixed-size self-contained SVG line chart, so repeated
runs of the same spec produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import sticky, synthesis
from .errors import DomainError
from .numeric import check_sizes
from .sticky import StickyPoint
from .synthesis import SynthesisPoint

__all__ = [
    "CurveSpec",
    "RateCurve",
    "MAX_STEPS",
    "STICKY_BOUNDS",
    "SYNTHESIS_BOUNDS",
    "build_curves",
    "rows_to_csv",
    "write_csv",
    "render_svg",
    "write_svg",
]

STICKY_BOUNDS = ("gv", "sp", "lb", "capacity")
SYNTHESIS_BOUNDS = ("gv", "lb", "capacity")
MAX_STEPS = 100_000  # largest sweep, checked before the grid is allocated

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


@dataclass(frozen=True)
class CurveSpec:
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

    def validate(self) -> None:
        if self.channel not in ("sticky", "synthesis"):
            raise DomainError(f"unknown channel {self.channel!r}")
        if self.channel == "synthesis" and self.tau is None:
            raise DomainError("synthesis curves need --tau")
        if self.channel == "sticky" and self.tau is not None:
            raise DomainError("sticky curves take no --tau")
        allowed = STICKY_BOUNDS if self.channel == "sticky" else SYNTHESIS_BOUNDS
        if not self.bounds:
            raise DomainError("at least one bound must be requested")
        for b in self.bounds:
            if b not in allowed:
                raise DomainError(
                    f"bound {b!r} not available for {self.channel} "
                    f"(choose from {', '.join(allowed)})"
                )
        check_sizes(at_least=None, steps=self.steps)
        if not 2 <= self.steps <= MAX_STEPS:
            raise DomainError(
                f"sweep needs 2 <= steps <= {MAX_STEPS}, got {self.steps}"
            )
        if not self.lo < self.hi:
            raise DomainError(f"sweep range must satisfy lo < hi, got {self.lo}:{self.hi}")
        # the channel rejects parameters outside its domain
        self._evaluate(self.lo)
        self._evaluate(self.hi)

    def grid(self) -> list[float]:
        """steps evenly spaced points from lo to hi; rounding never carries one past hi."""
        step = (self.hi - self.lo) / (self.steps - 1)
        return [min(self.lo + k * step, self.hi) for k in range(self.steps)]

    def _evaluate(self, x: float) -> StickyPoint | SynthesisPoint:
        """The channel's evaluation record at sweep value x."""
        if self.channel == "sticky":
            return sticky.evaluate_point(x)
        return synthesis.evaluate_point(self.tau, x)


@dataclass(frozen=True)
class RateCurve:
    """One bound evaluated over the sweep grid."""

    label: str
    rows: tuple[tuple[float, float, tuple[str, ...]], ...]


def _flags(*named: tuple[str, bool]) -> tuple[str, ...]:
    return tuple(name for name, on in named if on)


def _sticky_columns(p: StickyPoint) -> dict[str, tuple[float, tuple[str, ...]]]:
    return {
        "gv": (p.gv_rate, _flags(("saturated", p.gv_saturated))),
        "sp": (p.sp_rate, ()),
        "lb": (p.lb_rate, _flags(("boundary", p.lb_boundary))),
        "capacity": (p.capacity, ()),
    }


def _synthesis_columns(p: SynthesisPoint) -> dict[str, tuple[float, tuple[str, ...]]]:
    gv_flags = _flags(
        ("upper-bound", True), ("saturated", p.saturated), ("floored", p.gv_floored)
    )
    return {
        "gv": (p.gv_rate, gv_flags),
        "lb": (p.lb_rate, _flags(("floored", p.lb_floored))),
        "capacity": (p.capacity, ()),
    }


def build_curves(spec: CurveSpec) -> list[RateCurve]:
    """Evaluate every requested bound over the sweep grid."""
    spec.validate()
    grid = spec.grid()
    columns = _sticky_columns if spec.channel == "sticky" else _synthesis_columns
    points = [columns(spec._evaluate(x)) for x in grid]
    return [
        RateCurve(label=bound, rows=tuple((x, *p[bound]) for x, p in zip(grid, points)))
        for bound in spec.bounds
    ]


def _fmt(value: float) -> str:
    return "%.12g" % value


def rows_to_csv(spec: CurveSpec, curves: list[RateCurve]) -> str:
    """CSV text: sweep param, one value column per bound, merged flags."""
    header = [spec.sweep_param] + [c.label for c in curves] + ["flags"]
    lines = [",".join(header)]
    for k in range(len(curves[0].rows)):
        x = curves[0].rows[k][0]
        cells = [_fmt(x)]
        tokens: list[str] = []
        for c in curves:
            _, y, flags = c.rows[k]
            cells.append(_fmt(y))
            tokens.extend(f"{c.label}:{f}" for f in flags)
        cells.append(";".join(tokens))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_csv(path: str, spec: CurveSpec, curves: list[RateCurve]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(rows_to_csv(spec, curves))


def _svg_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(spec: CurveSpec, curves: list[RateCurve]) -> str:
    """Self-contained 800x600 line chart, one path per curve."""
    width, height = 800, 600
    left, right, top, bottom = 80, 30, 30, 60
    plot_w = width - left - right
    plot_h = height - top - bottom

    x_lo, x_hi = spec.lo, spec.hi
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

    x_label = spec.sweep_param
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 15}" font-size="15" '
        f'font-family="sans-serif" text-anchor="middle">{_svg_escape(x_label)}</text>'
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
            f'font-family="sans-serif">{_svg_escape(curve.label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _fmt_tick(value: float) -> str:
    return "%.4g" % value


def write_svg(path: str, spec: CurveSpec, curves: list[RateCurve]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(render_svg(spec, curves))
