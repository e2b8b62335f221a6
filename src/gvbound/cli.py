"""Command-line interface: curve sweeps, verification suites, point queries.

Subcommands:
    curve   evaluate bound curves over a parameter sweep, write CSV or SVG
    verify  run the self-check suites and print a pass/fail table
    point   print one full evaluation as a key-value block

All configuration is via flags; there is no config file.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import sticky, synthesis
from .curves import CurveSpec, _fmt, build_curves, write_csv, write_svg
from .errors import DomainError, GVBoundError
from .verify import SUITES, run_suite

__all__ = ["main", "build_parser"]


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"range must look like lo:hi:steps, got {text!r}"
        )
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: {exc}") from None
    return lo, hi, steps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvbound",
        description=(
            "Gilbert-Varshamov, sphere-packing, and crude rate bounds for "
            "sticky-insertion and DNA-synthesis constrained channels."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="evaluate bound curves over a sweep")
    curve.add_argument("--channel", required=True, choices=("sticky", "synthesis"))
    curve.add_argument(
        "--bounds",
        default=None,
        help="comma-separated bounds (sticky: gv,sp,lb,capacity; "
        "synthesis: gv,lb,capacity); defaults to gv,sp,lb or gv,lb",
    )
    curve.add_argument("--beta-range", type=_parse_range, metavar="LO:HI:STEPS")
    curve.add_argument("--delta-range", type=_parse_range, metavar="LO:HI:STEPS")
    curve.add_argument("--tau", type=float, help="cycle density for synthesis curves")
    curve.add_argument("--format", default="csv", choices=("csv", "svg"))
    curve.add_argument("--output", required=True, metavar="PATH")

    verify = sub.add_parser("verify", help="run the self-check suites")
    verify.add_argument("suite", nargs="?", default="all", choices=("all", *SUITES))
    verify.add_argument("--n-budget", type=int, default=8, metavar="N")

    point = sub.add_parser("point", help="print one evaluation as key-value lines")
    point.add_argument("--channel", required=True, choices=("sticky", "synthesis"))
    point.add_argument("--rho", type=float)
    point.add_argument("--beta", type=float)
    point.add_argument("--tau", type=float)
    point.add_argument("--delta", type=float)

    return parser


# each channel rejects the other channel's flags rather than ignore them
_FOREIGN_FLAGS = {
    "sticky": ("tau", "delta", "delta_range"),
    "synthesis": ("rho", "beta", "beta_range"),
}


def _reject_foreign_flags(args: argparse.Namespace) -> None:
    for dest in _FOREIGN_FLAGS[args.channel]:
        if getattr(args, dest, None) is not None:
            raise DomainError(f"{args.channel} {args.command}s take no --{dest.replace('_', '-')}")


def _cmd_curve(args: argparse.Namespace) -> int:
    is_sticky = args.channel == "sticky"
    param = "beta" if is_sticky else "delta"
    sweep = args.beta_range if is_sticky else args.delta_range
    if sweep is None:
        raise DomainError(f"{args.channel} curves need --{param}-range lo:hi:steps")
    lo, hi, steps = sweep
    spec = CurveSpec(
        channel=args.channel,
        bounds=tuple((args.bounds or ("gv,sp,lb" if is_sticky else "gv,lb")).split(",")),
        lo=lo,
        hi=hi,
        steps=steps,
        tau=args.tau,
    )
    curves = build_curves(spec)
    if args.format == "csv":
        write_csv(args.output, spec, curves)
    else:
        write_svg(args.output, spec, curves)
    print(f"wrote {len(curves)} curves x {steps} points to {args.output}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite, n_budget=args.n_budget)
    width = max(len(f"{r.suite}: {r.name}") for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"{status}  {f'{r.suite}: {r.name}':<{width}}  {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _print_block(rows: list[tuple[str, object]], flags: tuple[tuple[str, bool], ...]) -> None:
    rows = rows + [("flags", ";".join(name for name, on in flags if on))]
    for key, value in rows:
        print(f"{key} = {_fmt(value) if isinstance(value, float) else value}")


def _critical_rows(cp, mark: str) -> list[tuple[str, object]]:
    if cp is None:
        return []
    names = (f"x_{mark}", f"y_{mark}", f"z_{mark}", "residual_norm")
    return list(zip(names, (cp.z[0], cp.z[-2], cp.z[-1], cp.residual_norm)))


def _cmd_point_sticky(args: argparse.Namespace) -> int:
    if args.rho is None or args.beta is None:
        raise DomainError("sticky points need --rho and --beta")
    p = sticky.evaluate_point(args.beta, args.rho)
    rows = [("channel", "sticky"), ("rho", p.rho), ("beta", p.beta), ("capacity", p.capacity)]
    rows += _critical_rows(p.critical_point, "star")
    rows += [("ball_rate", p.ball_rate), ("gv_rate", p.gv_rate), ("gv_rho_star", p.gv_rho_star)]
    rows += [("sp_rate", p.sp_rate), ("lb_rate", p.lb_rate)]
    _print_block(rows, (("saturated", p.saturated), ("lb-boundary", p.lb_boundary)))
    return 0


def _cmd_point_synthesis(args: argparse.Namespace) -> int:
    if args.tau is None:
        raise DomainError("synthesis points need --tau")
    p = synthesis.evaluate_point(args.tau, args.delta)
    rows = [("channel", "synthesis"), ("tau", p.tau), ("capacity", p.capacity)]
    if p.delta is None:
        _print_block(rows, ())
        return 0
    rows.append(("delta", p.delta))
    if p.delta_max is not None:
        rows.append(("delta_max", p.delta_max))
    rows += _critical_rows(p.critical_point, "hat")
    rows += [("ball_rate_upper", p.ball_rate_upper), ("gv_rate", p.gv_rate)]
    rows += [("lb_rate", p.lb_rate)]
    flags = (("upper-bound", True), ("saturated", p.saturated), ("floored", p.gv_floored))
    _print_block(rows, flags)
    return 0


def _cmd_point(args: argparse.Namespace) -> int:
    if args.channel == "sticky":
        return _cmd_point_sticky(args)
    return _cmd_point_synthesis(args)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        _reject_foreign_flags(args)
        if args.command == "curve":
            return _cmd_curve(args)
        return _cmd_point(args)
    except (GVBoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
