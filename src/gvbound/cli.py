"""Command-line interface: curve sweeps, verification suites, point queries.

Subcommands:
    curve   render bound curves over a parameter sweep as CSV or SVG, write it
    verify  run the self-check suites and print a pass/fail table
    point   print one full evaluation as a key-value block

All configuration is via flags; there is no config file.  gvbound makes no
BLAS call, so main loads numpy, when a command needs it, with one OpenBLAS
thread unless the caller set OPENBLAS_NUM_THREADS: the pool that `import
numpy` starts only costs CPU time.  Importing this module changes nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .curves import BOUNDS, CurveSpec, _flags, _fmt, render_svg, rows_to_csv
from .errors import DomainError, GVBoundError

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


# verify.SUITES, restated so that building the parser loads no suite
_SUITE_NAMES = ("acsv", "sticky", "synthesis")


def _default_bounds(channel: str) -> str:
    return ",".join(b for b in BOUNDS[channel] if b != "capacity")


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
        help="comma-separated bounds ("
        + "; ".join(f"{channel}: {','.join(bounds)}" for channel, bounds in BOUNDS.items())
        + "); defaults to "
        + " or ".join(map(_default_bounds, BOUNDS)),
    )
    curve.add_argument("--beta-range", type=_parse_range, metavar="LO:HI:STEPS")
    curve.add_argument("--delta-range", type=_parse_range, metavar="LO:HI:STEPS")
    curve.add_argument("--tau", type=float, help="cycle density for synthesis curves")
    curve.add_argument("--format", default="csv", choices=("csv", "svg"))
    curve.add_argument("--output", required=True, metavar="PATH")

    verify = sub.add_parser("verify", help="run the self-check suites")
    verify.add_argument("suite", nargs="?", default="all", choices=("all", *_SUITE_NAMES))
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
        bounds=tuple((args.bounds or _default_bounds(args.channel)).split(",")),
        lo=lo,
        hi=hi,
        steps=steps,
        tau=args.tau,
    )
    text = (rows_to_csv if args.format == "csv" else render_svg)(spec)
    with open(args.output, "w", newline="\n") as fh:  # opening truncates the file
        fh.write(text)
    print(f"wrote {len(spec.bounds)} curves x {steps} points to {args.output}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    results = run_suite(args.suite, n_budget=args.n_budget)
    width = max(len(f"{r.suite}: {r.name}") for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"{status}  {f'{r.suite}: {r.name}':<{width}}  {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _print_block(rows: list[tuple[str, object]], flags: tuple[str, ...]) -> None:
    rows = rows + [("flags", ";".join(flags))]
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
    from . import sticky

    p = sticky.evaluate_point(args.beta, args.rho)
    rows = [("channel", "sticky"), ("rho", p.rho), ("beta", p.beta), ("capacity", p.capacity)]
    rows += _critical_rows(p.critical_point, "star")
    rows += [("ball_rate", p.ball_rate), ("gv_rate", p.gv_rate), ("gv_rho_star", p.gv_rho_star)]
    rows += [("sp_rate", p.sp_rate), ("lb_rate", p.lb_rate)]
    _print_block(rows, _flags(("saturated", p.saturated), ("lb-boundary", p.lb_boundary)))
    return 0


def _cmd_point_synthesis(args: argparse.Namespace) -> int:
    if args.tau is None:
        raise DomainError("synthesis points need --tau")
    from . import synthesis

    cap = synthesis.capacity(args.tau)
    rows = [("channel", "synthesis"), ("tau", args.tau), ("capacity", cap)]
    if args.delta is None:
        _print_block(rows, ())
        return 0
    p = synthesis.evaluate_point(args.tau, args.delta)
    rows.append(("delta", p.delta))
    if p.delta_max is not None:
        rows.append(("delta_max", p.delta_max))
    rows += _critical_rows(p.critical_point, "hat")
    rows += [("ball_rate_upper", p.ball_rate_upper), ("gv_rate", p.gv_rate)]
    rows += [("lb_rate", p.lb_rate)]
    _print_block(rows, BOUNDS["synthesis"]["gv"](p)[1])
    return 0


def _cmd_point(args: argparse.Namespace) -> int:
    if args.channel == "sticky":
        return _cmd_point_sticky(args)
    return _cmd_point_synthesis(args)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one gvbound command; return its exit code.

    Before numpy loads, OPENBLAS_NUM_THREADS defaults to 1 in os.environ
    (a value already set is kept).  A process that loaded numpy first
    keeps its BLAS pool and its environment unchanged.
    """
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
