"""Tests for curve sweeps, CSV/SVG output, and the command-line interface."""

import argparse
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gvbound
from gvbound import cli, sticky, synthesis, verify
from gvbound.curves import (
    BOUNDS,
    MAX_STEPS,
    CurveSpec,
    build_curves,
    render_svg,
    rows_to_csv,
)
from gvbound.errors import DomainError

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"


def parse_kv(out: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in out.splitlines() if line)


def sticky_spec(steps: int = 11, bounds=("gv", "sp", "lb")) -> CurveSpec:
    return CurveSpec(
        channel="sticky",
        bounds=tuple(bounds),
        lo=0.0,
        hi=0.49,
        steps=steps,
    )


def synthesis_spec(steps: int = 11, tau: float = 2.0) -> CurveSpec:
    return CurveSpec(
        channel="synthesis",
        bounds=("gv", "lb"),
        lo=0.0,
        hi=0.75,
        steps=steps,
        tau=tau,
    )


# ------------------------------------------------------------------ validation


def test_curve_spec_rejects_bad_requests():
    with pytest.raises(DomainError):
        build_curves(CurveSpec("nvm", ("gv",), 0.0, 0.4, 5))
    with pytest.raises(DomainError):
        build_curves(CurveSpec("sticky", ("gv", "what"), 0.0, 0.4, 5))
    with pytest.raises(DomainError):
        build_curves(CurveSpec("sticky", ("gv",), 0.0, 0.4, 1))
    with pytest.raises(DomainError):
        build_curves(CurveSpec("sticky", ("gv",), 0.0, 0.4, 2.5))
    with pytest.raises(DomainError):
        build_curves(CurveSpec("sticky", ("gv",), 0.4, 0.1, 5))
    with pytest.raises(DomainError):
        build_curves(CurveSpec("sticky", ("gv",), 0.0, 0.6, 5))
    with pytest.raises(DomainError, match="synthesis curves need --tau"):
        build_curves(CurveSpec("synthesis", ("gv",), 0.0, 0.5, 5))
    with pytest.raises(DomainError):
        build_curves(CurveSpec("synthesis", ("gv",), 0.0, 0.5, 5, tau=1.0))
    with pytest.raises(DomainError, match="sticky curves take no --tau"):
        build_curves(CurveSpec("sticky", ("gv",), 0.0, 0.4, 5, tau=2.0))
    with pytest.raises(DomainError, match="at least one bound must be requested"):
        build_curves(CurveSpec("sticky", (), 0.0, 0.4, 5))


def test_curve_spec_rejects_a_repeated_bound(tmp_path, capsys):
    # a repeated bound would write two identical columns and two polylines
    with pytest.raises(DomainError, match="each bound may be requested once, got gv,sp,gv"):
        build_curves(CurveSpec("sticky", ("gv", "sp", "gv"), 0.0, 0.4, 5))
    argv = ["curve", "--channel", "sticky", "--bounds", "gv,gv", "--beta-range", "0:0.4:5"]
    assert cli.main(argv + ["--output", str(tmp_path / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: each bound may be requested once, got gv,gv\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "lo, hi",
    [(None, 0.4), (0.0, None), (0.1, "0.4"), ("0.1", 0.4), ("0.1", "0.4")],
    ids=["lo-None", "hi-None", "hi-str", "lo-str", "both-str"],
)
def test_curve_spec_rejects_a_range_that_is_not_numbers(lo, hi):
    # None < 0.4 raised TypeError; two strings compare, and the channel rejects lo
    with pytest.raises(DomainError):
        build_curves(CurveSpec("sticky", ("gv",), lo, hi, 10))


def test_curve_spec_caps_steps_before_allocating():
    build_curves(CurveSpec("sticky", ("gv",), 0.0, 0.4, MAX_STEPS))
    with pytest.raises(DomainError):
        build_curves(CurveSpec("sticky", ("gv",), 0.0, 0.4, 10 ** 9))
    assert MAX_STEPS >= 10 * 2000


def test_grid_includes_both_endpoints():
    spec = sticky_spec(steps=8)
    grid = spec.grid()
    assert len(grid) == 8
    assert grid[0] == 0.0
    assert grid[-1] == 0.49


_ENDS = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(lo=_ENDS, hi=_ENDS, steps=st.integers(2, 10_000))
def test_grid_runs_nondecreasing_from_lo_to_exactly_hi(lo, hi, steps):
    assume(lo != hi)
    lo, hi = min(lo, hi), max(lo, hi)
    grid = CurveSpec("sticky", ("gv",), lo, hi, steps).grid()
    assert len(grid) == steps
    assert repr(grid[0]) == repr(lo + 0.0)  # so -0.0 starts at 0.0
    assert grid[-1] == hi
    assert all(a <= b for a, b in zip(grid, grid[1:]))


# ---------------------------------------------------------------------- curves


def test_build_curves_sticky_ordering():
    curves = build_curves(sticky_spec(steps=26))
    by_label = {c.label: c for c in curves}
    assert set(by_label) == {"gv", "sp", "lb"}
    for k in range(26):
        beta = by_label["gv"].rows[k][0]
        gv = by_label["gv"].rows[k][1]
        sp = by_label["sp"].rows[k][1]
        lb = by_label["lb"].rows[k][1]
        assert lb <= gv + 1e-12, beta
        assert gv <= sp + 1e-12, beta


def test_build_curves_synthesis_flags():
    curves = build_curves(synthesis_spec(steps=16, tau=2.0))
    gv = next(c for c in curves if c.label == "gv")
    assert all("upper-bound" in row[2] for row in gv.rows)
    assert "saturated" in gv.rows[-1][2]
    assert "saturated" not in gv.rows[0][2]
    lb = next(c for c in curves if c.label == "lb")
    assert "floored" in lb.rows[-1][2]
    assert lb.rows[0][1] == pytest.approx(1.8522859940752379, abs=1e-12)


def test_build_curves_gv_rows_do_not_depend_on_the_other_bounds():
    wide = build_curves(sticky_spec(steps=80))
    narrow = build_curves(sticky_spec(steps=80, bounds=("gv",)))
    wide_gv = next(c for c in wide if c.label == "gv")
    narrow_gv = next(c for c in narrow if c.label == "gv")
    assert wide_gv.rows == narrow_gv.rows


def _evaluations(monkeypatch, module) -> list[float]:
    """The sweep values module.evaluate_point is called at, in call order."""
    calls = []
    evaluate_point = module.evaluate_point

    def counted(*args):
        calls.append(args[-1])
        return evaluate_point(*args)

    monkeypatch.setattr(module, "evaluate_point", counted)
    return calls


def test_build_curves_evaluates_each_grid_point_once(monkeypatch):
    calls = _evaluations(monkeypatch, sticky)
    spec = sticky_spec(steps=50)  # the README sweep 0:0.49:50
    build_curves(spec)
    # lo, then hi, then the interior of the grid
    assert calls == [0.0, 0.49, *spec.grid()[1:-1]]
    assert len(calls) == spec.steps


def test_build_curves_of_a_sweep_whose_last_step_rounds_below_hi_ends_on_hi(monkeypatch):
    spec = CurveSpec("sticky", ("gv", "sp", "lb"), 0.0, 0.45, 4)
    calls = _evaluations(monkeypatch, sticky)
    curves = build_curves(spec)
    grid = spec.grid()
    assert 3 * (0.45 / 3) == 0.44999999999999996  # lo + 3 * step rounds below hi
    assert grid[-1] == 0.45
    assert calls == [0.0, 0.45, *grid[1:-1]]
    for k, x in enumerate(grid):
        assert [c.rows[k] for c in curves] == [
            (x, *column(sticky.evaluate_point(x))) for column in
            (BOUNDS["sticky"][b] for b in ("gv", "sp", "lb"))
        ]


def test_a_sweep_ends_on_the_point_value_at_hi():
    # lo + 8 * step rounded 1 ulp below hi, where gv_rate differs in the 12th digit
    spec = CurveSpec("sticky", ("gv",), 0.080568, 0.472744, 9)
    assert rows_to_csv(spec).splitlines()[-1] == "0.472744,%.12g," % sticky.gv_rate(0.472744)[0]


def test_a_sweep_past_the_domain_fails_after_evaluating_lo_and_hi(monkeypatch):
    calls = _evaluations(monkeypatch, sticky)
    with pytest.raises(DomainError):
        build_curves(CurveSpec("sticky", ("gv",), 0.1, 0.6, 5))
    assert calls == [0.1, 0.6]


@pytest.mark.parametrize("channel, hi, tau", [("sticky", 0.49, None), ("synthesis", 0.6, 2.0)])
def test_a_sweep_from_negative_zero_prints_as_one_from_zero(channel, hi, tau):
    # the first grid point is lo + 0.0, which is 0.0 for lo = -0.0
    csv = [rows_to_csv(spec) for spec in (
        CurveSpec(channel, tuple(BOUNDS[channel]), lo, hi, 5, tau) for lo in (-0.0, 0.0)
    )]
    assert csv[0] == csv[1]


# ------------------------------------------------------------------ csv output


def test_csv_shape_and_formatting():
    text = rows_to_csv(sticky_spec(steps=5))
    lines = text.splitlines()
    assert lines[0] == "beta,gv,sp,lb,flags"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "1"
    assert first[2] == "1"
    assert first[3] == "0.584962500721"
    assert first[4] == ""
    last = lines[-1].split(",")
    assert "lb:boundary" in last[4].split(";")


@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_cli_curve_file_uses_unix_newlines(tmp_path, fmt):
    path = tmp_path / f"out.{fmt}"
    argv = ["curve", "--channel", "sticky", "--beta-range", "0:0.49:5", "--format", fmt]
    assert cli.main(argv + ["--output", str(path)]) == 0
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    assert data == (rows_to_csv if fmt == "csv" else render_svg)(sticky_spec(steps=5)).encode()


# ------------------------------------------------------------------ svg output


def test_svg_structure():
    svg = render_svg(synthesis_spec(steps=12))
    assert svg.startswith("<svg")
    assert 'width="800"' in svg
    assert 'height="600"' in svg
    assert svg.count("<polyline") == 2
    assert "delta" in svg
    assert "rate (bits/symbol)" in svg


def test_svg_of_all_zero_curves_draws_its_y_axis_to_1_05():
    # the sticky lower bound is 0 from beta = 0.3 on
    spec = CurveSpec("sticky", ("lb",), 0.3, 0.49, 3)
    assert {row[1] for row in build_curves(spec)[0].rows} == {0.0}
    svg = render_svg(spec)
    y_ticks = [line.split(">")[1].split("<")[0] for line in svg.splitlines() if '"end"' in line]
    assert y_ticks == ["0", "0.21", "0.42", "0.63", "0.84", "1.05"]


@pytest.mark.parametrize(
    "change",
    [dict(hi=0.0), dict(lo=math.nan), dict(hi=math.inf), dict(lo=0.4, hi=0.1), dict(channel="bogus")],
    ids=["lo-equals-hi", "nan-end", "inf-end", "hi-below-lo", "unknown-channel"],
)
def test_renderers_reject_a_spec_that_does_not_validate(change):
    # unchecked, render_svg would divide by zero or draw nan coordinates or a
    # mirrored chart, and rows_to_csv would head an unknown channel's sweep "delta"
    bad = sticky_spec(steps=5)._replace(**change)
    for render in (build_curves, rows_to_csv, render_svg):
        with pytest.raises(DomainError):
            render(bad)


@pytest.mark.parametrize("fmt", ["csv", "svg"])
@pytest.mark.parametrize(
    "sweep",
    ["0:0:5", "nan:0.49:5", "0:inf:5", "0.4:0.1:5", "0:0.6:5"],
    ids=["lo-equals-hi", "nan-end", "inf-end", "hi-below-lo", "past-the-domain"],
)
def test_cli_curve_keeps_the_output_file_when_the_spec_is_rejected(tmp_path, capsys, sweep, fmt):
    # the text is rendered before --output is opened, which would create or truncate it
    kept = tmp_path / "kept"
    kept.write_text("earlier output\n")
    argv = ["curve", "--channel", "sticky", "--beta-range", sweep, "--format", fmt]
    for path in (tmp_path / "out", kept):
        assert cli.main(argv + ["--output", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    assert kept.read_text() == "earlier output\n"


def test_curve_functions_need_a_curve_spec():
    for spec in (None, tuple(sticky_spec(steps=5))):
        for call in (build_curves, rows_to_csv, render_svg):
            with pytest.raises(DomainError, match="spec must be a CurveSpec"):
                call(spec)


def test_svg_output_is_deterministic(tmp_path):
    paths = [tmp_path / "a.svg", tmp_path / "b.svg"]
    argv = ["curve", "--channel", "sticky", "--beta-range", "0:0.49:9", "--format", "svg"]
    for path in paths:
        assert cli.main(argv + ["--output", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ------------------------------------------------------------------------- cli


def test_cli_curve_writes_csv(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = cli.main(
        [
            "curve",
            "--channel",
            "sticky",
            "--beta-range",
            "0:0.49:25",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert "wrote 3 curves x 25 points" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,gv,sp,lb,flags"
    assert len(lines) == 26


def test_cli_curve_synthesis_requires_tau(tmp_path, capsys):
    code = cli.main(
        [
            "curve",
            "--channel",
            "synthesis",
            "--delta-range",
            "0:0.7:10",
            "--output",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: synthesis curves need --tau\n"


@pytest.mark.parametrize(
    "spec",
    [
        CurveSpec("sticky", ("gv", "sp", "lb"), 0.1, 0.5, 12),
        CurveSpec("synthesis", ("gv", "lb"), 0.1, 1.0, 8, tau=2.0),
    ],
    ids=["sticky", "synthesis"],
)
def test_cli_curve_sweep_ends_exactly_on_hi(tmp_path, capsys, spec):
    # lo + (steps - 1) * step rounds 1 ulp past hi on both ranges
    grid = spec.grid()
    assert grid[-1] == spec.hi and max(grid) == spec.hi
    flag = "--beta-range" if spec.channel == "sticky" else "--delta-range"
    tau = [] if spec.tau is None else ["--tau", str(spec.tau)]
    sweep = f"{spec.lo}:{spec.hi}:{spec.steps}"
    argv = ["curve", "--channel", spec.channel, *tau, flag, sweep]
    assert cli.main(argv + ["--output", str(tmp_path / "x.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_curve_rejects_single_step(tmp_path, capsys):
    code = cli.main(
        [
            "curve",
            "--channel",
            "sticky",
            "--beta-range",
            "0:0.4:1",
            "--output",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2
    assert "steps" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", ["0:1", "a:b:3", "0:1:x"])
def test_cli_curve_rejects_malformed_range(tmp_path, capsys, sweep):
    argv = ["curve", "--channel", "sticky", "--beta-range", sweep]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv + ["--output", str(tmp_path / "x.csv")])
    assert excinfo.value.code == 2
    assert "--beta-range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "channel, extra, flag",
    [("sticky", [], "--beta-range"), ("synthesis", ["--tau", "2"], "--delta-range")],
)
def test_cli_curve_needs_its_range_flag(tmp_path, capsys, channel, extra, flag):
    code = cli.main(["curve", "--channel", channel, *extra, "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {channel} curves need {flag} lo:hi:steps\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["point", "--channel", "sticky", "--rho", "0.5"], "sticky points need --rho and --beta"),
        (["point", "--channel", "sticky", "--beta", "0.1"], "sticky points need --rho and --beta"),
        (["point", "--channel", "synthesis", "--delta", "0.3"], "synthesis points need --tau"),
    ],
)
def test_cli_point_needs_its_parameters(capsys, argv, message):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["point", "--channel", "sticky", "--rho", "0.5", "--beta", "0.125", "--tau", "3"],
         "sticky points take no --tau"),
        (["point", "--channel", "sticky", "--rho", "0.5", "--beta", "0.125", "--delta", "0.1"],
         "sticky points take no --delta"),
        (["point", "--channel", "synthesis", "--tau", "2", "--rho", "0.4"],
         "synthesis points take no --rho"),
        (["point", "--channel", "synthesis", "--tau", "2", "--delta", "0.3", "--beta", "0.1"],
         "synthesis points take no --beta"),
        (["curve", "--channel", "sticky", "--beta-range", "0:0.4:5", "--delta-range", "0:9:3"],
         "sticky curves take no --delta-range"),
        (["curve", "--channel", "synthesis", "--tau", "2", "--delta-range", "0:0.7:5",
          "--beta-range", "0:0.4:5"], "synthesis curves take no --beta-range"),
    ],
)
def test_cli_rejects_the_other_channels_flags(tmp_path, capsys, argv, message):
    output = ["--output", str(tmp_path / "x.csv")] if argv[0] == "curve" else []
    assert cli.main(argv + output) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


def test_cli_point_sticky_block(capsys):
    code = cli.main(
        ["point", "--channel", "sticky", "--rho", "0.5", "--beta", "0.125"]
    )
    assert code == 0
    kv = parse_kv(capsys.readouterr().out)
    assert kv["channel"] == "sticky"
    assert float(kv["capacity"]) == 1.0
    assert float(kv["ball_rate"]) == pytest.approx(1.7298770110682415, abs=1e-9)
    assert float(kv["residual_norm"]) <= 1e-9
    assert kv["flags"] == ""


def test_cli_point_sticky_domain_error(capsys):
    # rho is checked once, to the open interval, before the capacity H(rho)
    for rho in ("0", "1", "1.2", "1.5"):
        code = cli.main(["point", "--channel", "sticky", "--rho", rho, "--beta", "0.1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: rho must be in (0,1), got {float(rho)}\n"


def test_cli_point_synthesis_capacity_only(capsys):
    # without a delta the block is the capacity alone: no ball, bounds or flags
    code = cli.main(["point", "--channel", "synthesis", "--tau", "2.5"])
    assert code == 0
    kv = parse_kv(capsys.readouterr().out)
    assert kv == {"channel": "synthesis", "tau": "2.5", "capacity": "2", "flags": ""}
    assert synthesis.capacity(2.5) == 2.0


def test_cli_point_synthesis_full_block(capsys):
    code = cli.main(
        ["point", "--channel", "synthesis", "--tau", "2", "--delta", "0.3"]
    )
    assert code == 0
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["delta_max"]) == pytest.approx(0.698304126368074, abs=1e-9)
    assert float(kv["gv_rate"]) == pytest.approx(0.5343209657080084, abs=1e-9)
    assert kv["flags"] == "upper-bound"


def test_cli_verify_suite(capsys):
    code = cli.main(["verify", "acsv"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "checks passed" in out


def test_cli_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "bogus"])
    assert excinfo.value.code == 2


def test_cli_verify_choices_are_the_verify_suites():
    (subcommands,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    (suite,) = [a for a in subcommands.choices["verify"]._actions if a.dest == "suite"]
    assert set(suite.choices) == {"all", *verify.SUITES}


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-c", "from gvbound.cli import main; raise SystemExit(main(['--help']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "curve" in proc.stdout
    assert "verify" in proc.stdout
    assert "point" in proc.stdout


_README_COMMANDS = [
    ("sticky_bounds.csv", ["curve", "--channel", "sticky", "--beta-range", "0:0.49:50"]),
    (
        "sticky_bounds.svg",
        ["curve", "--channel", "sticky", "--beta-range", "0:0.49:50", "--format", "svg"],
    ),
    (
        "synth_t15.csv",
        ["curve", "--channel", "synthesis", "--tau", "1.5", "--delta-range", "0:0.75:76"],
    ),
    (
        "synth_t20.csv",
        ["curve", "--channel", "synthesis", "--tau", "2.0", "--delta-range", "0:0.75:76"],
    ),
    ("point_sticky.txt", ["point", "--channel", "sticky", "--rho", "0.5", "--beta", "0.125"]),
    ("point_synthesis.txt", ["point", "--channel", "synthesis", "--tau", "2", "--delta", "0.3"]),
    ("point_synthesis_capacity.txt", ["point", "--channel", "synthesis", "--tau", "2.5"]),
]


@pytest.mark.parametrize("name, argv", _README_COMMANDS)
def test_readme_outputs_match_reference_bytes(tmp_path, capsys, name, argv):
    out = tmp_path / name
    if argv[0] == "curve":
        argv = argv + ["--output", str(out)]
    code = cli.main(argv)
    assert code == 0
    if argv[0] == "point":
        out.write_text(capsys.readouterr().out)
    assert out.read_bytes() == (REFERENCE / name).read_bytes()


# the README curve commands as specs, with the format each renders
_README_SPECS = [
    ("sticky_bounds.csv", sticky_spec(steps=50), "csv"),
    ("sticky_bounds.svg", sticky_spec(steps=50), "svg"),
    ("synth_t15.csv", synthesis_spec(steps=76, tau=1.5), "csv"),
    ("synth_t20.csv", synthesis_spec(steps=76, tau=2.0), "csv"),
]


@pytest.mark.parametrize("name, spec, fmt", _README_SPECS)
def test_renderers_of_the_readme_specs_match_reference_bytes(name, spec, fmt):
    text = (rows_to_csv if fmt == "csv" else render_svg)(spec)
    assert text.encode() == (REFERENCE / name).read_bytes()


@pytest.mark.parametrize("name, spec, fmt", _README_SPECS)
def test_cli_curve_evaluates_lo_hi_and_each_grid_point_once(
    tmp_path, monkeypatch, name, spec, fmt
):
    calls = _evaluations(monkeypatch, sticky if spec.channel == "sticky" else synthesis)
    flag = "--beta-range" if spec.channel == "sticky" else "--delta-range"
    tau = [] if spec.tau is None else ["--tau", str(spec.tau)]
    argv = ["curve", "--channel", spec.channel, *tau, flag, f"{spec.lo}:{spec.hi}:{spec.steps}"]
    assert cli.main(argv + ["--format", fmt, "--output", str(tmp_path / name)]) == 0
    # lo, then hi, then the interior of the grid: steps evaluations
    assert calls == [spec.lo, spec.hi, *spec.grid()[1:-1]]
    assert len(calls) == spec.steps


_CLOSED_FORM_COMMANDS = [
    ["point", "--channel", "sticky", "--rho", "0.5", "--beta", "0.125"],
    ["point", "--channel", "synthesis", "--tau", "2", "--delta", "0.3"],
    ["point", "--channel", "synthesis", "--tau", "2.5"],
    ["point", "--channel", "synthesis", "--tau", "2.5", "--delta", "0.3"],
    ["curve", "--channel", "sticky", "--bounds", "gv,lb,capacity", "--beta-range", "0:0.49:50"],
    ["curve", "--channel", "sticky", "--beta-range", "0:0.49:50", "--format", "svg"],
    ["curve", "--channel", "synthesis", "--tau", "1.5", "--bounds", "gv,lb,capacity",
     "--delta-range", "0:0.75:76"],
    ["curve", "--channel", "synthesis", "--tau", "2.0", "--delta-range", "0:0.75:76",
     "--format", "svg"],
]


def _report_after_each_command(commands, probe, env=None):
    """(step, exit code, probe value) after the import and after each command.

    One fresh interpreter, with environment `env` (this process's if None),
    runs `import gvbound, gvbound.cli` and then every command in turn; probe
    is a Python expression evaluated after each.
    """
    script = (
        "import contextlib, io, json, os, sys\n"
        "import gvbound, gvbound.cli\n"
        f"report = [('import', 0, {probe})]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = gvbound.cli.main(argv)\n"
        f"    report.append((' '.join(argv), code, {probe}))\n"
        "print(json.dumps(report))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report) == 1 + len(commands)
    return report


def test_closed_form_commands_never_load_numpy(tmp_path):
    commands = [
        argv + ["--output", str(tmp_path / f"out{k}")] if argv[0] == "curve" else argv
        for k, argv in enumerate(_CLOSED_FORM_COMMANDS)
    ]
    for step, code, numpy_loaded in _report_after_each_command(commands, "'numpy' in sys.modules"):
        assert code == 0, step
        assert not numpy_loaded, f"numpy loaded after {step}"


def test_newton_solves_leading_terms_and_verify_acsv_never_load_numpy():
    # acsv runs on Python floats: its linear algebra is one elimination on lists
    script = (
        "import contextlib, io, json, sys\n"
        "from gvbound import acsv, cli, sticky\n"
        "H = acsv.SparseMultivariatePolynomial(2, [((0, 0), 1.0), ((1, 0), -1.0), ((0, 1), -1.0)])\n"
        "ONE = acsv.SparseMultivariatePolynomial(2, [((0, 0), 1.0)])\n"
        "z = acsv.solve_critical_point(H, (1.0, 1.0), initial=(0.3, 0.7)).z\n"
        "values = [z, acsv.leading_term(H, ONE, (1.0, 1.0), (0.5, 0.5), 16)]\n"
        "values.append(sticky.leading_pair_count_log2(48, 0.5, 0.25))\n"
        "loaded = ['numpy' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', 'acsv'])\n"
        "loaded.append('numpy' in sys.modules)\n"
        "print(json.dumps([values, code, loaded]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    (z, binomial, sticky_term), code, loaded = json.loads(proc.stdout)
    assert z == pytest.approx([0.5, 0.5], abs=1e-12)
    assert binomial == pytest.approx(32.0 - 0.5 * math.log2(16.0 * math.pi), abs=1e-12)
    assert math.isfinite(sticky_term)
    assert (code, loaded) == (0, [False, False])


def test_cli_never_loads_dataclasses(tmp_path):
    # the records are NamedTuples or plain classes; dataclasses would import
    # inspect, ast, dis and tokenize at every start-up
    commands = [
        argv + ["--output", str(tmp_path / f"out{k}")] if argv[0] == "curve" else argv
        for k, argv in enumerate(_CLOSED_FORM_COMMANDS)
    ]
    probe = "[m for m in ('dataclasses', 'inspect') if m in sys.modules]"
    for step, code, loaded in _report_after_each_command(commands, probe):
        assert code == 0, step
        assert loaded == [], f"{loaded} loaded after {step}"
    # numpy itself imports inspect, so only dataclasses is checked here
    report = _report_after_each_command([["verify", "all"]], "'dataclasses' in sys.modules")
    assert [(code, loaded) for _, code, loaded in report] == [(0, False), (0, False)]


def test_sticky_counts_never_load_numpy():
    # count_pairs_exact sums a closed form; only a table needs numpy
    script = (
        "import json, sys\n"
        "from gvbound import sticky\n"
        "from gvbound.errors import DomainError\n"
        "values = [sticky.count_pairs_exact(6, 6, 3, 2, mode) for mode in ('exact', 'log2')]\n"
        "values += [sticky.count_pairs_exact(6, 6, 3, 3, mode) for mode in ('exact', 'log2')]\n"
        "try:\n"
        "    sticky.count_pairs_exact(6, 6, 3, 2, 'bogus')\n"
        "except DomainError as exc:\n"
        "    values.append(str(exc))\n"
        "print(json.dumps([values, 'numpy' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    values, numpy_loaded = json.loads(proc.stdout)
    bogus = "mode must be 'exact' or 'log2', got 'bogus'"
    assert values == [36, math.log2(36), 0, -math.inf, bogus]
    assert not numpy_loaded


_BASE_MODULES = {"cli", "curves", "errors", "numeric"}
_ALL_MODULES = {info.name for info in pkgutil.iter_modules(gvbound.__path__)}


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("sticky", _BASE_MODULES | {"acsv", "sticky"}),
        ("synthesis", _BASE_MODULES | {"acsv", "synthesis"}),
        ("verify", _ALL_MODULES),
    ],
)
def test_commands_load_only_the_modules_they_run(tmp_path, command, loaded):
    # one fresh interpreter per channel, so that loading does not accumulate
    # across channels; it runs that channel's README commands in turn
    commands = [
        argv + ["--output", str(tmp_path / name)] if argv[0] == "curve" else argv
        for name, argv in _README_COMMANDS
        if argv[2] == command
    ]
    if command == "verify":
        commands = [["verify", "acsv", "--n-budget", "1"]]
    probe = "sorted(m[8:] for m in sys.modules if m.startswith('gvbound.'))"
    report = _report_after_each_command(commands, probe)
    assert set(report[0][2]) == _BASE_MODULES
    for step, code, modules in report[1:]:
        assert code == 0, step
        assert set(modules) == loaded, step


def _env_without_blas_threads(**extra):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, **extra}


# the thread count of this process, from /proc on Linux and None elsewhere
_THREADS_PROBE = (
    "[line.split()[1] for line in open('/proc/self/status') if line.startswith('Threads:')]"
    " if sys.platform == 'linux' else None"
)


def test_verify_loads_numpy_with_one_blas_thread():
    # the sticky suite builds tables, so it loads numpy; the acsv suite loads none
    probe = f"(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules, {_THREADS_PROBE})"
    report = _report_after_each_command(
        [["verify", "sticky"]], probe, env=_env_without_blas_threads()
    )
    (_, _, (imported, numpy_at_import, _)), (_, code, (pinned, numpy_loaded, threads)) = report
    assert (imported, numpy_at_import) == (None, False)  # importing gvbound.cli sets nothing
    assert (code, pinned, numpy_loaded) == (0, "1", True)
    if sys.platform == "linux":
        assert threads == ["1"]


def test_verify_keeps_a_callers_blas_thread_count():
    probe = "os.environ.get('OPENBLAS_NUM_THREADS')"
    preset = _env_without_blas_threads(OPENBLAS_NUM_THREADS="2")
    report = _report_after_each_command([["verify", "acsv"]], probe, env=preset)
    assert [(code, value) for _, code, value in report] == [(0, "2"), (0, "2")]
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "gvbound.cli", "verify", "acsv"],
            capture_output=True,
            text=True,
            env=env,
        )
        for env in (_env_without_blas_threads(), preset)
    ]
    assert [proc.returncode for proc in outputs] == [0, 0], [p.stderr for p in outputs]
    assert "checks passed" in outputs[0].stdout
    assert outputs[0].stdout == outputs[1].stdout


def test_verify_after_numpy_loaded_leaves_the_environment(monkeypatch, capsys):
    import numpy  # noqa: F401  the BLAS pool of this process already exists

    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert cli.main(["verify", "acsv"]) == 0
    assert "checks passed" in capsys.readouterr().out
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_table_commands_still_load_numpy():
    # the check above is only meaningful if the probe sees numpy once a table is built
    script = (
        "import sys, gvbound\n"
        "from gvbound import sticky\n"
        "sticky.pair_count_table(6, 6, 3, 2)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"
