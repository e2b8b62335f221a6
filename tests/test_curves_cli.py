"""Tests for curve sweeps, CSV/SVG output, and the command-line interface."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from gvbound import cli
from gvbound.curves import (
    MAX_STEPS,
    CurveSpec,
    build_curves,
    render_svg,
    rows_to_csv,
    write_csv,
    write_svg,
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
        CurveSpec("nvm", ("gv",), 0.0, 0.4, 5).validate()
    with pytest.raises(DomainError):
        CurveSpec("sticky", ("gv", "what"), 0.0, 0.4, 5).validate()
    with pytest.raises(DomainError):
        CurveSpec("sticky", ("gv",), 0.0, 0.4, 1).validate()
    with pytest.raises(DomainError):
        CurveSpec("sticky", ("gv",), 0.0, 0.4, 2.5).validate()
    with pytest.raises(DomainError):
        CurveSpec("sticky", ("gv",), 0.4, 0.1, 5).validate()
    with pytest.raises(DomainError):
        CurveSpec("sticky", ("gv",), 0.0, 0.6, 5).validate()
    with pytest.raises(DomainError, match="synthesis curves need --tau"):
        CurveSpec("synthesis", ("gv",), 0.0, 0.5, 5).validate()
    with pytest.raises(DomainError):
        CurveSpec("synthesis", ("gv",), 0.0, 0.5, 5, tau=1.0).validate()
    with pytest.raises(DomainError, match="sticky curves take no --tau"):
        CurveSpec("sticky", ("gv",), 0.0, 0.4, 5, tau=2.0).validate()


def test_curve_spec_caps_steps_before_allocating():
    CurveSpec("sticky", ("gv",), 0.0, 0.4, MAX_STEPS).validate()
    with pytest.raises(DomainError):
        CurveSpec("sticky", ("gv",), 0.0, 0.4, 10 ** 9).validate()
    assert MAX_STEPS >= 10 * 2000


def test_grid_includes_both_endpoints():
    spec = sticky_spec(steps=8)
    grid = spec.grid()
    assert len(grid) == 8
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(0.49, abs=1e-15)


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


# ------------------------------------------------------------------ csv output


def test_csv_shape_and_formatting():
    spec = sticky_spec(steps=5)
    text = rows_to_csv(spec, build_curves(spec))
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


def test_csv_file_uses_unix_newlines(tmp_path):
    spec = sticky_spec(steps=5)
    path = tmp_path / "out.csv"
    write_csv(str(path), spec, build_curves(spec))
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")


# ------------------------------------------------------------------ svg output


def test_svg_structure():
    spec = synthesis_spec(steps=12)
    svg = render_svg(spec, build_curves(spec))
    assert svg.startswith("<svg")
    assert 'width="800"' in svg
    assert 'height="600"' in svg
    assert svg.count("<polyline") == 2
    assert "delta" in svg
    assert "rate (bits/symbol)" in svg


def test_svg_output_is_deterministic(tmp_path):
    spec = sticky_spec(steps=9)
    curves = build_curves(spec)
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    write_svg(str(a), spec, curves)
    write_svg(str(b), spec, build_curves(spec))
    assert a.read_bytes() == b.read_bytes()


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
    code = cli.main(["point", "--channel", "synthesis", "--tau", "2.5"])
    assert code == 0
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["capacity"]) == 2.0
    assert "delta" not in kv


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


@pytest.mark.parametrize(
    "name, argv",
    [
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
    ],
)
def test_readme_outputs_match_reference_bytes(tmp_path, capsys, name, argv):
    out = tmp_path / name
    if argv[0] == "curve":
        argv = argv + ["--output", str(out)]
    code = cli.main(argv)
    assert code == 0
    if argv[0] == "point":
        out.write_text(capsys.readouterr().out)
    assert out.read_bytes() == (REFERENCE / name).read_bytes()


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


def test_closed_form_commands_never_load_numpy(tmp_path):
    # one fresh interpreter runs the import and every command in turn and
    # reports, after each, whether numpy is loaded
    script = (
        "import contextlib, io, json, sys\n"
        "import gvbound, gvbound.cli\n"
        "report = [('import', 0, 'numpy' in sys.modules)]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = gvbound.cli.main(argv)\n"
        "    report.append((' '.join(argv), code, 'numpy' in sys.modules))\n"
        "print(json.dumps(report))\n"
    )
    commands = [
        argv + ["--output", str(tmp_path / f"out{k}")] if argv[0] == "curve" else argv
        for k, argv in enumerate(_CLOSED_FORM_COMMANDS)
    ]
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report) == 1 + len(commands)
    for step, code, numpy_loaded in report:
        assert code == 0, step
        assert not numpy_loaded, f"numpy loaded after {step}"


def test_table_commands_still_load_numpy():
    # the check above is only meaningful if the probe sees numpy once a table is built
    script = (
        "import sys, gvbound\n"
        "from gvbound import sticky\n"
        "sticky.count_pairs_exact(6, 6, 3, 2)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"
