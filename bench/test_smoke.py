"""Smoke test: every workload runs and emits every named metric.

    python3 -m pytest -q bench/test_smoke.py

The workloads are shrunk (small sweeps and tables, the acsv verify suite)
so the whole file runs in under a minute; the README reference commands
still run and are still compared byte for byte.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    for name, value in {
        "DENSE_POINTS": 40,
        "STICKY_EXACT_N": 12,
        "README_COUNT": (8, 8, 4, 2),
        "SYNTH_EXACT_N": 6,
        "SYNTH_LOG2_N": 8,
        "STICKY_LOG2_N": (10, 14),
        "STICKY_LOG2_R": (5, 7),
        "STICKY_LOG2_S": (3, 5),
        "VERIFY_ARGV": ["verify", "acsv"],
    }.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORTTIME_REPEATS", 1)


def _run(capsys, workload: str, trace: int, seed: int = 7) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "git_commit"):
        assert key in detail["environment"]
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(small, capsys, workload, trace):
    result = _run(capsys, workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_counts_repeat_exactly(small, capsys, monkeypatch):
    # above the sweep's thread-pool threshold, where cache misses can race
    monkeypatch.setattr(workloads, "DENSE_POINTS", 300)
    exact_units = {"count", "calls/call"}
    first = _run(capsys, "cli-sweep", 1)["metrics"]
    second = _run(capsys, "cli-sweep", 1)["metrics"]
    counts = {k: v["value"] for k, v in first.items() if v["unit"] in exact_units}
    assert counts == {k: second[k]["value"] for k in counts}
    assert counts["sticky.gv_rate.calls"] > 0


def test_seed_chooses_inputs():
    assert workloads.make("cli-sweep", 1) == workloads.make("cli-sweep", 1)
    assert workloads.make("cli-sweep", 1) != workloads.make("cli-sweep", 2)
    assert workloads.make("counts", 1) == workloads.make("counts", 1)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "counts", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
