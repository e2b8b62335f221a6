"""Workload definitions: the operations one pass runs, made from a seed.

A workload is a list of operations, each a plain dict so that it can be
sent to the worker process as JSON.  CLI operations carry the argument
list after ``gvbound`` and a ``check`` entry that says how their output
is verified (see checks.py); counts operations name a library call and
its sizes (see worker.py).

The seed chooses only inputs the README does not fix, and only within
ranges where the work per pass stays nearly the same, so that runs with
different seeds are comparable:

* cli-sweep: the beta range of the dense sticky sweep, and the tau and
  delta range of the dense synthesis sweep (tau in [1.8, 2.2], where the
  share of saturated points, and so the cost per point, moves little).
* counts: the shape of the sticky log2 table (n1, n2 in 94..98, r in
  46..50, s in 22..26; the cell count moves by about 10 %, which is
  about 0.5 % of a pass).
* verify: nothing; ``gvbound verify all`` has no free inputs.

The sizes are module constants so that the smoke test can shrink them.
"""

from __future__ import annotations

import random

WORKLOADS = ("cli-sweep", "verify", "counts")

# Dense sweeps: points per sweep.
DENSE_POINTS = 2000
# Sticky exact DP: all layers r = 1..n of the n x n table, s up to 2n.
STICKY_EXACT_N = 60
# Layer whose (48, 48, 12) entry the README log2 call is checked against.
README_COUNT = (48, 48, 24, 12)
# Synthesis DP sizes.
SYNTH_EXACT_N = 60
SYNTH_LOG2_N = 100
# Sticky log2 table shape ranges (inclusive), chosen by the seed.
STICKY_LOG2_N = (94, 98)
STICKY_LOG2_R = (46, 50)
STICKY_LOG2_S = (22, 26)
# The verify command.
VERIFY_ARGV = ["verify", "all"]

README_OPS = [
    {
        "name": "curve-sticky-csv",
        "argv": ["curve", "--channel", "sticky", "--beta-range", "0:0.49:50",
                 "--output", "sticky_bounds.csv"],
        "check": {"kind": "reference_file", "file": "sticky_bounds.csv",
                  "sweep": {"channel": "sticky", "lo": 0.0, "hi": 0.49, "steps": 50}},
    },
    {
        "name": "curve-sticky-svg",
        "argv": ["curve", "--channel", "sticky", "--beta-range", "0:0.49:50",
                 "--format", "svg", "--output", "sticky_bounds.svg"],
        "check": {"kind": "reference_file", "file": "sticky_bounds.svg"},
    },
    {
        "name": "curve-synthesis-t15",
        "argv": ["curve", "--channel", "synthesis", "--tau", "1.5",
                 "--delta-range", "0:0.75:76", "--output", "synth_t15.csv"],
        "check": {"kind": "reference_file", "file": "synth_t15.csv",
                  "sweep": {"channel": "synthesis", "tau": 1.5, "lo": 0.0,
                            "hi": 0.75, "steps": 76}},
    },
    {
        "name": "curve-synthesis-t20",
        "argv": ["curve", "--channel", "synthesis", "--tau", "2.0",
                 "--delta-range", "0:0.75:76", "--output", "synth_t20.csv"],
        "check": {"kind": "reference_file", "file": "synth_t20.csv",
                  "sweep": {"channel": "synthesis", "tau": 2.0, "lo": 0.0,
                            "hi": 0.75, "steps": 76}},
    },
    {
        "name": "point-sticky",
        "argv": ["point", "--channel", "sticky", "--rho", "0.5", "--beta", "0.125"],
        "check": {"kind": "reference_stdout", "file": "point_sticky.txt"},
    },
    {
        "name": "point-synthesis",
        "argv": ["point", "--channel", "synthesis", "--tau", "2", "--delta", "0.3"],
        "check": {"kind": "reference_stdout", "file": "point_synthesis.txt"},
    },
    {
        "name": "point-synthesis-capacity",
        "argv": ["point", "--channel", "synthesis", "--tau", "2.5"],
        "check": {"kind": "reference_stdout", "file": "point_synthesis_capacity.txt"},
    },
]


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _dense_ops(rng: random.Random) -> list[dict]:
    b_lo = _fmt(rng.uniform(0.0, 0.01))
    b_hi = _fmt(rng.uniform(0.48, 0.49))
    tau = _fmt(rng.uniform(1.8, 2.2))
    d_lo = _fmt(rng.uniform(0.0, 0.01))
    d_hi = _fmt(rng.uniform(0.74, 0.75))
    steps = DENSE_POINTS
    return [
        {
            "name": "dense-sticky",
            "argv": ["curve", "--channel", "sticky",
                     "--beta-range", f"{b_lo}:{b_hi}:{steps}",
                     "--output", "dense_sticky.csv"],
            "check": {"kind": "sweep", "file": "dense_sticky.csv",
                      "sweep": {"channel": "sticky", "lo": float(b_lo),
                                "hi": float(b_hi), "steps": steps}},
        },
        {
            "name": "dense-synthesis",
            "argv": ["curve", "--channel", "synthesis", "--tau", tau,
                     "--bounds", "gv,lb,capacity",
                     "--delta-range", f"{d_lo}:{d_hi}:{steps}",
                     "--output", "dense_synthesis.csv"],
            "check": {"kind": "sweep", "file": "dense_synthesis.csv",
                      "sweep": {"channel": "synthesis", "tau": float(tau),
                                "lo": float(d_lo), "hi": float(d_hi),
                                "steps": steps}},
        },
    ]


def _counts_ops(rng: random.Random) -> list[dict]:
    n1 = rng.randint(*STICKY_LOG2_N)
    n2 = rng.randint(*STICKY_LOG2_N)
    r = rng.randint(*STICKY_LOG2_R)
    s = rng.randint(*STICKY_LOG2_S)
    n = STICKY_EXACT_N
    return [
        {"name": "sticky-layers-exact", "call": "sticky_layers_exact",
         "n": n, "s_max": 2 * n, "keep": [list(README_COUNT[2:]), [r, s]]},
        {"name": "sticky-table-log2", "call": "sticky_table_log2",
         "n1": n1, "n2": n2, "r": r, "s_max": s},
        {"name": "synthesis-table-exact", "call": "synthesis_table",
         "n": SYNTH_EXACT_N, "mode": "exact"},
        {"name": "synthesis-table-log2", "call": "synthesis_table",
         "n": SYNTH_LOG2_N, "mode": "log2"},
        {"name": "readme-count-log2", "call": "readme_count",
         "args": list(README_COUNT)},
    ]


def make(workload: str, seed: int) -> list[dict]:
    """Operations of one pass of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-sweep":
        return [dict(op, kind="cli") for op in README_OPS + _dense_ops(rng)]
    if workload == "verify":
        return [{"name": "verify-all", "kind": "cli", "argv": list(VERIFY_ARGV),
                 "check": {"kind": "verify"}}]
    if workload == "counts":
        return [dict(op, kind="counts") for op in _counts_ops(rng)]
    raise ValueError(f"unknown workload {workload!r}")
