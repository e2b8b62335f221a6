"""Run benchmark operations inside one Python process.

    python bench/worker.py counts SPEC    # untraced counts passes
    python bench/worker.py trace SPEC     # one untraced and one traced pass

SPEC is a JSON file written by run.py with the keys "ops" (from
workloads.make), "workdir" and "seconds".  Output is one JSON object per
line on standard output.  gvbound must be importable (run.py puts the
checkout's src directory on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import spans

import gvbound
import gvbound.cli
from gvbound import sticky, synthesis

MODULES = [getattr(gvbound, name) for name in ("cli", "curves", "sticky", "synthesis",
                                               "numeric", "acsv", "verify")]
# functools.lru_cache tables; cleared before every operation so that each
# in-process CLI call does the work a fresh process would do.
CACHES = [fn for mod in MODULES for fn in vars(mod).values() if hasattr(fn, "cache_clear")]


class Clock:
    """Wall and CPU time spent inside library calls."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    @contextlib.contextmanager
    def measure(self):
        w, c = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - w
            self.cpu += time.process_time() - c


# ------------------------------------------------------------ counts ops

def _sticky_layers_exact(op, clock, kept):
    n = op["n"]
    keep = dict(op["keep"])
    layers = sticky.iter_pair_layers(n, n, n, op["s_max"], "exact")
    problems = []
    while True:
        with clock.measure():
            table = next(layers, None)
        if table is None:
            return problems
        masses = [sum(table.entries[m, m, : 2 * m + 1].tolist()) for m in range(n + 1)]
        problems += checks.check_sticky_masses(table.r, masses)
        if table.r in keep:
            kept[table.r] = table.entries[:, :, : keep[table.r] + 1].copy()


def _sticky_table_log2(op, clock, kept):
    with clock.measure():
        table = sticky.pair_count_table(op["n1"], op["n2"], op["r"], op["s_max"], "log2")
    exact = kept.get(op["r"])
    if exact is None:
        return [f"no exact layer r={op['r']} to compare with"]
    m1 = min(op["n1"], exact.shape[0] - 1) + 1
    m2 = min(op["n2"], exact.shape[1] - 1) + 1
    return checks.check_log2_matches_exact(
        table.entries[:m1, :m2, :], exact[:m1, :m2, :], f"sticky log2 r={op['r']}"
    )


def _synthesis_table(op, clock, kept):
    n, mode = op["n"], op["mode"]
    with clock.measure():
        table = synthesis.pair_count_table(n, mode)
    if mode == "exact":
        by_s = table.entries.sum(axis=(0, 1)).tolist()
        by_t = table.entries.sum(axis=(0, 2)).tolist()
        return checks.check_synthesis_exact(n, by_s, by_t)
    by_s = np.logaddexp2.reduce(np.logaddexp2.reduce(table.entries, axis=0), axis=0)
    return checks.check_synthesis_log2(n, by_s.tolist())


def _readme_count(op, clock, kept):
    n1, n2, r, s = op["args"]
    with clock.measure():
        value = sticky.count_pairs_exact(n1, n2, r, s, mode="log2")
    exact = kept.get(r)
    if exact is None:
        return [f"no exact layer r={r} to compare with"]
    return checks.check_log2_matches_exact(
        np.array([value]), exact[n1, n2, s : s + 1], "README count_pairs_exact"
    )


COUNTS_CALLS = {
    "sticky_layers_exact": _sticky_layers_exact,
    "sticky_table_log2": _sticky_table_log2,
    "synthesis_table": _synthesis_table,
    "readme_count": _readme_count,
}


# -------------------------------------------------------------- passes

def _run_cli(op, workdir, clock):
    for fn in CACHES:
        fn.cache_clear()
    out = io.StringIO()
    with clock.measure(), contextlib.redirect_stdout(out):
        try:
            rc = gvbound.cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return checks.check_cli_op(op, workdir, rc, out.getvalue())


def run_pass(ops, workdir, tracer=None):
    """Run every operation once; return (library wall, library cpu, results)."""
    clock = Clock()
    kept = {}
    results = []
    for op in ops:
        wall_before = clock.wall
        frame = tracer.open(f"bench.{op['name']}") if tracer else None
        try:
            if op["kind"] == "cli":
                problems = _run_cli(op, workdir, clock)
            else:
                problems = COUNTS_CALLS[op["call"]](op, clock, kept)
        except Exception:  # an operation failure is recorded, not fatal
            problems = ["raised " + traceback.format_exc(limit=3)]
        finally:
            if frame:
                tracer.close(frame)
        results.append({"name": op["name"], "wall_s": clock.wall - wall_before,
                        "problems": problems})
    return clock.wall, clock.cpu, results


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counts_main(spec) -> None:
    """Whole passes until spec["seconds"] have passed."""
    start = time.perf_counter()
    while True:
        wall, cpu, results = run_pass(spec["ops"], Path(spec["workdir"]))
        print(json.dumps({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": _peak_rss_mb(),
                          "ops": results}), flush=True)
        if time.perf_counter() - start >= spec["seconds"]:
            return


def trace_main(spec) -> None:
    ops, workdir = spec["ops"], Path(spec["workdir"])
    plain_wall, _, plain_results = run_pass(ops, workdir)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        traced_wall, _, traced_results = run_pass(ops, workdir, tracer)
    finally:
        uninstall()
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    print(json.dumps({"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                      "spans": len(tracer.spans), "metrics": metrics,
                      "ops": plain_results + traced_results}), flush=True)


def main(argv) -> int:
    mode, spec_path = argv
    spec = json.loads(Path(spec_path).read_text())
    os.chdir(spec["workdir"])
    if mode == "counts":
        counts_main(spec)
    else:
        trace_main(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
