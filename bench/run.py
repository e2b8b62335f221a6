"""gvbound benchmark runner.

    python3 bench/run.py --workload {cli-sweep,verify,counts} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  One client runs one operation at a
time (a closed loop), in whole passes over the workload's operations,
until S seconds have passed; the last pass may end up to a pass later.

With --trace 0 the end-to-end metrics are reported; with --trace 1 one
untraced and one traced in-process pass give the per-layer metrics.  The
last line of standard output is the result object; the line before it
holds the details: sample counts and quartiles, every failure, and the
environment.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Every run must end within this many seconds of its start.
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
IMPORT_STATEMENT = "import gvbound, gvbound.cli"
MAX_PROBLEMS = 100

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

PER_LAYER = [
    "cli.import_s",
    "cli.import_scipy_s",
    "sticky.gv_rate.calls",
    "sticky.gv_rate.self_s",
    "sticky.ball_rate.calls",
    "sticky.ball_rate.calls_per_gv_rate",
    "sticky.iter_pair_layers.exact_s",
    "sticky.iter_pair_layers.log2_s",
    "sticky.iter_pair_layers.cells",
    "sticky.pair_count_table.calls",
    "sticky.count_pairs_bruteforce.calls",
    "sticky.count_pairs_bruteforce.self_s",
    "sticky.count_pairs_bruteforce.pairs",
    "synthesis.pair_count_table.exact_s",
    "synthesis.pair_count_table.log2_s",
    "synthesis.pair_count_table.calls",
    "synthesis.pair_count_table.cells",
    "synthesis.count_pairs_bruteforce.calls",
    "synthesis.count_pairs_bruteforce.self_s",
    "synthesis.count_pairs_bruteforce.pairs",
    "synthesis.count_pairs_bruteforce.useful_ratio",
    "synthesis.critical_point.calls",
    "synthesis.critical_point.self_s",
    "synthesis.capacity.calls",
    "numeric.smallest_positive_root.calls",
    "numeric.smallest_positive_root.self_s",
    "numeric.scan_evals",
    "acsv.critical_system_residual.calls",
    "acsv.critical_system_residual.self_s",
    "acsv.solve_critical_point.calls",
    "acsv.solve_critical_point.self_s",
    "curves.build_curves.self_s",
    "curves.render_svg.self_s",
    "curves.rows_to_csv.self_s",
    "verify.run_suite.acsv_s",
    "verify.run_suite.sticky_s",
    "verify.run_suite.synthesis_s",
    "verify.checks_failed",
    "cli.self_s",
    "curves.self_s",
    "sticky.self_s",
    "synthesis.self_s",
    "numeric.self_s",
    "acsv.self_s",
    "verify.self_s",
    "trace.overhead_ratio",
]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_gv_rate"):
        return "calls/call"
    return "count"


# ------------------------------------------------------------ processes

def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


class Spawner:
    """Start one child at a time, reap it with its rusage, enforce the deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv, cwd: Path, stdout: Path, stderr: Path):
        """Return (exit code, wall s, user+sys cpu s, max rss MB)."""
        timeout = max(self.deadline - time.perf_counter(), 1.0)
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------- record

def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gvbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def summarize(values: list[float]) -> dict:
    if len(values) >= 2:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {"median": statistics.median(values), "p25": p25, "p75": p75,
            "n": len(values)}


# ------------------------------------------------------------- workloads

def measure_setup(spawner: Spawner, workdir: Path) -> list[float]:
    """Walls of fresh interpreters importing gvbound and gvbound.cli."""
    argv = [sys.executable, "-c", IMPORT_STATEMENT]
    walls = []
    for k in range(SETUP_REPEATS + 1):  # the first one warms the caches
        rc, wall, _, _ = spawner.run(argv, workdir, workdir / "setup.out",
                                     workdir / "setup.err")
        if rc != 0:
            raise RuntimeError("importing gvbound failed: "
                               + (workdir / "setup.err").read_text()[-2000:])
        if k:
            walls.append(wall)
    return walls


def run_cli_passes(spawner, ops, workdir, seconds) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while True:
        wall = cpu = rss = 0.0
        results = []
        for op in ops:
            out, err = workdir / "op.out", workdir / "op.err"
            rc, w, c, m = spawner.run([sys.executable, "-m", "gvbound.cli", *op["argv"]],
                                      workdir, out, err)
            wall, cpu, rss = wall + w, cpu + c, max(rss, m)
            problems = checks.check_cli_op(op, workdir, rc, out.read_text())
            if rc != 0:
                problems.append(err.read_text()[-2000:])
            results.append({"name": op["name"], "wall_s": w, "problems": problems})
        passes.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "ops": results})
        if time.perf_counter() - start >= seconds:
            return passes


def run_worker(spawner, mode, ops, workdir, seconds) -> list[dict]:
    spec = workdir / "spec.json"
    spec.write_text(json.dumps({"ops": ops, "workdir": str(workdir), "seconds": seconds}))
    out, err = workdir / "worker.out", workdir / "worker.err"
    rc, _, _, _ = spawner.run([sys.executable, str(BENCH / "worker.py"), mode, str(spec)],
                              workdir, out, err)
    if rc != 0:
        raise RuntimeError(f"worker exited with {rc}: " + err.read_text()[-2000:])
    return [json.loads(line) for line in out.read_text().splitlines() if line]


_IMPORTTIME = re.compile(r"^import time:\s*(\d+) \|\s*(\d+) \|\s*(\S+)\s*$")


def measure_imports(spawner: Spawner, workdir: Path) -> dict[str, float]:
    """cli.import_s and cli.import_scipy_s from -X importtime, medians."""
    # warm the file and bytecode caches first, as measure_setup does
    spawner.run([sys.executable, "-c", IMPORT_STATEMENT], workdir,
                workdir / "warm.out", workdir / "warm.err")
    totals, scipy_totals = [], []
    for _ in range(IMPORTTIME_REPEATS):
        err = workdir / "importtime.err"
        rc, _, _, _ = spawner.run([sys.executable, "-X", "importtime", "-c", IMPORT_STATEMENT],
                                  workdir, workdir / "importtime.out", err)
        if rc != 0:
            raise RuntimeError("importing gvbound failed: " + err.read_text()[-2000:])
        total = scipy = 0
        for line in err.read_text().splitlines():
            m = _IMPORTTIME.match(line)
            if not m:
                continue
            own, cumulative, name = int(m[1]), int(m[2]), m[3]
            if name in ("gvbound", "gvbound.cli"):
                total += cumulative
            if name == "scipy" or name.startswith("scipy."):
                scipy += own
        totals.append(total / 1e6)
        scipy_totals.append(scipy / 1e6)
    return {"cli.import_s": statistics.median(totals),
            "cli.import_scipy_s": statistics.median(scipy_totals)}


def _count_failures(op_results: list[dict]) -> tuple[int, int, list[str]]:
    failed = [r for r in op_results if r["problems"]]
    problems = [f"{r['name']}: {p}" for r in failed for p in r["problems"]]
    return len(op_results), len(failed), problems[:MAX_PROBLEMS]


def measure(args, spawner: Spawner, workdir: Path) -> tuple[dict, dict, dict]:
    """Return (metric values, metric details, run facts)."""
    ops = workloads.make(args.workload, args.seed)
    if args.trace:
        values = measure_imports(spawner, workdir)
        (result,) = run_worker(spawner, "trace", ops, workdir, args.seconds)
        values.update(result["metrics"])
        attempted, failed, problems = _count_failures(result["ops"])
        facts = {"untraced_wall_s": result["untraced_wall_s"],
                 "traced_wall_s": result["traced_wall_s"], "spans": result["spans"]}
        return values, {}, dict(facts, attempted=attempted, failed=failed,
                                problems=problems)

    setup = measure_setup(spawner, workdir)
    if args.workload == "counts":
        passes = run_worker(spawner, "counts", ops, workdir, args.seconds)
    else:
        passes = run_cli_passes(spawner, ops, workdir, args.seconds)
    attempted, failed, problems = _count_failures([r for p in passes for r in p["ops"]])
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": setup,
        "cpu_s": [p["cpu_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    details = {name: dict(summarize(v), samples=v) for name, v in samples.items()}
    values = {name: d["median"] for name, d in details.items()}
    values["success_ratio"] = (attempted - failed) / attempted
    op_walls = {}
    for p in passes:
        for r in p["ops"]:
            op_walls.setdefault(r["name"], []).append(r["wall_s"])
    facts = {"passes": len(passes), "attempted": attempted, "failed": failed,
             "error_ratio": failed / attempted, "problems": problems,
             "op_wall_s": op_walls}
    return values, details, facts


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gvbound" / "__init__.py").is_file():
        print(f"error: no gvbound sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    spawner = Spawner(started + RUN_DEADLINE_S)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        values, details, facts = measure(args, spawner, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = PER_LAYER if args.trace else list(END_TO_END)
    units = {name: layer_unit(name) for name in PER_LAYER} if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run_wall_s": time.perf_counter() - started,
        "environment": environment(), "details": details, **facts,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": facts["failed"] == 0, "attempted": facts["attempted"],
                      "failed": facts["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
