"""Print every benchmark metric by name, with its unit.

    python3 bench/report.py [--seed N] [--seconds S]

Runs bench/run.py on every workload, untraced (end-to-end metrics) and
traced (per-layer metrics), and prints one line per metric: workload,
metric, value, unit.  Every run checks the program's outputs; the exit
code is 1 if any run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            lines = proc.stdout.splitlines()
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])
            if not result["correct"]:
                ok = False
                for problem in detail["problems"]:
                    print(f"{workload} trace={trace}: {problem}")
            print(f"{workload:10s} {f'correct (trace {trace})':45s} {result['correct']}")
            for name, metric in result["metrics"].items():
                print(f"{workload:10s} {name:45s} {metric['value']:<14.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
