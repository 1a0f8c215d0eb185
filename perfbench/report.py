"""Print every end-to-end metric of every workload, with units and sample counts.

Usage: python3 perfbench/report.py [--seed N] [--seconds S]

Runs perfbench/run.py with --trace 0 once per workload, each in its own
interpreter, passes its report through and ends with one table.
Exits 1 if any workload failed or reported an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("transform_large", "polymul_small", "cli_mul", "selftest")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)
    results = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    if results:
        metrics = next(iter(results.values()))["metrics"]
        print(f"\n{'metric':18s} {'unit':6s}" + "".join(f"{n:>17s}" for n in results))
        for metric, info in metrics.items():
            row = "".join(f"{r['metrics'][metric]['value']:>17.6g}" for r in results.values())
            print(f"{metric:18s} {info['unit']:6s}{row}")
        print(f"{'failed/attempted':25s}" + "".join(
            f"{str(r['failed']) + '/' + str(r['attempted']):>17s}" for r in results.values()))
    return status


if __name__ == "__main__":
    sys.exit(main())
