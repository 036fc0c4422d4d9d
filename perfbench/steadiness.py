"""Steadiness report: run every workload of ``BENCHMARK.json`` several
times, one seed per run, and print every end-to-end metric's median and
quartiles beside its bound.

    python3 perfbench/steadiness.py --runs 10 [--first-seed 1]

The spread is ``(Q3 - Q1) / median`` with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  A metric is ``steady``
when its spread is under a third of its bound and ``within`` when it is
under the bound.  The exit code is 1 when a spread is over its bound or
an op failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    worst = "steady"
    for workload in names:
        values: dict[str, list[float]] = {}
        failed = 0
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.perf_counter()
            result = run_once(workload, seed, args.seconds)
            walls.append(time.perf_counter() - started)
            failed += result["failed"]
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        print(f"{workload}: {args.runs} runs, failed ops {failed}, wall "
              f"seconds per run {min(walls):.1f}-{max(walls):.1f}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            median, q1, q3, share = spread(values[name])
            if share < bound / 3:
                verdict = "steady"
            elif share <= bound:
                verdict = "within"
                worst = "within" if worst == "steady" else worst
            else:
                verdict = "OVER BOUND"
                worst = "over"
            print(f"  {name:16s} median {median:11.4f} {metric['unit']:5s} "
                  f"Q1 {q1:11.4f} Q3 {q3:11.4f} spread {share:7.4f} "
                  f"bound {bound:5.3f}  {verdict}")
        if failed:
            worst = "over"
    return 0 if worst != "over" else 1


if __name__ == "__main__":
    sys.exit(main())
