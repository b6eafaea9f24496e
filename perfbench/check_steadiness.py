"""Steadiness self-check: do repeated runs of the benchmark agree?

Runs ``perfbench/run.py`` as a fresh process per run, exactly as it is
run for a measurement, from the root of the checkout, for
``run_seconds`` of ``BENCHMARK.json``::

    python3 perfbench/check_steadiness.py                 # 2 sets x 10 runs, every workload
    python3 perfbench/check_steadiness.py --runs 5 --workloads service-mix

The protocol is fixed: ``SETS`` sets, each running every workload once
per seed, seeds ``FIRST_SEED`` and up, one new seed per run.  For every
end-to-end metric of ``BENCHMARK.json`` the check reports each set's
median and its spread, the distance between the first and third quartile
as a share of the median, and requires

* every spread, ``setup_s``'s included, to stay within the metric's bound;
* every later set's median to be no worse than the first set's by more
  than the bound.

It then runs each workload once on ``UNSEEN_SEED``, a seed not used
while the benchmark was built, which must pass its correctness checks.
Exit code 0 means every check held.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
FIRST_SEED = 101
UNSEEN_SEED = 7919


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
        )
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect answers\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: dict, first: float, later: float) -> float:
    """How much worse *later* is than *first*, as a share of *first*."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(SETS):
            seeds = range(FIRST_SEED + s * args.runs, FIRST_SEED + (s + 1) * args.runs)
            runs = [run_once(spec, workload, seed, seconds) for seed in seeds]
            sets.append(runs)
        print(f"{workload}: {SETS} sets x {args.runs} runs")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            first_median = None
            for runs in sets:
                values = [r[name] for r in runs]
                med, sp = statistics.median(values), spread(values)
                cells.append(f"median {med:.4g} spread {sp:.3f}")
                if sp > bound:
                    ok = False
                    cells[-1] += " SPREAD>BOUND"
                if first_median is None:
                    first_median = med
                elif worse_by(metric, first_median, med) > bound:
                    ok = False
                    cells[-1] += " WORSE>BOUND"
            print(f"  {name:<18} bound {bound:<5} " + " | ".join(cells))
        unseen = run_once(spec, workload, UNSEEN_SEED, seconds)
        print(f"  unseen seed {UNSEEN_SEED}: correct; "
              + ", ".join(f"{k}={v:.4g}" for k, v in unseen.items()))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
