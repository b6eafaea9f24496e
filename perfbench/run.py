"""The repository benchmark: one command, three workloads, checked answers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-predict --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end
metrics; ``--trace 1`` spends half of ``--seconds`` untraced and half
traced, and prints the per-layer metrics plus the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report.  The exit code is 0 only when every answer
matched the serial reference and every non-vacuity guard held.

See ``perfbench/README.md`` for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; ``setup_s`` is their median.  The first
#: ``SETUPS_BEFORE`` come before the timed phase, the rest after it, on a
#: spare instance, so the median samples the host's speed across the run
#: as the timed metrics do.
SETUPS = 5
SETUPS_BEFORE = 3


def metric_units(section: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def timed_setup(workload) -> float:
    gc.collect()  # every set-up starts from a clean heap
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


class Phase:
    """One set-up + measure pass of a workload, untraced or traced."""

    def __init__(self, cls, seed: int, seconds: float, run_dir: Path, *,
                 record: bool, setups: int, setups_before: int) -> None:
        from stats import peak_rss_mb
        from tracer import Tracer

        run_dir.mkdir(parents=True)
        self.tracer = Tracer(run_dir, record=record)
        self.workload = cls(seed, run_dir)
        self.setup_times = []
        self.tracer.install()
        try:
            for i in range(setups_before):
                if i:
                    self.workload.teardown()
                self.setup_times.append(timed_setup(self.workload))
            self.workload.prime()
            self.tracer.clear_plan_misses()
            w0 = time.perf_counter()
            self.workload.measure(seconds, self.tracer if record else None)
            self.window = (w0, time.perf_counter())
        finally:
            if self.setup_times:
                self.workload.teardown()
            self.tracer.uninstall()
        if hasattr(self.workload, "check_plan_misses"):
            self.workload.check_plan_misses(self.tracer)
        spare_dir = run_dir / "spare"
        spare_dir.mkdir()
        for _ in range(setups - setups_before):
            spare = cls(seed, spare_dir)
            try:
                self.setup_times.append(timed_setup(spare))
            finally:
                spare.teardown()
        # after teardown, so the pool's reaped workers count too
        self.peak_rss_mb = peak_rss_mb()


def benchmark(name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> int:
    from layers import per_layer
    from oracle import Oracle
    from stats import median
    from workloads import WORKLOADS, GuardError, ground_truth_error

    cls = WORKLOADS[name]
    oracle = Oracle()
    clock = [time.perf_counter()]
    try:
        phases = [Phase(cls, seed, seconds / 2 if trace else seconds, run_dir / "plain",
                        record=False, setups=SETUPS, setups_before=SETUPS_BEFORE)]
        if trace:
            phases.append(Phase(cls, seed, seconds / 2, run_dir / "traced",
                                record=True, setups=1, setups_before=1))
        clock.append(time.perf_counter())
        for phase in phases:
            phase.workload.verify(oracle)
        clock.append(time.perf_counter())
    except GuardError as exc:
        print(f"perfbench: non-vacuity guard failed: {exc}", file=sys.stderr)
        return 1

    plain = phases[0].workload
    attempted = sum(p.workload.attempted for p in phases)
    failed = sum(p.workload.failed for p in phases)
    end_to_end = dict(setup_s=median(phases[0].setup_times), **plain.timings())
    end_to_end["speedup_err_pct"] = ground_truth_error(oracle, plain.gt_cells, seed)
    clock.append(time.perf_counter())
    end_to_end["peak_rss_mb"] = phases[0].peak_rss_mb

    print(f"perfbench {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    e2e_units = metric_units("end_to_end")
    for key, unit in e2e_units.items():
        print(f"  {key:<24} {end_to_end[key]:>14.4f} {unit}")
    print("  setup samples (s)        "
          + " ".join(f"{t:.3f}" for t in phases[0].setup_times))
    print("  run time (s)             set-up+measure {:.1f}, verify {:.1f}, "
          "ground truth {:.1f}".format(*(b - a for a, b in zip(clock, clock[1:]))))
    extra = dict(plain.extra)
    extra["error_rate"] = failed / attempted if attempted else 0.0
    for key, value in sorted(extra.items()):
        print(f"  {key:<24} {value:>14.4f}")
    print(f"  sim_digest               {oracle.digest()} "
          f"({oracle.digested_replays} reference replays)")
    print(f"  anchor_defect_cells      {oracle.anchor_defect_cells} "
          f"(1-CPU speed-up above 1 by at most {oracle.anchor_max_excess:.6f}: "
          "the uniprocessor anchor, ROADMAP item 1)")
    for message in oracle.failures[:10]:
        print(f"perfbench: wrong answer: {message}", file=sys.stderr)

    if trace:
        traced = phases[1]
        layer, table = per_layer(
            traced.tracer.collect(), traced.window, parent_pid=os.getpid(),
            workers=traced.workload.workers(), predictions=traced.workload.predictions(),
        )
        untraced_p50 = statistics.median(plain.latencies_ms)
        traced_p50 = statistics.median(traced.workload.latencies_ms)
        layer["tracing.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
        layer["error_rate"] = extra["error_rate"]
        for cls_name in ("repeat", "novel", "auto", "upload"):
            layer[f"class.{cls_name}_p50_ms"] = plain.extra.get(f"class.{cls_name}_p50_ms", 0.0)
        layer["admission.shed_count"] = plain.extra.get("admission.shed_count", 0)
        print("  traced spans (timed window): name, calls, total ms, self ms")
        for span_name, calls, total_ms, self_ms in table:
            print(f"    {span_name:<34} {calls:>6} {total_ms:>12.1f} {self_ms:>12.1f}")
        units = metric_units("per_layer")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
        for key in units:
            print(f"  {key:<32} {layer[key]:>14.4f} {units[key]}")
    else:
        metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in e2e_units.items()}

    correct = not oracle.failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-predict", "sweep-grid", "service-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    # anything the program puts in a temporary directory stays in the checkout
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    (run_dir / "tmp").mkdir(parents=True)
    try:
        return benchmark(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
