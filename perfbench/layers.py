"""Per-layer metrics from the spans of a traced run.

Only spans inside the timed window count; set-up, priming and the
oracle's reference replays fall outside it.  Every metric named in
``BENCHMARK.json``'s ``per_layer`` list is reported on every workload; a
layer the workload bypasses reads 0 (no calls).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Tuple

from stats import median

BACKENDS = ("solaris", "cfs", "clutch")


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> duration minus the durations of its direct children (s)."""
    child_time: Dict[str, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["t1"] - s["t0"]
    return {s["id"]: (s["t1"] - s["t0"]) - child_time[s["id"]] for s in spans}


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _ms(spans) -> List[float]:
    return [(s["t1"] - s["t0"]) * 1e3 for s in spans]


def per_layer(
    spans: List[Dict[str, Any]],
    window: Tuple[float, float],
    *,
    parent_pid: int,
    workers: int,
    predictions: int,
) -> Tuple[Dict[str, float], List[Tuple[str, int, float, float]]]:
    """The per-layer metrics and a ``(name, calls, total_ms, self_ms)`` table.

    *predictions* is the number of user prediction operations in the
    window (``vppb predict`` calls, ``run_manifest`` calls or
    ``/predict`` requests), the denominator of ``replays_per_prediction``.
    """
    w0, w1 = window
    spans = [s for s in spans if s["t0"] >= w0 and s["t1"] <= w1]
    by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    selfs = self_times(spans)

    m: Dict[str, float] = {}
    loads = by_name["logfile.loads"]
    m["logfile.parse_ms"] = median(_ms(loads))
    parse_s = sum(s["t1"] - s["t0"] for s in loads)
    m["logfile.records_per_s"] = sum(s["records"] for s in loads) / parse_s if parse_s else 0.0
    m["logfile.dumps_ms"] = median(_ms(by_name["logfile.dumps"]))
    m["salvage.finish_ms"] = median(_ms(by_name["SalvageStream.finish"]))
    m["fingerprint_ms"] = median(_ms(by_name["trace_fingerprint"]))
    m["compile_ms"] = median(_ms(by_name["compile_trace"]))

    replays = by_name["Simulator.run_replay"]
    for backend in BACKENDS:
        mine = [s for s in replays if s["backend"] == backend]
        events = sum(s["events"] for s in mine)
        m[f"replay_ms.{backend}"] = median(_ms(mine))
        # the mean, not the median: the event blow-up hits a minority of cells
        m[f"replay_events.{backend}"] = events / len(mine) if mine else 0.0
        m[f"replay_us_per_event.{backend}"] = (
            sum(_ms(mine)) * 1e3 / events if events else 0.0
        )
    m["replays_per_prediction"] = len(replays) / predictions if predictions else 0.0

    m["analytic.stats_ms"] = median(_ms(by_name["extract_stats"]))
    tiers = by_name["escalation_labels"]
    tier_cells = sum(s["cells"] for s in tiers)
    m["tiering.escalation_ratio"] = (
        sum(s["escalated"] for s in tiers) / tier_cells if tier_cells else 0.0
    )

    gets = by_name["ResultCache.get"]
    m["cache.get_ms"] = median(_ms(gets))
    m["cache.put_ms"] = median(_ms(by_name["ResultCache.put"]))
    m["cache.hit_ratio"] = sum(s["hit"] for s in gets) / len(gets) if gets else 0.0

    # the pool: worker spans come from other processes on the same clock
    jobs = [s for s in by_name["worker.run_payload"] if s["pid"] != parent_pid]
    busy = sum(s["t1"] - s["t0"] for s in jobs)
    active = _union_length(
        (s["t0"], s["t1"]) for s in by_name["JobEngine.run"] if s["mode"] == "process"
    )
    m["engine.handoff_ms"] = (workers * active - busy) * 1e3 / len(jobs) if jobs else 0.0
    m["worker.busy_ratio"] = busy / (workers * (w1 - w0)) if workers else 0.0
    m["worker.plan_hit_ratio"] = (
        1.0 - sum(s["plan_miss"] for s in jobs) / len(jobs) if jobs else 0.0
    )

    predicts = by_name["PredictionService.predict"]
    m["service.predict_ms"] = median([selfs[s["id"]] * 1e3 for s in predicts])
    overheads = []
    unmatched = list(predicts)
    for op in by_name["op"]:
        if not op.get("body"):
            continue
        for s in unmatched:
            if s["body"] == op["body"] and op["t0"] <= s["t0"] and s["t1"] <= op["t1"]:
                overheads.append(((op["t1"] - op["t0"]) - (s["t1"] - s["t0"])) * 1e3)
                unmatched.remove(s)
                break
    m["http.overhead_ms"] = median(overheads)

    table = []
    for name, group in sorted(by_name.items()):
        if not group:
            continue
        table.append((
            name, len(group), sum(_ms(group)), sum(selfs[s["id"]] for s in group) * 1e3,
        ))
    return m, table
