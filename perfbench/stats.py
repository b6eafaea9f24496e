"""Order statistics and resource readings shared by the workloads."""

from __future__ import annotations

import resource
import statistics
from typing import Dict, Sequence, Tuple

#: Samples the tail percentile must have beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile that has
    at least ten samples beyond it (nearest rank).

    With ten or fewer samples no percentile qualifies; the maximum is
    reported as the 100th percentile so the figure still exists, and the
    sample count says how little it rests on.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return xs[index], 100.0 * (index + 1) / n, n


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def latency_summary(prefix: str, latencies_ms: Sequence[float]) -> Dict[str, float]:
    """p50, tail, tail percentile and sample count under one name prefix."""
    value, pct, n = tail(latencies_ms)
    return {
        f"{prefix}_p50_ms": median(latencies_ms),
        f"{prefix}_tail_ms": value,
        f"{prefix}_tail_pct": pct,
        f"{prefix}_samples": n,
    }

