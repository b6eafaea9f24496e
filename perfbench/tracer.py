"""Span tracing for the traced benchmark run.

The wrappers are installed from the benchmark's own files around the
public calls into each layer; the program itself is not edited.  A span
records its name, start, end, the span that was open on the same thread
when it started (its parent), the process and thread, and a few
attributes taken from the call (record counts, backend, engine events,
cache hit).  Spans stay in memory and are summarised when the run ends.

Pool workers are forked from the benchmark process after the wrappers
are installed, so they inherit them.  A worker writes the spans of each
job to ``spans-<pid>.jsonl`` in the run directory when the job ends; the
parent reads those files after the pool has shut down.  All timestamps
come from ``time.perf_counter``, which on Linux is the system-wide
monotonic clock, so worker and parent spans share one time axis.

The worker entry point is wrapped even in untraced runs, by a probe that
only notes which worker processes compiled a plan (a plan-cache miss):
the sweep-grid non-vacuity guard needs that per worker.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: The installed tracer, read by the pickled worker entry point.  Forked
#: workers find it here because they inherit the parent's modules.
_ACTIVE: Optional["Tracer"] = None
_ORIGINAL_RUN_PAYLOAD: Optional[Callable] = None


class Tracer:
    """Collects spans in memory; workers flush theirs to *span_dir*."""

    def __init__(self, span_dir: Path, *, record: bool) -> None:
        self.span_dir = Path(span_dir)
        self.record = record
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._patches: List[tuple] = []
        self.parent_pid = os.getpid()

    # -- span bookkeeping ------------------------------------------------

    def _after_fork_in_child(self) -> None:
        self.spans = []
        self._local = threading.local()
        self._id_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*.

        *attrs*, given the call's arguments and result, returns extra
        fields for the span.
        """
        if not self.record:
            return fn(*args, **kwargs)
        with self._id_lock:
            sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        span = {
            "id": f"{os.getpid()}:{sid}",
            "parent": f"{os.getpid()}:{parent}" if parent is not None else None,
            "name": name,
            "t0": t0,
            "t1": t1,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if attrs is not None:
            span.update(attrs(args, result))
        self.spans.append(span)
        return result

    def op(self, name: str, t0: float, t1: float, **attrs) -> None:
        """Record a span measured by the benchmark itself (one user operation)."""
        if self.record:
            with self._id_lock:
                sid = next(self._ids)
            self.spans.append(
                dict(
                    id=f"{os.getpid()}:{sid}", parent=None, name=name, t0=t0,
                    t1=t1, pid=os.getpid(), tid=threading.get_ident(), **attrs,
                )
            )

    def flush_worker_spans(self) -> None:
        spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.span_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    def collect(self) -> List[Dict[str, Any]]:
        """Parent spans plus every span a worker wrote; call after pools close."""
        spans = list(self.spans)
        for path in sorted(self.span_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
        return spans

    def clear_plan_misses(self) -> None:
        for path in self.span_dir.glob("plan-miss-*"):
            path.unlink()

    def plan_miss_pids(self) -> set:
        return {
            int(p.name.split("-", 2)[2])
            for p in self.span_dir.glob("plan-miss-*")
        }

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _replace_function(self, module, attr: str, name: str, attrs=None) -> None:
        """Wrap a module-level function wherever ``repro`` modules bound it."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, attrs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def _replace_method(self, cls, attr: str, name: str, attrs=None) -> None:
        original = getattr(cls, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, attrs)

        self._patch(cls, attr, wrapper)

    def install(self) -> None:
        """Wrap the public layer calls; must run before any pool starts."""
        global _ACTIVE, _ORIGINAL_RUN_PAYLOAD
        import repro.cli  # noqa: F401  (bind every name the CLI imports)
        import repro.jobs.service_async  # noqa: F401
        from repro.analytic import stats as analytic_stats
        from repro.core import predictor
        from repro.core.simulator import Simulator
        from repro.jobs import engine, fingerprint, tiering, worker
        from repro.jobs.cache import ResultCache
        from repro.jobs.engine import JobEngine
        from repro.jobs.service import PredictionService
        from repro.recorder import logfile
        from repro.recorder.salvage import SalvageStream

        os.register_at_fork(after_in_child=self._after_fork_in_child)
        _ACTIVE = self
        _ORIGINAL_RUN_PAYLOAD = worker.run_payload
        self._patch(engine, "run_payload", run_payload)
        if not self.record:
            return

        self._replace_function(
            logfile, "loads", "logfile.loads",
            attrs=lambda a, r: {"records": len(r)},
        )
        self._replace_function(logfile, "load", "logfile.load")
        self._replace_function(logfile, "dumps", "logfile.dumps")
        self._replace_function(predictor, "compile_trace", "compile_trace")
        self._replace_function(analytic_stats, "extract_stats", "extract_stats")
        self._replace_function(
            tiering, "escalation_labels", "escalation_labels",
            attrs=lambda a, r: {"cells": len(a[0]), "escalated": len(r)},
        )
        # Trace.fingerprint memoises and delegates here on its first call
        self._replace_function(fingerprint, "trace_fingerprint", "trace_fingerprint")
        self._replace_method(
            Simulator, "run_replay", "Simulator.run_replay",
            attrs=lambda a, r: {
                "backend": a[0].config.scheduler,
                "events": r.engine_events,
                "makespan_us": r.makespan_us,
            },
        )
        self._replace_method(
            ResultCache, "get", "ResultCache.get",
            attrs=lambda a, r: {"hit": r is not None},
        )
        self._replace_method(ResultCache, "put", "ResultCache.put")
        self._replace_method(
            JobEngine, "run", "JobEngine.run",
            attrs=lambda a, r: {"workers": a[0].workers, "mode": a[0].mode},
        )
        self._replace_method(
            PredictionService, "predict", "PredictionService.predict",
            attrs=lambda a, r: {"body": request_key(a[1])},
        )
        self._replace_method(
            PredictionService, "store_salvaged", "PredictionService.store_salvaged"
        )
        self._replace_method(SalvageStream, "finish", "SalvageStream.finish")

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None


def request_key(body: Dict[str, Any]) -> str:
    """Canonical form of a ``/predict`` body, to match client and server spans."""
    return json.dumps(body, sort_keys=True)


def run_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The engine's worker entry point, wrapped (module level so it pickles)."""
    tracer = _ACTIVE
    if tracer is None:
        return _ORIGINAL_RUN_PAYLOAD(payload)
    result = tracer.call(
        "worker.run_payload", _ORIGINAL_RUN_PAYLOAD, (payload,), {},
        attrs=lambda a, r: {
            "kind": a[0].get("kind", "sim"),
            "plan_miss": int(r.get("plan_cache_misses", 0)),
        },
    )
    if os.getpid() != tracer.parent_pid:
        if result.get("plan_cache_misses"):
            (tracer.span_dir / f"plan-miss-{os.getpid()}").touch()
        tracer.flush_worker_spans()
    return result
