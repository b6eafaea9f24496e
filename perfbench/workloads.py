"""The three benchmark workloads.

Each workload has the same life cycle, driven by ``run.py``:

``setup()``
    Record its input traces from the seed and start whatever it serves
    through (pool, HTTP server).  Timed as ``setup_s``.
``measure(seconds, tracer)``
    The timed phase.  Operations run back to back until *seconds* have
    passed; the operation under way then completes.  Answers are kept,
    not checked.
``verify(oracle)``
    Check every kept answer against the serial reference, compute the
    prediction error against ground truth and run the non-vacuity guards.
``teardown()``
    Stop every process and thread ``setup()`` started.

Inputs come only from the seed; the program sees only the generated
traces and requests.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import io
import json
import random
import re
import statistics
import threading
import time
import urllib.parse
from http.client import HTTPConnection
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.config import SimConfig
from repro.core.timebase import to_seconds
from repro.jobs.cache import ResultCache
from repro.jobs.fingerprint import job_fingerprint
from repro.program.mpexec import measure_speedup
from repro.program.uniexec import record_program
from repro.recorder import logfile
from repro.workloads import get_workload

from oracle import Oracle
from stats import TAIL_BEYOND, latency_summary, median
from tracer import Tracer, request_key

#: The paper's machine sizes, used wherever one prediction covers "the" CPUs.
PAPER_CPUS = (2, 4, 8)
#: Every trace is recorded with one worker thread per processor of the
#: largest machine, as SPLASH-2 programs are run.
THREADS = 8
#: Ground-truth protocol: one seeded jittered run per configuration (the
#: paper reports the median of five; one keeps the run inside the
#: benchmark's time budget, and the value stays deterministic per seed).
GT_RUNS = 1


class GuardError(RuntimeError):
    """A workload's mechanism did not fire: the run proves nothing."""


#: Every record carries its call's source file, an absolute path into the
#: checkout.  The checkout's prefix is cut from it, so a seed gives the
#: same log, byte for byte, wherever the benchmark runs.
_CHECKOUT_SRC = "src=" + urllib.parse.quote(
    str(Path(__file__).resolve().parent.parent), safe="/.") + "/"


def record(name: str, scale: float, seed: int, *, threads: int = THREADS) -> str:
    """The log text of a seeded run, with checkout-relative source paths."""
    program = get_workload(name).make_program(threads, scale, seed=seed)
    return logfile.dumps(record_program(program).trace).replace(_CHECKOUT_SRC, "src=")


def ground_truth_error(
    oracle: Oracle, cells: List[tuple], seed: int
) -> float:
    """Mean |predicted - ground truth| / ground truth over *cells*, in percent.

    *cells* holds ``(workload, scale, key, trace, cpus)``; the prediction
    is the reference one (equal to the program's answer once verified),
    the ground truth :func:`measure_speedup` on the same seeded program.
    """
    errors = []
    for name, scale, key, trace, cpus in cells:
        program = get_workload(name).make_program(THREADS, scale, seed=seed)
        truth = measure_speedup(program, cpus, runs=GT_RUNS, seed0=seed).speedup
        _, base_us, _ = oracle.baseline(key, trace)
        _, ms_us, _ = oracle.replay(key, trace, SimConfig(cpus=cpus))
        errors.append(abs(base_us / ms_us - truth) / truth)
    return 100.0 * statistics.mean(errors)


def fits(elapsed_s: float, seconds: float, last_s: float) -> bool:
    """Start another operation only if one more like the last ends in time.

    The first always starts.  Operations that take seconds each would
    otherwise overrun the measured time by up to one operation.
    """
    return last_s == 0.0 or elapsed_s + last_s <= seconds


class Workload:
    name = ""

    def __init__(self, seed: int, run_dir: Path) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.latencies_ms: List[float] = []
        self.cells = 0
        self.elapsed_s = 0.0
        self.extra: Dict[str, float] = {}

    def prime(self) -> None:
        """Untimed state the timed phase starts from (none by default)."""

    def predictions(self) -> int:
        """User prediction operations in the timed phase."""
        return len(self.latencies_ms)

    def workers(self) -> int:
        """Pool worker processes (0: the workload runs no pool)."""
        engine = getattr(self, "engine", None)
        return engine.workers if engine is not None else 0

    def timings(self) -> Dict[str, float]:
        """The measured time metrics, in host time."""
        summary = latency_summary("op", self.latencies_ms)
        self.extra.update(op_tail_pct=summary["op_tail_pct"], op_samples=summary["op_samples"])
        return {
            "op_p50_ms": summary["op_p50_ms"],
            "op_tail_ms": summary["op_tail_ms"],
            "ops_per_s": len(self.latencies_ms) / self.elapsed_s,
            "cells_per_s": self.cells / self.elapsed_s,
        }

    def teardown(self) -> None:
        pass


# ---------------------------------------------------------------------------
# cold-predict: the paper's one-shot use
# ---------------------------------------------------------------------------

_PREDICT_LINE = re.compile(
    r"^\s*(\d+) CPUs: predicted speed-up ([\d.]+) \(([\d.]+)s vs ([\d.]+)s on one\)$"
)


class ColdPredict(Workload):
    """``vppb predict <log> --cpus 2,4,8`` in-process over three logs, in turn."""

    name = "cold-predict"
    PROGRAMS = ("prodcons", "ocean", "lu")
    #: Whole rounds measured at least, past ``--seconds`` if need be.  The
    #: tail has ``TAIL_BEYOND`` samples beyond it; with fewer than
    #: ``2 * TAIL_BEYOND + 1`` predictions it falls below the median, and
    #: as the round count varies it jumps between the three logs' costs.
    MIN_ROUNDS = -(-(2 * TAIL_BEYOND + 1) // len(PROGRAMS))

    def setup(self) -> None:
        self.paths = []
        for name in self.PROGRAMS:
            path = self.run_dir / f"{name}.log"
            path.write_text(record(name, 1.0, self.seed))
            self.paths.append(path)

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> None:
        from repro.cli import main

        argv_tail = ["--cpus", ",".join(str(c) for c in PAPER_CPUS)]
        self.outputs = []
        round_s = 0.0
        # whole rounds only, so each log is sampled equally often
        while (len(self.outputs) < self.MIN_ROUNDS * len(self.paths)
               or fits(self.elapsed_s, seconds, round_s)):
            round_s = 0.0
            for path in self.paths:
                out = io.StringIO()
                gc.collect()  # each prediction starts from a clean heap, as a fresh process does
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(out):
                    rc = main(["predict", str(path)] + argv_tail)
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.op("op", t0, t1, log=path.stem)
                self.latencies_ms.append((t1 - t0) * 1e3)
                self.outputs.append((path, rc, out.getvalue()))
                round_s += t1 - t0
            self.elapsed_s += round_s
        self.cells = len(self.outputs) * len(PAPER_CPUS)
        for path in self.paths:
            self.extra[f"{path.stem}_p50_ms"] = median(
                [ms for (p, _, _), ms in zip(self.outputs, self.latencies_ms) if p == path])

    def verify(self, oracle: Oracle) -> None:
        expected = {}
        gt_cells = []
        for name, path in zip(self.PROGRAMS, self.paths):
            trace = logfile.load(path)
            key = trace.fingerprint()
            _, base_us, _ = oracle.baseline(key, trace)
            lines = [f"{trace.meta.program}: {len(trace)} events, "
                     f"{len(trace.thread_ids())} threads"]
            for cpus in PAPER_CPUS:
                _, ms_us, _ = oracle.replay(key, trace, SimConfig(cpus=cpus))
                speedup = base_us / ms_us
                oracle.bound(cpus, speedup, f"{path.name} @{cpus}")
                lines.append((cpus, f"{speedup:.2f}", f"{to_seconds(ms_us):.3f}",
                              f"{to_seconds(base_us):.3f}"))
                gt_cells.append((name, 1.0, key, trace, cpus))
            expected[path] = lines
        for path, rc, text in self.outputs:
            self.attempted += 1
            want = expected[path]
            got = text.splitlines()
            parsed = [_PREDICT_LINE.match(line) for line in got[1:]]
            ok = (
                rc == 0 and got and got[0] == want[0]
                and len(parsed) == len(want) - 1 and all(parsed)
                and [(int(m.group(1)),) + m.group(2, 3, 4) for m in parsed] == want[1:]
            )
            if not oracle.expect(bool(ok), f"{path.name}: output {text!r} != reference {want!r}"):
                self.failed += 1
        self.extra["rounds"] = len(self.outputs) / len(self.paths)
        self.gt_cells = gt_cells


# ---------------------------------------------------------------------------
# sweep-grid: run_manifest on a process pool
# ---------------------------------------------------------------------------

#: fft is scaled so its CFS cells (the event blow-up when threads
#: outnumber CPUs) cost under a second each, not the 15-18 s of scale 1.0.
FFT_SCALE = 0.05
SCHEDULERS = ("solaris", "cfs", "clutch")


class LedgerCache(ResultCache):
    """A memory-only ``ResultCache`` that also notes, per job fingerprint,
    the hits and the stores since :meth:`open_ledger`, so guards can tell
    which request's cells hit and which were replayed."""

    def __init__(self) -> None:
        super().__init__(None)
        self.open_ledger()

    def open_ledger(self) -> None:
        self.hits_by_key: collections.Counter = collections.Counter()
        self.stored: set = set()

    def get(self, fingerprint: str):
        outcome = super().get(fingerprint)
        if outcome is not None:
            self.hits_by_key[fingerprint] += 1
        return outcome

    def put(self, outcome) -> None:
        super().put(outcome)
        if outcome.ok:
            self.stored.add(outcome.fingerprint)


def start_engine(seed: int, cache: Optional[ResultCache] = None):
    """A 2-worker process pool with a memory-only cache, already forked."""
    from repro.jobs import JobEngine, SimJob

    engine = JobEngine(workers=2, mode="process",
                       cache=cache if cache is not None else ResultCache(None))
    # the first submit forks every worker; a tiny trace nobody else uses
    # keeps the measured traces out of the workers' plan caches
    tiny = logfile.loads(record("fft", 0.01, seed, threads=2))
    engine.run([SimJob.for_trace(tiny, SimConfig(cpus=2))], use_cache=False)
    return engine


class SweepGrid(Workload):
    """Two manifests through ``run_manifest`` on ``JobEngine(workers=2)``."""

    name = "sweep-grid"

    def setup(self) -> None:
        from repro.jobs.manifest import SweepManifest

        (self.run_dir / "prodcons.log").write_text(record("prodcons", 1.0, self.seed))
        (self.run_dir / "fft.log").write_text(record("fft", FFT_SCALE, self.seed))
        grids = {
            "prodcons": {"trace": "prodcons.log", "cpus": {"min": 1, "max": 8},
                         "bindings": ["unbound", "bound"], "schedulers": list(SCHEDULERS)},
            "fft": {"trace": "fft.log", "cpus": [1, 2, 4, 8],
                    "schedulers": list(SCHEDULERS)},
        }
        self.manifests = []
        for name, grid in grids.items():
            path = self.run_dir / f"{name}.json"
            path.write_text(json.dumps(grid))
            self.manifests.append(SweepManifest.load(path))
        self.engine = start_engine(self.seed)

    def teardown(self) -> None:
        self.engine.close()

    def predictions(self) -> int:
        return len(self.manifests) * len(self.latencies_ms)

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> None:
        from repro.jobs.manifest import run_manifest

        self.reports = []
        sweep_s = 0.0
        while fits(self.elapsed_s, seconds, sweep_s):
            self.engine.cache = ResultCache(None)  # every sweep starts cold
            gc.collect()
            t0 = time.perf_counter()
            reports = [run_manifest(m, self.engine) for m in self.manifests]
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.op("op", t0, t1)
            self.latencies_ms.append((t1 - t0) * 1e3)
            self.reports.append(reports)
            sweep_s = t1 - t0
            self.elapsed_s += sweep_s
        self.cells = sum(len(r.scenarios) for rs in self.reports for r in rs)

    def verify(self, oracle: Oracle) -> None:
        backends = set()
        gt_cells = []
        for manifest in self.manifests:
            trace = logfile.load(manifest.trace_path)
            key = trace.fingerprint()
            # warm the reference cache in grid order before any answer is read
            oracle.baseline(key, trace)
            if manifest.trace_path.stem == "prodcons":
                gt_cells += [("prodcons", 1.0, key, trace, c) for c in PAPER_CPUS]
            else:
                gt_cells += [("fft", FFT_SCALE, key, trace, c) for c in PAPER_CPUS]
        traces = {m.trace_path: logfile.load(m.trace_path) for m in self.manifests}
        for reports in self.reports:
            for manifest, report in zip(self.manifests, reports):
                trace = traces[manifest.trace_path]
                key = trace.fingerprint()
                _, base_us, _ = oracle.baseline(key, trace)
                expected_grid = {
                    (c, b, s) for c in manifest.cpus for b in manifest.bindings
                    for s in manifest.schedulers
                }
                got_grid = {(s.cpus, s.binding, s.scheduler) for s in report.scenarios}
                oracle.expect(got_grid == expected_grid,
                              f"{manifest.trace_path.name}: grid {sorted(got_grid)}")
                oracle.expect(report.baseline_us == base_us,
                              f"{manifest.trace_path.name}: baseline {report.baseline_us} != {base_us}")
                for s in report.scenarios:
                    self.attempted += 1
                    cfg = oracle.config(trace, cpus=s.cpus, binding=s.binding,
                                        scheduler=s.scheduler)
                    status, ms_us, events = oracle.replay(key, trace, cfg)
                    o = s.outcome
                    where = f"{manifest.trace_path.name} {s.label}"
                    ok = oracle.expect(
                        o.ok and (o.status, o.makespan_us, o.engine_events) == (status, ms_us, events)
                        and s.speedup == base_us / ms_us,
                        f"{where}: {o.status}/{o.makespan_us}/{o.engine_events}/{s.speedup} "
                        f"!= reference {status}/{ms_us}/{events}/{base_us / ms_us}",
                    )
                    ok = oracle.bound(s.cpus, s.speedup, where) and ok
                    if not ok:
                        self.failed += 1
                    elif o.ok:
                        backends.add(s.scheduler)
        if backends != set(SCHEDULERS):
            raise GuardError(f"sweep-grid answered only {sorted(backends)} backends")
        self.extra["sweeps"] = len(self.reports)
        self.gt_cells = gt_cells

    def check_plan_misses(self, tracer: Tracer) -> None:
        """Each pool worker compiled at least one plan during the timed phase."""
        pids = tracer.plan_miss_pids()
        if len(pids) < self.engine.workers:
            raise GuardError(
                f"plan-cache misses seen on {len(pids)} of {self.engine.workers} workers"
            )


# ---------------------------------------------------------------------------
# service-mix: the asyncio HTTP front end under a closed-loop mix
# ---------------------------------------------------------------------------

#: Request classes per deck of ten; each deck is shuffled by the seed.
CLASS_DECK = {"repeat": 4, "novel": 2, "auto": 2, "upload": 2}
#: The spooled scale-1.0 trace each predict class asks about: a ``repeat``
#: is a cache hit whose cost is the front end's re-parse of the large
#: prodcons log; ocean scales well, so ``auto`` can leave most cells to the
#: analytic tier (on prodcons' flat curve every cell is a contender and
#: all of them escalate).
SERVED = {"repeat": "prodcons", "novel": "ocean", "auto": "ocean"}
#: Configurations answered before the timed phase; ``repeat`` draws from them.
PRIMED = (
    {"binding": "unbound"},
    {"binding": "bound"},
    {"binding": "unbound", "comm_delay_us": 200},
)
#: Distinct seeded traces available to ``upload``; the sequence cycles
#: through them when a run uploads more.
UPLOAD_POOL = 8
UPLOAD_SCALE = 0.5
CONNECTIONS = 2
#: Requests per class the guards require, so every p50 rests on samples.
MIN_PER_CLASS = 4
#: The clients go on past the deadline until this many requests have been
#: sent: whole decks, enough for ``MIN_PER_CLASS`` of the rarest class.
MIN_REQUESTS = -(-MIN_PER_CLASS // min(CLASS_DECK.values())) * sum(CLASS_DECK.values())
#: The first requests of the seeded sequence, whose references go into
#: the sim digest whether or not a run got to them.
DIGEST_REQUESTS = 12


class ServiceMix(Workload):
    """``BackgroundServer`` + ``PredictionService`` + 2-worker engine, 2 clients."""

    name = "service-mix"

    def setup(self) -> None:
        from repro.jobs.service import PredictionService
        from repro.jobs.service_async import BackgroundServer

        self.served = {name: record(name, 1.0, self.seed)
                       for name in SERVED.values()}
        self.engine = start_engine(self.seed, LedgerCache())
        spool = self.run_dir / "spool"
        self.service = PredictionService(self.engine, spool_dir=spool)
        self.server = BackgroundServer(self.service)
        self.server.__enter__()

    def teardown(self) -> None:
        try:
            self.server.stop()
        finally:
            self.engine.close()

    def predictions(self) -> int:
        return sum(1 for answer in self.timed if answer[1] == "/predict")

    def _body(self, cls: str, body: Dict[str, Any]) -> Dict[str, Any]:
        return dict(body, trace=self.fps[SERVED[cls]])

    # -- the request sequence ----------------------------------------------

    def _sequence(self):
        """The seeded, endless request sequence: (class, path, body)."""
        rng = random.Random(f"service-mix-{self.seed}")
        fresh_delays = iter(rng.sample(range(1, 5000), 4000))
        uploads = 0
        while True:
            deck = [c for c, n in CLASS_DECK.items() for _ in range(n)]
            rng.shuffle(deck)
            for cls in deck:
                if cls == "upload":
                    text = self.uploads[uploads % len(self.uploads)]
                    uploads += 1
                    yield cls, "/traces", text
                    continue
                if cls == "repeat":
                    body = dict(PRIMED[rng.randrange(len(PRIMED))], cpus=list(PAPER_CPUS))
                elif cls == "novel":
                    body = {"cpus": list(PAPER_CPUS),
                            "binding": rng.choice(["unbound", "bound"]),
                            "lwps": rng.choice([None, 8, 16]),
                            "comm_delay_us": next(fresh_delays)}
                else:
                    body = {"cpus": list(range(1, 9)), "tier": "auto",
                            "binding": rng.choice(["unbound", "bound"]),
                            "comm_delay_us": next(fresh_delays)}
                yield cls, "/predict", self._body(cls, body)

    @staticmethod
    def _send(conn: HTTPConnection, path: str, body) -> tuple:
        raw = body.encode() if isinstance(body, str) else json.dumps(body).encode()
        conn.request("POST", path, body=raw,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = response.read()
        try:
            return response.status, json.loads(payload)
        except ValueError:
            return response.status, {"error": payload[:200].decode("latin-1")}

    def prime(self) -> None:
        """Generate the client's upload pool, upload the served trace and
        answer the configs ``repeat`` reuses."""
        self.uploads = [
            record("ocean", UPLOAD_SCALE, self.seed * 1000 + i)
            for i in range(UPLOAD_POOL)
        ]
        conn = HTTPConnection("127.0.0.1", self.server.port, timeout=120)
        try:
            self.fps = {}
            for name, text in self.served.items():
                status, reply = self._send(conn, "/traces", text)
                if status != 200:
                    raise GuardError(f"priming upload failed: {status} {reply}")
                self.fps[name] = reply["trace"]
            self.answers = []
            for cfg in PRIMED:
                body = self._body("repeat", dict(cfg, cpus=list(PAPER_CPUS)))
                status, reply = self._send(conn, "/predict", body)
                self.answers.append(("primed", "/predict", body, status, reply, 0.0))
        finally:
            conn.close()

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> None:
        sequence = self._sequence()
        lock = threading.Lock()
        timed: List[tuple] = []
        sent = 0
        self.engine.cache.open_ledger()
        start = time.perf_counter()
        deadline = start + seconds

        def client() -> None:
            nonlocal sent
            conn = HTTPConnection("127.0.0.1", self.server.port, timeout=120)
            try:
                while True:
                    with lock:
                        if time.perf_counter() >= deadline and sent >= MIN_REQUESTS:
                            break
                        sent += 1
                        cls, path, body = next(sequence)
                    t0 = time.perf_counter()
                    try:
                        status, reply = self._send(conn, path, body)
                    except (OSError, ValueError) as exc:
                        conn.close()
                        conn = HTTPConnection("127.0.0.1", self.server.port, timeout=120)
                        status, reply = 0, {"error": repr(exc)}
                    t1 = time.perf_counter()
                    if tracer is not None:
                        tracer.op("op", t0, t1, cls=cls,
                                  body=request_key(body) if path == "/predict" else None)
                    with lock:
                        timed.append((cls, path, body, status, reply, (t1 - t0) * 1e3))
            finally:
                conn.close()

        threads = [threading.Thread(target=client, name=f"client-{i}")
                   for i in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.elapsed_s = time.perf_counter() - start
        self.timed = timed
        self.answers += timed
        self.latencies_ms = [a[5] for a in timed]
        self.cells = sum(len(a[4].get("predictions", ())) for a in timed if a[3] == 200)
        self.ledger = self.engine.cache
        self.shed = self.server.server.gate.shed
        by_class: Dict[str, List[float]] = {}
        for cls, _, _, _, _, ms in timed:
            by_class.setdefault(cls, []).append(ms)
        self.by_class = by_class
        for cls in CLASS_DECK:
            self.extra[f"class.{cls}_p50_ms"] = median(by_class.get(cls, []))
            self.extra[f"class.{cls}_samples"] = len(by_class.get(cls, []))

    def verify(self, oracle: Oracle) -> None:
        from repro.analytic.models import estimate_makespan
        from repro.analytic.profile import load_default_profile
        from repro.analytic.stats import extract_stats

        profile = load_default_profile()
        served = {}  # fingerprint -> (trace, TraceStats)
        for name, text in self.served.items():
            trace = logfile.loads(text)
            oracle.expect(trace.fingerprint() == self.fps[name],
                          f"{name}: served fingerprint {self.fps[name]} != {trace.fingerprint()}")
            served[self.fps[name]] = (trace, extract_stats(trace))

        def base_config(body):
            trace = served[body["trace"]][0]
            return trace, oracle.config(
                trace, binding=body.get("binding", "unbound"), lwps=body.get("lwps"),
                comm_delay_us=body.get("comm_delay_us", 0),
            )

        # the digest covers a fixed, seeded prefix of the sequence
        sequence = self._sequence()
        for _ in range(DIGEST_REQUESTS):
            cls, path, body = next(sequence)
            if path == "/predict" and cls != "auto":
                trace, base = base_config(body)
                oracle.baseline(body["trace"], trace, base)
                for n in body["cpus"]:
                    oracle.replay(body["trace"], trace, base.with_cpus(n))

        uploads = {}
        cells = escalated = 0
        for cls, path, body, status, reply, _ in self.answers:
            self.attempted += 1
            where = f"{cls} {path}"
            if status != 200:
                oracle.fail(f"{where}: HTTP {status} {reply.get('error')}")
                self.failed += 1
                continue
            if path == "/traces":
                ref = uploads.get(body)
                if ref is None:
                    t = logfile.loads(body)
                    ref = uploads[body] = {
                        "trace": t.fingerprint(), "events": len(t),
                        "threads": len(t.thread_ids()), "program": t.meta.program,
                    }
                got = {k: reply.get(k) for k in ref}
                if not oracle.expect(got == ref and reply.get("salvage", {}).get("clean"),
                                     f"{where}: {got} != {ref}"):
                    self.failed += 1
                continue
            key = body["trace"]
            trace, base = base_config(body)
            _, base_us, _ = oracle.baseline(key, trace, base, digest=False)
            preds = reply.get("predictions", [])
            ok = [p["cpus"] for p in preds] == body["cpus"]
            for p in preds:
                cfg = base.with_cpus(p["cpus"])
                tier = p.get("tier", "sim")
                if tier == "analytic":
                    est = estimate_makespan(served[key][1], cfg, profile)
                    want = (est.point_us, [est.lo_us, est.hi_us])
                    got = (p["makespan_us"], p.get("interval"))
                else:
                    _, ms_us, _ = oracle.replay(key, trace, cfg, digest=False)
                    want, got = ms_us, p["makespan_us"]
                    escalated += tier == "escalated"
                cells += cls == "auto"
                ok = oracle.expect(
                    got == want and p["uniprocessor_us"] == base_us
                    and p["speedup"] == round(base_us / p["makespan_us"], 6),
                    f"{where} {body} @{p['cpus']}: {got}/{p['speedup']} != reference {want}",
                ) and ok
                ok = oracle.bound(p["cpus"], p["speedup"], f"{where} @{p['cpus']}") and ok
            if not ok:
                self.failed += 1

        counts = {cls: len(self.by_class.get(cls, [])) for cls in CLASS_DECK}
        short = {cls: n for cls, n in counts.items() if n < MIN_PER_CLASS}
        if short:
            raise GuardError(f"too few samples for a class p50: {short}")
        self._guard_cache_use(base_config)
        if not cells or escalated >= cells:
            raise GuardError(f"auto escalated {escalated} of {cells} cells")
        self.extra["admission.shed_count"] = self.shed
        self.extra["auto.escalated_cells"] = escalated
        self.extra["auto.cells"] = cells
        # the trace new predictions are made on; repeats only re-read answers
        ocean = self.fps[SERVED["novel"]]
        self.gt_cells = [(SERVED["novel"], 1.0, ocean, served[ocean][0], c)
                         for c in PAPER_CPUS]


    def _guard_cache_use(self, base_config) -> None:
        """Per request: every cell of a ``repeat`` (baseline and each CPU
        count) was a cache hit, every CPU cell of a ``novel`` was replayed.

        Only ``repeat`` asks about its trace, so the hits on its cells are
        its own; a ``novel`` draws a fresh ``comm_delay_us``, so its CPU
        cells are its own too (its baseline is shared, as the
        uniprocessor configuration drops the delay).
        """
        from repro.program.uniexec import uniprocessor_config

        ledger = self.ledger
        hits_needed: collections.Counter = collections.Counter()
        for cls, path, body, status, _, _ in self.timed:
            if path != "/predict" or status != 200 or cls not in ("repeat", "novel"):
                continue
            _, base = base_config(body)
            keys = [job_fingerprint(body["trace"], base.with_cpus(n)) for n in body["cpus"]]
            if cls == "repeat":
                keys.append(job_fingerprint(body["trace"], uniprocessor_config(base)))
                hits_needed.update(keys)
                replayed = [k for k in keys if k in ledger.stored]
                if replayed:
                    raise GuardError(f"repeat {body} replayed {len(replayed)} cells")
            else:
                missing = [k for k in keys if k not in ledger.stored]
                if missing:
                    raise GuardError(f"novel {body}: {len(missing)} cells were not replayed")
        short = {k[:12]: (ledger.hits_by_key[k], n) for k, n in hits_needed.items()
                 if ledger.hits_by_key[k] < n}
        if short:
            raise GuardError(f"repeat cells hit fewer times than asked (hits, asks): {short}")


WORKLOADS = {w.name: w for w in (ColdPredict, SweepGrid, ServiceMix)}
