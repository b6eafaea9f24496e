"""Trace-driven prediction: compile a recorded log into a replay plan.

This is the front half of the paper's Simulator (§3.2 and fig. 4):

1. "all events in the log file from the Recorder are sorted into a set of
   lists, one list for each thread";
2. each thread's list is turned into *(CPU burst, operation)* steps.  The
   burst before a call is the time the thread spent on the single LWP
   since it last returned from the library — on a one-LWP monitored run a
   thread holds the processor continuously between its return from one
   call and its entry into the next, so per-thread timestamp deltas *are*
   CPU demand;
3. the §3.2/§6 replay rules are applied:

   * a try-operation that succeeded in the log replays as the blocking
     variant; one that failed replays as a no-action record;
   * a ``cond_timedwait`` that timed out replays as a plain delay;
     otherwise it replays as an ordinary ``cond_wait``;
   * ``cond_broadcast`` carries the number of threads it released in the
     log, so the barrier heuristic can hold the broadcaster until the same
     number of waiters have arrived;
   * a wildcard ``thr_join`` stays a wildcard (and "may not be the one
     that exited in the log file").

The resulting :class:`~repro.core.simulator.ReplayPlan` can be simulated
under any hardware/scheduling configuration — that is the whole point of
the tool: one monitored run, any number of processors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import SimConfig
from repro.core.engine import Watchdog
from repro.core.errors import TraceError
from repro.core.events import EventRecord, Phase, Primitive, Status
from repro.core.ids import MAIN_THREAD_ID
from repro.core.result import SimulationResult
from repro.core.simulator import ReplayPlan, ReplayThreadMeta, Simulator
from repro.core.trace import Trace
from repro.program import ops as op_mod
from repro.program.behavior import Step

__all__ = [
    "compile_trace",
    "predict",
    "SpeedupPrediction",
    "predict_speedup",
    "sweep_speedup",
]


# ---------------------------------------------------------------------------
# broadcast release counts (§6 barrier heuristic support)
# ---------------------------------------------------------------------------


#: the records the broadcast heuristic reads; ``compile_trace`` collects
#: them in its one sweep of the log (a tuple: membership tests identity
#: first, where a set would call the enum's Python-level ``__hash__``)
_COND_PRIMITIVES = (
    Primitive.COND_WAIT, Primitive.COND_TIMEDWAIT, Primitive.COND_BROADCAST
)


def _broadcast_expected_counts(records: List[EventRecord]) -> Dict[int, int]:
    """For every ``cond_broadcast`` call record, the number of threads it
    released in the log.

    *records* are the log's condition-variable records in log order (any
    other records are ignored).  Swept twice: once for the final status
    of each wait, once maintaining the set of open condition waits per
    condition variable; waits that ultimately timed out are not counted
    (no broadcast released them).
    """
    # final status of each wait, keyed by the identity of its CALL record
    final_status: Dict[int, Status] = {}
    open_calls: Dict[Tuple[int, str], EventRecord] = {}
    for rec in records:
        if rec.primitive not in (Primitive.COND_WAIT, Primitive.COND_TIMEDWAIT):
            continue
        key = (int(rec.tid), rec.obj.name if rec.obj else "")
        if rec.phase is Phase.CALL:
            open_calls[key] = rec
        else:
            call = open_calls.pop(key, None)
            if call is not None:
                final_status[id(call)] = rec.status or Status.OK

    counts: Dict[int, int] = {}
    waiting: Dict[str, set] = {}
    for rec in records:
        obj_name = rec.obj.name if rec.obj else ""
        if rec.primitive in (Primitive.COND_WAIT, Primitive.COND_TIMEDWAIT):
            waiters = waiting.setdefault(obj_name, set())
            if rec.phase is Phase.CALL:
                if final_status.get(id(rec), Status.OK) is not Status.TIMEOUT:
                    waiters.add(int(rec.tid))
            else:
                waiters.discard(int(rec.tid))
        elif rec.primitive is Primitive.COND_BROADCAST and rec.phase is Phase.CALL:
            counts[id(rec)] = len(waiting.get(obj_name, ()))
    return counts


# ---------------------------------------------------------------------------
# per-thread op reconstruction
# ---------------------------------------------------------------------------


def _op_from_records(
    call: EventRecord,
    ret: Optional[EventRecord],
    broadcast_counts: Dict[int, int],
) -> Optional[op_mod.Op]:
    """Apply the §3.2 replay rules to one recorded call."""
    prim = call.primitive
    obj_name = call.obj.name if call.obj is not None else ""
    mutex_name = call.obj2.name if call.obj2 is not None else ""
    status = ret.status if ret is not None else None
    src = call.source

    if prim is Primitive.MUTEX_LOCK:
        return op_mod.MutexLock(obj_name, source=src)
    if prim is Primitive.MUTEX_UNLOCK:
        return op_mod.MutexUnlock(obj_name, source=src)
    if prim is Primitive.MUTEX_TRYLOCK:
        if status is Status.OK:
            # "If the thread gained access to the lock in the log file,
            # the simulation will do a mutex_lock" (§3.2)
            return op_mod.MutexLock(obj_name, source=src)
        return op_mod.Noop(prim, call.obj, busy=True, source=src)

    if prim is Primitive.SEMA_INIT:
        return op_mod.SemaInit(obj_name, call.arg or 0, source=src)
    if prim is Primitive.SEMA_WAIT:
        return op_mod.SemaWait(obj_name, source=src)
    if prim is Primitive.SEMA_POST:
        return op_mod.SemaPost(obj_name, source=src)
    if prim is Primitive.SEMA_TRYWAIT:
        if status is Status.OK:
            return op_mod.SemaWait(obj_name, source=src)
        return op_mod.Noop(prim, call.obj, busy=True, source=src)

    if prim is Primitive.COND_WAIT:
        return op_mod.CondWait(obj_name, mutex_name, source=src)
    if prim is Primitive.COND_TIMEDWAIT:
        timeout = call.arg if call.arg is not None else 0
        if status is Status.TIMEOUT:
            # "handled as a delay if the operation timed out in the log
            # file" (§3.2)
            return op_mod.CondTimedWait(
                obj_name, mutex_name, timeout_us=timeout, forced_timeout=True, source=src
            )
        # "... and as an ordinary cond_wait operation otherwise"
        return op_mod.CondWait(obj_name, mutex_name, source=src)
    if prim is Primitive.COND_SIGNAL:
        return op_mod.CondSignal(obj_name, source=src)
    if prim is Primitive.COND_BROADCAST:
        return op_mod.CondBroadcast(
            obj_name,
            expected_waiters=broadcast_counts.get(id(call), 0),
            source=src,
        )

    if prim is Primitive.RW_RDLOCK:
        return op_mod.RwRdLock(obj_name, source=src)
    if prim is Primitive.RW_WRLOCK:
        return op_mod.RwWrLock(obj_name, source=src)
    if prim is Primitive.RW_UNLOCK:
        return op_mod.RwUnlock(obj_name, source=src)
    if prim is Primitive.RW_TRYRDLOCK:
        if status is Status.OK:
            return op_mod.RwRdLock(obj_name, source=src)
        return op_mod.Noop(prim, call.obj, busy=True, source=src)
    if prim is Primitive.RW_TRYWRLOCK:
        if status is Status.OK:
            return op_mod.RwWrLock(obj_name, source=src)
        return op_mod.Noop(prim, call.obj, busy=True, source=src)

    if prim is Primitive.SHARED_READ:
        return op_mod.SharedRead(obj_name, source=src)
    if prim is Primitive.SHARED_WRITE:
        return op_mod.SharedWrite(obj_name, source=src)

    if prim is Primitive.IO_WAIT:
        # the §6 I/O extension: replay the recorded wait as itself
        duration = call.arg
        if duration is None and ret is not None:
            duration = max(0, ret.time_us - call.time_us)
        return op_mod.IoWait(duration or 0, source=src)

    if prim is Primitive.THR_CREATE:
        target = (ret.target if ret is not None else None) or call.target
        if target is None:
            raise TraceError(f"thr_create without created thread id: {call.brief()}")
        return op_mod.ThrCreate(
            replay_tid=int(target), bound=bool(call.arg), source=src
        )
    if prim is Primitive.THR_JOIN:
        target = call.target
        return op_mod.ThrJoin(int(target) if target is not None else None, source=src)
    if prim is Primitive.THR_EXIT:
        return op_mod.ThrExit(source=src)
    if prim is Primitive.THR_YIELD:
        return op_mod.ThrYield(source=src)
    if prim is Primitive.THR_SETPRIO:
        return op_mod.ThrSetPrio(call.arg or 0, source=src)
    if prim is Primitive.THR_SETCONCURRENCY:
        return op_mod.ThrSetConcurrency(call.arg or 1, source=src)

    raise TraceError(f"cannot replay primitive {prim}")


def _compile_thread(
    tid: int,
    records: List[EventRecord],
    broadcast_counts: Dict[int, int],
) -> List[Step]:
    """Turn one thread's event list into replay steps (burst attribution)."""
    steps: List[Step] = []
    prev_resume: Optional[int] = None
    saw_exit = False

    i = 0
    n = len(records)
    while i < n:
        rec = records[i]
        if rec.primitive in (Primitive.START_COLLECT, Primitive.THREAD_START):
            prev_resume = rec.time_us
            i += 1
            continue
        if rec.primitive is Primitive.END_COLLECT:
            i += 1
            continue
        if rec.phase is not Phase.CALL:
            raise TraceError(f"T{tid}: unexpected return record {rec.brief()}")
        call = rec
        ret: Optional[EventRecord] = None
        if call.primitive is not Primitive.THR_EXIT:
            if i + 1 >= n:
                raise TraceError(f"T{tid}: call without return at end: {call.brief()}")
            ret = records[i + 1]
            if ret.phase is not Phase.RET or ret.primitive is not call.primitive:
                raise TraceError(
                    f"T{tid}: mismatched records {call.brief()} / {ret.brief()}"
                )
            i += 2
        else:
            saw_exit = True
            i += 1

        if prev_resume is None:
            work = 0  # no start marker (foreign log): first burst unknown
        else:
            work = max(0, call.time_us - prev_resume)
        op = _op_from_records(call, ret, broadcast_counts)
        if op is not None:
            steps.append(Step(work, op))
        prev_resume = (ret.time_us if ret is not None else call.time_us)

    if not saw_exit:
        steps.append(Step(0, op_mod.ThrExit()))
    return steps


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def compile_trace(trace: Trace) -> ReplayPlan:
    """Compile a recorded trace into a replayable plan (fig. 4 stage).

    One sweep of the log sorts it into per-thread lists and collects the
    bound flags and the condition-variable records the broadcast
    heuristic needs.
    """
    per_thread: Dict[int, List[EventRecord]] = {}
    cond_records: List[EventRecord] = []
    bound_flags: Dict[int, bool] = {}
    thr_create, ret_phase = Primitive.THR_CREATE, Phase.RET
    for rec in trace:
        records = per_thread.get(rec.tid)
        if records is None:
            records = per_thread[rec.tid] = []
        records.append(rec)
        prim = rec.primitive
        if prim in _COND_PRIMITIVES:
            cond_records.append(rec)
        elif prim is thr_create and rec.phase is ret_phase:
            # the return record carries the created thread's id and the
            # bound flag (live creates don't know the id at call time)
            target = rec.target
            if target is not None:
                bound_flags[int(target)] = bool(rec.arg)
    if not per_thread:
        raise TraceError("empty trace")
    broadcast_counts = _broadcast_expected_counts(cond_records)

    steps: Dict[int, List[Step]] = {}
    meta: Dict[int, ReplayThreadMeta] = {}
    for tid, records in per_thread.items():
        tid = int(tid)
        steps[tid] = _compile_thread(tid, records, broadcast_counts)
        meta[tid] = ReplayThreadMeta(
            tid=tid,
            func_name=trace.function_of(tid),
            bound=bound_flags.get(tid, False),
        )
    if int(MAIN_THREAD_ID) not in steps:
        raise TraceError("trace has no events for the main thread (T1)")
    return ReplayPlan(steps=steps, meta=meta, program_name=trace.meta.program)


def predict(
    trace: Trace,
    config: SimConfig,
    *,
    plan: Optional[ReplayPlan] = None,
    max_events: int = 50_000_000,
    watchdog: Optional[Watchdog] = None,
    strict: bool = True,
) -> SimulationResult:
    """Simulate the traced program on the given machine (fig. 1 (g)).

    A pre-compiled *plan* can be supplied to amortise compilation across a
    processor sweep; note that a plan is consumed by a single simulation
    only when it shares mutable state — our plans are re-usable because
    :class:`~repro.program.behavior.ReplayBehavior` copies the step lists.

    With ``strict=False`` a deadlocked, livelocked, diverged or
    over-budget replay returns a *partial*
    :class:`~repro.core.result.SimulationResult` (``result.incomplete``
    true, diagnosis in ``result.incompleteness``) instead of raising;
    *watchdog* adds wall-clock/event budgets on top of *max_events*.
    """
    if plan is None:
        plan = compile_trace(trace)
    sim = Simulator(config, max_events=max_events, watchdog=watchdog, strict=strict)
    return sim.run_replay(plan)


@dataclass(frozen=True)
class SpeedupPrediction:
    """A predicted speed-up figure for one processor count."""

    cpus: int
    uniprocessor_us: int
    makespan_us: int

    @property
    def speedup(self) -> float:
        return self.uniprocessor_us / self.makespan_us if self.makespan_us else 0.0


def predict_speedup(
    trace: Trace,
    cpus: int,
    *,
    base_config: Optional[SimConfig] = None,
    plan: Optional[ReplayPlan] = None,
    baseline_us: Optional[int] = None,
) -> SpeedupPrediction:
    """Predicted speed-up of the traced program on *cpus* processors.

    The default baseline is the replayed uni-processor execution (1 CPU,
    1 LWP), which by construction reproduces the monitored run — "how
    much faster than the run we actually measured".  Pass ``baseline_us``
    to use a different denominator, e.g. the monitored runtime of the
    *sequential* (one-thread) version of the program, which is the
    convention SPLASH-2 speed-up figures use (the Table 1 harness does
    this).
    """
    return sweep_speedup(
        trace, [cpus], base_config=base_config, baseline_us=baseline_us, plan=plan
    )[0]


def sweep_speedup(
    trace: Trace,
    cpu_counts: List[int],
    *,
    base_config: Optional[SimConfig] = None,
    baseline_us: Optional[int] = None,
    plan: Optional[ReplayPlan] = None,
) -> List[SpeedupPrediction]:
    """Predict speed-ups for several machine sizes from one trace.

    The trace is compiled once (unless *plan* is given) and the
    uni-processor baseline replayed once for the whole sweep —
    :func:`~repro.program.uniexec.uniprocessor_config` drops the CPU
    count — so n machine sizes cost n + 1 replays.
    """
    from repro.program.uniexec import uniprocessor_config

    base = base_config or SimConfig()
    if plan is None:
        plan = compile_trace(trace)
    if baseline_us is None:
        baseline_us = predict(trace, uniprocessor_config(base), plan=plan).makespan_us
    return [
        SpeedupPrediction(
            cpus=n,
            uniprocessor_us=baseline_us,
            makespan_us=predict(trace, base.with_cpus(n), plan=plan).makespan_us,
        )
        for n in cpu_counts
    ]
