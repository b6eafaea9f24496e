"""The recorded-information container (the paper's "(d) recorded information").

A :class:`Trace` is the immutable product of a monitored uni-processor
execution: the time-ordered list of :class:`~repro.core.events.EventRecord`
plus metadata about the run (program name, thread start functions, the
recorder's probe overhead setting).  It is what the Simulator consumes and
what :mod:`repro.recorder.logfile` serialises.

The class also implements the Simulator's first processing stage shown in
the paper's fig. 4 — sorting the global log into one event list per thread —
and the log statistics reported in §4 (event counts, events per second,
serialised size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.errors import TraceError
from repro.core.events import EventRecord, Phase, Primitive, Status
from repro.core.ids import MAIN_THREAD_ID, ThreadId
from repro.core.timebase import US_PER_SECOND

__all__ = ["TraceMeta", "Trace", "TraceStats"]

_time_of = attrgetter("time_us")


@dataclass(frozen=True, slots=True)
class TraceMeta:
    """Metadata attached to a recorded trace.

    ``thread_functions`` maps each created thread to the name of the start
    routine passed to ``thr_create`` (the Recorder resolves the function
    pointer via the debugger, §3.1); the Visualizer shows it in popups.
    ``probe_overhead_us`` is the per-record intrusion the Recorder added to
    the monitored run, kept so experiments can report the §4 overhead.
    """

    program: str = "a.out"
    thread_functions: Mapping[int, str] = field(default_factory=dict)
    probe_overhead_us: int = 0
    comment: str = ""


@dataclass(frozen=True, slots=True)
class TraceStats:
    """Log statistics as reported in §4 of the paper."""

    n_events: int
    n_threads: int
    duration_us: int
    events_per_second: float
    serialized_bytes: int


class Trace:
    """A time-ordered, validated sequence of recorded events.

    Parameters
    ----------
    records:
        The event records.  They are sorted by ``(time_us, insertion
        order)``; ties keep recorder order, which is what a sequential
        uni-processor log guarantees.
    meta:
        Run metadata.
    validate:
        When true (default) structural invariants are checked eagerly so a
        malformed trace fails fast instead of corrupting a simulation.
    """

    def __init__(
        self,
        records: Iterable[EventRecord],
        meta: TraceMeta | None = None,
        *,
        validate: bool = True,
    ) -> None:
        recs = list(records)
        # stable, so ties keep insertion order; on already-ordered input
        # (every recorder-written log) timsort is one linear pass
        recs.sort(key=_time_of)
        self._records: Tuple[EventRecord, ...] = tuple(recs)
        self.meta = meta or TraceMeta()
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EventRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> EventRecord:
        return self._records[index]

    @property
    def records(self) -> Tuple[EventRecord, ...]:
        return self._records

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    def thread_ids(self) -> List[ThreadId]:
        """All thread ids appearing in the trace, in order of first event."""
        seen: Dict[ThreadId, None] = {}
        for rec in self._records:
            seen.setdefault(rec.tid, None)
            if rec.target is not None and rec.primitive is Primitive.THR_CREATE:
                seen.setdefault(rec.target, None)
        return list(seen)

    def per_thread(self) -> Dict[ThreadId, List[EventRecord]]:
        """Sort the global log into one event list per thread (paper fig. 4).

        This is the Simulator's first processing step: "all events in the
        log file from the Recorder are sorted into a set of lists, one list
        for each thread".
        """
        lists: Dict[ThreadId, List[EventRecord]] = {}
        for rec in self._records:
            lists.setdefault(rec.tid, []).append(rec)
        return lists

    def events_for(self, tid: ThreadId) -> List[EventRecord]:
        """Events generated by one thread, in time order."""
        return [rec for rec in self._records if rec.tid == tid]

    @property
    def start_us(self) -> int:
        return self._records[0].time_us if self._records else 0

    @property
    def end_us(self) -> int:
        return self._records[-1].time_us if self._records else 0

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us

    def function_of(self, tid: ThreadId) -> str:
        """Start-routine name for *tid* ("main" for the initial thread)."""
        if int(tid) == int(MAIN_THREAD_ID):
            return "main"
        return self.meta.thread_functions.get(int(tid), "")

    def fingerprint(self) -> str:
        """Stable content hash (hex SHA-256) of this trace.

        Hashes the canonical log-file serialisation, so the fingerprint
        is identical for the in-memory trace, the file on disk it was
        dumped to, and the trace loaded back from that file.  Computed
        once and memoised (the trace is immutable).  This is the
        trace half of a batch job's content address
        (:mod:`repro.jobs.fingerprint`).
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            from repro.jobs.fingerprint import trace_fingerprint

            cached = trace_fingerprint(self)
            self._fingerprint = cached
        return cached

    def stats(self, serialized_bytes: Optional[int] = None) -> TraceStats:
        """Compute the §4 log statistics.

        ``serialized_bytes`` may be supplied by the caller (e.g. the size of
        the log file on disk); otherwise the text serialisation is sized
        in memory.
        """
        if serialized_bytes is None:
            from repro.recorder.logfile import dumps

            serialized_bytes = len(dumps(self).encode())
        dur = self.duration_us
        eps = len(self._records) / (dur / US_PER_SECOND) if dur > 0 else 0.0
        return TraceStats(
            n_events=len(self._records),
            n_threads=len(self.thread_ids()),
            duration_us=dur,
            events_per_second=eps,
            serialized_bytes=serialized_bytes,
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        if not self._records:
            return
        self._check_monotone_per_thread()
        self._check_call_ret_pairing()
        self._check_creations()

    def _check_monotone_per_thread(self) -> None:
        last: Dict[ThreadId, int] = {}
        for rec in self._records:
            prev = last.get(rec.tid)
            if prev is not None and rec.time_us < prev:
                raise TraceError(
                    f"thread T{int(rec.tid)} time goes backwards: "
                    f"{prev} -> {rec.time_us}"
                )
            last[rec.tid] = rec.time_us

    def _check_call_ret_pairing(self) -> None:
        """Each thread's records must alternate call/ret for each primitive.

        ``thr_exit`` never returns (the probe's final action hands control
        to the real ``thr_exit``), and the recorder markers are single
        records, so both are exempt.
        """
        open_call: Dict[ThreadId, EventRecord] = {}
        for rec in self._records:
            if rec.is_marker:
                continue
            if rec.primitive is Primitive.THR_EXIT:
                if rec.tid in open_call:
                    raise TraceError(
                        f"T{int(rec.tid)} exits inside an open "
                        f"{open_call[rec.tid].primitive} call"
                    )
                continue
            if rec.phase is Phase.CALL:
                if rec.tid in open_call:
                    raise TraceError(
                        f"T{int(rec.tid)} nested call records: "
                        f"{open_call[rec.tid].brief()} then {rec.brief()}"
                    )
                open_call[rec.tid] = rec
            else:
                call = open_call.pop(rec.tid, None)
                if call is None:
                    raise TraceError(f"return without call: {rec.brief()}")
                if call.primitive is not rec.primitive:
                    raise TraceError(
                        f"mismatched call/ret: {call.brief()} vs {rec.brief()}"
                    )

    def _check_creations(self) -> None:
        """Every non-main thread with events must have a thr_create record."""
        created = {int(MAIN_THREAD_ID)}
        for rec in self._records:
            if rec.primitive is Primitive.THR_CREATE and rec.is_ret:
                if rec.target is None:
                    raise TraceError(f"thr_create ret without target: {rec.brief()}")
                created.add(int(rec.target))
        for rec in self._records:
            if int(rec.tid) not in created:
                raise TraceError(
                    f"thread T{int(rec.tid)} has events but no thr_create record"
                )

    # ------------------------------------------------------------------
    # misc helpers
    # ------------------------------------------------------------------

    def try_outcomes(self) -> Dict[Tuple[ThreadId, int], Status]:
        """Outcome of every try-operation, keyed by (thread, call index).

        Used by the replay rules of §3.2: if the thread gained access in
        the log the simulation performs the blocking variant, otherwise no
        action is taken.
        """
        from repro.core.events import TRY_PRIMITIVES

        outcomes: Dict[Tuple[ThreadId, int], Status] = {}
        counters: Dict[ThreadId, int] = {}
        for rec in self._records:
            if rec.primitive in TRY_PRIMITIVES and rec.is_ret:
                idx = counters.get(rec.tid, 0)
                outcomes[(rec.tid, idx)] = rec.status or Status.OK
                counters[rec.tid] = idx + 1
        return outcomes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(program={self.meta.program!r}, events={len(self)}, "
            f"threads={len(self.thread_ids())}, duration={self.duration_us}us)"
        )
