"""The correctness oracle: serial in-process references for every answer.

Every answer a workload receives is compared with a reference computed
here, in the benchmark process, by ``compile_trace`` and a serial
``predict`` on the same commit.  References are computed after the timed
phase, so they cost wall time but no measured time.

Two invariants ride along: every speed-up must be at most the CPU count,
and the ``sim_digest`` hashes every reference makespan and engine-event
count, so a change that only speeds the simulator up can show that it
simulates exactly what its parent did.

The speed-up bound has one known exception, tracked as ROADMAP item 1
(the uniprocessor anchor): on one CPU the 1-LWP baseline is charged
user-level thread switches that the multi-LWP replay gets free, so a
1-CPU cell can read a speed-up a hair above 1.  Such cells are counted
and printed as ``anchor_defect_cells`` as long as the excess stays within
``ANCHOR_TOLERANCE``; a larger 1-CPU excess, or any violation on two or
more CPUs, fails the run.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.core.config import SimConfig, ThreadPolicy
from repro.core.predictor import compile_trace, predict
from repro.program.uniexec import uniprocessor_config

#: (status, makespan_us, engine_events) of one reference replay
Replay = Tuple[str, int, int]

#: Largest 1-CPU speed-up excess over 1 accepted as the anchor defect.
ANCHOR_TOLERANCE = 0.001


def config_label(config: SimConfig) -> str:
    """The machine axes this benchmark varies; costs and dispatch stay default."""
    bound = sum(1 for p in config.thread_policies.values() if p.bound)
    return (f"cpus={config.cpus} lwps={config.lwps} comm={config.comm_delay_us} "
            f"bound={bound} sched={config.scheduler}")


class Oracle:
    """Reference replays, cached per (trace, config), plus the failure ledger."""

    def __init__(self) -> None:
        self._plans: Dict[str, object] = {}
        self._replays: Dict[Tuple[str, str], Replay] = {}
        self._digested: Dict[Tuple[str, str], Replay] = {}
        self.failures: List[str] = []
        self.anchor_defect_cells = 0
        self.anchor_max_excess = 0.0

    # -- references ------------------------------------------------------

    def plan(self, key: str, trace):
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = compile_trace(trace)
        return plan

    def replay(self, key: str, trace, config: SimConfig, *, digest: bool = True) -> Replay:
        """Serial reference replay of *trace* (cached under *key*) on *config*."""
        cache_key = (key, config_label(config))
        ref = self._replays.get(cache_key)
        if ref is None:
            result = predict(trace, config, plan=self.plan(key, trace), strict=False)
            ref = (result.status.value, result.makespan_us, result.engine_events)
            self._replays[cache_key] = ref
        if digest:
            self._digested[cache_key] = ref
        return ref

    def baseline(self, key: str, trace, base: Optional[SimConfig] = None,
                 *, digest: bool = True) -> Replay:
        return self.replay(key, trace, uniprocessor_config(base or SimConfig()),
                           digest=digest)

    @staticmethod
    def config(trace, *, cpus: int = 1, binding: str = "unbound", lwps=None,
               comm_delay_us: int = 0, scheduler: str = "solaris") -> SimConfig:
        policies = (
            {int(t): ThreadPolicy(bound=True) for t in trace.thread_ids()}
            if binding == "bound" else {}
        )
        return SimConfig(
            cpus=cpus, lwps=lwps, comm_delay_us=comm_delay_us,
            thread_policies=policies, scheduler=scheduler,
        )

    # -- checks ----------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(message)
        return ok

    def bound(self, cpus: int, speedup: Optional[float], where: str) -> bool:
        """Speed-up <= CPUs; a small 1-CPU excess is the known anchor defect."""
        if speedup is None or speedup <= cpus:
            return True
        if cpus == 1 and speedup - 1 <= ANCHOR_TOLERANCE:
            self.anchor_defect_cells += 1
            self.anchor_max_excess = max(self.anchor_max_excess, speedup - 1)
            return True
        self.fail(f"{where}: speed-up {speedup:.6f} exceeds {cpus} CPUs")
        return False

    def digest(self) -> str:
        """SHA-256 over every digested reference replay, in a stable order."""
        h = hashlib.sha256()
        for (key, config), (status, makespan, events) in sorted(self._digested.items()):
            h.update(f"{key}|{config}|{status}|{makespan}|{events}\n".encode())
        return h.hexdigest()[:16]

    @property
    def digested_replays(self) -> int:
        return len(self._digested)
