"""The Solaris 2.5 TS/RT dispatch policy as a scheduler backend (§3.2).

This is the policy half of the original two-level model, extracted
verbatim from the scheduler so the mechanism could host other kernels.
Its decisions are **bit-identical** to the pre-refactor scheduler — the
differential parity suite (``tests/test_replay_fastpath.py``,
``tests/test_sched_parity.py``) pins that:

* effective priority is the Solaris global priority ordering: every RT
  LWP outranks every TS LWP, fixed within its class;
* dispatch order is ``(-effective priority, enqueue_seq)`` — strict
  priority with FIFO among equals;
* TS LWPs age by the dispatch table: *tqexp* demotion on quantum
  expiry, *slpret* lift on sleep return, *maxwait/lwait* starvation
  lifts applied during dispatch; RT priorities never move;
* preemption displaces the lowest-priority running LWP strictly below
  the candidate (first-lowest in CPU order);
* on expiry the LWP yields only to an equal-or-higher priority queued
  contender that may run on its CPU, else it runs another slice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.sched.base import SchedulerBackend, register_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.solaris.lwp import SimLwp
    from repro.solaris.scheduler import SimCpu

__all__ = ["SolarisBackend"]


def _effective_priority(lwp: "SimLwp") -> int:
    """Global dispatch priority: every RT LWP outranks every TS LWP
    (the Solaris global priority ordering), fixed within its class."""
    return lwp.kernel_priority + (1_000 if lwp.rt else 0)


@register_backend
class SolarisBackend(SchedulerBackend):
    """Two-level Solaris 2.5 kernel dispatch (the paper's model)."""

    name = "solaris"
    version = 1
    # thread_select sorts by _effective_priority, find_victim displaces
    # only strictly below it
    priority_monotone = True

    def thread_setrun(self, lwp: "SimLwp", boost: bool) -> None:
        # sleep-return lift (slpret); RT priorities are fixed
        if boost and not lwp.rt:
            lwp.kernel_priority = self.dispatch_table.after_sleep(
                lwp.kernel_priority
            )

    def sched_tick(self, runnable: "List[SimLwp]", now: int) -> None:
        # starvation lifts (maxwait/lwait), applied while dispatching
        dispatch = self.dispatch_table
        for lwp in runnable:
            if lwp.rt:
                continue  # RT priorities are fixed, never lifted
            waited = now - lwp.runnable_since_us
            if waited > dispatch.maxwait_us(lwp.kernel_priority):
                lwp.kernel_priority = dispatch.after_starvation(
                    lwp.kernel_priority
                )
                lwp.runnable_since_us = now

    def thread_select(self, runnable: "List[SimLwp]") -> "List[SimLwp]":
        if len(runnable) > 1:
            runnable.sort(key=lambda l: (-_effective_priority(l), l.enqueue_seq))
        return runnable

    def quantum_for(self, lwp: "SimLwp") -> int:
        if lwp.rt:
            return self.config.rt_quantum_us
        return self.dispatch_table.quantum_us(lwp.kernel_priority)

    def quantum_expire(self, lwp: "SimLwp") -> None:
        if not lwp.rt:
            # TS aging; RT priorities are fixed (pure round-robin)
            lwp.kernel_priority = self.dispatch_table.after_quantum_expiry(
                lwp.kernel_priority
            )

    def quantum_yield(self, lwp: "SimLwp") -> bool:
        my_pri = _effective_priority(lwp)
        for other in self.sched._runnable.values():
            if _effective_priority(other) >= my_pri and (
                other.bound_cpu is None or other.bound_cpu == lwp.cpu
            ):
                return True
        return False

    def find_victim(
        self, lwp: "SimLwp", allowed: "List[SimCpu]"
    ) -> "Optional[SimCpu]":
        # displace the lowest-priority running LWP that is strictly
        # below us (RT outranks every TS LWP)
        victim_cpu: "Optional[SimCpu]" = None
        victim_pri = _effective_priority(lwp)
        for cpu in allowed:
            running = cpu.lwp
            assert running is not None
            if _effective_priority(running) < victim_pri:
                victim_pri = _effective_priority(running)
                victim_cpu = cpu
        return victim_cpu
