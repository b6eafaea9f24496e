"""The scheduler-backend contract: kernel policy behind a fixed interface.

The simulator's :class:`~repro.solaris.scheduler.Scheduler` is pure
*mechanism*: CPUs, the LWP pool, user-level multiplexing of unbound
threads, burst/quantum event arming, block/wake delivery and the
communication delay.  Everything that makes those decisions *Solaris*
decisions — which LWP runs next, who gets preempted, how long a time
slice is, how priorities age — lives in a :class:`SchedulerBackend`.

Swapping the backend answers the cross-OS what-if question: replay the
same recorded trace under a different kernel's dispatch policy.  The
contract (see ``docs/schedulers.md`` for the full semantics):

``thread_setrun(lwp, boost)``
    An LWP is entering the kernel run queue because its thread woke (or
    was just created).  ``boost`` is True for sleep/block returns.  The
    backend adjusts placement state (Solaris: *slpret* priority lift;
    CFS: sleeper-fairness vruntime placement).
``sched_tick(runnable, now)``
    Run-queue maintenance, called at the top of every dispatch pass
    over the current runnable list (Solaris: starvation lifts; Clutch:
    root-bucket deadline refresh).
``thread_select(runnable)``
    Order the runnable LWPs into dispatch preference, best first.  May
    sort in place; must return a total, deterministic order (ties by
    ``enqueue_seq`` — never by id() or wall clock).
``quantum_for(lwp)``
    The time slice to grant the LWP next time it runs.
``quantum_expire(lwp)``
    The LWP used up its slice while ONPROC: apply accounting (Solaris:
    *tqexp* demotion; CFS: vruntime charge).
``quantum_yield(lwp)``
    After expiry accounting: must the LWP surrender its CPU to a queued
    contender, or may it run another slice?
``find_victim(lwp, allowed)``
    No allowed CPU is idle: pick the CPU whose running LWP the
    candidate preempts, or None to keep the candidate queued.

Backends may additionally define ``on_dispatch(lwp)`` /
``on_deschedule(lwp)`` hooks (not present on the base class): the
mechanism calls them when an LWP goes on / comes off a processor, which
is where usage-driven policies (CFS vruntime, Clutch timeshare decay)
account CPU time.  A third optional hook, ``on_contention(runnable)``,
fires when a dispatch pass ends with runnable LWPs still queued (no
idle CPU, no preemption): tickless backends use it to collapse an
extended uncontended slice back to a real one via
:meth:`Scheduler.retick` — the NO_HZ re-arm.  The Solaris backend
defines none of the three, so the stock model pays no per-placement
overhead for them.

Ticking every short CFS/Clutch quantum on an *uncontended* processor
would flood the discrete-event queue with no-op expiries (charge,
re-arm, nothing to yield to).  Real kernels stopped doing this years
ago (Linux ``NO_HZ``, XNU's timer coalescing); backends model it by
returning :data:`TICKLESS_SLICE_US` from ``quantum_for`` when no
compatible contender is queued, and re-ticking from ``on_contention``
when one appears.

Determinism is part of the contract: a backend must be a pure function
of simulation state (integer arithmetic, insertion-ordered containers,
stable sorts).  The engine's replay determinism — and the content-
addressed result cache keyed on ``(trace, config, backend name+version)``
— depend on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.solaris.lwp import SimLwp
    from repro.solaris.scheduler import Scheduler, SimCpu

__all__ = [
    "SchedulerBackend",
    "TICKLESS_SLICE_US",
    "register_backend",
    "create_backend",
    "available_backends",
    "backend_version",
]

#: the "slice" granted by a tickless backend when no compatible
#: contender is queued (~18 simulated minutes — far beyond any burst,
#: so the timer is effectively parked).  ``on_contention`` re-ticks the
#: running LWP down to a real slice the moment a contender fails to
#: place, so the parked timer never delays a runnable thread.
TICKLESS_SLICE_US = 1 << 30


class SchedulerBackend:
    """Base class for kernel scheduling policies (see module docstring).

    Subclasses set ``name`` (the ``SimConfig.scheduler`` value) and
    ``version`` (bumped on any semantic change — it is baked into job
    fingerprints, so cached results under the old semantics stop being
    served).
    """

    #: registry key and the value of ``SimConfig.scheduler``
    name: str = ""
    #: semantic version, part of every job fingerprint
    version: int = 0
    #: True when ``thread_select`` orders candidates by one effective
    #: priority, best first, and ``find_victim`` only displaces a running
    #: LWP strictly below the candidate's priority.  A candidate free to
    #: run on any CPU that fails to place then proves every later one
    #: fails too, and the mechanism stops the dispatch pass there.
    priority_monotone: bool = False

    sched: "Scheduler"

    def bind(self, sched: "Scheduler") -> None:
        """Attach to the mechanism before the first dispatch."""
        self.sched = sched
        self.config = sched.config
        self.dispatch_table = sched.dispatch_table

    # -- policy hooks ---------------------------------------------------

    def thread_setrun(self, lwp: "SimLwp", boost: bool) -> None:
        raise NotImplementedError

    def sched_tick(self, runnable: "List[SimLwp]", now: int) -> None:
        """Run-queue maintenance; default: none."""

    def thread_select(self, runnable: "List[SimLwp]") -> "List[SimLwp]":
        raise NotImplementedError

    def quantum_for(self, lwp: "SimLwp") -> int:
        raise NotImplementedError

    def quantum_expire(self, lwp: "SimLwp") -> None:
        """Expiry accounting; default: none."""

    def quantum_yield(self, lwp: "SimLwp") -> bool:
        raise NotImplementedError

    def find_victim(
        self, lwp: "SimLwp", allowed: "List[SimCpu]"
    ) -> "Optional[SimCpu]":
        raise NotImplementedError


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Type[SchedulerBackend]] = {}


def register_backend(cls: Type[SchedulerBackend]) -> Type[SchedulerBackend]:
    """Class decorator adding a backend to the name registry."""
    if not cls.name:
        raise ValueError(f"backend {cls!r} has no name")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"scheduler backend {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def backend_version(name: str) -> int:
    """The fingerprint version of backend *name*."""
    return _lookup(name).version


def create_backend(name: str) -> SchedulerBackend:
    """Instantiate the backend registered under *name*."""
    return _lookup(name)()


def _lookup(name: str) -> Type[SchedulerBackend]:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_backends()) or "none registered"
        raise ValueError(
            f"unknown scheduler backend {name!r} (known: {known})"
        ) from None
