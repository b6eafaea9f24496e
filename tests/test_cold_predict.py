"""The one-shot prediction path does each piece of work once.

Pins the replay count of ``vppb predict`` and ``sweep_speedup`` (one
uni-processor baseline per sweep), and checks that each shared or fused
stage is bit-identical to its unshared form: the per-parse attribute
memo, the write-side source memo, the single-pass compile and the
Solaris dispatch early exit.
"""

from __future__ import annotations

import random

import pytest

from repro import SimConfig, record_program
from repro.cli import main
from repro.core.config import ThreadPolicy
from repro.core.events import Phase, Primitive
from repro.core.predictor import (
    _broadcast_expected_counts,
    compile_trace,
    sweep_speedup,
)
from repro.core.simulator import Simulator
from repro.faultinject import corrupt
from repro.program import ops as op
from repro.program.program import Program
from repro.recorder import logfile
from repro.recorder.salvage import salvage_loads
from repro.sched.solaris import SolarisBackend
from repro.solaris.dispatch import TS_LEVELS, DispatchEntry, DispatchTable
from repro.solaris.scheduler import Scheduler
from repro.workloads import get_workload

from tests.conftest import (
    make_barrier_program,
    make_fig2_program,
    make_mutex_program,
    make_prodcons_program,
)


def make_priority_program() -> Program:
    """Bound and unbound workers that re-prioritise themselves with
    ``thr_setprio`` while contending for one mutex."""

    def worker(ctx):
        for i in range(3):
            yield op.Compute(1_500 + 300 * i)
            yield op.ThrSetPrio(int(ctx.tid) % 4 + 3 * i)
            yield op.MutexLock("m")
            yield op.Compute(200)
            yield op.MutexUnlock("m")

    def main(ctx):
        tids = []
        for i in range(5):
            tids.append((yield op.ThrCreate(worker, bound=(i == 2))))
        for tid in tids:
            yield op.ThrJoin(tid)

    return Program("priorities", main)


FIXTURE_PROGRAMS = {
    "fig2": make_fig2_program,
    "barrier": make_barrier_program,
    "mutex": make_mutex_program,
    "prodcons": make_prodcons_program,
    "priorities": make_priority_program,
    "fft": lambda: get_workload("fft").make_program(4, 0.05, seed=1),
    "ocean": lambda: get_workload("ocean").make_program(4, 0.02, seed=1),
}


@pytest.fixture(scope="module")
def fixture_logs():
    return {
        name: logfile.dumps(record_program(make()).trace)
        for name, make in FIXTURE_PROGRAMS.items()
    }


@pytest.fixture
def replay_counter(monkeypatch):
    calls = []
    original = Simulator.run_replay

    def counting(self, plan, **kwargs):
        calls.append(self.config.cpus)
        return original(self, plan, **kwargs)

    monkeypatch.setattr(Simulator, "run_replay", counting)
    return calls


# ---------------------------------------------------------------------------
# one baseline replay per sweep
# ---------------------------------------------------------------------------


class TestReplayCount:
    def test_cli_predict_replays_baseline_once(self, tmp_path, fixture_logs,
                                               replay_counter, capsys):
        log = tmp_path / "prodcons.log"
        log.write_text(fixture_logs["prodcons"])
        assert main(["predict", str(log), "--cpus", "2,4,8"]) == 0
        assert sorted(replay_counter) == [1, 2, 4, 8]
        assert capsys.readouterr().out.count("predicted speed-up") == 3

    def test_cli_predict_reads_profile_once(self, tmp_path, fixture_logs,
                                            monkeypatch, capsys):
        from pathlib import Path

        from repro.calib import CalibrationProfile

        reads = []
        original = CalibrationProfile.load.__func__

        def counting(cls, path):
            reads.append(path)
            return original(cls, path)

        monkeypatch.setattr(CalibrationProfile, "load", classmethod(counting))
        log = tmp_path / "mutex.log"
        log.write_text(fixture_logs["mutex"])
        profile = Path(__file__).resolve().parent.parent / "profiles" / "default.json"
        argv = ["predict", str(log), "--cpus", "2,4,8", "--profile", str(profile)]
        assert main(argv) == 0
        assert len(reads) == 1

    def test_sweep_replays_n_plus_one(self, fixture_logs, replay_counter):
        trace = logfile.loads(fixture_logs["barrier"])
        preds = sweep_speedup(trace, [1, 2, 3, 4])
        assert len(replay_counter) == 5
        assert len({p.uniprocessor_us for p in preds}) == 1

    def test_sweep_with_given_baseline_skips_it(self, fixture_logs, replay_counter):
        trace = logfile.loads(fixture_logs["barrier"])
        preds = sweep_speedup(trace, [2, 4], baseline_us=1_000)
        assert replay_counter == [2, 4]
        assert [p.uniprocessor_us for p in preds] == [1_000, 1_000]


# ---------------------------------------------------------------------------
# memoised parse and dump
# ---------------------------------------------------------------------------


def _parse_unshared(text: str):
    """Every record parsed with a fresh memo: no decoded value is shared."""
    return [
        logfile._parse_record(line.strip(), lineno, {})
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.startswith("#")
    ]


class TestParseMemo:
    @pytest.mark.parametrize("name", sorted(FIXTURE_PROGRAMS))
    def test_memoised_parse_equals_unshared(self, fixture_logs, name):
        text = fixture_logs[name]
        assert list(logfile.loads(text)) == _parse_unshared(text)

    def test_decoded_values_are_shared(self, fixture_logs):
        trace = logfile.loads(fixture_logs["prodcons"])
        objs = [rec.obj for rec in trace if rec.obj is not None]
        sources = [rec.source for rec in trace if rec.source is not None]
        assert len({id(o) for o in objs}) == len(set(objs))
        assert len({id(s) for s in sources}) == len(set(sources))

    def test_memo_is_per_call(self, fixture_logs):
        text = fixture_logs["mutex"]
        first, second = (
            [rec.source for rec in logfile.loads(text) if rec.source is not None]
            for _ in range(2)
        )
        assert first == second
        assert all(a is not b for a, b in zip(first, second))

    @pytest.mark.parametrize("name", sorted(FIXTURE_PROGRAMS))
    def test_dump_round_trip(self, fixture_logs, name):
        text = fixture_logs[name]
        assert logfile.dumps(logfile.loads(text)) == text


def _damage_token(text: str, key: str, replacement: str, seed: int) -> tuple:
    """Replace the first *key* attribute of a seeded tenth of the records
    (at least 3) with *replacement*; returns the text and the damaged
    line count."""
    lines = text.splitlines(keepends=True)
    candidates = [
        i for i, line in enumerate(lines)
        if not line.startswith("#") and f" {key}=" in line
    ]
    rng = random.Random(seed)
    picked = rng.sample(candidates, max(3, len(candidates) // 10))
    for i in picked:
        fields = lines[i].split()
        j = next(k for k, f in enumerate(fields) if f.startswith(f"{key}="))
        fields[j] = replacement
        lines[i] = " ".join(fields) + "\n"
    return "".join(lines), len(picked)


class TestSalvageRepairsEveryDamagedToken:
    """A damaged token repeats across records; each must still be
    reported, since only successful decodes are memoised."""

    @pytest.mark.parametrize("key,bad", [
        ("src", "src=ex.c|notanint|main"),
        ("src", "src=broken"),
        ("obj", "obj=nokind"),
        ("obj", "obj=:nameonly"),
    ])
    def test_one_repair_per_damaged_record(self, fixture_logs, key, bad):
        damaged, count = _damage_token(fixture_logs["prodcons"], key, bad, seed=7)
        report = salvage_loads(damaged).report
        assert report.counts_by_kind().get("skipped-attribute") == count

    def test_faultinject_unknown_attribute(self, fixture_logs):
        text = fixture_logs["prodcons"]
        damaged = corrupt(text, "unknown-attribute", seed=3)
        count = damaged.count(" colour=red")
        assert count > 1
        report = salvage_loads(damaged).report
        assert report.counts_by_kind().get("skipped-attribute") == count


# ---------------------------------------------------------------------------
# single-pass compile
# ---------------------------------------------------------------------------


class TestSinglePassCompile:
    @pytest.mark.parametrize("name", sorted(FIXTURE_PROGRAMS))
    def test_one_sweep_matches_whole_log_passes(self, fixture_logs, name):
        trace = logfile.loads(fixture_logs[name])
        plan = compile_trace(trace)
        per_thread = trace.per_thread()
        assert sorted(plan.steps) == sorted(int(t) for t in per_thread)
        # every broadcast step carries the count the heuristic gives
        # when it sweeps the whole log, not just the collected records
        counts = _broadcast_expected_counts(list(trace))
        for tid, records in per_thread.items():
            want = [
                counts.get(id(r), 0)
                for r in records
                if r.primitive is Primitive.COND_BROADCAST and r.phase is Phase.CALL
            ]
            got = [
                s.op.expected_waiters
                for s in plan.steps[int(tid)]
                if type(s.op) is op.CondBroadcast
            ]
            assert got == want, tid
        if name in ("barrier", "fft", "ocean"):
            assert any(counts.values())
        bound = {
            int(r.target): bool(r.arg)
            for r in trace
            if r.primitive is Primitive.THR_CREATE and r.is_ret
        }
        if name == "priorities":
            assert any(bound.values())
        for tid, meta in plan.meta.items():
            assert meta.bound == bound.get(tid, False)


# ---------------------------------------------------------------------------
# Solaris dispatch early exit
# ---------------------------------------------------------------------------


GRID = [
    SimConfig(cpus=1),
    SimConfig(cpus=2),
    SimConfig(cpus=3, lwps=2),
    SimConfig(cpus=2, comm_delay_us=40),
    SimConfig(cpus=2, thread_policies={4: ThreadPolicy(bound=True)}),
    SimConfig(cpus=2, thread_policies={5: ThreadPolicy(cpu=1), 6: ThreadPolicy(cpu=0)}),
    SimConfig(cpus=2, thread_policies={5: ThreadPolicy(rt_priority=10)}),
    SimConfig(cpus=3, thread_policies={
        4: ThreadPolicy(priority=20), 6: ThreadPolicy(rt_priority=5, cpu=2),
    }),
]


class TestDispatchEarlyExit:
    def _replay_grid(self, plans):
        return {
            (name, i): Simulator(cfg).run_replay(plan)
            for name, plan in plans.items()
            for i, cfg in enumerate(GRID)
        }

    def test_grid_identical_without_early_exit(self, fixture_logs, monkeypatch):
        plans = {
            name: compile_trace(logfile.loads(text))
            for name, text in fixture_logs.items()
        }
        searches = []
        original = Scheduler._find_cpu_for

        def counting(self, lwp):
            searches.append(1)
            return original(self, lwp)

        monkeypatch.setattr(Scheduler, "_find_cpu_for", counting)
        early = self._replay_grid(plans)
        with_exit = len(searches)
        monkeypatch.setattr(SolarisBackend, "priority_monotone", False)
        searches.clear()
        full = self._replay_grid(plans)
        # the early exit engaged, or this compares the full scan with itself
        assert with_exit < len(searches)
        # both runs share GRID's config objects, so results compare whole
        for key, result in early.items():
            assert result == full[key], key

    def test_only_solaris_declares_it(self):
        from repro.sched import available_backends, create_backend

        declared = {n for n in available_backends() if create_backend(n).priority_monotone}
        assert declared == {"solaris"}


class TestDispatchTableColumns:
    def test_custom_table_clamps_out_of_range_levels(self):
        entries = [
            DispatchEntry(
                quantum_us=1_000 + level,
                tqexp=level // 2,
                slpret=min(TS_LEVELS - 1, level + 1),
                maxwait_us=2_000 + level,
                lwait=TS_LEVELS - 1 - level,
            )
            for level in range(TS_LEVELS)
        ]
        table = DispatchTable.custom(entries)
        lookups = (
            (table.quantum_us, "quantum_us"),
            (table.after_quantum_expiry, "tqexp"),
            (table.after_sleep, "slpret"),
            (table.maxwait_us, "maxwait_us"),
            (table.after_starvation, "lwait"),
        )
        for lookup, column in lookups:
            for level in range(TS_LEVELS):
                assert lookup(level) == getattr(entries[level], column)
            for low in (-1, -7, -TS_LEVELS, -1_000):
                assert lookup(low) == getattr(entries[0], column), (column, low)
            for high in (TS_LEVELS, TS_LEVELS + 5, 1_000):
                assert lookup(high) == getattr(entries[-1], column), (column, high)
