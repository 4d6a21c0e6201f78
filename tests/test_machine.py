"""Integration tests for the CMP machine on synthetic workloads."""

import dataclasses

import pytest

from repro.core.accounting import Category
from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.trace.events import (
    EpochTrace,
    Op,
    ParallelRegion,
    Rec,
    SerialSegment,
    TransactionTrace,
    WorkloadTrace,
)

A = 0x1000_0000
B = 0x1000_0100
PC = 0x40_0000


def workload(segments, name="w"):
    txn = TransactionTrace(name="t", segments=segments)
    return WorkloadTrace(name=name, transactions=[txn])


def region(*epoch_records):
    return ParallelRegion(
        epochs=[
            EpochTrace(epoch_id=i, records=list(recs))
            for i, recs in enumerate(epoch_records)
        ]
    )


def run(wl, mode=ExecutionMode.BASELINE, **tls):
    cfg = MachineConfig.for_mode(mode)
    if tls:
        cfg = cfg.with_tls(**tls)
    machine = Machine(cfg)
    return machine.run(wl), machine


class TestBasics:
    def test_serial_only_runs_on_cpu0(self):
        wl = workload([SerialSegment(records=[(Rec.COMPUTE, 4000)])])
        stats, _ = run(wl)
        assert stats.per_cpu[0].get(Category.BUSY) > 0
        for cpu in stats.per_cpu[1:]:
            assert cpu.get(Category.BUSY) == 0
            assert cpu.get(Category.IDLE) == stats.total_cycles

    def test_compute_timing_matches_issue_width(self):
        wl = workload([SerialSegment(records=[(Rec.COMPUTE, 4000)])])
        stats, _ = run(wl)
        assert stats.total_cycles == pytest.approx(1000, abs=2)

    def test_independent_epochs_overlap(self):
        recs = [(Rec.COMPUTE, 4000)]
        wl = workload([region(recs, recs, recs, recs)])
        stats, _ = run(wl)
        # 4 epochs of ~1000 cycles on 4 CPUs: near-perfect overlap
        # (plus spawn stagger).
        assert stats.total_cycles < 1500
        assert stats.epochs_committed == 4

    def test_more_epochs_than_cpus(self):
        recs = [(Rec.COMPUTE, 400)]
        wl = workload([region(*[recs] * 10)])
        stats, _ = run(wl)
        assert stats.epochs_committed == 10

    def test_op_and_branch_records(self):
        recs = [
            (Rec.OP, Op.INT_DIV, 2),
            (Rec.BRANCH, PC, True),
            (Rec.COMPUTE, 10),
        ]
        wl = workload([SerialSegment(records=recs)])
        stats, _ = run(wl)
        assert stats.total_cycles > 70  # the divides dominate
        assert stats.instructions_retired == 13

    def test_determinism(self):
        recs0 = [(Rec.COMPUTE, 1000), (Rec.STORE, A, 4, PC)]
        recs1 = [(Rec.LOAD, A, 4, PC), (Rec.COMPUTE, 2000)]
        wl = workload([region(recs0, recs1)])
        c1, _ = run(wl)
        c2, _ = run(wl)
        assert c1.total_cycles == c2.total_cycles
        assert c1.primary_violations == c2.primary_violations

    def test_accounting_identity(self):
        recs = [(Rec.COMPUTE, 500), (Rec.LOAD, A, 4, PC)]
        wl = workload([region(recs, recs, recs)])
        stats, _ = run(wl)
        for counters in stats.per_cpu:
            assert counters.total() == pytest.approx(
                stats.total_cycles, rel=1e-9
            )


class TestViolations:
    def make_dependent(self, early_work=100, late_work=3000):
        e0 = [(Rec.COMPUTE, 4000), (Rec.STORE, A, 4, PC)]
        e1 = [
            (Rec.COMPUTE, early_work),
            (Rec.LOAD, A, 4, PC + 16),
            (Rec.COMPUTE, late_work),
        ]
        return workload([region(e0, e1)])

    def test_dependence_detected_and_failed_counted(self):
        stats, _ = run(self.make_dependent())
        assert stats.primary_violations == 1
        assert stats.breakdown().get(Category.FAILED) > 0

    def test_no_speculation_ignores_dependences(self):
        stats, _ = run(self.make_dependent(), ExecutionMode.NO_SPECULATION)
        assert stats.primary_violations == 0
        assert stats.breakdown().get(Category.FAILED) == 0

    def test_subthreads_cut_failed_cycles(self):
        wl = self.make_dependent(early_work=3000, late_work=2000)
        nosub, _ = run(wl, ExecutionMode.NO_SUBTHREAD)
        sub, _ = run(wl, ExecutionMode.BASELINE)
        assert (
            sub.breakdown().get(Category.FAILED)
            < nosub.breakdown().get(Category.FAILED)
        )
        assert sub.total_cycles <= nosub.total_cycles

    def test_forwarded_value_prevents_violation(self):
        # Store happens before the dependent load (in time): no violation.
        e0 = [(Rec.STORE, A, 4, PC), (Rec.COMPUTE, 4000)]
        e1 = [(Rec.COMPUTE, 2000), (Rec.LOAD, A, 4, PC + 16)]
        stats, _ = run(workload([region(e0, e1)]))
        assert stats.primary_violations == 0

    def test_write_after_read_within_epoch_ok(self):
        e0 = [(Rec.COMPUTE, 100)]
        e1 = [
            (Rec.STORE, A, 4, PC),
            (Rec.LOAD, A, 4, PC + 16),
            (Rec.COMPUTE, 100),
        ]
        stats, _ = run(workload([region(e0, e1)]))
        assert stats.primary_violations == 0

    def test_secondary_violation_restarts_later_epoch(self):
        e0 = [(Rec.COMPUTE, 4000), (Rec.STORE, A, 4, PC)]
        e1 = [(Rec.COMPUTE, 100), (Rec.LOAD, A, 4, PC), (Rec.COMPUTE, 3000)]
        e2 = [(Rec.COMPUTE, 3000)]
        stats, _ = run(workload([region(e0, e1, e2)]))
        assert stats.primary_violations == 1
        assert stats.secondary_violations >= 1

    def test_epoch_result_correct_commit_count_after_violations(self):
        wl = self.make_dependent()
        stats, _ = run(wl)
        assert stats.epochs_committed == 2


class TestLatches:
    def latch_region(self, hold=2000):
        e0 = [
            (Rec.LATCH_ACQ, 7, PC),
            (Rec.COMPUTE, hold),
            (Rec.LATCH_REL, 7),
            (Rec.COMPUTE, 100),
        ]
        e1 = [
            (Rec.COMPUTE, 10),
            (Rec.LATCH_ACQ, 7, PC),
            (Rec.COMPUTE, hold),
            (Rec.LATCH_REL, 7),
        ]
        return workload([region(e0, e1)])

    def test_contended_latch_counts_sync(self):
        stats, _ = run(self.latch_region())
        assert stats.breakdown().get(Category.SYNC) > 0

    def test_latch_serializes_critical_sections(self):
        stats, _ = run(self.latch_region(hold=2000))
        # Two 500-cycle critical sections cannot overlap.
        assert stats.total_cycles >= 1000

    def test_uncontended_latches_cheap(self):
        e0 = [(Rec.LATCH_ACQ, 1, PC), (Rec.COMPUTE, 100),
              (Rec.LATCH_REL, 1)]
        e1 = [(Rec.LATCH_ACQ, 2, PC), (Rec.COMPUTE, 100),
              (Rec.LATCH_REL, 2)]
        stats, _ = run(workload([region(e0, e1)]))
        assert stats.breakdown().get(Category.SYNC) == 0

    def test_rewound_holder_releases_latch(self):
        # Epoch 1 takes the latch then gets violated; epoch 2 is waiting
        # on the latch and must be woken by the compensation release.
        e0 = [(Rec.COMPUTE, 4000), (Rec.STORE, A, 4, PC),
              (Rec.COMPUTE, 10)]
        e1 = [
            (Rec.COMPUTE, 10),
            (Rec.LOAD, A, 4, PC + 16),
            (Rec.LATCH_ACQ, 7, PC),
            (Rec.COMPUTE, 8000),
            (Rec.LATCH_REL, 7),
        ]
        e2 = [
            (Rec.COMPUTE, 10),
            (Rec.LATCH_ACQ, 7, PC),
            (Rec.COMPUTE, 10),
            (Rec.LATCH_REL, 7),
        ]
        stats, machine = run(workload([region(e0, e1, e2)]))
        assert stats.epochs_committed == 3
        assert stats.primary_violations >= 1

    def test_balanced_workload_leaves_no_held_latches(self):
        stats, machine = run(self.latch_region())
        for latch_id, state in machine.latches._latches.items():
            assert state.holder is None
            assert state.waiters == []


class TestModes:
    def test_tls_seq_serializes_epochs(self):
        recs = [(Rec.COMPUTE, 4000)]
        wl = workload([region(recs, recs, recs, recs)])
        stats, _ = run(wl, ExecutionMode.TLS_SEQ)
        # Sequentialized: ~4000 cycles total, one CPU busy.
        assert stats.total_cycles >= 4000
        assert stats.per_cpu[1].get(Category.BUSY) == 0

    def test_mode_configs(self):
        cfg = MachineConfig.for_mode(ExecutionMode.NO_SUBTHREAD)
        assert cfg.tls.max_subthreads == 1
        cfg = MachineConfig.for_mode(ExecutionMode.NO_SPECULATION)
        assert not cfg.speculation_enabled
        cfg = MachineConfig.for_mode(ExecutionMode.TLS_SEQ)
        assert cfg.region_cpus == 1
        with pytest.raises(ValueError):
            MachineConfig.for_mode("bogus")

    def test_tls_overhead_category(self):
        recs = [(Rec.TLS_OVERHEAD, 400), (Rec.COMPUTE, 100)]
        wl = workload([region(recs)])
        stats, _ = run(wl)
        assert stats.breakdown().get(Category.OVERHEAD) > 0


class TestMemoryBehaviour:
    def test_l1_misses_cost_time(self):
        # Strided loads over a large footprint: every load misses.
        far = [(Rec.LOAD, A + 64 * i, 4, PC) for i in range(64)]
        near = [(Rec.LOAD, A, 4, PC) for _ in range(64)]
        wl_far = workload([SerialSegment(records=far)])
        wl_near = workload([SerialSegment(records=near)])
        far_stats, _ = run(wl_far)
        near_stats, _ = run(wl_near)
        assert far_stats.total_cycles > near_stats.total_cycles
        assert far_stats.breakdown().get(Category.MISS) > 0

    def test_coherence_invalidation_on_remote_store(self):
        # Epoch 0 stores to a line epoch 1 keeps re-reading; epoch 1's L1
        # copy must be invalidated (extra misses), not stale-hit forever.
        e0 = [(Rec.COMPUTE, 400), (Rec.STORE, A, 4, PC)]
        e1 = [(Rec.LOAD, A, 4, PC)] * 3 + [(Rec.COMPUTE, 4000)] + [
            (Rec.LOAD, A, 4, PC)
        ]
        stats, machine = run(
            workload([region(e0, e1)]), ExecutionMode.NO_SPECULATION
        )
        assert stats.l1_misses >= 2

    def test_multi_line_access_touches_both_lines(self):
        recs = [(Rec.LOAD, A + 30, 8, PC)]  # straddles two 32B lines
        wl = workload([SerialSegment(records=recs)])
        stats, machine = run(wl)
        assert machine.cpus[0].l1.misses == 2


class TestRegionScheduling:
    def test_multiple_regions_sequence(self):
        r1 = region([(Rec.COMPUTE, 400)], [(Rec.COMPUTE, 400)])
        s = SerialSegment(records=[(Rec.COMPUTE, 400)])
        r2 = region([(Rec.COMPUTE, 400)])
        stats, _ = run(workload([r1, s, r2]))
        assert stats.epochs_committed == 4  # 3 epochs + serial pseudo-epoch

    def test_empty_region_is_noop(self):
        stats, _ = run(workload([ParallelRegion(epochs=[])]))
        assert stats.total_cycles == 0

    def test_multiple_transactions(self):
        wl = WorkloadTrace(
            name="w",
            transactions=[
                TransactionTrace(
                    name="t1",
                    segments=[SerialSegment(records=[(Rec.COMPUTE, 100)])],
                ),
                TransactionTrace(
                    name="t2",
                    segments=[SerialSegment(records=[(Rec.COMPUTE, 100)])],
                ),
            ],
        )
        stats, _ = run(wl)
        assert stats.total_cycles == pytest.approx(50, abs=2)


class TestFailedInstructionReplays:
    """``failed_instruction_replays``: instructions retired by the
    sub-threads a rewind discards, which must execute again."""

    def one_violation(self):
        # e1 loads A at its instruction 600 and finishes long before
        # e0's store (~10k cycles in), so the store rewinds e1 to the
        # sub-thread holding the load: with spacing 250 that is
        # sub-thread 2, which starts at instruction 500.  Sub-threads
        # 2..4 retired 1001 - 500 = 501 instructions.
        e0 = [(Rec.COMPUTE, 40000), (Rec.STORE, A, 4, PC)]
        e1 = [
            (Rec.COMPUTE, 600),
            (Rec.LOAD, A, 4, PC + 16),
            (Rec.COMPUTE, 400),
        ]
        return workload([region(e0, e1)])

    @pytest.mark.parametrize("compile_traces", [True, False])
    def test_hand_counted_rewind(self, compile_traces):
        cfg = dataclasses.replace(
            MachineConfig.for_mode(ExecutionMode.BASELINE),
            compile_traces=compile_traces,
        )
        stats = Machine(cfg).run(self.one_violation())
        assert stats.primary_violations == 1
        assert stats.secondary_violations == 0
        assert stats.failed_instruction_replays == 501

    def test_no_subthread_rewinds_whole_epoch(self):
        stats, _ = run(self.one_violation(), ExecutionMode.NO_SUBTHREAD)
        assert stats.primary_violations == 1
        assert stats.failed_instruction_replays == 1001

    @pytest.fixture(scope="class")
    def figure5_tiny(self):
        from repro.tpcc import BENCHMARKS
        from repro.harness.runner import ExperimentContext, SimJob
        from repro.tpcc import TPCCScale

        ctx = ExperimentContext(n_transactions=2, scale=TPCCScale.tiny())
        jobs = [
            SimJob(config=MachineConfig.for_mode(mode),
                   spec=ctx.spec(benchmark, mode=mode))
            for benchmark in BENCHMARKS
            for mode in ExecutionMode.ALL
        ]
        return ctx, jobs, ctx.run(jobs)

    def test_figure5_tiny_jobs(self, figure5_tiny):
        _, jobs, results = figure5_tiny
        violated = 0
        for job, stats in zip(jobs, results):
            if job.config.mode_label in (ExecutionMode.SEQUENTIAL,
                                         ExecutionMode.NO_SPECULATION):
                assert stats.failed_instruction_replays == 0
            if stats.primary_violations > 0:
                violated += 1
                assert stats.failed_instruction_replays > 0
        assert violated > 0

    def test_compiled_and_interpreted_agree(self, figure5_tiny):
        ctx, jobs, results = figure5_tiny
        for job, stats in zip(jobs, results):
            if job.config.mode_label not in (ExecutionMode.BASELINE,
                                             ExecutionMode.NO_SUBTHREAD):
                continue
            cfg = dataclasses.replace(job.config, compile_traces=False)
            interpreted = Machine(cfg).run(ctx.runner.trace_for(job.spec))
            assert (interpreted.failed_instruction_replays
                    == stats.failed_instruction_replays)
