"""Functional warming: the single-line replay loop and the warm memo.

``Machine.functional_warm`` replays a sampled unit's warmup prefix
through the single-line L1/L2 paths, and a fresh machine asked to warm
the same prefix object under an equal config restores the memoized
:class:`~repro.sim.machine.WarmState` instead of replaying.  These tests
pin both halves against independent references.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.export import result_to_dict
from repro.harness.runner import JobRunner
from repro.harness.sampled import run_huge
from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.sim import machine as machine_module
from repro.tpcc import TPCCScale, generate_workload
from repro.trace.events import ParallelRegion, Rec, SerialSegment
from repro.trace import WorkloadTrace

MODES = (ExecutionMode.SEQUENTIAL, ExecutionMode.BASELINE)


def _trace(mode):
    return generate_workload(
        "new_order", tls_mode=mode != ExecutionMode.SEQUENTIAL,
        n_transactions=6, scale=TPCCScale.tiny(),
    ).trace


@pytest.fixture(scope="module")
def traces():
    return {mode: _trace(mode) for mode in MODES}


def _slice(trace, lo, hi):
    return WorkloadTrace(name=trace.name,
                         transactions=trace.transactions[lo:hi])


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    """Every test starts and ends with an empty warm memo."""
    monkeypatch.setattr(machine_module, "_WARM_MEMO", None)


def _reference_warm(machine, workload):
    """Warm through the general multi-line ``l2.load``/``l2.store`` API
    and ``lines_touched``; returns the line accesses replayed."""
    width = machine._region_width()
    l2 = machine.l2
    lines_touched = l2.geom.lines_touched
    line_accesses = 0
    for txn in workload.transactions:
        for segment in txn.segments:
            if isinstance(segment, SerialSegment):
                assignments = [(0, segment.records)]
            else:
                assert isinstance(segment, ParallelRegion)
                assignments = [
                    (i % width, e.records)
                    for i, e in enumerate(segment.epochs)
                ]
            for cpu_idx, records in assignments:
                cpu = machine.cpus[cpu_idx]
                for rec in records:
                    if rec[0] == Rec.LOAD:
                        for tag in lines_touched(rec[1], rec[2]):
                            line_accesses += 1
                            if not cpu.l1.access(tag):
                                cpu.l1.fill(tag, spec=False)
                        l2.load(rec[1], rec[2], -1, None, False)
                    elif rec[0] == Rec.STORE:
                        for tag in lines_touched(rec[1], rec[2]):
                            line_accesses += 1
                            if not cpu.l1.access(tag):
                                cpu.l1.fill(tag, spec=False)
                            for other in machine._other_l1s[cpu_idx]:
                                other.invalidate(tag)
                        l2.store(rec[1], rec[2], -1, None)
                    elif rec[0] == Rec.BRANCH:
                        cpu.pipeline.predictor.predict_and_update(
                            rec[1], rec[2]
                        )
    machine._warm_metrics = machine.metrics().snapshot()
    return line_accesses


@pytest.mark.parametrize("mode", MODES)
def test_warm_loop_matches_general_api_reference(traces, mode):
    config = MachineConfig.for_mode(mode)
    warm = _slice(traces[mode], 0, 4)
    fast = Machine(config)
    fast.functional_warm(warm)
    ref = Machine(config)
    line_accesses = _reference_warm(ref, warm)
    got, want = fast.warm_state(), ref.warm_state()
    assert got.l1s == want.l1s
    assert got.predictors == want.predictors
    assert got.l2[0] == want.l2[0], "L2 contents or LRU order differ"
    # L2 tallies count lines on the single-line paths and accesses on
    # the general ones (the slice holds line-crossing accesses); both
    # are subtracted from the run's counters, so only the sum matters.
    assert sum(got.l2[1:]) == line_accesses > sum(want.l2[1:])
    unequal = {
        name for (name, a), (_, b) in zip(got.metrics, want.metrics)
        if a != b
    }
    assert unequal <= {"l2.hits", "l2.misses"}


def _warm_then_run(config, warm, trace):
    machine = Machine(config)
    machine.functional_warm(warm)
    state = machine.warm_state()
    return state, machine.run(trace)


@pytest.mark.parametrize("mode", MODES)
def test_memo_restore_equals_direct_warm(traces, mode, monkeypatch):
    restores = []
    real_restore = Machine.restore_warm_state
    monkeypatch.setattr(
        Machine, "restore_warm_state",
        lambda self, state: (restores.append(state),
                             real_restore(self, state))[-1],
    )
    config = MachineConfig.for_mode(mode)
    warm = _slice(traces[mode], 0, 4)
    # Each run gets its own copy of the measured tail, so neither finds
    # the other's compilations attached to the segments (compile
    # telemetry is part of the export).
    direct_state, direct = _warm_then_run(
        config, warm, _slice(_trace(mode), 4, 6)
    )
    assert restores == []
    # An equal (not identical) config still hits the memo.
    again = MachineConfig.for_mode(mode)
    restored_state, restored = _warm_then_run(
        again, warm, _slice(_trace(mode), 4, 6)
    )
    assert len(restores) == 1
    assert restored_state == direct_state
    assert restored == direct
    assert (json.dumps(result_to_dict(restored), sort_keys=True)
            == json.dumps(result_to_dict(direct), sort_keys=True))


def test_other_config_rewarms(traces, monkeypatch):
    restores = []
    monkeypatch.setattr(
        Machine, "restore_warm_state",
        lambda self, state: restores.append(state),
    )
    warm = _slice(traces[ExecutionMode.BASELINE], 0, 3)
    baseline = MachineConfig.for_mode(ExecutionMode.BASELINE)
    Machine(baseline).functional_warm(warm)
    other = MachineConfig.for_mode(ExecutionMode.NO_SUBTHREAD)
    assert other != baseline
    Machine(other).functional_warm(warm)
    assert restores == []
    memo = machine_module._WARM_MEMO
    assert memo[0] is warm and memo[1] == other
    # A different trace object with equal content re-warms too.
    Machine(other).functional_warm(_slice(traces[ExecutionMode.BASELINE],
                                          0, 3))
    assert restores == []


def test_used_machine_neither_restores_nor_memoizes(traces):
    config = MachineConfig.for_mode(ExecutionMode.BASELINE)
    warm = _slice(traces[ExecutionMode.BASELINE], 0, 3)
    Machine(config).functional_warm(warm)
    memo = machine_module._WARM_MEMO
    used = Machine(config)
    used.run(_slice(traces[ExecutionMode.BASELINE], 3, 4))
    used.functional_warm(warm)
    assert machine_module._WARM_MEMO is memo
    with pytest.raises(RuntimeError):
        used.restore_warm_state(memo[2])


def test_snapshot_rejects_speculative_state(traces):
    config = MachineConfig.for_mode(ExecutionMode.BASELINE)
    warm = _slice(traces[ExecutionMode.BASELINE], 0, 2)
    with pytest.raises(RuntimeError):
        Machine(config).warm_state()  # never warmed

    spec_l1 = Machine(config)
    spec_l1.functional_warm(warm)
    spec_l1.warm_state()
    spec_l1.cpus[1].l1.fill(0x5000_0000, spec=True)
    with pytest.raises(RuntimeError, match="L1"):
        spec_l1.warm_state()

    spec_l2 = Machine(config)
    spec_l2.functional_warm(warm)
    spec_l2.l2.load(0x5000_0000, 4, 0, 3, True)
    with pytest.raises(RuntimeError, match="L2"):
        spec_l2.warm_state()


def test_run_huge_json_independent_of_jobs():
    exports = []
    for jobs in (1, 2):
        machine_module._WARM_MEMO = None
        result = run_huge(n_transactions=200, runner=JobRunner(jobs=jobs))
        exports.append(json.dumps(result_to_dict(result), sort_keys=True))
    assert exports[0] == exports[1]
