"""The three benchmark workloads: which harness sweep each runs, on
which inputs, and how its jobs are recorded for the output checks.

Imported only inside a child process (``child.py``), after ``src`` is on
``sys.path``.  Every input is pinned here so that one workload always
dispatches the same jobs:

* TPC-C seed 42, default ``TPCCScale``, 4 transactions per benchmark
  (the harness defaults behind ``results/figure5.json``);
* ``huge_sampled``: ``run_huge`` with its default ``SamplerConfig``
  (rate 0.01, warmup 4, functional window 16, sampler seed 0) on
  ``HUGE_TRANSACTIONS`` standard-mix transactions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.harness.figure5 import run_figure5
from repro.harness.figure6 import figure6_jobs, run_figure6
from repro.harness.runner import ExperimentContext, JobRunner, SimJob
from repro.harness.sampled import run_huge
from repro.harness.tracecache import spec_key
from repro.sim import ExecutionMode, MachineConfig, SimulationStats
from repro.tpcc import BENCHMARKS

#: TPC-C generator seed of every workload (the harness default).
TPCC_SEED = 42

#: Standard-mix transactions of the huge_sampled workload (sized so one
#: sweep takes about 14 s on the README's host).
HUGE_TRANSACTIONS = 700

#: Jobs each sweep dispatches, all distinct (no memo or store hits).
EXPECTED_JOBS = {"figure5": 35, "figure6": 65, "huge_sampled": None}

#: Artifact name the harness CLI gives each sweep's result.
ARTIFACTS = {"figure5": "figure5", "figure6": "figure6",
             "huge_sampled": "huge"}


@dataclass
class RecordingRunner(JobRunner):
    """A serial ``JobRunner`` that keeps every dispatched job with its
    stats, so the checks can see per-job results the sweeps fold away."""

    log: List[Tuple[SimJob, SimulationStats]] = field(
        default_factory=list, repr=False, compare=False
    )

    def run(self, sim_jobs):
        sim_jobs = list(sim_jobs)
        results = super().run(sim_jobs)
        self.log.extend(zip(sim_jobs, results))
        return results


def make_context(cache_dir: Optional[str]) -> ExperimentContext:
    runner = RecordingRunner(jobs=1, trace_cache=cache_dir)
    return ExperimentContext(seed=TPCC_SEED, runner=runner)


def planned_specs(workload: str, ctx: ExperimentContext) -> list:
    """The trace specs a sweep replays, loaded before it is timed.

    ``huge_sampled`` generates its own muted traces inside the sweep and
    uses no trace cache, so it has none."""
    if workload == "figure5":
        specs = [ctx.spec(b, mode=m)
                 for b in BENCHMARKS for m in ExecutionMode.ALL]
    elif workload == "figure6":
        specs = [job.spec for job in figure6_jobs(ctx)]
    else:
        return []
    return list({spec_key(s): s for s in specs}.values())


def run_sweep(workload: str, ctx: ExperimentContext):
    if workload == "figure5":
        return run_figure5(ctx)
    if workload == "figure6":
        return run_figure6(ctx)
    return run_huge(n_transactions=HUGE_TRANSACTIONS, seed=TPCC_SEED,
                    runner=ctx.runner)


def is_speculative(config: MachineConfig) -> bool:
    width = config.region_cpus or config.n_cpus
    return config.speculation_enabled and width > 1


def job_record(job: SimJob, stats: SimulationStats) -> Dict[str, object]:
    """Plain-data view of one job: its identity and every architectural
    statistic the checks read (two records are equal exactly when the
    two runs agree on them)."""
    config = job.config
    if config.mode_label is not None:
        mode = config.mode_label
    elif is_speculative(config):
        mode = ExecutionMode.BASELINE
    else:
        mode = ExecutionMode.NO_SPECULATION
    return {
        "benchmark": job.spec.benchmark if job.spec is not None else None,
        "mode": mode,
        "speculative": is_speculative(config),
        "subthreads": config.tls.max_subthreads,
        "spacing": config.tls.subthread_spacing,
        "total_cycles": stats.total_cycles,
        "cpu_cycles": [dict(c.cycles) for c in stats.per_cpu],
        "instructions": stats.instructions_retired,
        "epochs_committed": stats.epochs_committed,
        "epochs_total": stats.epochs_total,
        "primary_violations": stats.primary_violations,
        "secondary_violations": stats.secondary_violations,
        "subthreads_started": stats.subthreads_started,
        "failed_instruction_replays": stats.failed_instruction_replays,
        "branch_mispredictions": stats.branch_mispredictions,
        "l1_hits": stats.l1_hits,
        "l1_misses": stats.l1_misses,
        "l2_hits": stats.l2_hits,
        "l2_misses": stats.l2_misses,
        "victim_spills": stats.victim_spills,
        "overflow_squashes": stats.overflow_squashes,
    }


def result_summary(workload: str, result) -> Dict[str, object]:
    """The parts of a sweep's result object the checks read."""
    if workload == "figure5":
        return {"bars": [[b.benchmark, b.mode] for b in result.bars],
                "speedups": {b.benchmark: b.speedup for b in result.bars
                             if b.mode == ExecutionMode.BASELINE}}
    if workload == "figure6":
        return {
            "cells": [[c.benchmark, c.subthreads, c.spacing]
                      for c in result.cells],
            "baselines": sorted(result.sequential_cycles),
            "best": {b: result.best_cell(b).normalized
                     for b in result.sequential_cycles},
        }
    return {
        "estimates": {
            mode: {m: [e.low, e.point, e.high] for m, e in metrics.items()}
            for mode, metrics in result.estimates.items()
        },
        "speedup": [result.speedup.low, result.speedup.point,
                    result.speedup.high],
        "units": result.accounting.transactions_sampled,
        "detail_share": result.accounting.detailed_fraction,
    }


def trace_records(trace) -> int:
    """Records held by a generated trace (muted transactions hold none)."""
    total = 0
    for txn in trace.transactions:
        for segment in txn.segments:
            epochs = getattr(segment, "epochs", None)
            if epochs is None:
                total += len(segment.records)
            else:
                total += sum(len(e.records) for e in epochs)
    return total
