"""Output checks, run on every sweep outside its timed window.

Each check tests a property the simulated method must have, not a stored
copy of an earlier output.  The checks read plain data only (the job
records and result summary ``workloads.py`` builds), so ``selftest.py``
can corrupt a copy and show that each one fires.

A check returns ``Failure``\\ s.  A failure names the jobs it implicates
(they count as failed jobs); one that names none spoils the whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

SEQUENTIAL = "sequential"
TLS_SEQ = "tls_seq"
NO_SUBTHREAD = "no_subthread"
BASELINE = "baseline"
NO_SPECULATION = "no_speculation"
FIGURE5_MODES = (SEQUENTIAL, TLS_SEQ, NO_SUBTHREAD, BASELINE, NO_SPECULATION)

FIGURE6_BENCHMARKS = 5
FIGURE6_CELLS = 60

#: The paper's sub-thread claim is checked on this benchmark.
SUBTHREAD_CLAIM_BENCHMARK = "new_order_150"

IDLE = "idle"
FAILED = "failed"


@dataclass
class Failure:
    check: str
    detail: str
    #: Indices of the implicated jobs; None spoils the whole sweep.
    jobs: Optional[List[int]] = None


def _nonidle(cpu: Dict[str, float]) -> float:
    return sum(v for k, v in cpu.items() if k != IDLE)


def failed_cycles(record) -> float:
    return sum(cpu[FAILED] for cpu in record["cpu_cycles"])


def check_jobs(jobs: Sequence[dict]) -> List[Failure]:
    """Properties every simulated job has, whatever its workload."""
    out = []
    for i, job in enumerate(jobs):
        total = job["total_cycles"]
        for cpu, cycles in enumerate(job["cpu_cycles"]):
            if _nonidle(cycles) > total:
                out.append(Failure(
                    "idle_not_clamped",
                    f"job {i} cpu {cpu}: non-idle {_nonidle(cycles)} > "
                    f"total_cycles {total}", [i]))
        if job["epochs_committed"] != job["epochs_total"]:
            out.append(Failure(
                "epochs_committed",
                f"job {i}: {job['epochs_committed']} of "
                f"{job['epochs_total']} epochs committed", [i]))
        if job["mode"] in (SEQUENTIAL, NO_SPECULATION):
            violations = (job["primary_violations"]
                          + job["secondary_violations"])
            if violations or failed_cycles(job):
                out.append(Failure(
                    "nonspeculative_clean",
                    f"job {i} ({job['mode']}): {violations} violations, "
                    f"{failed_cycles(job)} failed cycles", [i]))
    return out


def check_figure5(jobs: Sequence[dict], summary: dict) -> List[Failure]:
    out = []
    by_key = {}
    for i, job in enumerate(jobs):
        by_key[(job["benchmark"], job["mode"])] = i
    benchmarks = list(dict.fromkeys(job["benchmark"] for job in jobs))
    if len(jobs) != 35 or len(benchmarks) != 7 or len(by_key) != 35:
        out.append(Failure("figure5_shape",
                           f"{len(jobs)} jobs over {len(benchmarks)} "
                           f"benchmarks, {len(by_key)} distinct"))
    if len(summary["bars"]) != len(jobs):
        out.append(Failure("figure5_shape",
                           f"{len(summary['bars'])} bars for "
                           f"{len(jobs)} jobs"))
    for bench in benchmarks:
        idx = {m: by_key.get((bench, m)) for m in FIGURE5_MODES}
        if None in idx.values():
            out.append(Failure("figure5_shape",
                               f"{bench}: a mode is missing"))
            continue
        job = {m: jobs[i] for m, i in idx.items()}
        useful = job[TLS_SEQ]["instructions"]
        if job[NO_SPECULATION]["instructions"] != useful:
            out.append(Failure(
                "instructions_retired",
                f"{bench}: NO_SPECULATION retired "
                f"{job[NO_SPECULATION]['instructions']}, TLS_SEQ {useful}",
                [idx[TLS_SEQ], idx[NO_SPECULATION]]))
        for mode in (BASELINE, NO_SUBTHREAD):
            if job[mode]["instructions"] < useful:
                out.append(Failure(
                    "instructions_retired",
                    f"{bench}: {mode} retired {job[mode]['instructions']}"
                    f" < {useful}", [idx[mode]]))
        if (job[NO_SPECULATION]["total_cycles"]
                > job[BASELINE]["total_cycles"]):
            out.append(Failure(
                "no_speculation_bound",
                f"{bench}: NO_SPECULATION "
                f"{job[NO_SPECULATION]['total_cycles']} cycles > BASELINE "
                f"{job[BASELINE]['total_cycles']}",
                [idx[NO_SPECULATION], idx[BASELINE]]))
        if (bench == SUBTHREAD_CLAIM_BENCHMARK
                and job[BASELINE]["total_cycles"]
                >= job[NO_SUBTHREAD]["total_cycles"]):
            out.append(Failure(
                "subthread_claim",
                f"{bench}: BASELINE {job[BASELINE]['total_cycles']} cycles"
                f" >= NO_SUBTHREAD {job[NO_SUBTHREAD]['total_cycles']}",
                [idx[BASELINE], idx[NO_SUBTHREAD]]))
    if SUBTHREAD_CLAIM_BENCHMARK not in benchmarks:
        out.append(Failure("subthread_claim",
                           f"{SUBTHREAD_CLAIM_BENCHMARK} was not run"))
    return out


def check_figure6(jobs: Sequence[dict], summary: dict) -> List[Failure]:
    out = []
    cells = {tuple(c) for c in summary["cells"]}
    if (len(summary["cells"]) != FIGURE6_CELLS
            or len(cells) != FIGURE6_CELLS
            or len(summary["baselines"]) != FIGURE6_BENCHMARKS
            or len(jobs) != FIGURE6_CELLS + FIGURE6_BENCHMARKS):
        out.append(Failure(
            "figure6_shape",
            f"{len(cells)} distinct of {len(summary['cells'])} cells, "
            f"{len(summary['baselines'])} baselines, {len(jobs)} jobs"))
    return out


def _ordered(triple) -> bool:
    low, point, high = triple
    return low <= point <= high  # False for NaN too


def check_huge(jobs: Sequence[dict], summary: dict) -> List[Failure]:
    out = []
    for mode, metrics in summary["estimates"].items():
        for metric, triple in metrics.items():
            if not _ordered(triple):
                out.append(Failure("estimate_interval",
                                   f"{mode} {metric}: {triple}"))
    if not _ordered(summary["speedup"]):
        out.append(Failure("estimate_interval",
                           f"speedup: {summary['speedup']}"))
    seq = summary["estimates"].get(SEQUENTIAL, {})
    for metric in ("cycles.failed", "primary_violations",
                   "secondary_violations"):
        if seq.get(metric) != [0, 0, 0]:
            out.append(Failure("sequential_clean",
                               f"SEQUENTIAL {metric}: {seq.get(metric)}"))
    if not summary["speedup"][0] > 1.0:
        out.append(Failure("speedup_above_one",
                           f"BASELINE speedup 95% CI {summary['speedup']}"))
    return out


def check_oracle(index: int, sweep_record: dict,
                 oracle_record: Optional[dict],
                 error: Optional[str]) -> List[Failure]:
    """The serial-replay oracle accepted the job and its statistics
    equal the sweep's for that job."""
    if error is not None:
        return [Failure("oracle", f"job {index}: {error}", [index])]
    if oracle_record != sweep_record:
        diff = sorted(k for k in sweep_record
                      if sweep_record[k] != oracle_record.get(k))
        return [Failure("oracle", f"job {index}: differs in {diff}",
                        [index])]
    return []


def check_guards(expected_jobs: Optional[int], dispatched: int,
                 n_jobs: int, distinct: int,
                 generated: Optional[int]) -> List[Failure]:
    """The timed work was real: every planned job was simulated, none was
    answered from a memo, and no trace was generated while timed."""
    out = []
    if expected_jobs is not None and n_jobs != expected_jobs:
        out.append(Failure("dispatched",
                           f"{n_jobs} jobs, expected {expected_jobs}"))
    if not dispatched == n_jobs == distinct:
        out.append(Failure("dispatched",
                           f"dispatched {dispatched} of {n_jobs} jobs "
                           f"({distinct} distinct)"))
    if generated:
        out.append(Failure("no_generation",
                           f"{generated} traces generated while timed"))
    return out


WORKLOAD_CHECKS = {"figure5": check_figure5, "figure6": check_figure6,
                   "huge_sampled": check_huge}


def run_checks(workload: str, jobs: Sequence[dict],
               summary: dict) -> List[Failure]:
    return check_jobs(jobs) + WORKLOAD_CHECKS[workload](jobs, summary)


def failed_jobs(failures: Sequence[Failure], n_jobs: int) -> int:
    """Jobs a set of failures counts as failed."""
    if any(f.jobs is None for f in failures):
        return n_jobs
    return len({i for f in failures for i in f.jobs})


