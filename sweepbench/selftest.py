"""Show that every output check rejects a corrupted result.

    python3 sweepbench/selftest.py

Reads the job records and result summary that the most recent run of
each workload saved (``jobs.json``; run each workload once first),
confirms the checks pass on them, then corrupts a copy in one way per
check and confirms that check, and only a failing check, reports it.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import checks

WORK_DIR = Path(__file__).resolve().parent / ".work"


def latest_records(workload: str):
    found = []
    for path in WORK_DIR.glob("**/round-*/jobs.json"):
        config = json.loads((path.parent / "config.json").read_text())
        if config["workload"] == workload:
            found.append(path)
    if not found:
        return None
    doc = json.loads(max(found, key=lambda p: p.stat().st_mtime).read_text())
    return doc["jobs"], doc["summary"]


def find(jobs, benchmark=None, mode=None):
    for i, job in enumerate(jobs):
        if ((benchmark is None or job["benchmark"] == benchmark)
                and (mode is None or job["mode"] == mode)):
            return i
    raise LookupError((benchmark, mode))


# Each corruption edits (jobs, summary) in place; the named check must
# then fail.

def nonidle_over_total(jobs, summary):
    cpu = jobs[0]["cpu_cycles"][0]
    cpu["busy"] = jobs[0]["total_cycles"] + 1


def epoch_left_uncommitted(jobs, summary):
    jobs[find(jobs, mode=checks.BASELINE)]["epochs_committed"] -= 1


def sequential_violation(jobs, summary):
    jobs[find(jobs, mode=checks.SEQUENTIAL)]["primary_violations"] = 1


def no_speculation_failed_cycles(jobs, summary):
    jobs[find(jobs, mode=checks.NO_SPECULATION)]["cpu_cycles"][1][
        "failed"] = 7.0


def no_speculation_extra_instruction(jobs, summary):
    jobs[find(jobs, mode=checks.NO_SPECULATION)]["instructions"] += 1


def baseline_too_few_instructions(jobs, summary):
    bench = jobs[0]["benchmark"]
    useful = jobs[find(jobs, bench, checks.TLS_SEQ)]["instructions"]
    jobs[find(jobs, bench, checks.BASELINE)]["instructions"] = useful - 1


def no_speculation_slower(jobs, summary):
    base = jobs[find(jobs, mode=checks.BASELINE)]
    jobs[find(jobs, mode=checks.NO_SPECULATION)]["total_cycles"] = (
        base["total_cycles"] + 1)


def subthreads_lose(jobs, summary):
    bench = checks.SUBTHREAD_CLAIM_BENCHMARK
    jobs[find(jobs, bench, checks.BASELINE)]["total_cycles"] = (
        jobs[find(jobs, bench, checks.NO_SUBTHREAD)]["total_cycles"])


def figure5_job_missing(jobs, summary):
    del jobs[-1]


def figure6_cell_missing(jobs, summary):
    del summary["cells"][-1]


def estimate_interval_inverted(jobs, summary):
    triple = summary["estimates"][checks.BASELINE]["total_cycles"]
    triple[0], triple[2] = triple[2], triple[0]


def sequential_failed_estimate(jobs, summary):
    summary["estimates"][checks.SEQUENTIAL]["cycles.failed"] = [0, 5, 10]


def speedup_not_above_one(jobs, summary):
    summary["speedup"] = [0.9, 1.1, 1.3]


CORRUPTIONS = {
    "figure5": [
        (nonidle_over_total, "idle_not_clamped"),
        (epoch_left_uncommitted, "epochs_committed"),
        (sequential_violation, "nonspeculative_clean"),
        (no_speculation_failed_cycles, "nonspeculative_clean"),
        (no_speculation_extra_instruction, "instructions_retired"),
        (baseline_too_few_instructions, "instructions_retired"),
        (no_speculation_slower, "no_speculation_bound"),
        (subthreads_lose, "subthread_claim"),
        (figure5_job_missing, "figure5_shape"),
    ],
    "figure6": [
        (nonidle_over_total, "idle_not_clamped"),
        (epoch_left_uncommitted, "epochs_committed"),
        (figure6_cell_missing, "figure6_shape"),
    ],
    "huge_sampled": [
        (epoch_left_uncommitted, "epochs_committed"),
        (estimate_interval_inverted, "estimate_interval"),
        (sequential_failed_estimate, "sequential_clean"),
        (speedup_not_above_one, "speedup_above_one"),
    ],
}


def expect(label: str, failures, check: str) -> bool:
    names = {f.check for f in failures}
    if names == {check}:
        print(f"ok    {label}: rejected by {check}")
        return True
    print(f"FAIL  {label}: expected only {check}, got {sorted(names)}")
    return False


def main() -> int:
    ok = True
    for workload, corruptions in CORRUPTIONS.items():
        data = latest_records(workload)
        if data is None:
            print(f"FAIL  {workload}: no saved run; run "
                  f"'python3 sweepbench/run.py --workload {workload}' first")
            ok = False
            continue
        jobs, summary = data
        pristine = checks.run_checks(workload, jobs, summary)
        if pristine:
            print(f"FAIL  {workload} as run: "
                  f"{[f'{f.check}: {f.detail}' for f in pristine]}")
            ok = False
        else:
            print(f"ok    {workload} as run: every check passes")
        for corrupt, check in corruptions:
            bad_jobs, bad_summary = copy.deepcopy(jobs), copy.deepcopy(summary)
            corrupt(bad_jobs, bad_summary)
            ok &= expect(f"{workload} {corrupt.__name__}",
                         checks.run_checks(workload, bad_jobs, bad_summary),
                         check)

    record = {"total_cycles": 1000.0, "l2_misses": 3}
    altered = dict(record, l2_misses=4)
    ok &= expect("oracle statistics differ",
                 checks.check_oracle(0, record, altered, None), "oracle")
    ok &= expect("oracle raised a mismatch",
                 checks.check_oracle(0, record, None, "commit log differs"),
                 "oracle")
    ok &= expect("memo hit passed as a job",
                 checks.check_guards(35, 34, 35, 35, 0), "dispatched")
    ok &= expect("planned job missing",
                 checks.check_guards(35, 34, 34, 34, 0), "dispatched")
    ok &= expect("trace generated while timed",
                 checks.check_guards(35, 35, 35, 35, 1), "no_generation")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
