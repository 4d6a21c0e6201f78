"""One fresh process of the benchmark: set up, then run one sweep.

``run.py`` starts this file with ``src`` on ``PYTHONPATH`` and a pinned
``PYTHONHASHSEED``, and takes set-up time from the process start to the
``READY`` line this process prints once ``repro`` is imported and the
sweep's traces are loaded.  Modes:

* ``prepare`` — fill the private trace cache (generating what is
  missing); untimed.
* ``setup`` — import and load, print ``READY``, exit.
* ``sweep`` — then run the sweep, time it until its artifact and
  manifest are written, check its outputs, and write ``metrics.json``
  and ``jobs.json`` to ``--out``.  ``--traced`` adds the per-layer
  instruments of ``layers.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("prepare", "setup", "sweep"),
                        required=True)
    parser.add_argument("--cache", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--oracle-seed", type=int, default=None)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    started = time.perf_counter()

    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.start()

    import repro
    import repro.harness.export as export_module
    import repro.harness.runner as runner_module
    import repro.harness.sampled as sampled_module
    import repro.sim.machine as machine_module
    from repro.harness import tracecache

    import workloads

    spans = None
    if args.traced:
        from layers import Spans

        spans = Spans()
        spans.wrap(runner_module, "materialize", "load")
        spans.wrap(machine_module, "compile_region", "compile")
        spans.wrap(machine_module.Machine, "run", "sim.run")
        spans.wrap(machine_module.Machine, "functional_warm", "sim.warm")
        spans.wrap(sampled_module, "generate_sampled_mix_workload",
                   "generate")
        spans.wrap(export_module, "export_json", "export")
        generated_records = []
        generate = sampled_module.generate_sampled_mix_workload

        def counting_generate(*a, **kw):
            workload = generate(*a, **kw)
            generated_records.append(workloads.trace_records(workload.trace))
            return workload

        sampled_module.generate_sampled_mix_workload = counting_generate

    workload = args.workload
    ctx = workloads.make_context(
        str(args.cache) if workload != "huge_sampled" else None
    )
    runner = ctx.runner
    for spec in workloads.planned_specs(workload, ctx):
        runner.trace_for(spec)
    loaded = tracecache.STATS["disk_hits"]
    generated_in_setup = tracecache.STATS["generated"]
    if args.mode == "prepare":
        probe.stop()
        print(f"prepared {workload}: {loaded} traces loaded, "
              f"{generated_in_setup} generated", file=sys.stderr)
        return 0
    print("READY", flush=True)
    setup_window = probe.window(started, time.perf_counter())
    if args.mode == "setup":
        probe.stop()
        _write_json(args.out / "metrics.json", {"setup": setup_window})
        return 0

    from repro.obs.manifest import build_manifest, finish_manifest

    artifact = workloads.ARTIFACTS[workload]
    result_dir = args.out / "result"
    result_dir.mkdir(parents=True, exist_ok=True)
    sampler = None
    if args.traced:
        from layers import StackSampler

        sampler = StackSampler(Path(repro.__file__).parent)
        sampler.start()
    t0 = time.perf_counter()
    result = workloads.run_sweep(workload, ctx)
    manifest = finish_manifest(
        build_manifest(
            command=["sweepbench", workload],
            config={"experiment": artifact, "jobs": 1,
                    "seed": workloads.TPCC_SEED},
            seed=workloads.TPCC_SEED,
        ),
        time.perf_counter() - t0,
        trace_spec_keys=runner.trace_spec_keys(),
    )
    manifest["artifact"] = artifact
    if hasattr(result, "manifest_block"):
        manifest["sampler"] = result.manifest_block()
    export_module.export_json(result, result_dir / f"{artifact}.json",
                              manifest=manifest)
    t1 = time.perf_counter()
    probe.stop()
    sweep_s = t1 - t0
    sweep_window = probe.window(t0, t1)
    if sampler is not None:
        sampler.stop()
        spans.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Everything below is outside the timed window.
    import checks
    from repro.harness.runner import config_identity

    records = [workloads.job_record(job, stats) for job, stats in runner.log]
    summary = workloads.result_summary(workload, result)
    distinct = len({
        (tracecache.spec_key(job.spec), config_identity(job.config))
        if job.spec is not None else id(job)
        for job, _ in runner.log
    })
    failures = checks.check_guards(
        workloads.EXPECTED_JOBS[workload], runner.dispatched, len(records),
        distinct, tracecache.STATS["generated"] - generated_in_setup,
    )
    failures += checks.run_checks(workload, records, summary)
    if args.oracle_seed is not None and workload != "huge_sampled":
        failures += _oracle_check(runner, records, args.oracle_seed)
    _write_json(args.out / "jobs.json", {"jobs": records,
                                         "summary": summary})
    metrics = {
        "setup": setup_window,
        "sweep_s": sweep_s,
        "sweep": sweep_window,
        "sweep_ref_s": (sweep_s - sweep_window["probe_s"])
        / sweep_window["slowdown"],
        "instructions": sum(r["instructions"] for r in records),
        "peak_rss_mb": peak_rss_mb,
        "jobs": len(records),
        "failed": checks.failed_jobs(failures, len(records)),
        "whole_sweep_failed": any(f.jobs is None for f in failures),
        "failures": [f"{f.check}: {f.detail}" for f in failures],
    }
    if args.traced:
        metrics["layers"] = _layer_metrics(
            workload, spans, sampler, records, summary, loaded,
            sum(generated_records), runner, sweep_s,
        )
    _write_json(args.out / "metrics.json", metrics)
    _write_json(args.out / "probe.json", probe.samples)
    return 0


def _oracle_check(runner, records, seed):
    """Replay one speculative job, chosen by ``seed``, under the
    serial-replay oracle and compare its statistics with the sweep's."""
    import checks
    import workloads
    from repro.verify.oracle import OracleMismatch, run_with_oracle

    speculative = [i for i, r in enumerate(records) if r["speculative"]]
    index = speculative[seed % len(speculative)]
    job = runner.log[index][0]
    try:
        oracle = run_with_oracle(runner.trace_for(job.spec), job.config)
    except OracleMismatch as exc:
        return checks.check_oracle(index, records[index], None, str(exc))
    return checks.check_oracle(
        index, records[index], workloads.job_record(job, oracle.stats), None
    )


def _useful_ratio(runner, records) -> float:
    """Instructions a non-speculative run of each speculative job's
    trace retires, over the instructions the speculative jobs retired.
    The references run after the sweep, outside its timed window."""
    from repro.sim import ExecutionMode, Machine, MachineConfig

    reference = MachineConfig.for_mode(ExecutionMode.NO_SPECULATION)
    useful_by_input = {}
    useful = retired = 0
    for (job, _), record in zip(runner.log, records):
        if not record["speculative"]:
            continue
        trace = job.trace if job.trace is not None else runner.trace_for(
            job.spec)
        key = (id(trace), id(job.warmup))
        if key not in useful_by_input:
            machine = Machine(reference)
            if job.warmup is not None:
                machine.functional_warm(job.warmup)
            useful_by_input[key] = machine.run(trace).instructions_retired
        useful += useful_by_input[key]
        retired += record["instructions"]
    return useful / retired


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _layer_metrics(workload, spans, sampler, records, summary, loaded,
                   generated_records, runner, sweep_s):
    from repro.trace.compile import MEMO_STATS

    import checks

    total = lambda key: sum(r[key] for r in records)  # noqa: E731
    instructions = total("instructions")
    cpu_cycles = sum(len(r["cpu_cycles"]) * r["total_cycles"]
                     for r in records)
    if workload == "figure5":
        speedup = _geomean(summary["speedups"].values())
    elif workload == "figure6":
        speedup = _geomean(1.0 / v for v in summary["best"].values())
    else:
        speedup = summary["speedup"][1]
    packages = dict(sampler.seconds)
    layers = {
        "tracecache.load_s": spans.total["load"],
        "tracecache.loaded": loaded,
        "generate.s": spans.total["generate"],
        "generate.records": generated_records,
        "minidb.self_s": packages.get("minidb", 0.0),
        "compile.s": spans.total["compile"],
        "compile.memo_misses": MEMO_STATS["misses"],
        "compile.memo_hits": MEMO_STATS["hits"],
        "sim.run_s": spans.self_time["sim.run"],
        "sim.self_s": packages.get("sim", 0.0),
        "sim.jobs": runner.dispatched,
        "sim.instructions": instructions,
        "sim.host_ns_per_instr":
            spans.self_time["sim.run"] / instructions * 1e9,
        "sim.functional_warm_s": spans.self_time["sim.warm"],
        "memory.self_s": packages.get("memory", 0.0),
        "l1.hits": total("l1_hits"),
        "l1.misses": total("l1_misses"),
        "l2.hits": total("l2_hits"),
        "l2.misses": total("l2_misses"),
        "l2.victim_spills": total("victim_spills"),
        "l2.overflow_squashes": total("overflow_squashes"),
        "core.self_s": packages.get("core", 0.0),
        "engine.primary_violations": total("primary_violations"),
        "engine.secondary_violations": total("secondary_violations"),
        "engine.subthreads_started": total("subthreads_started"),
        "engine.epochs_committed": total("epochs_committed"),
        "engine.failed_instruction_replays":
            total("failed_instruction_replays"),
        "engine.useful_ratio": _useful_ratio(runner, records),
        "cpu.self_s": packages.get("cpu", 0.0),
        "cpu.branch_mispredictions": total("branch_mispredictions"),
        "sampled.units": summary.get("units", 0),
        "sampled.detail_share": summary.get("detail_share", 0.0),
        "export.s": spans.total["export"],
        "model.total_cycles": total("total_cycles"),
        "model.failed_share":
            sum(checks.failed_cycles(r) for r in records) / cpu_cycles,
        "model.speedup_geomean": speedup,
        "trace.sweep_s": sweep_s,
        "trace.span_sum_s": (
            spans.total["generate"] + spans.total["compile"]
            + spans.self_time["sim.run"] + spans.self_time["sim.warm"]
            + spans.total["export"]
        ),
    }
    layers["packages"] = packages
    layers["sampler_samples"] = sampler.samples
    return layers


if __name__ == "__main__":
    sys.exit(main())
