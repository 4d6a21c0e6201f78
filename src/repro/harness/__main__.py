"""CLI entry point: ``python -m repro.harness <experiment> [options]``."""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

from ..obs import SpanTracer, build_manifest, finish_manifest, main_command
from ..sim.config import table1_text
from ..tpcc import TPCCScale
from .ablations import (
    run_adaptive_spacing_ablation,
    run_l1_tracking_ablation,
    run_load_granularity_ablation,
    run_overlap_loads_ablation,
    run_start_cost_ablation,
    run_victim_cache_ablation,
)
from .dependences import run_dependence_analysis
from .export import export_json, export_text
from .extensions import run_prediction_comparison
from .figure2 import run_figure2
from .figure4 import run_figure4
from .figure5 import run_figure5
from .figure6 import run_figure6
from .kvstudy import run_kv_study
from .mixstudy import run_mix_latency
from .prune import (
    PruneOptions,
    dry_run_text,
    merge_predictor_blocks,
    run_figure6_pruned,
    run_victim_cache_ablation_pruned,
)
from .runner import ExperimentContext, JobRunner
from .sampled import run_figure5_sampled, run_huge
from ..trace.sampling import SamplerConfig
from .scalability import run_scalability
from .tracecache import default_cache_dir
from .seedsweep import run_seed_sweep
from .table2 import run_table2
from .whentouse import run_when_to_use

EXPERIMENTS = (
    "table1",
    "table2",
    "figure2",
    "figure4",
    "figure5",
    "figure6",
    "ablations",
    "extensions",
    "scalability",
    "seeds",
    "whentouse",
    "kv",
    "dependences",
    "mix",
    "huge",
    "all",
)

#: Experiments excluded from ``all`` (the huge-scale sampled run takes
#: hundreds of thousands of transactions by default; run it explicitly).
NOT_IN_ALL = ("huge", "all")

#: Experiments that understand the ``--sample-*`` flags.
SAMPLED_EXPERIMENTS = ("figure5", "huge", "all")

#: Experiments that understand ``--prune`` (and, sweeps only,
#: ``--dry-run``).
PRUNED_EXPERIMENTS = ("figure6", "ablations", "all")
DRY_RUN_EXPERIMENTS = ("figure6", "ablations")

#: Non-experiment commands sharing the entry point.
COMMANDS = EXPERIMENTS + ("report",)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=COMMANDS)
    parser.add_argument(
        "report_file",
        nargs="?",
        type=pathlib.Path,
        default=None,
        metavar="RUN_JSONL",
        help="run log to summarize (only with the 'report' command)",
    )
    parser.add_argument(
        "--transactions",
        type=int,
        default=None,
        help=(
            "transactions per benchmark run (default 4; the 'huge' "
            "experiment defaults to 200000)"
        ),
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="use the tiny TPC-C scale (fast, for smoke tests)",
    )
    parser.add_argument(
        "--scale",
        choices=("default", "tiny", "paper", "huge"),
        default=None,
        help=(
            "TPC-C scale; 'paper' uses the official cardinalities "
            "(very slow under pure Python); 'huge' sizes the database "
            "for the sampled huge-scale runs"
        ),
    )
    parser.add_argument(
        "--sample-rate",
        type=float,
        default=None,
        metavar="R",
        help=(
            "statistically sample the workload: detail-simulate a "
            "stratified fraction R of transactions and report interval "
            "estimates (repro.trace.sampling); 1.0 runs the exhaustive "
            "path byte-identically; only for figure5 and huge"
        ),
    )
    parser.add_argument(
        "--sample-strata",
        type=int,
        default=3,
        metavar="K",
        help=(
            "dependence-density quantile buckets per transaction label "
            "(default 3)"
        ),
    )
    parser.add_argument(
        "--sample-seed",
        type=int,
        default=0,
        help="sampler RNG seed (default 0); estimates are deterministic "
             "for a fixed seed, independent of --jobs",
    )
    parser.add_argument(
        "--sample-warmup",
        type=int,
        default=4,
        metavar="K",
        help=(
            "detailed warmup tail per sampled transaction: K "
            "predecessors are detail-simulated and subtracted out "
            "(default 4; -1 = full prefix, exact but O(N) per unit)"
        ),
    )
    parser.add_argument(
        "--prune",
        action="store_true",
        help=(
            "prune sweep grids with the analytical reuse-distance "
            "predictor (repro.trace.reuse): profile each trace once, "
            "rank all grid cells, simulate only the predicted frontier "
            "plus a validation sample, and record predicted-vs-"
            "simulated error in the manifest; only for figure6 and "
            "ablations"
        ),
    )
    parser.add_argument(
        "--prune-top-k",
        type=int,
        default=4,
        metavar="K",
        help=(
            "simulated frontier cells per benchmark grid under "
            "--prune (default 4; the per-count predicted bests are "
            "always kept)"
        ),
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help=(
            "print the planned job list (with --prune: the predicted "
            "ranking and which cells would be skipped) without "
            "dispatching any simulation; only for figure6 and "
            "ablations"
        ),
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="also write each experiment's results as JSON into DIR",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "fan simulations out over N worker processes "
            "(0 = all CPUs; default 1 = serial; results are "
            "bit-identical either way)"
        ),
    )
    parser.add_argument(
        "--trace-cache",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help=(
            "persistent trace cache directory (default "
            "$REPRO_TRACE_CACHE or ~/.cache/repro-traces)"
        ),
    )
    parser.add_argument(
        "--no-trace-cache",
        action="store_true",
        help="regenerate traces in memory; do not touch the disk cache",
    )
    parser.add_argument(
        "--result-store",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help=(
            "persistent content-addressed result store "
            "(repro.service.store): simulation results are looked up "
            "by (trace key, machine config) before dispatch and "
            "committed after, so identical jobs across invocations are "
            "store hits instead of re-simulations; the sweep service "
            "daemon uses the same store format"
        ),
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help=(
            "run every simulation with cycle-level invariant checking "
            "(repro.verify.invariants); slower, for validation runs"
        ),
    )
    parser.add_argument(
        "--no-compile-traces",
        action="store_true",
        help=(
            "disable trace pre-compilation (repro.trace.compile) and run "
            "every record through the interpreted path; slower escape "
            "hatch — results are byte-identical either way"
        ),
    )
    parser.add_argument(
        "--no-columnar",
        action="store_true",
        help=(
            "disable the columnar bulk load resolver (repro.memory."
            "columnar) and dispatch every compiled load through the "
            "scalar reference path; escape hatch — results are "
            "byte-identical either way"
        ),
    )
    parser.add_argument(
        "--no-columnar-stores",
        action="store_true",
        help=(
            "disable the columnar bulk store resolver (repro.memory."
            "columnar) and dispatch every compiled store through the "
            "scalar reference path; escape hatch — results are "
            "byte-identical either way"
        ),
    )
    parser.add_argument(
        "--profile-out",
        type=pathlib.Path,
        default=None,
        metavar="PSTATS",
        help=(
            "profile the experiment phase under cProfile and write the "
            "pstats dump to this file (inspect with python -m pstats); "
            "forces --jobs 1 semantics for the profiled work in-process"
        ),
    )
    parser.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        metavar="RUN_JSONL",
        help=(
            "write a structured JSONL run log (spans, per-job counters, "
            "dependence events) for 'report' and downstream tooling; "
            "off by default — untraced runs take the original code path"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "render live progress (jobs done/total, ETA, per-worker "
            "heartbeats) to stderr; off by default"
        ),
    )
    args = parser.parse_args(argv)

    if args.experiment == "report":
        if args.report_file is None:
            parser.error("report requires a run-log path: report run.jsonl")
        from ..obs.report import render_report

        try:
            print(render_report(args.report_file))
        except BrokenPipeError:
            # Piped into head/less and the reader closed early; point
            # stdout at devnull so interpreter shutdown doesn't raise
            # a second time on flush.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        return 0
    if args.report_file is not None:
        parser.error("a run-log path only makes sense with 'report'")

    if args.scale == "paper":
        scale = TPCCScale.paper()
    elif args.scale == "huge":
        scale = TPCCScale.huge()
    elif args.scale == "tiny" or args.tiny:
        scale = TPCCScale.tiny()
    else:
        scale = None
    n_transactions = args.transactions
    if n_transactions is None:
        n_transactions = 200_000 if args.experiment == "huge" else 4
    if (
        args.sample_rate is not None
        and args.experiment not in SAMPLED_EXPERIMENTS
    ):
        parser.error(
            "--sample-rate only applies to the figure5 and huge "
            "experiments"
        )
    if args.prune and args.experiment not in PRUNED_EXPERIMENTS:
        parser.error(
            "--prune only applies to the figure6 and ablations "
            "experiments"
        )
    if args.dry_run and args.experiment not in DRY_RUN_EXPERIMENTS:
        parser.error(
            "--dry-run only applies to the figure6 and ablations "
            "experiments"
        )
    prune_options = PruneOptions(top_k=args.prune_top_k)

    def sampler_config(functional_window: int) -> SamplerConfig:
        """The ``--sample-*`` flags as a SamplerConfig.

        The functional-warming window differs per experiment: figure5
        traces are small enough to warm from the whole prefix (-1),
        while the huge path must bound the window or each unit's warm
        cost grows with its position.
        """
        return SamplerConfig(
            rate=args.sample_rate,
            strata=args.sample_strata,
            seed=args.sample_seed,
            warmup=args.sample_warmup,
            functional_window=functional_window,
        )
    if args.no_trace_cache:
        cache_dir = None
    else:
        cache_dir = args.trace_cache or default_cache_dir()
    overrides = {}
    if args.check_invariants:
        overrides["check_invariants"] = True
    if args.no_compile_traces:
        overrides["compile_traces"] = False
    if args.no_columnar:
        overrides["columnar"] = False
    if args.no_columnar_stores:
        overrides["columnar_stores"] = False
    result_store = None
    if args.result_store is not None:
        from ..service.store import ResultStore

        result_store = ResultStore(args.result_store)
    n_jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    if args.profile_out is not None and n_jobs > 1:
        # Worker processes would not appear in the parent's profile;
        # keep the profiled simulation work in this interpreter.
        print("[--profile-out: running in-process, --jobs forced to 1]",
              flush=True)
        n_jobs = 1
    runner = JobRunner(
        jobs=n_jobs,
        trace_cache=cache_dir,
        config_overrides=overrides or None,
        progress=args.progress,
        result_store=result_store,
    )
    ctx = ExperimentContext(
        n_transactions=n_transactions, seed=args.seed, scale=scale,
        runner=runner,
    )

    if args.dry_run:
        print(dry_run_text(
            ctx, args.experiment,
            prune_options if args.prune else None,
        ))
        return 0

    def experiment_results(name: str):
        """Run one experiment; returns (results, rendered_text, artifact)."""
        artifact = name
        if name == "table1":
            text = table1_text()
            return text, text, artifact
        if name == "table2":
            result = run_table2(ctx)
        elif name == "figure2":
            result = run_figure2(
                n_transactions=n_transactions, seed=args.seed,
                scale=scale,
            )
        elif name == "figure4":
            result = run_figure4()
        elif name == "figure5":
            if args.sample_rate is not None and args.sample_rate < 1.0:
                result = run_figure5_sampled(
                    ctx, sampler_config(functional_window=-1)
                )
                artifact = "figure5_sampled"
            else:
                # rate >= 1.0 covers every transaction: take the
                # exhaustive path so the exported figure5.json is
                # byte-identical to an unsampled run.
                result = run_figure5(ctx)
        elif name == "huge":
            result = run_huge(
                n_transactions=n_transactions,
                seed=args.seed,
                sampler=(
                    None if args.sample_rate is None
                    else sampler_config(functional_window=16)
                ),
                runner=runner,
                scale=scale,
            )
        elif name == "figure6":
            if args.prune:
                result = run_figure6_pruned(ctx, options=prune_options)
                artifact = "figure6_pruned"
            else:
                result = run_figure6(ctx)
        elif name == "ablations":
            if args.prune:
                a1 = run_victim_cache_ablation_pruned(
                    ctx, options=prune_options
                )
                artifact = "ablations_pruned"
            else:
                a1 = run_victim_cache_ablation(ctx)
            results = [
                a1,
                run_start_cost_ablation(ctx),
                run_load_granularity_ablation(ctx),
                run_l1_tracking_ablation(ctx),
                run_adaptive_spacing_ablation(ctx),
                run_overlap_loads_ablation(ctx),
            ]
            text = "\n\n".join(r.render() for r in results)
            return results, text, artifact
        elif name == "extensions":
            result = run_prediction_comparison(ctx)
        elif name == "scalability":
            result = run_scalability(ctx)
        elif name == "whentouse":
            result = run_when_to_use(ctx)
        elif name == "kv":
            result = run_kv_study(
                n_batches=n_transactions, seed=args.seed,
                runner=runner,
            )
        elif name == "mix":
            result = run_mix_latency(
                n_transactions=max(n_transactions, 12),
                seed=args.seed, scale=scale, runner=runner,
            )
        elif name == "dependences":
            result = run_dependence_analysis(
                n_transactions=n_transactions, seed=args.seed,
                scale=scale,
            )
        elif name == "seeds":
            result = run_seed_sweep(
                n_transactions=n_transactions, scale=scale,
                runner=runner,
            )
        else:
            raise ValueError(name)
        return result, result.render(), artifact

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    wanted = (
        [n for n in EXPERIMENTS if n not in NOT_IN_ALL]
        if args.experiment == "all"
        else [args.experiment]
    )
    config = {
        "experiment": args.experiment,
        "transactions": n_transactions,
        "seed": args.seed,
        "scale": args.scale or ("tiny" if args.tiny else "default"),
        "jobs": runner.jobs,
        "compile_traces": not args.no_compile_traces,
        "columnar": not args.no_columnar,
        "columnar_stores": not args.no_columnar_stores,
        "check_invariants": args.check_invariants,
    }
    if result_store is not None:
        config["result_store"] = str(args.result_store)
    if args.sample_rate is not None:
        config["sampler"] = {
            "rate": args.sample_rate,
            "strata": args.sample_strata,
            "seed": args.sample_seed,
            "warmup": args.sample_warmup,
        }
    if args.prune:
        config["prune"] = {
            "top_k": prune_options.top_k,
            "validation": prune_options.validation,
        }
    manifest = build_manifest(
        command=main_command(argv),
        config=config,
        seed=args.seed,
    )
    tracer = None
    if args.trace_out is not None:
        tracer = SpanTracer(args.trace_out, manifest=manifest)
        runner.tracer = tracer
    profiler = None
    if args.profile_out is not None:
        import cProfile

        profiler = cProfile.Profile()
    run_t0 = time.perf_counter()
    try:
        for name in wanted:
            print(f"\n### {name} ###", flush=True)
            t0 = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            try:
                if tracer is not None:
                    with tracer.span(f"experiment.{name}"):
                        result, text, artifact = experiment_results(name)
                else:
                    result, text, artifact = experiment_results(name)
            finally:
                if profiler is not None:
                    profiler.disable()
            elapsed = time.perf_counter() - t0
            print(text)
            # Results may attach a named manifest section (the sampled
            # drivers' "sampler" block, the pruned sweeps' "predictor"
            # block — MANIFEST_KEY picks the name).  The ablations list
            # can carry several pruned sweeps; their predictor blocks
            # merge into one section.
            carriers = [
                r for r in (result if isinstance(result, list)
                            else [result])
                if hasattr(r, "manifest_block")
            ]
            block_key = (
                getattr(carriers[0], "MANIFEST_KEY", "sampler")
                if carriers else "sampler"
            )
            if len(carriers) > 1:
                sampler_block = merge_predictor_blocks(
                    [r.manifest_block() for r in carriers]
                )
            elif carriers:
                sampler_block = carriers[0].manifest_block()
            else:
                sampler_block = None
            if tracer is not None and sampler_block is not None:
                tracer.event(
                    f"{block_key}.estimates",
                    experiment=name,
                    **{block_key: sampler_block},
                )
            if args.out is not None:
                done = finish_manifest(
                    manifest, elapsed,
                    trace_spec_keys=runner.trace_spec_keys(),
                )
                done["artifact"] = artifact
                if sampler_block is not None:
                    done[block_key] = sampler_block
                if name == "table1":
                    export_text(
                        text, args.out / "table1.txt", manifest=done
                    )
                else:
                    export_json(
                        result, args.out / f"{artifact}.json",
                        manifest=done,
                    )
            print(f"[{name} took {elapsed:.1f}s]", flush=True)
        if result_store is not None:
            print(
                f"[result store: {runner.store_hits} hits, "
                f"{runner.dispatched} simulated]",
                flush=True,
            )
    finally:
        if profiler is not None:
            # Even a partial run leaves a usable dump: inspect with
            # python -m pstats, or snakeviz where available.
            args.profile_out.parent.mkdir(parents=True, exist_ok=True)
            profiler.dump_stats(str(args.profile_out))
            print(f"[profile written to {args.profile_out}]", flush=True)
        if tracer is not None:
            from .tracecache import STATS as trace_cache_stats

            tracer.counter("tracecache", dict(trace_cache_stats))
            if result_store is not None:
                tracer.counter("resultstore", {
                    "hits": runner.store_hits,
                    "dispatched": runner.dispatched,
                })
            tracer.event(
                "run.finish",
                wall_seconds=round(time.perf_counter() - run_t0, 3),
                experiments=wanted,
                trace_spec_keys=runner.trace_spec_keys(),
            )
            tracer.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
