"""Benchmark entry point: real harness sweeps, end to end and per layer.

    python3 sweepbench/run.py --workload figure5 --seed 1 --seconds 36 --trace 0

A run first prepares the benchmark's private trace cache (untimed), then
runs rounds for ``--seconds`` seconds of measured time.  Each round is
one fresh serial process (``child.py``) that imports ``repro``, loads
the sweep's traces and runs the sweep once; this process times its
set-up from outside.  More set-up-only processes follow until at least
``SETUP_SAMPLES`` set-ups were timed.  With ``--trace 1`` one traced
round follows the untraced ones and the run reports per-layer metrics.
Times are reported at reference host speed (see ``speed.py``); the
wall-clock times are printed beside them and kept in ``summary.json``.

Every round's config, metrics and rusage are written under
``sweepbench/.work/runs/<run>/<round>/``, its sweep artifact apart in
``result/``.  The last line of standard output is the run's JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
CACHE_DIR = WORK_DIR / "traces"

WORKLOADS = ("figure5", "figure6", "huge_sampled")

#: Hash seed of every child process: string hashes and set iteration
#: order then repeat from run to run, and with them the host work.
PYTHONHASHSEED = "0"

#: Set-ups timed per run, counting the set-up of every round.
SETUP_SAMPLES = 5

#: A run gives up (and fails) once it has taken this long.
DEADLINE_S = 170.0

#: Metric names, units, directions and bounds of the benchmark.
SPEC = ROOT / "BENCHMARK.json"


class RunFailed(Exception):
    pass


class Child:
    """One child process: its set-up time, rusage and metrics."""

    def __init__(self, workload: str, mode: str, out: Path,
                 deadline: float, oracle_seed=None, traced=False) -> None:
        out.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(BENCH_DIR / "child.py"),
                "--workload", workload, "--mode", mode,
                "--cache", str(CACHE_DIR), "--out", str(out)]
        if oracle_seed is not None:
            argv += ["--oracle-seed", str(oracle_seed)]
        if traced:
            argv.append("--traced")
        env = dict(os.environ, PYTHONHASHSEED=PYTHONHASHSEED,
                   PYTHONPATH=str(ROOT / "src"),
                   REPRO_TRACE_CACHE=str(CACHE_DIR))
        (out / "config.json").write_text(json.dumps({
            "workload": workload, "mode": mode, "traced": traced,
            "oracle_seed": oracle_seed, "argv": argv[1:],
            "PYTHONHASHSEED": PYTHONHASHSEED,
        }, indent=1) + "\n")
        with open(out / "stderr.txt", "wb") as stderr:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                    stderr=stderr, env=env, cwd=ROOT)
            timer = threading.Timer(
                max(1.0, deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                ready = proc.stdout.readline()
                self.setup_s = time.perf_counter() - t0
                proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.wall_s = time.perf_counter() - t0
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        (out / "rusage.json").write_text(json.dumps({
            "setup_s": self.setup_s, "wall_s": self.wall_s,
            "utime_s": usage.ru_utime, "stime_s": usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss, "minflt": usage.ru_minflt,
            "majflt": usage.ru_majflt, "nvcsw": usage.ru_nvcsw,
            "nivcsw": usage.ru_nivcsw, "returncode": proc.returncode,
        }, indent=1) + "\n")
        if proc.returncode != 0 or (mode != "prepare"
                                    and ready.strip() != b"READY"):
            tail = (out / "stderr.txt").read_text(errors="replace")[-2000:]
            raise RunFailed(f"{mode} child of {workload} exited "
                            f"{proc.returncode}:\n{tail}")
        self.metrics = {}
        if mode != "prepare":
            self.metrics = json.loads((out / "metrics.json").read_text())
            window = self.metrics["setup"]
            self.setup_ref_s = ((self.setup_s - window["probe_s"])
                                / window["slowdown"])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    run_dir = (args.runs_dir / f"{args.workload}-seed{args.seed}"
               f"-trace{args.trace}-{time.time_ns()}")
    Child(args.workload, "prepare", run_dir / "prepare", deadline)
    if args.prepare_only:
        return {}

    rounds = []
    measured = 0.0
    while True:
        child = Child(args.workload, "sweep", run_dir / f"round-{len(rounds)}",
                      deadline, oracle_seed=args.seed if not rounds else None)
        rounds.append(child)
        measured += child.setup_s + child.metrics["sweep_s"]
        if measured + measured / len(rounds) > args.seconds:
            break
    setups = [c.setup_ref_s for c in rounds]
    while len(setups) < SETUP_SAMPLES:
        probe = Child(args.workload, "setup",
                      run_dir / f"setup-{len(setups)}", deadline)
        setups.append(probe.setup_ref_s)
    sweeps = [c.metrics["sweep_ref_s"] for c in rounds]
    children = list(rounds)
    if args.trace:
        traced = Child(args.workload, "sweep", run_dir / "traced", deadline,
                       traced=True)
        children.append(traced)
        layers = traced.metrics["layers"]
        layers["trace.overhead_ratio"] = (
            traced.metrics["sweep_ref_s"] / statistics.median(sweeps))
        metrics = {m["name"]: _metric(layers[m["name"]], m["unit"])
                   for m in args.spec["per_layer"]}
        _print_layers(args.workload, metrics, layers)
    else:
        values = {
            "sweep_s": statistics.median(sweeps),
            "sim_kips": statistics.median(
                c.metrics["instructions"] / c.metrics["sweep_ref_s"] / 1e3
                for c in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(
                c.metrics["peak_rss_mb"] for c in rounds),
        }
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
                   for m in args.spec["end_to_end"]}
        for name, m in metrics.items():
            samples = len(setups) if name == "setup_s" else len(rounds)
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}"
                  f"  (median of {samples})")
        print(f"{args.workload} wall-clock sweep seconds "
              f"{[round(c.metrics['sweep_s'], 3) for c in rounds]}, host "
              f"slowdown {[round(c.metrics['sweep']['slowdown'], 3) for c in rounds]}")
    failures = [f for c in children for f in c.metrics["failures"]]
    for failure in failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not any(c.metrics["whole_sweep_failed"] for c in children),
        "attempted": sum(c.metrics["jobs"] for c in children),
        "failed": sum(c.metrics["failed"] for c in children),
        "metrics": metrics,
    }
    (run_dir / "summary.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": len(rounds),
        "sweep_s": sweeps, "setup_s": setups, "failures": failures,
        "wall_sweep_s": [c.metrics["sweep_s"] for c in rounds],
        "wall_setup_s": [c.setup_s for c in rounds],
        "result": result,
    }, indent=1) + "\n")
    return result


def _print_layers(workload: str, metrics: dict, layers: dict) -> None:
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    sweep = layers["trace.sweep_s"]
    spans = layers["trace.span_sum_s"]
    print(f"{workload} span layers (generate + compile + sim.run + "
          f"sim.functional_warm + export) sum {spans:.3f} s beside traced "
          f"sweep {sweep:.3f} s ({spans / sweep:.1%})")
    packages = layers["packages"]
    shares = ", ".join(f"{k} {v:.3f}" for k, v in
                       sorted(packages.items(), key=lambda kv: -kv[1]))
    print(f"{workload} sampled self time by package (s): {shares}; "
          f"sum {sum(packages.values()):.3f} s beside traced sweep "
          f"{sweep:.3f} s over {layers['sampler_samples']} samples")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="chooses the speculative job the serial-replay "
                             "oracle re-checks")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measured time (set-up plus sweep) of the "
                             "untraced rounds; at least one round runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs-dir", type=Path, default=WORK_DIR / "runs")
    parser.add_argument("--prepare-only", action="store_true",
                        help="only build the private trace cache")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    args.spec = json.loads(SPEC.read_text())
    try:
        result = run(args)
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
