"""Tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.profiling import DependenceProfiler, ExposedLoadTable
from repro.harness.export import export_json
from repro.harness.parallel import JobFailure, run_jobs_parallel
from repro.harness.runner import JobRunner, SimJob
from repro.obs import (
    MetricsRegistry,
    ProgressReporter,
    SpanTracer,
    assert_valid_bench_trajectory,
    assert_valid_run_log,
    atomic_output_file,
    atomic_write_json,
    atomic_write_text,
    build_manifest,
    config_hash,
    finish_manifest,
    format_eta,
    lint_bench_trajectory,
    lint_run_log,
    manifest_path,
    render_report,
    write_manifest,
)
from repro.obs.schema import RunLogError
from repro.sim import Machine, MachineConfig
from repro.sim.stats import METRIC_SOURCES
from repro.trace.events import (
    EpochTrace,
    ParallelRegion,
    Rec,
    TransactionTrace,
    WorkloadTrace,
)


def tiny_workload(work: int = 200) -> WorkloadTrace:
    """Two conflicting epochs: epoch 1's early load of X is violated by
    epoch 0's late store, so violations/rewinds/profiled pairs all show
    up even at this size."""
    epochs = [
        EpochTrace(0, [
            (Rec.COMPUTE, 3 * work),
            (Rec.STORE, 0x1000, 4, 0x400100),
            (Rec.COMPUTE, work // 4),
        ]),
        EpochTrace(1, [
            (Rec.COMPUTE, work // 4),
            (Rec.LOAD, 0x1000, 4, 0x400200),
            (Rec.COMPUTE, 2 * work),
        ]),
    ]
    txn = TransactionTrace(
        name="t", segments=[ParallelRegion(epochs=epochs)]
    )
    return WorkloadTrace(name="tiny", transactions=[txn])


def crashing_workload() -> WorkloadTrace:
    """A trace whose replay raises (unknown record kind)."""
    txn = TransactionTrace(
        name="t",
        segments=[ParallelRegion(epochs=[EpochTrace(0, [(99, 0)])])],
    )
    return WorkloadTrace(name="bad", transactions=[txn])


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------


class TestAtomicIO:
    def test_write_text_creates_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"

    def test_failure_leaves_original_and_no_tmp(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("original")
        with pytest.raises(RuntimeError):
            with atomic_output_file(path) as tmp:
                with open(tmp, "w") as fh:
                    fh.write("partial")
                raise RuntimeError("interrupted mid-write")
        assert path.read_text() == "original"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_fsyncs_temp_file_then_directory(self, tmp_path, monkeypatch):
        """The commit sequence is write → fsync file → rename → fsync dir.

        ``os.replace`` alone only orders metadata: after a power loss an
        un-fsynced temp file can replay as truncated even though the
        rename committed.  Record every fsync by inode and assert both
        the data fsync (before the rename) and the directory fsync
        (after it) happen, in that order.
        """
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(os.fstat(fd).st_ino)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        path = tmp_path / "out.json"
        with atomic_output_file(path) as tmp:
            with open(tmp, "w") as fh:
                fh.write("payload")
            tmp_ino = os.stat(tmp).st_ino
        dir_ino = os.stat(tmp_path).st_ino
        assert tmp_ino in synced
        assert dir_ino in synced
        assert synced.index(tmp_ino) < synced.index(dir_ino)

    def test_fsync_failure_aborts_commit(self, tmp_path, monkeypatch):
        """Fault injection: a failed data fsync must not commit.

        If the disk rejects the flush, the destination keeps its old
        content and the temp file is cleaned up — never a renamed,
        possibly-truncated artifact.
        """
        path = tmp_path / "out.json"
        path.write_text("original")

        def broken_fsync(fd):
            raise OSError(5, "injected I/O error")

        monkeypatch.setattr(os, "fsync", broken_fsync)
        with pytest.raises(OSError, match="injected"):
            with atomic_output_file(path) as tmp:
                with open(tmp, "w") as fh:
                    fh.write("new content")
        assert path.read_text() == "original"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_directory_fsync_failure_is_tolerated(self):
        """Platforms that can't open directories still commit the file:
        the directory fsync is best-effort and must never raise."""
        from repro.obs.atomicio import _fsync_dir

        _fsync_dir("/no/such/directory/anywhere")  # must not raise

    def test_json_trailing_newline_flag(self, tmp_path):
        with_nl = tmp_path / "a.json"
        without = tmp_path / "b.json"
        atomic_write_json(with_nl, {"x": 1})
        atomic_write_json(without, {"x": 1}, trailing_newline=False)
        assert with_nl.read_bytes().endswith(b"\n")
        assert not without.read_bytes().endswith(b"\n")

    def test_export_json_byte_format_unchanged(self, tmp_path):
        # CI cmp-compares results/*.json across serial/parallel runs;
        # the atomic rewrite must keep the historical byte format.
        path = tmp_path / "r.json"
        doc = {"b": [1, 2], "a": "x"}
        export_json(doc, path)
        assert path.read_bytes() == json.dumps(
            doc, indent=1, sort_keys=True
        ).encode()


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------


class TestManifest:
    def test_required_keys_present(self):
        m = build_manifest(
            command=["python", "-m", "repro.harness", "figure5"],
            config={"experiment": "figure5"},
            seed=42,
        )
        for key in (
            "format", "version", "config_hash", "package_version",
            "python_version", "cpu_count", "created_unix", "git_sha",
        ):
            assert key in m
        assert m["seed"] == 42
        assert m["wall_seconds"] is None

    def test_config_hash_depends_on_content_only(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash(
            {"b": 2, "a": 1}
        )
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_finish_manifest_copies(self):
        m = build_manifest(config={})
        done = finish_manifest(m, 1.25, trace_spec_keys=["b", "a"])
        assert m["wall_seconds"] is None
        assert done["wall_seconds"] == 1.25
        assert done["trace_spec_keys"] == ["a", "b"]

    def test_sidecar_path_and_write(self, tmp_path):
        artifact = tmp_path / "figure5.json"
        assert manifest_path(artifact).name == "figure5.manifest.json"
        written = write_manifest(artifact, build_manifest(config={}))
        assert written.exists()
        assert json.loads(written.read_text())["format"] == (
            "repro-run-manifest"
        )


# ----------------------------------------------------------------------
# Tracer + schema lint
# ----------------------------------------------------------------------


class TestTracerSchema:
    def test_tracer_output_is_schema_clean(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with SpanTracer(path, manifest=build_manifest(config={})) as tr:
            with tr.span("outer", label="x"):
                with tr.span("inner"):
                    tr.counter("c", {"a": 1, "b": 2.5})
                tr.event("e", detail="fine")
        assert lint_run_log(path) == []
        assert_valid_run_log(path)

    def test_parent_attribution(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with SpanTracer(path, manifest=build_manifest(config={})) as tr:
            with tr.span("outer"):
                with tr.span("inner"):
                    pass
        spans = {
            r["name"]: r
            for r in map(json.loads, path.read_text().splitlines())
            if r["type"] == "span"
        }
        # Spans are written at exit, so inner precedes outer in the file
        # but still names outer as its parent.
        assert spans["inner"]["parent"] == "outer"
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["t0"] >= spans["outer"]["t0"]

    def test_lint_catches_missing_manifest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with SpanTracer(path) as tr:  # no manifest record
            tr.event("e")
        issues = lint_run_log(path)
        assert any("manifest" in issue for issue in issues)

    def test_lint_catches_bad_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = [
            {"type": "manifest", "seq": 0, "manifest": {"format": "bad"}},
            {"type": "span", "seq": 99, "name": "s",
             "t0": 5.0, "t1": 1.0, "dur": 2.0, "parent": None,
             "attrs": {}},
            {"type": "mystery", "seq": 2},
            {"type": "counter", "seq": 3, "name": "c",
             "values": {"nan-ish": "not-a-number"}},
        ]
        path.write_text(
            "\n".join(json.dumps(rec) for rec in lines)
            + "\nnot json at all\n"
        )
        issues = "\n".join(lint_run_log(path))
        assert "seq 99" in issues
        assert "ends before it starts" in issues
        assert "unknown record type" in issues
        assert "not a finite number" in issues
        assert "invalid JSON" in issues
        assert "manifest" in issues  # wrong format + missing keys
        with pytest.raises(RunLogError):
            assert_valid_run_log(path)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_snapshot_sorted_and_lazy(self):
        reg = MetricsRegistry()
        calls = []
        reg.register("b.two", lambda: calls.append("b") or 2)
        reg.register("a.one", lambda: calls.append("a") or 1)
        assert calls == []  # registration never evaluates
        snap = reg.snapshot()
        assert list(snap) == ["a.one", "b.two"]
        assert snap == {"a.one": 1, "b.two": 2}

    def test_duplicate_name_rejected(self):
        reg = MetricsRegistry()
        reg.register("x", lambda: 0)
        with pytest.raises(ValueError):
            reg.register("x", lambda: 1)
        assert "x" in reg and len(reg) == 1

    def test_machine_metrics_match_stats(self):
        machine = Machine(MachineConfig())
        stats = machine.run(tiny_workload())
        snap = machine.metrics().snapshot()
        for metric, attr in METRIC_SOURCES.items():
            if metric in snap:
                assert snap[metric] == getattr(stats, attr), metric
        # The run above must actually exercise the protocol.
        assert stats.primary_violations >= 1
        assert stats.dependence_pairs
        load_pc, store_pc = stats.dependence_pairs[0][:2]
        assert (load_pc, store_pc) == (0x400200, 0x400100)

    def test_stats_counters_cover_cycles(self):
        stats = Machine(MachineConfig()).run(tiny_workload())
        counters = stats.counters()
        cycle_total = sum(
            v for k, v in counters.items() if k.startswith("cycles.")
        )
        assert cycle_total == pytest.approx(
            stats.n_cpus * stats.total_cycles
        )
        assert counters["machine.n_cpus"] == stats.n_cpus


# ----------------------------------------------------------------------
# Traced runs end-to-end
# ----------------------------------------------------------------------


class TestTracedRunner:
    def test_traced_jobs_and_report(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = SpanTracer(
            path, manifest=build_manifest(config={"experiment": "test"})
        )
        runner = JobRunner(jobs=1, trace_cache=None, tracer=tracer)
        jobs = [
            SimJob(config=MachineConfig(), trace=tiny_workload()),
            SimJob(config=MachineConfig(n_cpus=2),
                   trace=tiny_workload(work=120)),
        ]
        results = runner.run(jobs)
        tracer.close()
        assert len(results) == 2
        assert lint_run_log(path) == []
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        names = {
            r.get("name") for r in records if r["type"] == "span"
        }
        assert "harness.job" in names
        assert "machine.segment" in names
        counters = [
            r for r in records
            if r["type"] == "counter" and r["name"] == "sim.stats"
        ]
        assert len(counters) == 2
        assert "cycles.busy" in counters[0]["values"]
        report = render_report(path)
        assert "Top spans" in report
        assert "Cycle breakdown" in report
        assert "Hottest dependences" in report
        assert "0x400200" in report

    def test_report_groups_cycles_per_mode(self, tmp_path):
        # A log mixing execution modes must not sum their Figure-5
        # breakdowns together: each mode gets its own bar, in mode order.
        path = tmp_path / "run.jsonl"
        tracer = SpanTracer(
            path, manifest=build_manifest(config={"experiment": "test"})
        )
        runner = JobRunner(jobs=1, trace_cache=None, tracer=tracer)
        jobs = [
            SimJob(config=MachineConfig.for_mode(mode),
                   trace=tiny_workload())
            for mode in ("tls_seq", "baseline")
        ]
        runner.run(jobs)
        tracer.close()
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        modes = [
            r["attrs"].get("mode") for r in records
            if r["type"] == "counter" and r["name"] == "sim.stats"
        ]
        assert modes == ["tls_seq", "baseline"]
        report = render_report(path)
        assert "per mode" in report
        assert "tls_seq" in report and "baseline" in report
        # tls_seq serializes on one CPU: its idle fraction dwarfs the
        # baseline's, which a cross-mode sum would have hidden.  Both
        # mode rows are present in the per-mode cycle table.
        lines = [ln for ln in report.splitlines() if "idle" in ln]
        assert any("tls_seq" in ln for ln in lines)
        assert any("baseline" in ln for ln in lines)

    def test_report_header_from_run_finish(self, tmp_path, capsys):
        # The header manifest is written before the run, so a harness
        # run's wall time and trace keys come from run.finish.
        from repro.harness.__main__ import main

        path = tmp_path / "run.jsonl"
        assert main([
            "figure5", "--tiny", "--transactions", "2",
            "--no-trace-cache", "--trace-out", str(path),
        ]) == 0
        capsys.readouterr()
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        header = records[0]["manifest"]
        assert header["wall_seconds"] is None
        assert header["trace_spec_keys"] == []
        finish = [
            r["attrs"] for r in records
            if r["type"] == "event" and r["name"] == "run.finish"
        ]
        assert len(finish) == 1
        keys = finish[0]["trace_spec_keys"]
        assert len(keys) == 14  # 7 benchmarks x {TLS, sequential} traces
        report = render_report(path)
        assert (f"wall time: {finish[0]['wall_seconds']}s"
                f"  traces: 14") in report

    def test_untraced_machine_identical(self):
        # Tracing changes observation only, never simulation results.
        plain = Machine(MachineConfig()).run(tiny_workload())
        runner = JobRunner(jobs=1, trace_cache=None)
        traced = runner.run(
            [SimJob(config=MachineConfig(), trace=tiny_workload())]
        )[0]
        assert plain == traced


# ----------------------------------------------------------------------
# Progress / heartbeats
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


class TestProgress:
    def test_format_eta(self):
        assert format_eta(42) == "42s"
        assert format_eta(125) == "2m05s"
        assert format_eta(3720) == "1h02m"

    def test_render_counts_rate_and_eta(self):
        clock = FakeClock()
        reporter = ProgressReporter(total=8, clock=clock)
        clock.t += 4.0
        reporter.set_done(4)
        line = reporter.render()
        assert "4/8" in line
        assert "1.00/s" in line
        assert "eta 4s" in line

    def test_stalled_worker_flagged(self):
        clock = FakeClock()
        reporter = ProgressReporter(
            total=2, stall_after=30.0, clock=clock
        )
        reporter.observe_heartbeats({
            7: ("new_order[abcd1234]", clock.t - 45.0),
            8: ("stock_level[ffff0000]", clock.t - 1.0),
        })
        line = reporter.render()
        assert "w7: new_order[abcd1234] (45s ago) STALLED?" in line
        assert "w8: stock_level[ffff0000] (1s ago)" in line
        assert line.count("STALLED?") == 1

    def test_maybe_render_rate_limited(self, capsys):
        clock = FakeClock()
        reporter = ProgressReporter(total=2, interval=10.0, clock=clock)
        reporter.maybe_render()
        reporter.maybe_render()  # within the interval: suppressed
        clock.t += 11.0
        reporter.maybe_render()
        assert len(capsys.readouterr().err.splitlines()) == 2


# ----------------------------------------------------------------------
# Parallel failure identity
# ----------------------------------------------------------------------


class TestParallelFailures:
    def test_worker_crash_names_the_job(self):
        jobs = [
            SimJob(config=MachineConfig(), trace=tiny_workload()),
            SimJob(config=MachineConfig(), trace=crashing_workload()),
        ]
        with pytest.raises(JobFailure) as exc_info:
            run_jobs_parallel(jobs, n_workers=2)
        message = str(exc_info.value)
        assert "inline-trace" in message
        assert "cpus=4" in message
        assert "unknown record kind 99" in message

    def test_success_path_matches_serial(self):
        jobs = [
            SimJob(config=MachineConfig(), trace=tiny_workload()),
            SimJob(config=MachineConfig(), trace=tiny_workload(work=120)),
        ]
        parallel = run_jobs_parallel(jobs, n_workers=2)
        serial = [Machine(j.config).run(j.trace) for j in jobs]
        assert parallel == serial


# ----------------------------------------------------------------------
# ExposedLoadTable shift/mask indexing
# ----------------------------------------------------------------------


class TestExposedLoadTableIndexing:
    @pytest.mark.parametrize("entries", [64, 256, 1024])
    @pytest.mark.parametrize("line_size", [16, 32, 64])
    def test_shift_mask_byte_identical(self, entries, line_size):
        table = ExposedLoadTable(entries=entries, line_size=line_size)
        assert table._line_shift is not None
        for addr in range(0, entries * line_size * 3, 7):
            assert table._index(addr) == (
                (addr // line_size) % entries
            ), addr

    def test_non_power_of_two_line_size_falls_back(self):
        table = ExposedLoadTable(entries=64, line_size=48)
        assert table._line_shift is None
        for addr in range(0, 64 * 48 * 2, 5):
            assert table._index(addr) == (addr // 48) % 64

    def test_update_lookup_roundtrip(self):
        table = ExposedLoadTable(entries=64, line_size=32)
        table.update(0x1000, 0x400100)
        assert table.lookup(0x1000) == 0x400100
        # Aliasing line (same index, different tag) misses.
        assert table.lookup(0x1000 + 64 * 32) is None


class TestDependenceProfilerPairs:
    def test_pairs_ranked_and_plain(self):
        profiler = DependenceProfiler()
        profiler.record(0x10, 0x20, 100.0)
        profiler.record(0x30, 0x40, 900.0)
        profiler.record(0x10, 0x20, 50.0)
        assert profiler.pairs() == [
            (0x30, 0x40, 900.0, 1),
            (0x10, 0x20, 150.0, 2),
        ]


class TestBenchTrajectoryLint:
    def _entry(self, **over):
        entry = {
            "runner": "local",
            "scale": "tiny",
            "scenario": "inner_loop",
            "python": "3.11.7",
            "records": 1000,
            "records_per_second": 50000.0,
            "manifest": None,
        }
        entry.update(over)
        return entry

    def _write(self, tmp_path, entries):
        path = tmp_path / "BENCH_speed.json"
        path.write_text(json.dumps(entries))
        return path

    def test_valid_trajectory_clean(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                self._entry(),
                self._entry(
                    scenario="speculative",
                    ratio_to_previous=1.02,
                    median_records_per_second=49000.0,
                    stdev_records_per_second=120.0,
                ),
            ],
        )
        assert lint_bench_trajectory(path) == []
        assert_valid_bench_trajectory(path)

    def test_repo_trajectory_clean(self):
        repo = os.path.join(os.path.dirname(__file__), "..")
        path = os.path.join(repo, "BENCH_speed.json")
        assert lint_bench_trajectory(path) == []

    def test_missing_manifest_key_flagged(self, tmp_path):
        entry = self._entry()
        del entry["manifest"]
        path = self._write(tmp_path, [entry])
        issues = "\n".join(lint_bench_trajectory(path))
        assert "missing manifest key" in issues

    def test_bad_entries_flagged(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                self._entry(records=0),
                self._entry(records_per_second="fast"),
                self._entry(scenario=""),
                self._entry(ratio_to_previous=-1.0),
                "not-an-object",
            ],
        )
        issues = "\n".join(lint_bench_trajectory(path))
        assert "entry 0: records" in issues
        assert "entry 1: records_per_second" in issues
        assert "entry 2: scenario" in issues
        assert "entry 3" in issues
        assert "entry 4: not an object" in issues
        with pytest.raises(RunLogError):
            assert_valid_bench_trajectory(path)

    def test_not_an_array(self, tmp_path):
        path = self._write(tmp_path, {"runner": "x"})
        assert lint_bench_trajectory(path) == [
            "trajectory is not a JSON array"
        ]

    def test_unreadable(self, tmp_path):
        assert "unreadable trajectory" in lint_bench_trajectory(
            tmp_path / "absent.json"
        )[0]
