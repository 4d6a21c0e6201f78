"""The simulated chip-multiprocessor.

``Machine`` replays a :class:`~repro.trace.events.WorkloadTrace` on a CMP
of ``n_cpus`` cores with private write-through L1s and a shared
speculative L2, under the TLS protocol implemented by
:class:`~repro.core.engine.TLSEngine`.

The simulation is discrete-event: a global heap orders per-CPU "next
record" events by cycle, so every memory reference, latch operation, and
violation is processed in global time order.  Events at the same cycle
are processed in CPU-index order — a canonical tie-break independent of
scheduling history, so replaying a trace through the compiled fast path
(:mod:`repro.trace.compile`) interleaves CPUs identically to the
per-record interpreted path.  COMPUTE batches advance a CPU's clock many
cycles at once without interacting with other CPUs.

Scheduling model: a parallel region's epochs are assigned to CPUs in
logical order, round-robin; a CPU picks up the next unstarted epoch only
after its current epoch commits (its L1 and its hardware thread contexts
hold that epoch's state until then).  Serial segments run on CPU 0 while
the other CPUs idle.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..core.accounting import Category, CycleCounters
from ..core.engine import RewindAction, TLSEngine
from ..core.epoch import EpochExecution, EpochStatus
from ..core.latches import LatchTable
from ..cpu.pipeline import CorePipeline
from ..memory.l1 import L1Cache
from ..memory.l2 import SpeculativeL2
from ..memory.timing import MemorySystemTiming
from ..trace.compile import (
    compile_region,
    memo_get,
    memo_put,
)
from ..trace.events import (
    EpochTrace,
    ParallelRegion,
    Rec,
    SerialSegment,
    WorkloadTrace,
)
from .config import MachineConfig
from .engine import select_engine_core
from .stats import SimulationStats
from .timeline import (
    COMMIT,
    EPOCH_START,
    FINISH,
    STALL_BEGIN,
    STALL_END,
    SUBTHREAD_START,
    VIOLATION,
    TimelineEvent,
)

# Category keys hoisted to module level for the per-record hot paths.
_BUSY = Category.BUSY
_MISS = Category.MISS
_OVERHEAD = Category.OVERHEAD


class WarmState(NamedTuple):
    """Functionally-warmed machine state (:meth:`Machine.warm_state`).

    Architectural state only, as tuples and bytes: per CPU the L1's
    per-set LRU tag order with its hit/miss tallies, and the branch
    predictor's counters, history and tallies; the L2's per-set
    ``(tag, dirty)`` committed lines in LRU order with its tallies; and
    the metrics snapshot ``_collect_stats`` subtracts.
    """

    l1s: Tuple[tuple, ...]
    predictors: Tuple[tuple, ...]
    l2: tuple
    metrics: Tuple[Tuple[str, float], ...]


#: ``(warm trace, config, WarmState)`` of the last fresh-machine warm in
#: this process (see :meth:`Machine.functional_warm`).  Holding the
#: trace keeps its identity from being reused by another object.
_WARM_MEMO: Optional[Tuple[WorkloadTrace, MachineConfig, WarmState]] = None


class _BatchJournal:
    """Rewind journal for one in-flight speculative super-record.

    Armed at dispatch (``epoch`` set), disarmed when the completion
    event pops or a squash restores it.  One per CPU, reused across
    dispatches — at most one batch is ever in flight per CPU.
    """

    __slots__ = (
        "epoch",       # EpochExecution while armed, else None
        "start",       # record cursor at dispatch
        "start_time",  # dispatch cycle
        "steps",       # per-record (instrs, cycles, is_overhead, branch)
        "instrs",      # total instructions charged at dispatch
        "busy",        # busy cycles charged (incl. dynamic penalties)
        "overhead",    # overhead cycles charged
        "pred_snap",   # predictor scalar snapshot (journal())
        "pred_log",    # predictor counter undo log, reused list
    )

    def __init__(self):
        self.epoch = None
        self.start = 0
        self.start_time = 0.0
        self.steps = ()
        self.instrs = 0
        self.busy = 0
        self.overhead = 0
        self.pred_snap = None
        self.pred_log = []


class _CPU:
    """Per-core simulation state."""

    __slots__ = (
        "index",
        "pipeline",
        "l1",
        "epoch",
        "event_version",
        "blocked_latch",
        "block_start",
        "sync_line",
        "sync_skip",
        "totals",
        "outstanding",
        "retired_at_oldest_miss",
        "journal",
        "hoist",
    )

    def __init__(self, index: int, config: MachineConfig):
        self.index = index
        self.journal = _BatchJournal()
        self.pipeline = CorePipeline(config.pipeline)
        self.l1 = L1Cache(config.l1_geometry())
        self.epoch: Optional[EpochExecution] = None
        self.event_version = 0
        self.blocked_latch: Optional[int] = None
        self.block_start = 0.0
        #: Line this CPU's load is synchronizing on (predicted-violating
        #: load policy), or None.
        self.sync_line: Optional[int] = None
        #: Skip the synchronization check once (set when woken).
        self.sync_skip = False
        self.totals = CycleCounters()
        #: Outstanding load-miss completion times (overlap_loads mode),
        #: oldest first, paired with the retired-instruction count when
        #: each miss was issued.
        self.outstanding: List[Tuple[float, int]] = []
        self.retired_at_oldest_miss = 0
        #: Per-region tuple of hot dispatch bindings (chained compiled
        #: dispatch); rebuilt by _run_region, unpacked once per event.
        self.hoist: Optional[tuple] = None


class Machine:
    """A simulated CMP executing one workload trace."""

    def __init__(self, config: Optional[MachineConfig] = None,
                 record_events: bool = False, observer=None,
                 tracer=None):
        self.config = config or MachineConfig()
        #: Timeline events (see repro.sim.timeline); empty unless
        #: record_events is True — recording costs time and memory.
        self.record_events = record_events
        self.events: List[TimelineEvent] = []
        #: Optional commit-log observer (repro.verify.observer): receives
        #: on_epoch_start / on_op / on_rewind / on_commit callbacks.
        self.observer = observer
        #: Optional repro.obs.tracer.SpanTracer.  Only segment/compile
        #: granularity is traced — never the per-record hot loop — and
        #: every producer site is guarded by ``tracer is not None``, so
        #: an untraced run executes the original code path.
        self.tracer = tracer
        self._invariants = None
        if self.config.check_invariants:
            # Imported lazily: repro.verify imports repro.sim.
            from ..verify.invariants import InvariantChecker

            self._invariants = InvariantChecker(
                interval=self.config.invariant_interval
            )
        self.l2 = SpeculativeL2(
            geometry=self.config.l2_geometry(),
            directory=None,  # bound to the engine below
            victim_entries=self.config.victim_entries,
            line_granularity_loads=self.config.tls.line_granularity_loads,
        )
        self.engine = TLSEngine(
            l2=self.l2, n_cpus=self.config.n_cpus, config=self.config.tls
        )
        self.l2.directory = self.engine
        self.msys = MemorySystemTiming(
            l2_banks=self.config.l2_banks,
            l2_bank_occupancy=self.config.l2_bank_occupancy,
            line_size=self.config.line_size,
            l2_latency=self.config.l2_latency,
            memory_latency=self.config.memory_latency,
            memory_gap=self.config.memory_gap,
        )
        self.latches = LatchTable()
        self.cpus = [_CPU(i, self.config) for i in range(self.config.n_cpus)]
        #: line address -> CPU indices whose predicted-violating load is
        #: waiting for an earlier epoch's store to that line.
        self._sync_waiters: Dict[int, List[int]] = {}
        #: Overflow-squash stall state.  An epoch whose speculative
        #: state overflows the L2 is fully squashed and normally retried
        #: after the violation penalty; if it overflows *again* without
        #: the commit horizon having advanced, retrying immediately is
        #: futile (the cache pressure that evicted it is still there)
        #: and a population of thrashing epochs can starve the homefree
        #: epoch's memory accesses almost indefinitely.  Repeat
        #: offenders are parked here (cpu index -> (epoch, restart
        #: cycle)) and woken when the commit horizon next advances.
        self._overflow_parked: Dict[int, Tuple] = {}
        #: epoch order -> commit horizon at that epoch's last overflow.
        self._overflow_seen: Dict[int, int] = {}
        self.now = 0.0
        #: (cycle, cpu_index, event_version) — ties resolve by CPU index.
        self._heap: List[Tuple[float, int, int]] = []
        self._epochs_total = 0
        self._deadlock_breaks = 0
        # Hot-loop constants hoisted out of the per-record dispatch; the
        # config is immutable for the lifetime of a Machine.
        tls = self.config.tls
        self._overlap_loads = self.config.overlap_loads
        self._mshr_entries = self.config.mshr_entries
        self._subthread_start_cost = tls.subthread_start_cost
        #: Either per-load predictor policy enabled?  When False the
        #: predictor/synchronization checks are skipped entirely on the
        #: load fast path (both always return False in that case).
        self._load_policies = (
            tls.predictor_subthreads or tls.sync_predicted_loads
        )
        #: Fixed sub-thread spacing, or None under adaptive spacing (the
        #: per-epoch spacing then requires the engine's policy call).
        self._subthread_spacing = (
            None if tls.adaptive_spacing else tls.subthread_spacing
        )
        self._value_predict = tls.value_predict_loads
        self._spec_slice_limit = tls.spec_slice_limit
        self._max_subthreads = tls.max_subthreads
        # Memory-timing fast path: the composed MemorySystemTiming calls
        # decompose into bank/channel reservations plus fixed latencies;
        # binding the pieces here lets the per-line loops inline the
        # arithmetic (see timing.py for the composed reference forms).
        self._banks_reserve = self.msys.banks.reserve
        self._chan_reserve = self.msys.channel.reserve
        self._l2_lat = self.msys.l2_latency
        self._mem_lat = self.msys.memory_latency
        #: The other CPUs' L1s, per CPU (write-invalidate walk).
        self._other_l1s = [
            [o.l1 for o in self.cpus if o is not c] for c in self.cpus
        ]
        # Trace compilation (repro.trace.compile): per-region lowered
        # entry lists, keyed by trace object identity.
        self._compile_enabled = self.config.compile_traces
        #: Everything the compiled entries depend on besides the records
        #: themselves.  Compilations are cached on the segment objects so
        #: repeated runs of the same trace (figure sweeps, benchmarks)
        #: skip recompilation; a key mismatch forces a fresh compile.
        self._compile_key = (
            self.config.line_size,
            self.l2.word_size,
            self.l2.line_granularity_loads,
            self.config.pipeline,
            not self._overlap_loads,
        )
        self._region_compiled: Optional[Dict[int, list]] = None
        #: Regions whose lowered entries came out of a cache (the
        #: process-wide memo or the segment-attached dict) instead of
        #: being recompiled.
        self._compile_reuses = 0
        self._batched_records = 0
        self._fast_loads = 0
        self._fast_stores = 0
        self._private_stores = 0
        #: Speculative dispatch machinery (journaled batches + chained
        #: in-order dispatch); requires compiled traces.
        self._spec_dispatch = (
            self._compile_enabled and self.config.speculative_batches
        )
        self._spec_batches = 0
        self._batch_squashes = 0
        #: Columnar bulk resolution of compiled load runs
        #: (repro.memory.columnar).  Rides on the chained dispatch loop;
        #: the per-load policies make every load a stateful engine call,
        #: which the bulk path cannot replicate, so they force scalar.
        #: Observer/invariant gates are per-region (they can be attached
        #: after construction).
        self._columnar = (
            self._spec_dispatch and self.config.columnar
            and not self._load_policies
        )
        self._col_batches = 0
        self._col_accesses = 0
        self._col_residue = 0
        #: Columnar bulk resolution of compiled private-store runs
        #: (repro.memory.columnar.resolve_stores).  Same dispatch
        #: requirements as the load kernel, gated independently
        #: (``columnar_stores``) so the two kernels form separate
        #: differential-testing axes.
        self._columnar_stores = (
            self._spec_dispatch and self.config.columnar_stores
            and not self._load_policies
        )
        self._col_store_batches = 0
        self._col_store_accesses = 0
        self._col_store_residue = 0
        #: The event-loop core (repro.sim.engine): the AOT-compiled
        #: twin of sim/engine_core.py when built and not killed by
        #: ``REPRO_NO_COMPILED_ENGINE=1``, else the pure-Python
        #: reference module.  Both execute the identical source, so
        #: selection is invisible to every statistic.
        self._engine_core = select_engine_core()
        #: Highest CPU index that processed an event at the current
        #: cycle (reset per region) — _restore_batch_journal's replay
        #: needs it to place same-cycle journal steps against the
        #: violator in canonical interpreted order.
        self._proc_max_idx = -1
        # A squash must restore any in-flight batch journal *before*
        # the epoch state is rewound (the journal corrections feed the
        # Failed-cycle attribution the rewind captures).
        self.engine.pre_rewind = self._restore_batch_journal
        #: Metrics snapshot taken after functional warming (see
        #: :meth:`functional_warm`), subtracted by ``_collect_stats`` so
        #: a warmed run reports only measured-phase counters.
        self._warm_metrics: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def functional_warm(self, workload: WorkloadTrace) -> None:
        """Replay a warmup prefix *un-timed* into the machine state.

        SMARTS-style functional warming for the trace sampler
        (:mod:`repro.trace.sampling`): loads, stores, and branches
        update the L1s, the shared L2 (committed, non-speculative
        path), and the branch predictors — but no engine events are
        scheduled and the clock does not advance, so a subsequent
        :meth:`run` starts at cycle 0 against warm caches, exactly as
        the measured transactions would have found them mid-workload.

        Epochs are replayed on the CPUs they would run on (logical
        order, round-robin over the region width) so each private L1
        warms with its own epochs' lines; stores walk the other L1s'
        invalidations like the timed write-through path does.  Counter
        pollution from warming (L1/L2 hit/miss tallies, predictor
        updates) is snapshotted and subtracted in ``_collect_stats``.

        A sampled unit's two detailed runs warm the same prefix object
        under an equal config.  The last warm of a fresh machine is
        therefore kept as a :class:`WarmState` in a one-entry
        process-local memo keyed by (trace identity, config equality),
        and a fresh machine asked for the same warm restores it instead
        of replaying.
        """
        global _WARM_MEMO
        fresh = self._is_fresh()
        memo = _WARM_MEMO
        if (fresh and memo is not None and memo[0] is workload
                and memo[1] == self.config):
            self.restore_warm_state(memo[2])
            return
        width = self._region_width()
        l2 = self.l2
        load_line = l2.load_line
        store_line = l2.store_line
        line_mask = l2.geom.line_mask
        line_size = l2.geom.line_size
        LOAD, STORE, BRANCH = Rec.LOAD, Rec.STORE, Rec.BRANCH
        for txn in workload.transactions:
            for segment in txn.segments:
                if isinstance(segment, SerialSegment):
                    assignments = [(0, segment.records)]
                elif isinstance(segment, ParallelRegion):
                    assignments = [
                        (i % width, e.records)
                        for i, e in enumerate(segment.epochs)
                    ]
                else:
                    raise TypeError(f"unknown segment {segment!r}")
                for cpu_idx, records in assignments:
                    cpu = self.cpus[cpu_idx]
                    l1_access = cpu.l1.access
                    l1_fill = cpu.l1.fill
                    predict = cpu.pipeline.predictor.predict_and_update
                    others = self._other_l1s[cpu_idx]
                    for rec in records:
                        # Each access walks every line it spans through
                        # the single-line paths.  Warming never enforces
                        # inclusion, so interleaving L1 and L2 per line
                        # leaves the same state as access-wide passes.
                        kind = rec[0]
                        if kind == LOAD:
                            addr, size = rec[1], rec[2]
                            tag = addr & line_mask
                            last = (
                                addr + size - 1 if size > 1 else addr
                            ) & line_mask
                            while True:
                                if not l1_access(tag):
                                    l1_fill(tag, False)
                                load_line(tag, -1, None, False, 0)
                                if tag == last:
                                    break
                                tag += line_size
                        elif kind == STORE:
                            addr, size = rec[1], rec[2]
                            tag = addr & line_mask
                            last = (
                                addr + size - 1 if size > 1 else addr
                            ) & line_mask
                            while True:
                                if not l1_access(tag):
                                    l1_fill(tag, False)
                                for other in others:
                                    other.invalidate(tag)
                                store_line(tag, -1, None, 0, None, False)
                                if tag == last:
                                    break
                                tag += line_size
                        elif kind == BRANCH:
                            predict(rec[1], rec[2])
        self._warm_metrics = self.metrics().snapshot()
        if fresh:
            _WARM_MEMO = (workload, self.config, self.warm_state())

    def _is_fresh(self) -> bool:
        """Nothing has run or warmed on this machine yet."""
        return (
            self._warm_metrics is None
            and self._epochs_total == 0
            and not self.l2._sets
            and not any(
                c.l1._sets or c.pipeline.predictor.predictions
                for c in self.cpus
            )
        )

    def warm_state(self) -> WarmState:
        """Immutable snapshot of functionally-warmed state.

        Raises unless the machine holds architectural state only: no
        speculative L1 line, L2 version, context bit or victim entry.
        """
        if self._warm_metrics is None:
            raise RuntimeError("machine has not been functionally warmed")
        return WarmState(
            l1s=tuple(c.l1.warm_state() for c in self.cpus),
            predictors=tuple(
                c.pipeline.predictor.warm_state() for c in self.cpus
            ),
            l2=self.l2.warm_state(),
            metrics=tuple(self._warm_metrics.items()),
        )

    def restore_warm_state(self, state: WarmState) -> None:
        """Install a :meth:`warm_state` snapshot into a fresh machine."""
        if not self._is_fresh():
            raise RuntimeError("warm state restores into a fresh machine")
        for cpu, l1, predictor in zip(self.cpus, state.l1s,
                                      state.predictors):
            cpu.l1.restore_warm_state(l1)
            cpu.pipeline.predictor.restore_warm_state(predictor)
        self.l2.restore_warm_state(state.l2)
        self._warm_metrics = dict(state.metrics)

    def run(self, workload: WorkloadTrace) -> SimulationStats:
        """Replay the workload; returns the aggregated statistics."""
        tracer = self.tracer
        # Traces materialized through the harness cache carry their
        # spec_key; together with the segment ordinal it names a region's
        # records process-wide (repro.trace.compile.REGION_MEMO).
        content_key = getattr(workload, "content_key", None)
        ordinal = 0
        for txn in workload.transactions:
            for segment in txn.segments:
                if isinstance(segment, SerialSegment):
                    kind = "serial"
                    epochs = [
                        EpochTrace(epoch_id=-1, records=segment.records)
                    ]
                elif isinstance(segment, ParallelRegion):
                    kind = "parallel"
                    epochs = segment.epochs
                else:
                    raise TypeError(f"unknown segment {segment!r}")
                token = (
                    None if content_key is None
                    else (content_key, ordinal)
                )
                ordinal += 1
                if tracer is not None:
                    with tracer.span(
                        "machine.segment", kind=kind, epochs=len(epochs)
                    ):
                        self._run_region(
                            epochs, cache_host=segment, memo_token=token
                        )
                else:
                    self._run_region(
                        epochs, cache_host=segment, memo_token=token
                    )
        if self._invariants is not None:
            self._invariants.on_finish(self)
        return self._collect_stats()

    # ------------------------------------------------------------------
    # Region orchestration
    # ------------------------------------------------------------------

    def _region_width(self) -> int:
        width = self.config.region_cpus or self.config.n_cpus
        return max(1, min(width, self.config.n_cpus))

    def _run_region(self, epoch_traces: List[EpochTrace],
                    cache_host=None, memo_token=None) -> None:
        if not epoch_traces:
            return
        if self._compile_enabled:
            # Compilations are pure functions of (records, compile key),
            # looked up through two caches: the process-wide region memo
            # keyed by (trace content key, segment ordinal, compile key)
            # — shared across Machine instances and inherited copy-on-
            # write by forked harness workers — and a per-segment dict
            # keyed by compile key for traces without a content key
            # (inline/synthesized).  The entries are cached positionally
            # — the serial pseudo-EpochTrace is recreated per run, so an
            # id-keyed cache would never hit.
            per_epoch = None
            token = None
            if memo_token is not None:
                token = (memo_token[0], memo_token[1], self._compile_key)
                per_epoch = memo_get(token)
            host_cache = None
            if cache_host is not None:
                host_cache = getattr(cache_host, "_compile_cache", None)
                if per_epoch is None and host_cache is not None:
                    per_epoch = host_cache.get(self._compile_key)
            if per_epoch is None:
                if self.tracer is not None:
                    with self.tracer.span(
                        "machine.compile", epochs=len(epoch_traces)
                    ):
                        per_epoch = compile_region(
                            epoch_traces, self.l2, self.config.pipeline,
                            batches=not self._overlap_loads,
                        ).epochs
                else:
                    per_epoch = compile_region(
                        epoch_traces, self.l2, self.config.pipeline,
                        batches=not self._overlap_loads,
                    ).epochs
                if token is not None:
                    memo_put(token, per_epoch)
                if cache_host is not None:
                    if host_cache is None:
                        cache_host._compile_cache = host_cache = {}
                    host_cache[self._compile_key] = per_epoch
            else:
                self._compile_reuses += 1
            self._region_compiled = {
                id(t): entries
                for t, entries in zip(epoch_traces, per_epoch)
            }
        else:
            self._region_compiled = None
        width = self._region_width()
        self._pending = list(epoch_traces)
        self._pending_idx = 0
        self._region_remaining = len(epoch_traces)
        start = self.now
        spawn = self.config.tls.spawn_latency if width > 1 else 0
        for i, cpu in enumerate(self.cpus[:width]):
            if self._pending_idx >= len(self._pending):
                break
            # Fork chain: epoch k is spawned by its predecessor, so it
            # begins k spawn latencies after the region opens.
            self._start_next_epoch(cpu, start + i * spawn)
        cpus = self.cpus
        engine = self.engine
        spec_dispatch = (
            self._spec_dispatch and self._region_compiled is not None
        )
        if spec_dispatch:
            # Bindings the chained dispatch loop needs per record, frozen
            # for the region.  Building them once here and unpacking one
            # tuple per heap event replaces ~30 chained attribute loads
            # per event (every name below is assigned once at machine or
            # region setup and only mutated in place afterwards; the
            # L1's _spec_tags set *is* rebound by flash_invalidate_spec,
            # so it is deliberately absent — consumers reach it through
            # the hoisted L1 object).
            banks = self.msys.banks
            l2 = self.l2
            shared = (
                self.observer, self._overlap_loads, self._load_policies,
                self._subthread_spacing, self._spec_slice_limit,
                self._max_subthreads, self._subthread_start_cost,
                self._banks_reserve, self._chan_reserve, self._l2_lat,
                self._mem_lat, l2.load_line, l2.store_line,
                self._sync_waiters, self.msys, self._value_predict,
                banks, banks._line_shift, banks._bank_mask,
                banks._next_free, banks.occupancy,
                l2._line_versions, l2._sets, l2._set_shift,
                l2._set_mask, l2._ctx_lines,
            )
            for c in cpus:
                c.hoist = shared + (
                    c.pipeline, c.l1, c.pipeline._issue_width,
                    c.pipeline._mispredict_penalty,
                    self._other_l1s[c.index],
                    engine.exposed_load_tables[c.index].update,
                    c.l1.resident, c.l1._sets, c.l1._set_shift,
                    c.l1._set_mask, c.l1._notified_tags,
                    tuple(o.resident for o in self._other_l1s[c.index]),
                )
        # The same-cycle processing census is region-scoped (see
        # _restore_batch_journal); a journal never spans regions.
        self._proc_max_idx = -1
        # Overflow stalls never span regions either (a parked epoch must
        # commit for its region to finish); cleared defensively.
        self._overflow_parked.clear()
        # The event loop itself lives in repro.sim.engine_core — the
        # pure-Python reference — or its AOT-compiled twin, selected at
        # machine construction (see repro.sim.engine).
        self._engine_core.run_event_loop(self, spec_dispatch)

    def _start_next_epoch(self, cpu: _CPU, now: float) -> None:
        trace = self._pending[self._pending_idx]
        self._pending_idx += 1
        speculative = self.config.speculation_enabled
        epoch = self.engine.start_epoch(
            trace, cpu.index, now, speculative=speculative
        )
        if self._region_compiled is not None:
            epoch.compiled = self._region_compiled[id(trace)]
        cpu.epoch = epoch
        cpu.l1.clear_spec_marks()
        self._epochs_total += 1
        if self.observer is not None:
            self.observer.on_epoch_start(epoch)
        self._emit(now, EPOCH_START, epoch)
        self._schedule(cpu, now)

    def _emit(self, cycle: float, kind: str, epoch, detail: str = ""):
        if self.record_events and epoch is not None:
            self.events.append(
                TimelineEvent(
                    cycle=cycle,
                    kind=kind,
                    epoch_order=epoch.order,
                    cpu=epoch.cpu,
                    detail=detail,
                )
            )

    def _schedule(self, cpu: _CPU, cycle: float) -> None:
        cpu.event_version += 1
        heapq.heappush(self._heap, (cycle, cpu.index, cpu.event_version))

    # ------------------------------------------------------------------
    # Per-record execution
    # ------------------------------------------------------------------

    def _do_batch(self, cpu: _CPU, epoch: EpochExecution, entry,
                  now: float) -> float:
        """Execute a compiled super-record (non-speculative epochs only).

        The static compute/op/overhead cycles were pre-summed at compile
        time with the pipeline model's exact per-record rounding; branch
        outcomes are replayed against the live predictor here because it
        is stateful.  The total charged equals the sum the interpreted
        path would charge record by record, and because a non-speculative
        epoch's intermediate events touch no cross-CPU state, collapsing
        them into one event leaves the global interleaving unchanged.
        """
        end = entry[1]
        busy = entry[2]
        overhead = entry[3]
        instrs = entry[4]
        branches = entry[5]
        pipeline = cpu.pipeline
        if branches:
            predict = pipeline.predictor.predict_and_update
            penalty = pipeline.config.mispredict_penalty
            for pc, taken in branches:
                if not predict(pc, taken):
                    busy += penalty
        pipeline.instructions_retired += instrs
        epoch.instrs_since_checkpoint += instrs
        cp = epoch.subthreads[-1]
        cp.instructions += instrs
        self._batched_records += end - epoch.cursor
        if busy:
            cp.pending.cycles[_BUSY] += busy
        if overhead:
            cp.pending.cycles[_OVERHEAD] += overhead
        epoch.cursor = end
        return now + busy + overhead

    def _do_batch_spec(self, cpu: _CPU, epoch: EpochExecution, entry,
                       now: float, journal: _BatchJournal):
        """Journaled super-record dispatch for a *speculative* epoch.

        Returns the batch completion time, or None when the gate refuses
        (the interpreted path would have sliced a record in the run or
        opened a sub-thread checkpoint inside it — then the record is
        interpreted normally and the next dispatch retries).

        Before any state is touched the journal is armed: predictor
        scalars are snapshotted, counter writes go through an undo log,
        and the dispatch-time progress/accounting deltas are recorded.
        If a violation squashes this epoch before the completion event
        pops, ``_restore_batch_journal`` rolls all of it back and
        replays, from the entry's per-record ``steps``, exactly the
        prefix the interpreted path would have executed by then.
        """
        max_unit = entry[6]
        spacing = self._subthread_spacing
        if spacing is None:
            spacing = self.engine.spacing_for(epoch)
        limit = self._spec_slice_limit
        if spacing < limit:
            limit = spacing
        if max_unit > limit:
            return None  # a record in the run would be sliced
        instrs = entry[4]
        if (len(epoch.subthreads) < self._max_subthreads
                and epoch.instrs_since_checkpoint + instrs > spacing):
            return None  # a checkpoint boundary falls inside the run
        pipeline = cpu.pipeline
        busy = entry[2]
        branches = entry[5]
        log = journal.pred_log
        log.clear()
        journal.pred_snap = pipeline.predictor.journal()
        if branches:
            busy += pipeline.train_branch_run(branches, log)
        overhead = entry[3]
        end = entry[1]
        journal.epoch = epoch
        journal.start = epoch.cursor
        journal.start_time = now
        journal.steps = entry[7]
        journal.instrs = instrs
        journal.busy = busy
        journal.overhead = overhead
        pipeline.instructions_retired += instrs
        epoch.instrs_since_checkpoint += instrs
        cp = epoch.subthreads[-1]
        cp.instructions += instrs
        self._batched_records += end - epoch.cursor
        self._spec_batches += 1
        if busy:
            cp.pending.cycles[_BUSY] += busy
        if overhead:
            cp.pending.cycles[_OVERHEAD] += overhead
        epoch.cursor = end
        return now + busy + overhead

    def _restore_batch_journal(self, epoch) -> None:
        """Rewind hook: undo an in-flight batch on ``epoch``, if any.

        Called by the engine as the first action of a rewind, *before*
        ``epoch.rewind_to`` captures Failed cycles, so the epoch's
        progress and accounting match what the interpreted path would
        show at this instant.  The dispatch-time mutations are undone
        wholesale, then the records the interpreted path would already
        have executed are replayed from the journal's ``steps``.

        A step scheduled at time ``t`` has fired iff ``t < now``, or
        ``t == now`` and a CPU with a higher index than ours has already
        processed an event this cycle (events tie-break by CPU index, so
        ours would have popped first).  ``_proc_max_idx`` tracks exactly
        that census; it is reset per region, and a journal never spans
        regions.
        """
        cpu = self.cpus[epoch.cpu]
        journal = cpu.journal
        if journal.epoch is not epoch:
            return
        journal.epoch = None
        pipeline = cpu.pipeline
        cp = epoch.subthreads[-1]
        instrs = journal.instrs
        pipeline.instructions_retired -= instrs
        epoch.instrs_since_checkpoint -= instrs
        cp.instructions -= instrs
        if journal.busy:
            cp.pending.cycles[_BUSY] -= journal.busy
        if journal.overhead:
            cp.pending.cycles[_OVERHEAD] -= journal.overhead
        pipeline.predictor.restore(journal.pred_snap, journal.pred_log)
        self._batched_records -= epoch.cursor - journal.start
        self._batch_squashes += 1
        # Interpreted-prefix replay.
        now = self.now
        fired_at_now = self._proc_max_idx > cpu.index
        predict = pipeline.predictor.predict_and_update
        penalty = pipeline._mispredict_penalty
        pending = cp.pending.cycles
        t = journal.start_time
        cursor = journal.start
        for n_instrs, cycles, is_overhead, branch in journal.steps:
            if t > now or (t == now and not fired_at_now):
                break
            if branch is not None and not predict(branch[0], branch[1]):
                cycles += penalty
            pipeline.instructions_retired += n_instrs
            epoch.instrs_since_checkpoint += n_instrs
            cp.instructions += n_instrs
            pending[_OVERHEAD if is_overhead else _BUSY] += cycles
            t += cycles
            cursor += 1
        epoch.cursor = cursor

    def _mlp_stall(self, cpu: _CPU, epoch: EpochExecution,
                   now: float) -> float:
        """Overlap-mode bookkeeping: returns extra stall cycles.

        Completed misses are retired from the MSHR list; if the reorder
        window (rob_entries instructions) has fully retired past the
        oldest outstanding miss, the CPU must wait for its data.
        """
        if not cpu.outstanding:
            return 0.0
        cpu.outstanding = [
            (ready, issued) for ready, issued in cpu.outstanding
            if ready > now
        ]
        if not cpu.outstanding:
            return 0.0
        oldest_ready, issued_at = cpu.outstanding[0]
        window = self.config.pipeline.rob_entries
        if cpu.pipeline.instructions_retired - issued_at >= window:
            cpu.outstanding.pop(0)
            return max(0.0, oldest_ready - now)
        return 0.0

    def _do_compute(self, cpu: _CPU, epoch: EpochExecution, count: int,
                    category: str, now: float) -> float:
        """Retire (part of) a COMPUTE batch.

        Large batches are consumed in slices no longer than the distance
        to the next sub-thread boundary, so checkpoints land at the
        configured spacing even inside long straight-line code.
        """
        remaining = count - epoch.offset
        chunk = remaining
        if epoch.speculative:
            # Keep speculative compute slices bounded: boundaries land
            # exactly on the spacing schedule, and a violation arriving
            # mid-slice mis-attributes at most one slice of cycles to
            # Failed (even when the periodic policy is disabled).
            spacing = self._subthread_spacing
            if spacing is None:
                spacing = self.engine.spacing_for(epoch)
            chunk = min(chunk, spacing, self._spec_slice_limit)
            if len(epoch.subthreads) < self._max_subthreads:
                to_boundary = spacing - epoch.instrs_since_checkpoint
                if 0 < to_boundary < chunk:
                    chunk = to_boundary
        # cpu.pipeline.compute_cycles, inlined.
        pipeline = cpu.pipeline
        pipeline.instructions_retired += chunk
        width = pipeline._issue_width
        cycles = (chunk + width - 1) // width
        mlp_stall = (
            self._mlp_stall(cpu, epoch, now)
            if self._overlap_loads else 0.0
        )
        epoch.instrs_since_checkpoint += chunk
        cp = epoch.subthreads[-1]
        cp.instructions += chunk
        cp.pending.cycles[category] += cycles
        if mlp_stall:
            cp.pending.cycles[_MISS] += mlp_stall
            cycles += mlp_stall
        if epoch.offset + chunk >= count:
            epoch.cursor += 1
            epoch.offset = 0
        else:
            epoch.offset += chunk
        return now + cycles

    # ------------------------------------------------------------------
    # Memory references
    # ------------------------------------------------------------------

    @staticmethod
    def _sub_access(addr: int, size: int, line: int, line_size: int):
        """Clip an access to the part falling within one cache line."""
        sub_addr = max(addr, line)
        sub_end = min(addr + max(size, 1), line + line_size)
        return sub_addr, max(1, sub_end - sub_addr)

    def _do_load(self, cpu: _CPU, epoch: EpochExecution, rec, now: float):
        _, addr, size, pc = rec
        geom = self.l2.geom
        if cpu.sync_skip:
            cpu.sync_skip = False
        elif self._load_policies:
            # Section 5.1 policy: checkpoint right before a predicted-
            # violating load (zero-cost by default; a nonzero cost delays
            # the load by one event).
            if self.engine.maybe_start_predictor_subthread(epoch, pc, now):
                self._emit(now, SUBTHREAD_START, epoch, detail="predictor")
                cost = self._subthread_start_cost
                if cost:
                    epoch.accrue(Category.OVERHEAD, cost)
                    self._schedule(cpu, now + cost)
                    return
            # Moshovos-style policy: synchronize instead of speculating.
            if self.engine.should_synchronize_load(epoch, pc):
                line = geom.line_addr(addr)
                cpu.sync_line = line
                cpu.block_start = now
                self._emit(now, STALL_BEGIN, epoch, detail="sync")
                cpu.event_version += 1
                self._sync_waiters.setdefault(line, []).append(cpu.index)
                return
        epoch.retire(1)
        if self.observer is not None:
            self.observer.on_op(epoch, Rec.LOAD, addr, size, pc)
        l1 = cpu.l1
        l2 = self.l2
        engine = self.engine
        msys = self.msys
        line_size = geom.line_size
        speculative = epoch.speculative
        access_end = addr + (size if size > 1 else 1)
        stall = 0.0
        for line in geom.lines_touched(addr, size):
            # Clip the access to this line (inline of _sub_access).
            sub_addr = addr if addr >= line else line
            sub_end = line + line_size
            if access_end < sub_end:
                sub_end = access_end
            sub_size = sub_end - sub_addr
            if sub_size < 1:
                sub_size = 1
            if l1.access(line):
                if speculative and not l1.is_notified(line):
                    mask = l2.word_mask(sub_addr, sub_size)
                    if not epoch.covers_load(line, mask):
                        # First exposed access to this line by this epoch:
                        # notify the L2 so its speculative-load bit is set.
                        # The notification is asynchronous (piggybacks on
                        # the write-through traffic): it reserves a bank
                        # slot but does not stall the CPU.
                        _result, exposed = engine.load(
                            epoch, sub_addr, sub_size, pc
                        )
                        msys.banks.reserve(line, now)
                        if exposed:
                            l1.mark_spec(
                                line,
                                notified=True,
                                subidx=epoch.current_subthread.index,
                            )
                continue
            result, exposed = engine.load(epoch, sub_addr, sub_size, pc)
            if result.hit:
                ready = msys.l2_access(line, now)
            else:
                ready = msys.memory_access(line, now)
            extra = result.memory_accesses - (0 if result.hit else 1)
            for _ in range(max(0, extra)):
                msys.extra_memory_transfer(now)
            if result.invalidated_lines:
                self._apply_inclusion(result.invalidated_lines)
            if self._overlap_loads:
                # Non-blocking: the miss occupies an MSHR; the CPU stalls
                # only when the MSHRs are exhausted (plus any ROB-window
                # drain computed at retirement time).
                if len(cpu.outstanding) >= self._mshr_entries:
                    oldest_ready, _ = cpu.outstanding.pop(0)
                    stall = max(stall, oldest_ready - now)
                cpu.outstanding.append(
                    (ready, cpu.pipeline.instructions_retired)
                )
            else:
                if ready - now > stall:
                    stall = ready - now
            subidx = (
                epoch.current_subthread.index if speculative else -1
            )
            l1.fill(line, spec=speculative, subidx=subidx)
            if speculative and exposed:
                l1.mark_spec(line, notified=True, subidx=subidx)
        epoch.accrue(Category.BUSY, 1)
        if stall > 0:
            epoch.accrue(Category.MISS, stall)
        epoch.cursor += 1
        self._schedule(cpu, now + 1 + stall)

    def _do_store(self, cpu: _CPU, epoch: EpochExecution, rec, now: float):
        _, addr, size, pc = rec
        epoch.retire(1)
        if self.observer is not None:
            self.observer.on_op(epoch, Rec.STORE, addr, size, pc)
        geom = self.l2.geom
        engine = self.engine
        msys = self.msys
        other_l1s = self._other_l1s[cpu.index]
        l1 = cpu.l1
        line_size = geom.line_size
        speculative = epoch.speculative
        access_end = addr + (size if size > 1 else 1)
        self_rewound = False
        for line in geom.lines_touched(addr, size):
            # Clip the access to this line (inline of _sub_access).
            sub_addr = addr if addr >= line else line
            sub_end = line + line_size
            if access_end < sub_end:
                sub_end = access_end
            sub_size = sub_end - sub_addr
            if sub_size < 1:
                sub_size = 1
            result, rewinds = engine.store(epoch, sub_addr, sub_size, pc)
            # Write-through: the store reserves bandwidth but the CPU does
            # not wait for it (store buffer).
            msys.banks.reserve(line, now)
            for _ in range(result.memory_accesses):
                msys.extra_memory_transfer(now)
            if result.invalidated_lines:
                self._apply_inclusion(result.invalidated_lines)
            # Write-invalidate coherence: drop stale copies in other L1s
            # (empty caches have nothing to drop).
            for ol1 in other_l1s:
                if line in ol1.resident:
                    ol1.invalidate(line)
            l1.fill(
                line,
                spec=speculative,
                subidx=(
                    epoch.current_subthread.index
                    if speculative else -1
                ),
            )
            # Rewinds must be applied before waking synchronized loads:
            # a victim that was sync-blocked has its wait cancelled (the
            # blocked interval is covered by the wall-interval Failed
            # charge) and must not also receive a stall accrual.
            if rewinds:
                self._apply_rewinds(rewinds, now)
                self_rewound = self_rewound or any(
                    r.epoch is epoch for r in rewinds
                )
            self._wake_sync_on_store(line, epoch.order, now)
        if self_rewound:
            # Our own state overflowed and we were squashed mid-record;
            # the rewind already rescheduled us.
            return
        epoch.accrue(Category.BUSY, 1)
        epoch.cursor += 1
        self._schedule(cpu, now + 1)

    def _apply_inclusion(self, lines: List[int]) -> None:
        """L2 evictions invalidate any L1 copies (inclusion)."""
        for line in lines:
            for cpu in self.cpus:
                if line in cpu.l1.resident:
                    cpu.l1.invalidate(line)

    # ------------------------------------------------------------------
    # Memory references — compiled fast path (repro.trace.compile)
    # ------------------------------------------------------------------

    def _do_load_fast(self, cpu: _CPU, epoch: EpochExecution, rec,
                      lines, now: float):
        """Load with precompiled per-line tuples.

        Mirrors :meth:`_do_load` exactly, but the line walk, access
        clipping, and mask arithmetic were done once at compile time.
        Returns the CPU's next event time, or None when blocked or
        rescheduled elsewhere.
        """
        pc = rec[3]
        if cpu.sync_skip:
            cpu.sync_skip = False
        elif self._load_policies:
            if self.engine.maybe_start_predictor_subthread(epoch, pc, now):
                self._emit(now, SUBTHREAD_START, epoch, detail="predictor")
                cost = self._subthread_start_cost
                if cost:
                    epoch.accrue(Category.OVERHEAD, cost)
                    self._schedule(cpu, now + cost)
                    return None
            if self.engine.should_synchronize_load(epoch, pc):
                line = lines[0][0]
                cpu.sync_line = line
                cpu.block_start = now
                self._emit(now, STALL_BEGIN, epoch, detail="sync")
                cpu.event_version += 1
                self._sync_waiters.setdefault(line, []).append(cpu.index)
                return None
        # epoch.retire(1), inlined (hot path).
        epoch.instrs_since_checkpoint += 1
        cp = epoch.subthreads[-1]
        cp.instructions += 1
        if self.observer is not None:
            self.observer.on_op(epoch, Rec.LOAD, rec[1], rec[2], pc)
        self._fast_loads += 1
        l1 = cpu.l1
        msys = self.msys
        banks_reserve = self._banks_reserve
        chan_reserve = self._chan_reserve
        l2_lat = self._l2_lat
        mem_lat = self._mem_lat
        overlap = self._overlap_loads
        l2_load = self.l2.load_line
        order = epoch.order
        stall = 0.0
        if not epoch.speculative:
            # Non-speculative epochs never expose loads, value-predict,
            # or carry a context: go straight to the L2.
            for line, _sub_addr, _mask, load_bits, _private in lines:
                if l1.access(line):
                    continue
                hit, result = l2_load(line, order, None, False, load_bits)
                if hit:
                    # msys.l2_access, inlined.
                    ready = banks_reserve(line, now) + l2_lat
                else:
                    # msys.memory_access, inlined.
                    ready = chan_reserve(
                        banks_reserve(line, now) + l2_lat
                    ) + mem_lat
                    if result.memory_accesses > 1:
                        for _ in range(result.memory_accesses - 1):
                            msys.extra_memory_transfer(now)
                    if result.invalidated_lines:
                        self._apply_inclusion(result.invalidated_lines)
                if overlap:
                    if len(cpu.outstanding) >= self._mshr_entries:
                        oldest_ready, _ = cpu.outstanding.pop(0)
                        stall = max(stall, oldest_ready - now)
                    cpu.outstanding.append(
                        (ready, cpu.pipeline.instructions_retired)
                    )
                elif ready - now > stall:
                    stall = ready - now
                l1.fill(line, spec=False, subidx=-1)
        else:
            # Speculative loads: engine.load_compiled is inlined below
            # (covers_load via the epoch's store-mask union, the value-
            # prediction gate, and the exposed-load-table update).
            engine = self.engine
            su = epoch.store_union
            vp = self._value_predict
            ctx = cp.ctx
            subidx = cp.index
            elt_update = engine.exposed_load_tables[epoch.cpu].update
            for line, sub_addr, mask, load_bits, _private in lines:
                if l1.access(line):
                    if not l1.is_notified(line):
                        written = su.get(line)
                        if written is None or (mask & ~written):
                            # First exposed access to this line by this
                            # epoch: notify the L2 (asynchronous;
                            # reserves a bank slot but does not stall
                            # the CPU).
                            exposed = True
                            if vp and engine._value_prediction_hits(
                                epoch, sub_addr, pc
                            ):
                                exposed = False
                                engine.value_predictions_used += 1
                            l2_load(line, order, ctx, exposed, load_bits)
                            banks_reserve(line, now)
                            if exposed:
                                elt_update(line, pc)
                                l1.mark_spec(
                                    line, notified=True, subidx=subidx
                                )
                    continue
                written = su.get(line)
                exposed = written is None or bool(mask & ~written)
                if exposed and vp and engine._value_prediction_hits(
                    epoch, sub_addr, pc
                ):
                    exposed = False
                    engine.value_predictions_used += 1
                hit, result = l2_load(line, order, ctx, exposed, load_bits)
                if exposed:
                    elt_update(line, pc)
                if hit:
                    # msys.l2_access, inlined.
                    ready = banks_reserve(line, now) + l2_lat
                else:
                    # msys.memory_access, inlined.
                    ready = chan_reserve(
                        banks_reserve(line, now) + l2_lat
                    ) + mem_lat
                    if result.memory_accesses > 1:
                        for _ in range(result.memory_accesses - 1):
                            msys.extra_memory_transfer(now)
                    if result.invalidated_lines:
                        self._apply_inclusion(result.invalidated_lines)
                if overlap:
                    if len(cpu.outstanding) >= self._mshr_entries:
                        oldest_ready, _ = cpu.outstanding.pop(0)
                        stall = max(stall, oldest_ready - now)
                    cpu.outstanding.append(
                        (ready, cpu.pipeline.instructions_retired)
                    )
                elif ready - now > stall:
                    stall = ready - now
                # fill + mark_spec folded into one lookup.
                l1.fill(line, spec=True, subidx=subidx, notified=exposed)
        # epoch.accrue, inlined.
        cp.pending.cycles[_BUSY] += 1
        if stall > 0:
            cp.pending.cycles[_MISS] += stall
        epoch.cursor += 1
        return now + 1 + stall

    def _do_store_fast(self, cpu: _CPU, epoch: EpochExecution, rec,
                       lines, now: float):
        """Store with precompiled per-line tuples.

        Mirrors :meth:`_do_store`; additionally, region-private lines
        (only this epoch ever touches them) skip the violation scan in
        the L2 and the synchronized-load wakeup — both provably no-ops
        for such lines.  Returns the CPU's next event time, or None when
        a rewind of this epoch already rescheduled it.
        """
        pc = rec[3]
        # epoch.retire(1), inlined (hot path).
        epoch.instrs_since_checkpoint += 1
        epoch.subthreads[-1].instructions += 1
        if self.observer is not None:
            self.observer.on_op(epoch, Rec.STORE, rec[1], rec[2], pc)
        self._fast_stores += 1
        engine = self.engine
        msys = self.msys
        l1 = cpu.l1
        other_l1s = self._other_l1s[cpu.index]
        banks_reserve = self._banks_reserve
        sync_waiters = self._sync_waiters
        l2_store = self.l2.store_line
        order = epoch.order
        speculative = epoch.speculative
        if speculative:
            # engine.store_compiled's prologue (epoch.note_store +
            # epoch.current_ctx), inlined; every epoch has sub-thread 0.
            cp = epoch.subthreads[-1]
            sm = cp.store_mask
            su = epoch.store_union
            ctx = cp.ctx
            subidx = cp.index
        else:
            sm = su = None
            ctx = None
            subidx = -1
        self_rewound = False
        for line, _sub_addr, words, _load_bits, private in lines:
            if speculative:
                sm[line] = sm.get(line, 0) | words
                su[line] = su.get(line, 0) | words
            _hit, result = l2_store(line, order, ctx, words, pc,
                                    not private)
            rewinds = None
            if result is not None:
                violations = result.violations
                overflow = result.overflow_squash
                if violations or overflow:
                    rewinds = engine._resolve_violations(violations)
                    if overflow:
                        rewinds.extend(engine._resolve_overflow(overflow))
            # Write-through: the store reserves bandwidth but the CPU does
            # not wait for it (store buffer).
            banks_reserve(line, now)
            if result is not None:
                if result.memory_accesses:
                    for _ in range(result.memory_accesses):
                        msys.extra_memory_transfer(now)
                if result.invalidated_lines:
                    self._apply_inclusion(result.invalidated_lines)
            for ol1 in other_l1s:
                if line in ol1.resident:
                    ol1.invalidate(line)
            l1.fill(line, spec=speculative, subidx=subidx)
            # Rewinds (overflow squashes can hit even on private lines)
            # apply before waking synchronized loads — see _do_store.
            if rewinds:
                self._apply_rewinds(rewinds, now)
                self_rewound = self_rewound or any(
                    r.epoch is epoch for r in rewinds
                )
                if speculative:
                    # A rewind may have truncated the sub-thread list and
                    # replaced the store-mask union: refresh the locals.
                    cp = epoch.subthreads[-1]
                    sm = cp.store_mask
                    su = epoch.store_union
                    ctx = cp.ctx
                    subidx = cp.index
            if private:
                self._private_stores += 1
            elif sync_waiters:
                # A waiter's synchronization line appears in its own
                # trace, so a line no other epoch touches has no waiters.
                self._wake_sync_on_store(line, order, now)
        if self_rewound:
            # Our own state overflowed and we were squashed mid-record;
            # the rewind already rescheduled us.
            return None
        # epoch.accrue, inlined.
        epoch.subthreads[-1].pending.cycles[_BUSY] += 1
        epoch.cursor += 1
        return now + 1

    # ------------------------------------------------------------------
    # Latches (escaped speculation)
    # ------------------------------------------------------------------

    def _do_latch_acquire(self, cpu, epoch, rec, now: float):
        _, latch_id, _pc = rec
        epoch.retire(1)
        if self.latches.try_acquire(latch_id, epoch):
            epoch.current_subthread.latches.append(latch_id)
            epoch.accrue(Category.BUSY, 1)
            epoch.cursor += 1
            self._schedule(cpu, now + 1)
        else:
            # Block; woken by the holder's release (or a rewind).
            cpu.blocked_latch = latch_id
            cpu.block_start = now
            self._emit(now, STALL_BEGIN, epoch, detail=f"latch {latch_id}")
            cpu.event_version += 1  # invalidate any queued event

    def _do_latch_release(self, cpu, epoch, rec, now: float):
        _, latch_id = rec
        epoch.retire(1)
        granted = self.latches.release(latch_id, epoch)
        if granted is not None:
            self._grant_latch(granted, now)
        epoch.accrue(Category.BUSY, 1)
        epoch.cursor += 1
        self._schedule(cpu, now + 1)

    def _grant_latch(self, winner: EpochExecution, now: float) -> None:
        """A blocked epoch was granted the latch it was waiting for."""
        wcpu = self.cpus[winner.cpu]
        if wcpu.epoch is not winner or wcpu.blocked_latch is None:
            return
        latch_id = wcpu.blocked_latch
        if self.latches.holder_of(latch_id) is not winner:
            return
        stall = max(0.0, now - wcpu.block_start)
        winner.accrue(Category.SYNC, stall)
        winner.current_subthread.latches.append(latch_id)
        winner.cursor += 1  # past its LATCH_ACQ record
        wcpu.blocked_latch = None
        self._emit(now, STALL_END, winner)
        self._schedule(wcpu, now + 1)

    # ------------------------------------------------------------------
    # Load synchronization (predicted-violating loads)
    # ------------------------------------------------------------------

    def _wake_sync_on_store(self, line: int, store_order: int,
                            now: float) -> None:
        """An earlier epoch stored the line a synchronized load waits on."""
        waiters = self._sync_waiters.get(line)
        if not waiters:
            return
        for idx in list(waiters):
            wcpu = self.cpus[idx]
            if (
                wcpu.sync_line == line
                and wcpu.epoch is not None
                and wcpu.epoch.order > store_order
            ):
                self._release_sync_waiter(wcpu, now)

    def _wake_eligible_sync_waiters(self, now: float) -> None:
        """Wake synchronized loads with no running earlier epoch left."""
        for waiters in list(self._sync_waiters.values()):
            for idx in list(waiters):
                wcpu = self.cpus[idx]
                epoch = wcpu.epoch
                if epoch is None or wcpu.sync_line is None:
                    waiters.remove(idx)
                    continue
                blocked_by = any(
                    other.order < epoch.order
                    and other.status == EpochStatus.RUNNING
                    for other in self.engine.active.values()
                )
                if not blocked_by:
                    self._release_sync_waiter(wcpu, now)

    def _release_sync_waiter(self, wcpu: _CPU, now: float) -> None:
        """Unblock a synchronized load: account the stall and resume."""
        line = wcpu.sync_line
        waiters = self._sync_waiters.get(line)
        if waiters and wcpu.index in waiters:
            waiters.remove(wcpu.index)
        stall = max(0.0, now - wcpu.block_start)
        if wcpu.epoch is not None:
            wcpu.epoch.accrue(Category.SYNC, stall)
            self._emit(now, STALL_END, wcpu.epoch)
        wcpu.sync_line = None
        wcpu.sync_skip = True
        self._schedule(wcpu, now)

    def _cancel_sync_wait(self, cpu: _CPU) -> None:
        if cpu.sync_line is None:
            return
        waiters = self._sync_waiters.get(cpu.sync_line)
        if waiters and cpu.index in waiters:
            waiters.remove(cpu.index)
        cpu.sync_line = None

    # ------------------------------------------------------------------
    # Violations
    # ------------------------------------------------------------------

    def _apply_rewinds(self, actions: List[RewindAction], now: float) -> None:
        """Apply engine rewind decisions to CPU/timing state."""
        for action in actions:
            epoch = action.epoch
            vcpu = self.cpus[epoch.cpu]
            if vcpu.epoch is not epoch:
                continue  # epoch already gone (should not happen)
            if self.observer is not None:
                self.observer.on_rewind(epoch, action.subthread_idx)
            # A victim blocked on a latch stops waiting and re-executes;
            # the blocked interval is covered by the wall-interval Failed
            # charge below.
            if vcpu.blocked_latch is not None:
                self.latches.cancel_wait(vcpu.blocked_latch, epoch)
                vcpu.blocked_latch = None
            # Likewise for a synchronized (predicted-violating) load.
            if vcpu.sync_line is not None:
                self._cancel_sync_wait(vcpu)
            # Latches acquired by rewound code are released (compensation);
            # waiters granted a latch as a result wake up now.
            winners = self.latches.release_all(
                action.latches_released, epoch
            )
            self._emit(
                now, VIOLATION, epoch,
                detail=(
                    f"{'secondary' if action.secondary else 'primary'} "
                    f"-> sub-thread {action.subthread_idx}"
                ),
            )
            # Everything the rewound sub-threads did becomes Failed time.
            # Attribution is by wall interval, not by the pending cycle
            # counters: an in-flight record (e.g. a long load stall) has
            # its full cost accrued at issue, so counters can overshoot
            # the violation instant.  The interval [sub-thread start,
            # now] is exact, and the per-epoch [failed_low, failed_high]
            # watermark keeps repeated rewinds from double-charging.
            start = epoch.last_rewound_start
            restart = now + self.config.tls.violation_penalty
            vcpu.totals.add(
                Category.FAILED,
                epoch.charge_failed_interval(start, restart),
            )
            vcpu.outstanding.clear()
            # The L1 drops its speculative lines (Section 2.2) — all of
            # them with the paper's sub-thread-unaware L1s, or only the
            # rewound sub-threads' lines with the optional tracking.
            if self.config.l1_subthread_tracking:
                vcpu.l1.flash_invalidate_spec(
                    from_subidx=action.subthread_idx
                )
            else:
                vcpu.l1.flash_invalidate_spec()
            # The re-started sub-thread begins (again) at the restart
            # instant; future rewinds to it charge from here.
            epoch.current_subthread.start_cycle = restart
            self._overflow_parked.pop(epoch.cpu, None)
            if action.overflow and epoch.order > self.engine.commit_horizon:
                horizon = self.engine.commit_horizon
                if self._overflow_seen.get(epoch.order) == horizon:
                    # Second overflow with no commit progress in
                    # between: the squash is deterministic and will
                    # recur, so park the epoch until the horizon
                    # advances (the stall gap is accounted as Idle).
                    # The oldest uncommitted epoch is never parked —
                    # it is what advances the horizon.
                    vcpu.event_version += 1
                    self._overflow_parked[epoch.cpu] = (epoch, restart)
                    for winner in winners:
                        self._grant_latch(winner, now)
                    continue
                self._overflow_seen[epoch.order] = horizon
            self._schedule(vcpu, restart)
            for winner in winners:
                self._grant_latch(winner, now)

    # ------------------------------------------------------------------
    # Commit / completion
    # ------------------------------------------------------------------

    def _finish_epoch(self, cpu: _CPU, epoch: EpochExecution, now: float):
        # Outstanding misses must drain before the epoch can finish.
        if self.config.overlap_loads and cpu.outstanding:
            last_ready = max(r for r, _ in cpu.outstanding)
            cpu.outstanding.clear()
            if last_ready > now:
                epoch.accrue(Category.MISS, last_ready - now)
                self._schedule(cpu, last_ready)
                return
        self._emit(now, FINISH, epoch)
        self.engine.finish_epoch(epoch, now)
        cpu.event_version += 1  # no more events until commit or violation
        committed = self.engine.try_commit()
        # An epoch finishing/committing may unblock synchronized loads
        # that were waiting out earlier epochs.
        self._wake_eligible_sync_waiters(now)
        if committed:
            self._wake_overflow_parked(now)
        for done in committed:
            if self.observer is not None:
                self.observer.on_commit(done)
            self._emit(now, COMMIT, done)
            self._overflow_seen.pop(done.order, None)
            dcpu = self.cpus[done.cpu]
            dcpu.totals.merge(done.drain_pending())
            dcpu.l1.clear_spec_marks()
            dcpu.epoch = None
            self._region_remaining -= 1
            if self._pending_idx < len(self._pending):
                width = self._region_width()
                if done.cpu < width:
                    spawn = (
                        self.config.tls.spawn_latency if width > 1 else 0
                    )
                    self._start_next_epoch(dcpu, now + spawn)

    def _wake_overflow_parked(self, now: float) -> None:
        """Retry epochs stalled on repeated overflow squashes.

        Called when the commit horizon advances: the committed epoch's
        speculative lines are gone, so a parked epoch's next attempt
        has a chance.  If it overflows again at the *new* horizon it
        parks again (``_apply_rewinds``), so each epoch retries at most
        once per commit — forward progress is paced by the homefree
        epoch, which is never parked.
        """
        if not self._overflow_parked:
            return
        parked = self._overflow_parked
        self._overflow_parked = {}
        for cpu_idx in sorted(parked):
            epoch, restart = parked[cpu_idx]
            cpu = self.cpus[cpu_idx]
            if cpu.epoch is not epoch:
                continue
            t = restart if restart > now else now
            # The stall gap [restart, t] is unattributed and therefore
            # lands in Idle; failed-cycle charging resumes from the
            # actual re-start instant.
            epoch.current_subthread.start_cycle = t
            self._schedule(cpu, t)

    # ------------------------------------------------------------------
    # Deadlock safety net
    # ------------------------------------------------------------------

    def _break_deadlock(self) -> None:
        """All CPUs are blocked (or idle) with the region unfinished.

        The latch-ordering discipline in the trace generator should make
        this unreachable; if it happens we violate a speculative latch
        *holder* so the waiters can progress, keeping the simulation sound.
        """
        if self._overflow_parked:
            # Overflow-stalled epochs are woken on commit; if the region
            # has otherwise run dry (e.g. every live epoch is parked),
            # retrying them is always sound — parking is a scheduling
            # choice, not a protocol state.
            self._wake_overflow_parked(self.now)
            return
        blocked_sync = [
            cpu for cpu in self.cpus
            if cpu.sync_line is not None and cpu.epoch is not None
        ]
        if blocked_sync:
            # A synchronized load can always resume safely (proceeding is
            # just ordinary speculation); release the logically-oldest.
            target = min(blocked_sync, key=lambda c: c.epoch.order)
            self._release_sync_waiter(target, self.now)
            return
        blocked = [
            cpu for cpu in self.cpus
            if cpu.blocked_latch is not None and cpu.epoch is not None
        ]
        if not blocked:
            raise RuntimeError(
                "region cannot progress: no events and no blocked CPUs"
            )
        for cpu in sorted(blocked, key=lambda c: c.epoch.order):
            holder = self.latches.holder_of(cpu.blocked_latch)
            if (
                isinstance(holder, EpochExecution)
                and holder.speculative
                and holder.subthreads
            ):
                self._deadlock_breaks += 1
                action = self.engine.force_rewind(holder, 0)
                self._apply_rewinds([action], self.now)
                return
        raise RuntimeError("unbreakable latch deadlock among epochs")

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def metrics(self):
        """Publish every subsystem counter into a fresh registry.

        The dotted names match ``SimulationStats.METRIC_SOURCES``, so
        ``stats.apply_metrics(machine.metrics().snapshot())`` fills the
        stats object, and the span tracer can emit the same names as a
        ``counter`` record without a second naming scheme.  Providers
        are lambdas over live subsystem state — registration is free and
        nothing is evaluated until ``snapshot()``.
        """
        from ..obs.metrics import MetricsRegistry

        engine, l2, cpus = self.engine, self.l2, self.cpus
        registry = MetricsRegistry()
        registry.register_many([
            ("engine.primary_violations",
             lambda: engine.primary_violations),
            ("engine.secondary_violations",
             lambda: engine.secondary_violations),
            ("engine.secondary_rewinds_avoided",
             lambda: engine.secondary_rewinds_avoided),
            ("engine.subthreads_started",
             lambda: engine.subthreads_started),
            ("engine.epochs_committed", lambda: engine.epochs_committed),
            ("engine.epochs_total", lambda: self._epochs_total),
            ("engine.failed_instruction_replays",
             lambda: engine.failed_instruction_replays),
            ("engine.load_predictor_entries",
             lambda: len(engine.load_predictor)),
            ("machine.deadlock_breaks", lambda: self._deadlock_breaks),
            ("machine.branch_mispredictions",
             lambda: sum(
                 c.pipeline.predictor.mispredictions for c in cpus
             )),
            ("machine.instructions_retired",
             lambda: sum(c.pipeline.instructions_retired for c in cpus)),
            ("l1.hits", lambda: sum(c.l1.hits for c in cpus)),
            ("l1.misses", lambda: sum(c.l1.misses for c in cpus)),
            ("l1.spec_invalidations",
             lambda: sum(c.l1.spec_invalidations for c in cpus)),
            ("l2.hits", lambda: l2.hits),
            ("l2.misses", lambda: l2.misses),
            ("l2.victim_spills", lambda: l2.victim_spills),
            ("l2.overflow_squashes", lambda: l2.overflow_squashes),
            ("compile.batched_records", lambda: self._batched_records),
            ("compile.fastpath_loads", lambda: self._fast_loads),
            ("compile.fastpath_stores", lambda: self._fast_stores),
            ("compile.private_line_stores",
             lambda: self._private_stores),
            ("compile.spec_batches", lambda: self._spec_batches),
            ("compile.batch_squashes", lambda: self._batch_squashes),
            ("compile.region_cache_reuses", lambda: self._compile_reuses),
            ("compile.columnar_batches", lambda: self._col_batches),
            ("compile.columnar_accesses", lambda: self._col_accesses),
            ("compile.columnar_residue", lambda: self._col_residue),
            ("compile.columnar_store_batches",
             lambda: self._col_store_batches),
            ("compile.columnar_store_accesses",
             lambda: self._col_store_accesses),
            ("compile.columnar_store_residue",
             lambda: self._col_store_residue),
        ])
        return registry

    def _collect_stats(self) -> SimulationStats:
        stats = SimulationStats(n_cpus=self.config.n_cpus)
        stats.total_cycles = self.now
        stats.per_cpu = [cpu.totals for cpu in self.cpus]
        snapshot = self.metrics().snapshot()
        if self._warm_metrics is not None:
            # Functional warming bumped cache/predictor tallies while
            # the clock stood still; report measured-phase deltas only.
            snapshot = {
                name: value - self._warm_metrics.get(name, 0)
                for name, value in snapshot.items()
            }
        stats.apply_metrics(snapshot)
        stats.dependence_pairs = self.engine.profiler.pairs()
        stats.finalize_idle()
        return stats
