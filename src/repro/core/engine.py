"""The TLS engine: epochs, contexts, sub-threads, violations, commit.

This is the paper's protocol logic, layered over the speculative L2.  The
engine owns:

* the **logical order** of epochs (a global sequence number) and the
  homefree-token commit order;
* the **hardware thread contexts** — ``max_subthreads`` per CPU, one per
  sub-thread (Section 2.2: "a speculative thread context per sub-thread");
  the engine is the :class:`~repro.memory.l2.ContextDirectory` the L2
  consults to interpret context ids;
* the **sub-thread start policy** (a new sub-thread every
  ``subthread_spacing`` speculative instructions, while contexts remain);
* the **sub-thread start tables** and primary/secondary **violation
  resolution**;
* the **dependence profiler** and per-CPU exposed-load tables.

Timing is deliberately *not* here: the machine (``repro.sim.machine``)
calls into the engine for protocol decisions and converts the returned
actions into cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..memory.l2 import AccessResult, SpeculativeL2, Violation
from ..trace.events import EpochTrace
from .accounting import CycleCounters
from .epoch import EpochExecution, EpochStatus
from .prediction import ViolatingLoadPredictor
from .profiling import DependenceProfiler, ExposedLoadTable
from .starttable import SubThreadStartTable


@dataclass(frozen=True)
class TLSConfig:
    """Protocol parameters swept by the paper's evaluation."""

    #: Sub-thread contexts available per speculative thread (2/4/8 in
    #: Figure 6).  1 disables sub-threads: all-or-nothing TLS.
    max_subthreads: int = 8
    #: Start a new sub-thread every n speculative instructions (Figure 6
    #: sweeps this; the paper's baseline is 5,000 at paper scale).
    subthread_spacing: int = 250
    #: Simulation fidelity knob: speculative COMPUTE batches are consumed
    #: in slices of at most this many instructions so a violation arriving
    #: mid-batch mis-attributes at most one slice of cycles to Failed.
    spec_slice_limit: int = 250
    #: Section 5.1's closing observation, implemented: "a better strategy
    #: may be to customize the sub-thread size such that the average
    #: thread size for an application would be divided evenly into
    #: sub-threads."  When True, each epoch's spacing is its own size
    #: divided by the context count (an oracle of thread size, standing
    #: in for the hardware's thread-size predictor), floored at
    #: ``adaptive_spacing_min``.
    adaptive_spacing: bool = False
    adaptive_spacing_min: int = 50
    #: Cycles to create a sub-thread checkpoint (paper models 0; the
    #: register back-up could instead cost tens of cycles — ablation A2).
    subthread_start_cost: int = 0
    #: Fixed violation delivery/recovery penalty in cycles (inter-core
    #: message + pipeline restart), on top of the L1 refetch misses.
    violation_penalty: int = 20
    #: Cycles between consecutive epoch spawns (the fork chain): the k-th
    #: epoch of a region begins k*spawn_latency after the region starts.
    #: This is what keeps tiny-epoch transactions (PAYMENT, ORDER STATUS)
    #: from profiting: their epochs are not much longer than the spawn.
    spawn_latency: int = 60
    #: Selective secondary violations via sub-thread start tables
    #: (Figure 4(b)); False = restart all later epochs entirely (4(a)).
    start_tables: bool = True
    #: Line-granularity speculative-load tracking (paper default).
    line_granularity_loads: bool = True
    #: Section 5.1 extension: open a sub-thread checkpoint immediately
    #: before loads the violating-load predictor flags, instead of (or in
    #: addition to) the periodic spacing policy.
    predictor_subthreads: bool = False
    #: Minimum speculative instructions between predictor-triggered
    #: checkpoints (avoids burning every context on one hot PC cluster).
    predictor_min_gap: int = 25
    #: Moshovos-style alternative the paper evaluated and rejected:
    #: predicted-violating loads synchronize (stall until an earlier
    #: epoch stores the line or the epoch becomes the oldest).
    sync_predicted_loads: bool = False
    #: Value-prediction alternative (Section 2.2): predicted-violating
    #: loads consume a predicted value and proceed independently of the
    #: store.  Modeled optimistically: a correct prediction (probability
    #: ``value_prediction_accuracy``, drawn deterministically per dynamic
    #: load) removes the dependence entirely; a wrong one behaves like an
    #: unpredicted load (an upper bound on what value prediction buys).
    value_predict_loads: bool = False
    value_prediction_accuracy: float = 0.7


@dataclass
class RewindAction:
    """One epoch rewind, to be applied to CPU replay state by the machine."""

    epoch: EpochExecution
    subthread_idx: int
    failed_cycles: CycleCounters
    latches_released: List[int] = field(default_factory=list)
    secondary: bool = False
    #: The squash was caused by speculative-state overflow (tiny L2 /
    #: no victim space), not by a dependence violation.  The machine
    #: uses this to stall repeat offenders until the commit horizon
    #: advances instead of letting them thrash the memory system.
    overflow: bool = False


class TLSEngine:
    """Protocol state machine shared by all CPUs."""

    def __init__(
        self,
        l2: SpeculativeL2,
        n_cpus: int,
        config: Optional[TLSConfig] = None,
    ):
        self.config = config or TLSConfig()
        self.l2 = l2
        self.n_cpus = n_cpus
        self._next_order = 0
        #: order -> live epoch, for all uncommitted epochs.
        self.active: Dict[int, EpochExecution] = {}
        #: Commit horizon: every epoch with order < horizon has committed.
        self.commit_horizon = 0
        # Context directory state: ctx -> (order, subidx).
        self._ctx_order: Dict[int, int] = {}
        self._ctx_subidx: Dict[int, int] = {}
        self._ctx_free: Dict[int, List[int]] = {
            cpu: list(
                range(
                    cpu * self.config.max_subthreads,
                    (cpu + 1) * self.config.max_subthreads,
                )
            )
            for cpu in range(n_cpus)
        }
        self.start_tables: Dict[int, SubThreadStartTable] = {}
        self.exposed_load_tables = [
            ExposedLoadTable(line_size=l2.geom.line_size)
            for _ in range(n_cpus)
        ]
        self.profiler = DependenceProfiler()
        self.load_predictor = ViolatingLoadPredictor()
        #: Machine hook, called with the victim epoch as the *first*
        #: action of a rewind — before ``epoch.rewind_to`` captures
        #: Failed cycles — so an in-flight journaled batch can be
        #: restored first (see the machine's _restore_batch_journal).
        self.pre_rewind = None
        # Statistics.
        self.primary_violations = 0
        self.secondary_violations = 0
        self.secondary_rewinds_avoided = 0
        self.subthreads_started = 0
        self.epochs_committed = 0
        self.value_predictions_used = 0
        #: Retired instructions discarded by rewinds (the rewound
        #: sub-threads' work, which must execute again).
        self.failed_instruction_replays = 0

    # ------------------------------------------------------------------
    # ContextDirectory interface (consulted by the L2)
    # ------------------------------------------------------------------

    def order_of(self, ctx: int) -> int:
        return self._ctx_order[ctx]

    def subidx_of(self, ctx: int) -> int:
        return self._ctx_subidx[ctx]

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------

    def allocate_order(self) -> int:
        order = self._next_order
        self._next_order += 1
        return order

    def start_epoch(
        self,
        trace: EpochTrace,
        cpu: int,
        now: float,
        speculative: bool = True,
    ) -> EpochExecution:
        """Begin executing an epoch on ``cpu`` at cycle ``now``.

        The first epoch of a region (nothing older uncommitted) starts
        homefree (non-speculative): it can never be violated.
        """
        order = self.allocate_order()
        if order == self.commit_horizon:
            speculative = False
        epoch = EpochExecution(
            trace=trace, order=order, cpu=cpu, speculative=speculative
        )
        epoch.status = EpochStatus.RUNNING
        self.active[order] = epoch
        self.start_tables[order] = SubThreadStartTable(
            enabled=self.config.start_tables
        )
        # Reclaim the CPU's context pool from the previous occupant.
        self._ctx_free[cpu] = list(
            range(
                cpu * self.config.max_subthreads,
                (cpu + 1) * self.config.max_subthreads,
            )
        )
        if speculative or True:
            # Even a homefree epoch gets sub-thread 0 for bookkeeping
            # (cycle accounting, store masks); its accesses simply don't
            # set speculative bits.
            self._open_subthread(epoch, now)
        return epoch

    def _open_subthread(self, epoch: EpochExecution, now: float) -> None:
        ctx = self._ctx_free[epoch.cpu].pop(0)
        idx = len(epoch.subthreads)
        self._ctx_order[ctx] = epoch.order
        self._ctx_subidx[ctx] = idx
        epoch.start_subthread(ctx, now)
        self.subthreads_started += 1
        # Broadcast subthreadStart to all logically-later active epochs.
        for order, other in self.active.items():
            if order > epoch.order and other.subthreads:
                self.start_tables[order].record(
                    epoch.order, idx, other.current_subthread.index
                )

    def spacing_for(self, epoch: EpochExecution) -> int:
        """Sub-thread spacing for this epoch under the current policy."""
        if not self.config.adaptive_spacing:
            return self.config.subthread_spacing
        return max(
            self.config.adaptive_spacing_min,
            epoch.trace.instruction_count // self.config.max_subthreads,
        )

    def maybe_start_subthread(self, epoch: EpochExecution, now: float) -> bool:
        """Open a new sub-thread if the spacing policy says so.

        Called between records.  Returns True when a checkpoint was
        created (the machine charges ``subthread_start_cost`` cycles).
        """
        if not epoch.speculative:
            return False
        if len(epoch.subthreads) >= self.config.max_subthreads:
            return False
        if epoch.instrs_since_checkpoint < self.spacing_for(epoch):
            return False
        if not self._ctx_free[epoch.cpu]:
            return False
        self._open_subthread(epoch, now)
        return True

    def maybe_start_predictor_subthread(
        self, epoch: EpochExecution, load_pc: int, now: float
    ) -> bool:
        """Open a sub-thread right before a predicted-violating load.

        The Section 5.1 placement policy: if a violation then arrives for
        this load, the rewind loses (almost) nothing.  Gated on the
        predictor, a free context, and a minimum gap since the last
        checkpoint (a zero-length sub-thread would waste a context).
        """
        if not self.config.predictor_subthreads:
            return False
        if not epoch.speculative:
            return False
        if len(epoch.subthreads) >= self.config.max_subthreads:
            return False
        if epoch.instrs_since_checkpoint < self.config.predictor_min_gap:
            return False
        if not self._ctx_free[epoch.cpu]:
            return False
        if not self.load_predictor.predicts_violation(load_pc):
            return False
        self._open_subthread(epoch, now)
        return True

    def should_synchronize_load(
        self, epoch: EpochExecution, load_pc: int
    ) -> bool:
        """Moshovos-style policy: stall this load instead of speculating.

        True when the load PC is predicted to violate and there exists a
        logically-earlier uncommitted epoch that could still store the
        value.  The machine implements the actual stall.
        """
        if not self.config.sync_predicted_loads:
            return False
        if not epoch.speculative:
            return False
        if epoch.order == self.commit_horizon:
            return False  # oldest epoch: nothing to wait for
        return self.load_predictor.predicts_violation(load_pc)

    def finish_epoch(self, epoch: EpochExecution, now: float) -> None:
        epoch.status = EpochStatus.FINISHED
        epoch.finish_cycle = now

    def try_commit(self) -> List[EpochExecution]:
        """Commit finished epochs at the head of the logical order.

        Returns the epochs committed (machine folds their pending cycles
        into the good categories and frees their CPUs).  After committing,
        the new oldest epoch receives the homefree token.
        """
        committed: List[EpochExecution] = []
        while True:
            epoch = self.active.get(self.commit_horizon)
            if epoch is None or epoch.status != EpochStatus.FINISHED:
                break
            self._commit_state(epoch)
            epoch.status = EpochStatus.COMMITTED
            del self.active[epoch.order]
            del self.start_tables[epoch.order]
            for table in self.start_tables.values():
                table.forget_epoch(epoch.order)
            self.commit_horizon += 1
            self.epochs_committed += 1
            committed.append(epoch)
        # Pass the homefree token to the new oldest epoch, committing its
        # speculative state so far (it can no longer be violated).
        head = self.active.get(self.commit_horizon)
        if head is not None and head.speculative:
            self._commit_state(head)
            head.speculative = False
            head.homefree = True
        return committed

    def _commit_state(self, epoch: EpochExecution) -> None:
        self.l2.commit_epoch(epoch.order, epoch.all_ctxs())

    # ------------------------------------------------------------------
    # Memory operations
    # ------------------------------------------------------------------

    def load(
        self, epoch: EpochExecution, addr: int, size: int, pc: int
    ) -> Tuple[AccessResult, bool]:
        """Perform the protocol side of a load.

        Returns (L2 access result, first_notification) where
        ``first_notification`` tells the machine this is the epoch's first
        speculative access to the line, so the L1 must mark it notified.
        """
        line = self.l2.geom.line_addr(addr)
        mask = self.l2.word_mask(addr, size)
        exposed = epoch.speculative and not epoch.covers_load(line, mask)
        if exposed and self._value_prediction_hits(epoch, addr, pc):
            # The load consumed a (correct) predicted value: it no longer
            # depends on any earlier store, so no speculative-load bit is
            # set and no violation can target it.
            exposed = False
            self.value_predictions_used += 1
        ctx = epoch.current_ctx if epoch.speculative else None
        result = self.l2.load(addr, size, epoch.order, ctx, exposed)
        if exposed:
            self.exposed_load_tables[epoch.cpu].update(line, pc)
        return result, exposed

    def load_compiled(
        self,
        epoch: EpochExecution,
        line: int,
        sub_addr: int,
        pc: int,
        mask: int,
        load_bits: int,
    ) -> Tuple[bool, Optional[AccessResult], bool]:
        """Single-line twin of :meth:`load` for compiled traces.

        The trace compiler already resolved the access into its line,
        word mask and speculative-load bit mask, so this path goes
        straight to the L2's single-line fast path.  Returns ``(hit,
        result, exposed)`` with ``result`` None on a clean hit.
        """
        exposed = epoch.speculative and not epoch.covers_load(line, mask)
        if exposed and self._value_prediction_hits(epoch, sub_addr, pc):
            exposed = False
            self.value_predictions_used += 1
        # epoch.current_ctx, inlined (every epoch has sub-thread 0).
        ctx = epoch.subthreads[-1].ctx if epoch.speculative else None
        hit, result = self.l2.load_line(
            line, epoch.order, ctx, exposed, load_bits
        )
        if exposed:
            self.exposed_load_tables[epoch.cpu].update(line, pc)
        return hit, result, exposed

    def store_compiled(
        self,
        epoch: EpochExecution,
        line: int,
        words: int,
        pc: int,
        private: bool,
    ) -> Tuple[Optional[AccessResult], List[RewindAction]]:
        """Single-line twin of :meth:`store` for compiled traces.

        ``private`` marks a region-private line (only this epoch ever
        touches it), for which the L2 skips the violation scan.  Returns
        ``(result, rewinds)`` with ``result`` None for a clean conflict-
        free hit on an existing version.
        """
        if epoch.speculative:
            # epoch.note_store + epoch.current_ctx, inlined (hot path).
            cp = epoch.subthreads[-1]
            sm = cp.store_mask
            sm[line] = sm.get(line, 0) | words
            su = epoch.store_union
            su[line] = su.get(line, 0) | words
            ctx = cp.ctx
        else:
            ctx = None
        _, result = self.l2.store_line(
            line, epoch.order, ctx, words, store_pc=pc, detect=not private
        )
        if result is None:
            return None, ()
        violations = result.violations
        overflow = result.overflow_squash
        if not violations and not overflow:
            return result, ()
        rewinds = self._resolve_violations(violations)
        if overflow:
            rewinds.extend(self._resolve_overflow(overflow))
        return result, rewinds

    def _value_prediction_hits(
        self, epoch: EpochExecution, addr: int, pc: int
    ) -> bool:
        """Deterministic per-dynamic-load draw at the configured accuracy."""
        if not self.config.value_predict_loads:
            return False
        if not self.load_predictor.predicts_violation(pc):
            return False
        draw = (
            epoch.order * 2654435761 ^ pc * 40503 ^ addr * 2246822519
        ) % 10_000
        return draw < int(self.config.value_prediction_accuracy * 10_000)

    def store(
        self, epoch: EpochExecution, addr: int, size: int, pc: int
    ) -> Tuple[AccessResult, List[RewindAction]]:
        """Perform the protocol side of a store.

        The store updates (or creates) the epoch's version in the L2 and
        may violate logically-later epochs; the returned rewind actions
        have already been applied to protocol state and must be applied to
        CPU replay state by the machine.
        """
        line = self.l2.geom.line_addr(addr)
        mask = self.l2.word_mask(addr, size)
        if epoch.speculative:
            epoch.note_store(line, mask)
        ctx = epoch.current_ctx if epoch.speculative else None
        result = self.l2.store(addr, size, epoch.order, ctx, store_pc=pc)
        rewinds = self._resolve_violations(result.violations)
        rewinds.extend(self._resolve_overflow(result.overflow_squash))
        return result, rewinds

    # ------------------------------------------------------------------
    # Violation resolution (Section 2.2, Figure 4)
    # ------------------------------------------------------------------

    def _resolve_violations(
        self, violations: List[Violation]
    ) -> List[RewindAction]:
        actions: List[RewindAction] = []
        #: Earliest rewind already applied to each epoch in this batch.
        applied: Dict[int, int] = {}
        for violation in sorted(violations, key=lambda v: v.victim_order):
            victim = self.active.get(violation.victim_order)
            if victim is None or not victim.speculative:
                continue
            target = violation.subthread_idx
            if violation.victim_order in applied and (
                target >= applied[violation.victim_order]
            ):
                continue  # already rewound at or before this point
            if target >= len(victim.subthreads):
                continue  # stale: that sub-thread was already squashed
            load_pc = self.exposed_load_tables[victim.cpu].lookup(
                violation.tag
            )
            action = self._rewind(victim, target, secondary=False)
            applied[victim.order] = target
            self.primary_violations += 1
            self.profiler.record(
                load_pc, violation.store_pc, action.failed_cycles.total()
            )
            self.load_predictor.train(load_pc)
            actions.append(action)
            # Secondary violations: every logically-later epoch consults
            # its start table for (victim, target).
            for order in sorted(self.active):
                if order <= victim.order:
                    continue
                later = self.active[order]
                if not later.speculative or not later.subthreads:
                    continue
                point = self.start_tables[order].restart_point(
                    victim.order, target
                )
                if order in applied and point >= applied[order]:
                    self.secondary_rewinds_avoided += 1
                    continue
                if point >= len(later.subthreads):
                    point = len(later.subthreads) - 1
                sec = self._rewind(later, point, secondary=True)
                applied[order] = point
                self.secondary_violations += 1
                actions.append(sec)
        return actions

    def _resolve_overflow(self, orders: List[int]) -> List[RewindAction]:
        """Full squash of epochs whose speculative state overflowed."""
        actions: List[RewindAction] = []
        for order in orders:
            epoch = self.active.get(order)
            if epoch is None or not epoch.speculative:
                continue
            if not epoch.subthreads:
                continue
            action = self._rewind(epoch, 0, secondary=True)
            action.overflow = True
            actions.append(action)
        return actions

    def force_rewind(
        self, epoch: EpochExecution, subthread_idx: int = 0
    ) -> RewindAction:
        """Externally-requested rewind (machine deadlock breaker, tests)."""
        return self._rewind(epoch, subthread_idx, secondary=True)

    def _rewind(
        self, epoch: EpochExecution, subthread_idx: int, secondary: bool
    ) -> RewindAction:
        """Apply a rewind to protocol state; timing is left to the machine."""
        if self.pre_rewind is not None:
            self.pre_rewind(epoch)
        for cp in epoch.subthreads[subthread_idx:]:
            self.failed_instruction_replays += cp.instructions
        squashed_ctxs, latches, failed = epoch.rewind_to(subthread_idx, 0.0)
        self.l2.squash_ctxs(epoch.order, squashed_ctxs)
        # Free contexts above the rewind point for reuse; the target
        # sub-thread keeps its context and re-executes.
        keep = epoch.all_ctxs()
        pool = self._ctx_free[epoch.cpu]
        for ctx in squashed_ctxs:
            if ctx not in keep and ctx not in pool:
                pool.append(ctx)
        pool.sort()
        self.start_tables[epoch.order].truncate_after_rewind(subthread_idx)
        # The victim CPU's exposed-load table is conservatively cleared:
        # its PCs describe rewound execution.
        self.exposed_load_tables[epoch.cpu].clear()
        return RewindAction(
            epoch=epoch,
            subthread_idx=subthread_idx,
            failed_cycles=failed,
            latches_released=latches,
            secondary=secondary,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def oldest_active(self) -> Optional[EpochExecution]:
        return self.active.get(self.commit_horizon)

    def check_invariants(self, deep: bool = True) -> None:
        """Protocol-state invariants; raises AssertionError on violation.

        ``deep=False`` skips the L2 structural sweep (which is
        proportional to cache size) so the cycle-level checker can run
        the protocol checks at a higher frequency than the memory-system
        sweep.
        """
        if deep:
            self.l2.check_invariants()
        assert set(self.start_tables) == set(self.active), (
            "start tables out of sync with active epochs"
        )
        n_ctx = self.config.max_subthreads
        for order, epoch in self.active.items():
            assert epoch.order == order
            assert self.commit_horizon <= order < self._next_order, (
                f"active epoch order {order} outside "
                f"[{self.commit_horizon}, {self._next_order})"
            )
            ctxs = epoch.all_ctxs()
            assert len(set(ctxs)) == len(ctxs), "duplicate contexts"
            lo = epoch.cpu * n_ctx
            free = self._ctx_free[epoch.cpu]
            for i, ctx in enumerate(ctxs):
                assert lo <= ctx < lo + n_ctx, (
                    f"ctx {ctx} outside cpu {epoch.cpu}'s context range"
                )
                assert ctx not in free, f"live ctx {ctx} also in free pool"
                assert self._ctx_order[ctx] == order
                assert self._ctx_subidx[ctx] == i
        for cpu, pool in self._ctx_free.items():
            assert len(set(pool)) == len(pool), (
                f"duplicate ctx in cpu {cpu}'s free pool"
            )
            lo = cpu * n_ctx
            for ctx in pool:
                assert lo <= ctx < lo + n_ctx, (
                    f"ctx {ctx} in wrong cpu's free pool ({cpu})"
                )
        self._check_start_tables()

    def _check_start_tables(self) -> None:
        """Sub-thread start-table monotonicity (Figure 4(b)).

        For a fixed sender epoch, later sender sub-threads must map to
        our sub-thread indices that are >= those of earlier sender
        sub-threads: sender sub-threads begin in time order, and every
        receiver rewind clamps recorded indices (truncate_after_rewind),
        which preserves the ordering.  Entries for sender sub-threads
        that no longer exist (the sender rewound past them) are stale and
        never queried, so they are exempt.  All recorded indices must
        point at a live receiver sub-thread.
        """
        for order, table in self.start_tables.items():
            receiver = self.active[order]
            n_sub = len(receiver.subthreads)
            per_sender: Dict[int, List[Tuple[int, int]]] = {}
            for (s_order, s_idx), our_idx in table._entries.items():
                assert 0 <= our_idx < max(n_sub, 1), (
                    f"epoch {order}'s start table points at sub-thread "
                    f"{our_idx} but only {n_sub} exist"
                )
                sender = self.active.get(s_order)
                if sender is None or s_idx >= len(sender.subthreads):
                    continue  # stale entry; never queried
                per_sender.setdefault(s_order, []).append((s_idx, our_idx))
            for s_order, pairs in per_sender.items():
                pairs.sort()
                prev = -1
                for s_idx, our_idx in pairs:
                    assert our_idx >= prev, (
                        f"epoch {order}'s start table not monotone for "
                        f"sender {s_order}: sub-thread {s_idx} -> "
                        f"{our_idx} after -> {prev}"
                    )
                    prev = our_idx
