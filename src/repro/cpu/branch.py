"""GShare branch predictor (Table 1: 16KB table, 8 history bits).

The trace carries (PC, taken) for every conditional branch; the predictor
is consulted at replay time so re-executed sub-threads retrain it exactly
as re-executed hardware would.

The predictor is the one piece of per-CPU state that a compiled
super-record mutates speculatively *before* the covered records are known
to survive (see ``repro.trace.compile`` and the machine's journaled batch
dispatch): :meth:`predict_and_update_logged` trains exactly like
:meth:`predict_and_update` but appends ``(index, old_counter)`` pairs to
a caller-owned undo log, and :meth:`restore` rolls the table back to a
:meth:`journal` snapshot by replaying that log in reverse (so the oldest
logged value of a repeatedly-trained counter wins).
"""

from __future__ import annotations


class GShareBranchPredictor:
    """Classic GShare: global history XOR PC indexes a 2-bit counter table."""

    def __init__(self, table_bytes: int = 16 * 1024, history_bits: int = 8):
        # 2-bit counters, 4 per byte.
        self.n_counters = table_bytes * 4
        if self.n_counters & (self.n_counters - 1):
            raise ValueError("counter count must be a power of two")
        self.history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._index_mask = self.n_counters - 1
        self._counters = bytearray(b"\x02" * self.n_counters)  # weakly taken
        self._history = 0
        self.predictions = 0
        self.mispredictions = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) & self._index_mask

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict the branch, train on the outcome; True if correct."""
        idx = self._index(pc)
        counter = self._counters[idx]
        prediction = counter >= 2
        correct = prediction == taken
        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        if taken:
            if counter < 3:
                self._counters[idx] = counter + 1
        else:
            if counter > 0:
                self._counters[idx] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        return correct

    # ------------------------------------------------------------------
    # Journaled training (speculative batch dispatch)
    # ------------------------------------------------------------------

    def journal(self):
        """Snapshot of the scalar state :meth:`restore` rolls back."""
        return (self._history, self.predictions, self.mispredictions)

    def predict_and_update_logged(self, pc: int, taken: bool, log) -> bool:
        """:meth:`predict_and_update`, logging ``(index, old)`` undo pairs."""
        idx = ((pc >> 2) ^ self._history) & self._index_mask
        counter = self._counters[idx]
        log.append((idx, counter))
        prediction = counter >= 2
        correct = prediction == taken
        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        if taken:
            if counter < 3:
                self._counters[idx] = counter + 1
        else:
            if counter > 0:
                self._counters[idx] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        return correct

    def restore(self, snap, log) -> None:
        """Undo a logged training run: snapshot scalars, reversed log."""
        self._history, self.predictions, self.mispredictions = snap
        counters = self._counters
        for idx, old in reversed(log):
            counters[idx] = old

    def warm_state(self) -> tuple:
        """Immutable copy of the whole predictor: counters, history,
        tallies (functional-warming snapshot)."""
        return (bytes(self._counters), self._history, self.predictions,
                self.mispredictions)

    def restore_warm_state(self, state: tuple) -> None:
        counters, self._history, self.predictions, self.mispredictions = (
            state
        )
        self._counters = bytearray(counters)

    @property
    def misprediction_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions
