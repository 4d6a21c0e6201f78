"""Private write-through L1 data cache with speculative-line tracking.

Per the paper (Section 2.1), the L1 caches are write-through so stores
propagate aggressively to the shared L2 where logically-later threads can
consume them; the L1s are *unaware of sub-threads*.  Each L1 line carries:

``spec``
    The line was speculatively accessed by the epoch currently running on
    this CPU.  On any violation delivered to this CPU, every ``spec`` line
    is flash-invalidated and must be refetched from L2 (the paper found
    per-sub-thread L1 tracking "not worthwhile").

``notified``
    The L2 has already been told about a speculative load of this line by
    the current epoch (so its per-context speculative-load bit is set).
    Later loads of the line by the same epoch can then hit purely in L1
    without informing the L2 — exact, not just conservative, because
    violations rewind to the *earliest* sub-thread that loaded the line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .cache import CacheGeometry, LRUSet


@dataclass(slots=True)
class L1Line:
    tag: int
    spec: bool = False
    notified: bool = False
    #: Highest sub-thread index that speculatively touched the line
    #: (-1 = none).  Only used when the optional per-sub-thread L1
    #: tracking is enabled; the paper's design leaves the L1s
    #: sub-thread-unaware and found the extension "not worthwhile".
    subidx: int = -1


class L1Cache:
    """One CPU's private write-through L1 data cache."""

    def __init__(self, geometry: CacheGeometry):
        self.geom = geometry
        #: set index -> LRUSet, allocated on first touch (most sets of a
        #: 32KB cache go untouched in short runs).
        self._sets: Dict[int, LRUSet] = {}
        self._assoc = geometry.assoc
        self._set_shift = geometry.line_shift
        self._set_mask = geometry.set_mask
        #: Tags of lines currently carrying a speculative mark.  Kept
        #: exactly in sync by fill/mark_spec/invalidate/flash/clear so
        #: the epoch-boundary sweeps touch only marked lines instead of
        #: walking every set.
        self._spec_tags: set = set()
        #: Tags of lines whose ``notified`` flag is set — the columnar
        #: mirror of the per-line flag, kept exactly in sync by every
        #: mutation site (fill/mark_spec/invalidate/flash/clear and the
        #: machine's inlined notify) so the bulk load resolver
        #: (repro.memory.columnar) tests eligibility with one set
        #: membership instead of chasing the L1Line object.  Always a
        #: subset of ``_spec_tags``.
        self._notified_tags: set = set()
        #: Tags of all resident lines (lets inclusion/invalidation walks
        #: reject absent lines — the overwhelmingly common case — with
        #: one set-membership test instead of a per-set lookup).
        self.resident: set = set()
        self.hits = 0
        self.misses = 0
        self.spec_invalidations = 0

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def _set_for(self, line_addr: int) -> LRUSet:
        idx = (line_addr >> self._set_shift) & self._set_mask
        cset = self._sets.get(idx)
        if cset is None:
            cset = LRUSet(self._assoc)
            self._sets[idx] = cset
        return cset

    def lookup(self, line_addr: int, touch: bool = True) -> Optional[L1Line]:
        return self._set_for(line_addr).get(line_addr, touch=touch)

    def access(self, line_addr: int) -> bool:
        """Reference the line; returns True on hit (updates LRU/stats)."""
        if line_addr not in self.resident:
            self.misses += 1
            return False
        # Present for sure; the set lookup just refreshes LRU order.
        self._sets[(line_addr >> self._set_shift) & self._set_mask].get(
            line_addr
        )
        self.hits += 1
        return True

    def fill(self, line_addr: int, spec: bool, subidx: int = -1,
             notified: bool = False) -> Optional[L1Line]:
        """Install a line fetched from L2.

        Returns the evicted line (if any).  Write-through means an evicted
        line is never dirty with respect to L2, so eviction needs no
        writeback; speculative L1 lines can be silently dropped because the
        L2 keeps inclusion for all speculative state.

        ``notified=True`` folds the common fill-then-``mark_spec`` pair
        into one lookup (only meaningful together with ``spec=True``).

        The LRU set is manipulated directly here (rather than through the
        LRUSet API) — fill runs on every L1 miss and every store, making
        it the hottest method in the cache model.
        """
        idx = (line_addr >> self._set_shift) & self._set_mask
        cset = self._sets.get(idx)
        if cset is None:
            cset = LRUSet(self._assoc)
            self._sets[idx] = cset
        by_tag = cset._by_tag
        order = cset._order
        existing = by_tag.get(line_addr)
        if existing is not None:
            if order[-1] != line_addr:  # cset.get's LRU touch
                order.remove(line_addr)
                order.append(line_addr)
            existing.spec = existing.spec or spec
            if spec:
                if subidx > existing.subidx:
                    existing.subidx = subidx
                self._spec_tags.add(line_addr)
                if notified:
                    existing.notified = True
                    self._notified_tags.add(line_addr)
            return None
        evicted = None
        if len(by_tag) >= self._assoc:
            victim_tag = order[0]  # true-LRU victim
            del order[0]
            evicted = by_tag.pop(victim_tag)
            self.resident.discard(victim_tag)
            if evicted.spec:
                self._spec_tags.discard(victim_tag)
                if evicted.notified:
                    self._notified_tags.discard(victim_tag)
        line = L1Line(tag=line_addr, spec=spec, notified=notified,
                      subidx=subidx if spec else -1)
        by_tag[line_addr] = line
        order.append(line_addr)
        self.resident.add(line_addr)
        if spec:
            self._spec_tags.add(line_addr)
            if notified:
                self._notified_tags.add(line_addr)
        return evicted

    def mark_spec(self, line_addr: int, notified: bool,
                  subidx: int = -1) -> None:
        line = self.lookup(line_addr, touch=False)
        if line is not None:
            line.spec = True
            line.subidx = max(line.subidx, subidx)
            self._spec_tags.add(line_addr)
            if notified:
                line.notified = True
                self._notified_tags.add(line_addr)

    def is_notified(self, line_addr: int) -> bool:
        return line_addr in self._notified_tags

    # ------------------------------------------------------------------
    # Invalidation (violations, epoch boundaries, L2 inclusion)
    # ------------------------------------------------------------------

    def invalidate(self, line_addr: int) -> bool:
        """Invalidate one line (L2 eviction inclusion, external store)."""
        if line_addr not in self.resident:
            return False
        removed = self._set_for(line_addr).remove(line_addr)
        if removed is None:
            return False
        self.resident.discard(line_addr)
        if removed.spec:
            self._spec_tags.discard(line_addr)
            if removed.notified:
                self._notified_tags.discard(line_addr)
        return True

    def flash_invalidate_spec(self, from_subidx: int = None) -> int:
        """Drop speculatively-accessed lines (violation recovery).

        With the paper's sub-thread-unaware L1s (``from_subidx=None``)
        every speculative line goes; with the optional per-sub-thread
        tracking only lines touched by sub-threads at or after the rewind
        point are dropped.  Returns the number of lines invalidated; the
        subsequent refetches from L2 are the recovery cost.
        """
        count = 0
        survivors: Optional[set] = None
        for tag in self._spec_tags:
            cset = self._set_for(tag)
            line = cset.peek(tag)
            if line is None or not line.spec:
                continue  # stale tag (defensive; the set is kept exact)
            if from_subidx is not None and line.subidx < from_subidx:
                if survivors is None:
                    survivors = set()
                survivors.add(tag)
                continue
            cset.remove(tag)
            self.resident.discard(tag)
            self._notified_tags.discard(tag)
            count += 1
        self._spec_tags = survivors if survivors is not None else set()
        self.spec_invalidations += count
        return count

    def clear_spec_marks(self) -> None:
        """New epoch begins: lines stay cached but lose speculative marks."""
        for tag in self._spec_tags:
            entry = self._set_for(tag).peek(tag)
            if entry is not None:
                entry.spec = False
                entry.notified = False
                entry.subidx = -1
        self._spec_tags.clear()
        self._notified_tags.clear()

    def check_mirrors(self) -> None:
        """Assert the tag-set mirrors match the per-line flags exactly."""
        spec = set()
        notified = set()
        resident = set()
        for cset in self._sets.values():
            for line in cset.entries():
                resident.add(line.tag)
                if line.spec:
                    spec.add(line.tag)
                if line.notified:
                    notified.add(line.tag)
        assert resident == self.resident, "L1 resident mirror diverged"
        assert spec == self._spec_tags, "L1 spec-tag mirror diverged"
        assert notified == self._notified_tags, (
            "L1 notified-tag mirror diverged"
        )

    # ------------------------------------------------------------------
    # Functional-warming snapshot (repro.sim.machine.WarmState)
    # ------------------------------------------------------------------

    def warm_state(self) -> tuple:
        """Immutable copy of non-speculative contents and tallies.

        ``(((set index, tags LRU-first), ...), hits, misses)``.  Raises
        if any line carries a speculative mark: warm state is
        architectural only.
        """
        if self._spec_tags:
            raise RuntimeError("L1 holds speculative lines")
        sets = tuple(
            (idx, tuple(cset._order)) for idx, cset in self._sets.items()
        )
        return sets, self.hits, self.misses

    def restore_warm_state(self, state: tuple) -> None:
        """Install a :meth:`warm_state` snapshot into this empty cache."""
        sets, self.hits, self.misses = state
        for idx, tags in sets:
            cset = LRUSet(self._assoc)
            cset._order = list(tags)
            cset._by_tag = {tag: L1Line(tag=tag) for tag in tags}
            self._sets[idx] = cset
            self.resident.update(tags)

    # ------------------------------------------------------------------
    # Introspection (tests)
    # ------------------------------------------------------------------

    def resident_lines(self) -> List[L1Line]:
        out: List[L1Line] = []
        for cset in self._sets.values():
            out.extend(cset.entries())
        return out

    def spec_lines(self) -> List[L1Line]:
        return [l for l in self.resident_lines() if l.spec]
