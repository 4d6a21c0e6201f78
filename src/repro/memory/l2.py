"""Shared L2 cache with speculative versioning and sub-thread contexts.

This module implements the paper's central hardware structure (Section 2):
a chip-wide L2 cache that buffers speculative state for *all* speculative
threads, tracking

* **speculative loads at cache-line granularity**, one bit per *thread
  context* (= per sub-thread) per line, and
* **speculative modifications at word granularity**, one word mask per
  thread context per line version,

and that keeps **multiple versions of a cache line in the ways of the same
associative set** — one version per epoch that has speculatively modified
the line, plus the committed version.  Speculative lines evicted from a
set overflow into a small fully-associative victim cache
(:mod:`repro.memory.victim`).

A *thread context* (``ctx``) is an integer naming one sub-thread of one
in-flight epoch.  The L2 itself does not know about epochs or logical
order; it consults a :class:`ContextDirectory` (implemented by the TLS
engine) to map a context to its epoch's logical order and its sub-thread
index.  This mirrors the paper's hardware split: the cache holds the bits,
the TLS logic interprets them.

Violation detection (Section 2.2): when epoch *i* stores to a line, any
logically-later epoch *j* that has speculatively loaded a version of that
line *older than i's version* has consumed stale data and must be
violated.  Loads of versions owned by epochs in ``(i, j]`` are safe — the
loader already saw a value newer than the incoming store.  The L2 reports,
per violated epoch, the earliest sub-thread whose context holds a
qualifying load bit: that is the sub-thread the epoch rewinds to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .cache import CacheGeometry
from .victim import VictimCache

#: Logical order used for the committed version (older than every epoch).
COMMITTED = -1

FULL_MASK_CACHE: Dict[int, int] = {}


def full_mask(n_words: int) -> int:
    mask = FULL_MASK_CACHE.get(n_words)
    if mask is None:
        mask = (1 << n_words) - 1
        FULL_MASK_CACHE[n_words] = mask
    return mask


class ContextDirectory:
    """Interface the TLS engine implements so the L2 can interpret contexts.

    ``order_of(ctx)`` returns the logical order (a monotonically increasing
    global epoch sequence number) of the epoch owning the context, and
    ``subidx_of(ctx)`` the context's sub-thread index within that epoch.
    """

    def order_of(self, ctx: int) -> int:
        raise NotImplementedError

    def subidx_of(self, ctx: int) -> int:
        raise NotImplementedError


@dataclass(slots=True, eq=False)
class L2Entry:
    """One version of one cache line.

    ``owner`` is the logical order of the epoch owning this speculative
    version, or :data:`COMMITTED` for the architecturally-committed
    version.  ``spec_loaded`` maps context -> loaded word mask (the full
    line mask under the paper's line-granularity load tracking);
    ``spec_mod`` maps context -> speculatively-modified word mask.

    Entries compare (and hash) by identity: distinct versions of a line
    can hold equal fields (two committed copies mid commit-merge), and
    every removal, LRU touch and membership test must act on *this*
    object, never on an equal-looking one.
    """

    tag: int
    owner: int = COMMITTED
    dirty: bool = False
    spec_loaded: Dict[int, int] = field(default_factory=dict)
    spec_mod: Dict[int, int] = field(default_factory=dict)
    #: Maintained by the victim cache: True while the entry lives there
    #: rather than in its L2 set (turns the membership scan into a flag).
    in_victim: bool = False

    def is_speculative(self) -> bool:
        return (
            self.owner != COMMITTED
            or bool(self.spec_loaded)
            or bool(self.spec_mod)
        )

    def mod_mask(self) -> int:
        mask = 0
        for m in self.spec_mod.values():
            mask |= m
        return mask


@dataclass(slots=True)
class Violation:
    """A dependence violation detected at the L2.

    ``victim_order``: logical order of the epoch that must rewind.
    ``subthread_idx``: earliest sub-thread of that epoch holding a
    qualifying speculative-load bit — the rewind point.
    ``store_ctx`` / ``load_ctx``: contexts of the offending store/load
    (``store_ctx`` is None for non-speculative stores).
    ``tag``: the line address, used by the profiler to recover load PCs.
    """

    victim_order: int
    subthread_idx: int
    load_ctx: int
    tag: int
    store_ctx: Optional[int] = None
    store_pc: Optional[int] = None


class L2Set:
    """An associative set holding line *versions* in LRU order."""

    __slots__ = ("assoc", "_entries")

    def __init__(self, assoc: int):
        self.assoc = assoc
        self._entries: List[L2Entry] = []  # LRU first, MRU last

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[L2Entry]:
        return list(self._entries)

    def versions_of(self, tag: int) -> List[L2Entry]:
        return [e for e in self._entries if e.tag == tag]

    def touch(self, entry: L2Entry) -> None:
        # Identity scan: L2Entry compares by identity, so ``is`` is
        # both exact and the cheapest test.
        for i, e in enumerate(self._entries):
            if e is entry:
                self._entries.pop(i)
                self._entries.append(entry)
                return
        raise ValueError("entry not in set")

    def add(self, entry: L2Entry) -> None:
        if len(self._entries) >= self.assoc:
            raise RuntimeError("L2 set full; evict first")
        self._entries.append(entry)

    def remove(self, entry: L2Entry) -> None:
        for i, e in enumerate(self._entries):
            if e is entry:
                del self._entries[i]
                return
        raise ValueError("entry not in set")

    def is_full(self) -> bool:
        return len(self._entries) >= self.assoc

    def lru_victim(
        self, protect: Callable[[L2Entry], bool]
    ) -> Optional[L2Entry]:
        for entry in self._entries:
            if not protect(entry):
                return entry
        return None


class AccessResult:
    """Outcome of an L2 access, consumed by the machine timing model.

    ``invalidated_lines`` and ``overflow_squash`` start as a shared empty
    tuple and are swapped for real lists on first write (most accesses
    invalidate nothing, so two eager list allocations per access were
    measurable); consumers only test truthiness and iterate, which both
    containers support.
    """

    __slots__ = ("hit", "entry", "violations", "invalidated_lines",
                 "overflow_squash", "memory_accesses")

    def __init__(self, hit: bool, entry: Optional[L2Entry] = None):
        self.hit = hit
        #: Entry the access resolved to (None if a pure miss with no fill).
        self.entry = entry
        #: Violations raised by this access (stores only).
        self.violations: List[Violation] = []
        #: Committed lines dropped from the chip (machine invalidates L1s).
        self.invalidated_lines = ()
        #: Epoch orders whose state overflowed and must be squashed.
        self.overflow_squash = ()
        #: Number of memory (DRAM) transfers this access required.
        self.memory_accesses = 0


class SpeculativeL2:
    """The shared speculative L2 + victim cache pair."""

    def __init__(
        self,
        geometry: CacheGeometry,
        directory: ContextDirectory,
        victim_entries: int = 64,
        word_size: int = 4,
        line_granularity_loads: bool = True,
    ):
        self.geom = geometry
        self.directory = directory
        self.word_size = word_size
        self.n_words = geometry.line_size // word_size
        #: Paper default: loads tracked at line granularity (violations may
        #: include false sharing).  Set False for the word-granularity
        #: ablation.
        self.line_granularity_loads = line_granularity_loads
        #: set index -> L2Set, allocated on first touch: a 2MB cache has
        #: 16k sets and a short run touches a few hundred, so eager
        #: allocation would dominate Machine construction.
        self._sets: Dict[int, L2Set] = {}
        self._assoc = geometry.assoc
        # Hot-path constants (geometry is immutable).
        self._set_shift = geometry.line_shift
        self._set_mask = geometry.set_mask
        self._offset_mask = geometry.offset_mask
        self._full_line_mask = full_mask(self.n_words)
        self.victim = VictimCache(capacity=victim_entries)
        #: Columnar mirror of the on-chip tag state: line tag -> every
        #: on-chip version of the line (its set's ways plus the victim
        #: cache), in installation order.  Maintained transactionally at
        #: the three points where an entry joins or leaves the chip
        #: (``_install`` / ``_handle_overflow`` / ``_drop``); moves
        #: between a set and the victim cache and owner mutations
        #: (commit, load-bit rehoming) need no index update because the
        #: key is the tag alone.  The single-line fast paths resolve
        #: version selection against this index in O(versions-of-line)
        #: instead of scanning every way of the set plus the whole
        #: victim cache.
        self._line_versions: Dict[int, List[L2Entry]] = {}
        #: ctx -> set of line tags where the ctx has speculative state.
        self._ctx_lines: Dict[int, Set[int]] = {}
        # Statistics.
        self.hits = 0
        self.misses = 0
        self.version_allocations = 0
        self.victim_spills = 0
        self.overflow_squashes = 0
        self.violations_detected = 0

    # ------------------------------------------------------------------
    # Geometry / lookup helpers
    # ------------------------------------------------------------------

    def _set_for(self, tag: int) -> L2Set:
        idx = (tag >> self._set_shift) & self._set_mask
        cset = self._sets.get(idx)
        if cset is None:
            cset = L2Set(self._assoc)
            self._sets[idx] = cset
        return cset

    def word_mask(self, addr: int, size: int) -> int:
        """Word mask within the line for an access at ``addr``/``size``."""
        ws = self.word_size
        off = addr & self._offset_mask
        first = off // ws
        last = (off + (size if size > 1 else 1) - 1) // ws
        if last >= self.n_words:
            last = self.n_words - 1
        return ((1 << (last - first + 1)) - 1) << first

    def _versions(self, tag: int) -> List[L2Entry]:
        """All on-chip versions of a line (set + victim cache).

        Served from the per-line version index; returns a copy so
        callers may install/drop entries while iterating a snapshot.
        """
        lst = self._line_versions.get(tag)
        return list(lst) if lst else []

    def _unindex(self, entry: L2Entry) -> None:
        """Remove an entry leaving the chip from the version index."""
        lst = self._line_versions.get(entry.tag)
        if lst is not None:
            for i, e in enumerate(lst):
                if e is entry:
                    del lst[i]
                    break
            if not lst:
                del self._line_versions[entry.tag]

    def _note_ctx_line(self, ctx: int, tag: int) -> None:
        lines = self._ctx_lines.get(ctx)
        if lines is None:
            lines = set()
            self._ctx_lines[ctx] = lines
        lines.add(tag)

    def _read_version(
        self, versions: List[L2Entry], order: int
    ) -> Optional[L2Entry]:
        """The version an epoch of logical ``order`` should read.

        Speculative versioning: the newest version owned by an epoch with
        order <= the reader's order (committed counts as order -1).
        """
        best: Optional[L2Entry] = None
        for entry in versions:
            if entry.owner <= order:
                if best is None or entry.owner > best.owner:
                    best = entry
        return best

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def load(
        self,
        addr: int,
        size: int,
        order: int,
        ctx: Optional[int],
        exposed: bool,
    ) -> AccessResult:
        """A load by the epoch with logical ``order`` (ctx = its current
        sub-thread context; None for non-speculative execution).

        ``exposed`` is True when the loading epoch has not previously
        stored to every word of the access (decided by the TLS engine's
        per-epoch store mask); only exposed loads set speculative-load
        bits, mirroring the exposed-load tracking of basic TLS hardware.
        """
        result = AccessResult(hit=True)
        for tag in self.geom.lines_touched(addr, size):
            versions = self._versions(tag)
            entry = self._read_version(versions, order)
            if entry is None:
                # Miss: fetch the committed line from memory.
                result.hit = False
                result.memory_accesses += 1
                entry = self._install(
                    L2Entry(tag=tag, owner=COMMITTED), result
                )
                if entry is None:
                    # Pathological set pressure; treat as uncached access.
                    continue
            else:
                self._promote(entry)
            result.entry = entry
            if ctx is not None and exposed:
                mask = (
                    self._full_line_mask
                    if self.line_granularity_loads
                    else self.word_mask(addr, size)
                )
                entry.spec_loaded[ctx] = entry.spec_loaded.get(ctx, 0) | mask
                self._note_ctx_line(ctx, tag)
        if result.hit:
            self.hits += 1
        else:
            self.misses += 1
        return result

    def _promote(self, entry: L2Entry) -> None:
        """Touch for LRU; pull a victim-cache entry back into its set."""
        if entry.in_victim:
            cset = self._set_for(entry.tag)
            if not cset.is_full():
                self.victim.remove(entry)
                cset.add(entry)
            else:
                self.victim.touch(entry)
        else:
            self._set_for(entry.tag).touch(entry)

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------

    def store(
        self,
        addr: int,
        size: int,
        order: int,
        ctx: Optional[int],
        store_pc: Optional[int] = None,
    ) -> AccessResult:
        """A store by the epoch with logical ``order``.

        Write-through L1s mean every store reaches the L2 immediately —
        this is the aggressive update propagation of Section 2.1.  The
        store (a) raises violations against logically-later epochs that
        loaded a stale version, and (b) creates or updates this epoch's
        speculative version of the line (word-granularity mod bits), or
        the committed version when the store is non-speculative.
        """
        result = AccessResult(hit=True)
        for tag in self.geom.lines_touched(addr, size):
            words = self.word_mask(addr, size)
            versions = self._versions(tag)
            if self._ctx_lines:
                # No context holds speculative-load bits anywhere when the
                # index is empty, so the scan cannot find a violation.
                result.violations.extend(
                    self._detect_violations(
                        tag, versions, words, order, ctx, store_pc
                    )
                )
            target = None
            for entry in versions:
                if entry.owner == (COMMITTED if ctx is None else order):
                    target = entry
                    break
            if target is None and ctx is None:
                # Non-speculative store with no committed copy on chip:
                # write-allocate from memory.
                committed = [e for e in versions if e.owner == COMMITTED]
                if not committed:
                    result.hit = False
                    result.memory_accesses += 1
                target = self._install(
                    L2Entry(tag=tag, owner=COMMITTED), result
                )
            elif target is None:
                # First speculative store to this line by this epoch:
                # allocate a new version.  If no copy is on chip at all the
                # line must first be fetched (write-allocate).
                if not versions:
                    result.hit = False
                    result.memory_accesses += 1
                    self._install(L2Entry(tag=tag, owner=COMMITTED), result)
                self.version_allocations += 1
                target = self._install(L2Entry(tag=tag, owner=order), result)
            if target is None:
                continue
            self._promote(target)
            if ctx is None:
                target.dirty = True
            else:
                target.spec_mod[ctx] = target.spec_mod.get(ctx, 0) | words
                self._note_ctx_line(ctx, tag)
            result.entry = target
        if result.hit:
            self.hits += 1
        else:
            self.misses += 1
        return result

    # ------------------------------------------------------------------
    # Single-line fast paths (compiled traces)
    # ------------------------------------------------------------------

    def load_line(
        self,
        tag: int,
        order: int,
        ctx: Optional[int],
        exposed: bool,
        load_bits: int,
    ) -> Tuple[bool, Optional[AccessResult]]:
        """Single-line twin of :meth:`load` with a precompiled bit mask.

        The trace compiler resolves each access into per-line ``(tag,
        load_bits)`` pairs up front, so this path skips the line-walk and
        mask arithmetic, and on a clean hit it allocates no
        :class:`AccessResult` at all.  Returns ``(hit, result)`` where
        ``result`` is None for a clean hit; every state change and
        statistic matches ``load`` exactly.
        """
        # _read_version against the per-line version index: only this
        # line's versions are visited, never the set's other ways or the
        # victim cache (strict > keeps the first-seen entry on ties
        # exactly as the list-based scan did).
        lst = self._line_versions.get(tag)
        entry = None
        if lst is not None:
            for e in lst:
                if e.owner <= order and (
                    entry is None or e.owner > entry.owner
                ):
                    entry = e
        if entry is None:
            result = AccessResult(hit=False)
            result.memory_accesses = 1
            entry = self._install(L2Entry(tag=tag, owner=COMMITTED), result)
            self.misses += 1
            if entry is None:
                return False, result
            hit = False
        else:
            # _promote, inlined for the common in-set case.
            if entry.in_victim:
                self._promote(entry)
            else:
                sentries = self._sets[
                    (tag >> self._set_shift) & self._set_mask
                ]._entries
                if sentries[-1] is not entry:
                    for si, se in enumerate(sentries):
                        if se is entry:
                            del sentries[si]
                            break
                    sentries.append(entry)
            self.hits += 1
            hit = True
            result = None
        if ctx is not None and exposed:
            entry.spec_loaded[ctx] = entry.spec_loaded.get(ctx, 0) | load_bits
            # _note_ctx_line, inlined on the hot path.
            lines = self._ctx_lines.get(ctx)
            if lines is None:
                self._ctx_lines[ctx] = lines = set()
            lines.add(tag)
        return hit, result

    def store_line(
        self,
        tag: int,
        order: int,
        ctx: Optional[int],
        words: int,
        store_pc: Optional[int] = None,
        detect: bool = True,
    ) -> Tuple[bool, Optional[AccessResult]]:
        """Single-line twin of :meth:`store` with a precompiled word mask.

        ``detect=False`` skips the violation scan; the machine passes it
        for region-private lines, where only the storing epoch ever holds
        bits on the line so the scan provably finds nothing.  Returns
        ``(hit, result)`` with ``result`` None when the store hit an
        existing version and raised no violations.
        """
        # The version index holds exactly this line's on-chip versions;
        # the scan below never installs or drops, so the live list is
        # safe to read (the installs at the bottom run after the last
        # read of ``versions``).
        versions = self._line_versions.get(tag) or ()
        violations: Tuple[Violation, ...] = ()
        # No on-chip versions means no recorded load bits: the violation
        # scan provably finds nothing, so skip the call.
        if detect and versions and self._ctx_lines:
            violations = self._detect_violations(
                tag, versions, words, order, ctx, store_pc
            )
        want = COMMITTED if ctx is None else order
        target = None
        for entry in versions:
            if entry.owner == want:
                target = entry
                break
        hit = True
        result = None
        if target is None:
            result = AccessResult(hit=True)
            if ctx is None:
                committed = False
                for entry in versions:
                    if entry.owner == COMMITTED:
                        committed = True
                        break
                if not committed:
                    hit = False
                    result.hit = False
                    result.memory_accesses += 1
                target = self._install(
                    L2Entry(tag=tag, owner=COMMITTED), result
                )
            else:
                if not versions:
                    hit = False
                    result.hit = False
                    result.memory_accesses += 1
                    self._install(L2Entry(tag=tag, owner=COMMITTED), result)
                self.version_allocations += 1
                target = self._install(L2Entry(tag=tag, owner=order), result)
        if violations:
            if result is None:
                result = AccessResult(hit=True)
            result.violations.extend(violations)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if target is None:
            return hit, result
        # _promote, inlined for the common in-set case (a freshly
        # installed target always lands in this same set).
        if target.in_victim:
            self._promote(target)
        else:
            sentries = self._sets[
                (tag >> self._set_shift) & self._set_mask
            ]._entries
            if sentries[-1] is not target:
                for si, se in enumerate(sentries):
                    if se is target:
                        del sentries[si]
                        break
                sentries.append(target)
        if ctx is None:
            target.dirty = True
        else:
            target.spec_mod[ctx] = target.spec_mod.get(ctx, 0) | words
            # _note_ctx_line, inlined on the hot path.
            lines = self._ctx_lines.get(ctx)
            if lines is None:
                self._ctx_lines[ctx] = lines = set()
            lines.add(tag)
        return hit, result

    def _detect_violations(
        self,
        tag: int,
        versions: List[L2Entry],
        words: int,
        order: int,
        ctx: Optional[int],
        store_pc: Optional[int],
    ) -> Tuple[Violation, ...]:
        """Find epochs violated by a store of ``words`` at logical ``order``."""
        per_victim: Dict[int, Tuple[int, int]] = {}
        for entry in versions:
            if entry.owner > order:
                # This version is newer than the store; its readers are safe.
                continue
            for load_ctx, loaded in entry.spec_loaded.items():
                if not (loaded & words):
                    continue
                victim_order = self.directory.order_of(load_ctx)
                if victim_order <= order:
                    continue  # loader is the storer or logically earlier
                subidx = self.directory.subidx_of(load_ctx)
                prev = per_victim.get(victim_order)
                if prev is None or subidx < prev[0]:
                    per_victim[victim_order] = (subidx, load_ctx)
        if not per_victim:
            return ()
        out = []
        for victim_order, (subidx, load_ctx) in sorted(per_victim.items()):
            self.violations_detected += 1
            out.append(
                Violation(
                    victim_order=victim_order,
                    subthread_idx=subidx,
                    load_ctx=load_ctx,
                    tag=tag,
                    store_ctx=ctx,
                    store_pc=store_pc,
                )
            )
        return tuple(out)

    # ------------------------------------------------------------------
    # Allocation / eviction
    # ------------------------------------------------------------------

    def _install(
        self, entry: L2Entry, result: AccessResult
    ) -> Optional[L2Entry]:
        """Place a new entry in its set, evicting as needed.

        Committed victims are written back (if dirty) and dropped — the
        machine must invalidate L1 copies to preserve inclusion.
        Speculative victims spill to the victim cache; if the victim cache
        in turn overflows a speculative line, the epochs owning that state
        lose it and must be squashed (reported via ``overflow_squash``).
        The paper avoids this by sizing the victim cache at 64 entries;
        we implement the squash so overflow is *safe*, and count it.
        """
        cset = self._set_for(entry.tag)
        while cset.is_full():
            victim = cset.lru_victim(protect=lambda e: False)
            assert victim is not None
            cset.remove(victim)
            if victim.is_speculative():
                self.victim_spills += 1
                # Spilled entries stay on chip: no index change.
                overflowed = self.victim.insert(victim)
                if overflowed is not None:
                    self._handle_overflow(overflowed, result)
            else:
                self._unindex(victim)
                if victim.dirty:
                    result.memory_accesses += 1
                if result.invalidated_lines:
                    result.invalidated_lines.append(victim.tag)
                else:
                    result.invalidated_lines = [victim.tag]
        cset.add(entry)
        self._line_versions.setdefault(entry.tag, []).append(entry)
        return entry

    def _handle_overflow(
        self, overflowed: L2Entry, result: AccessResult
    ) -> None:
        """A speculative line fell off the end of the victim cache."""
        self._unindex(overflowed)  # off chip either way below
        if not overflowed.is_speculative():
            if overflowed.dirty:
                result.memory_accesses += 1
            if result.invalidated_lines:
                result.invalidated_lines.append(overflowed.tag)
            else:
                result.invalidated_lines = [overflowed.tag]
            return
        self.overflow_squashes += 1
        owners: Set[int] = set()
        if overflowed.owner != COMMITTED:
            owners.add(overflowed.owner)
        for load_ctx in overflowed.spec_loaded:
            owners.add(self.directory.order_of(load_ctx))
        for mod_ctx in overflowed.spec_mod:
            owners.add(self.directory.order_of(mod_ctx))
        result.overflow_squash = list(result.overflow_squash) + sorted(owners)
        # The state is lost regardless; drop the line.
        if result.invalidated_lines:
            result.invalidated_lines.append(overflowed.tag)
        else:
            result.invalidated_lines = [overflowed.tag]

    # ------------------------------------------------------------------
    # Commit / squash (driven by the TLS engine)
    # ------------------------------------------------------------------

    def commit_epoch(self, order: int, ctxs: Iterable[int]) -> None:
        """Merge the epoch's speculative versions into committed state.

        Called when the epoch holds the homefree token: its version of each
        line becomes the committed version (old committed copies are
        dropped, freeing ways), and all its load bits are cleared.
        """
        ctx_list = list(ctxs)
        tags: Set[int] = set()
        for ctx in ctx_list:
            tags.update(self._ctx_lines.pop(ctx, ()))
        for tag in sorted(tags):
            # One snapshot serves both walks: committing an owner does not
            # change which entries hold the tag, and the inner drop only
            # affects entries this same snapshot already enumerates.
            versions = self._versions(tag)
            for entry in versions:
                if entry.owner == order:
                    entry.owner = COMMITTED
                    entry.dirty = True
                    entry.spec_mod.clear()
                    # Drop the stale committed version(s), if any remain,
                    # preserving load bits later epochs recorded on them
                    # (their loads of words this epoch never wrote are
                    # still live dependences).
                    for other in versions:
                        if other is not entry and other.owner == COMMITTED:
                            for ctx, mask in other.spec_loaded.items():
                                entry.spec_loaded[ctx] = (
                                    entry.spec_loaded.get(ctx, 0) | mask
                                )
                            self._drop(other)
                for ctx in ctx_list:
                    entry.spec_loaded.pop(ctx, None)

    def squash_ctxs(self, order: int, ctxs: Iterable[int]) -> List[int]:
        """Discard all speculative state belonging to ``ctxs``.

        Used for violation rewind (ctxs = contexts of sub-threads at or
        after the rewind point) and for full epoch squash.  Versions owned
        by the epoch are dropped once no surviving sub-thread context has
        modified words in them.  Returns the line tags touched (tests use
        this; the machine does not need it).
        """
        ctx_list = list(ctxs)
        tags: Set[int] = set()
        for ctx in ctx_list:
            tags.update(self._ctx_lines.pop(ctx, ()))
        for tag in sorted(tags):
            doomed = []
            for entry in self._versions(tag):
                for ctx in ctx_list:
                    entry.spec_loaded.pop(ctx, None)
                    if entry.owner == order:
                        entry.spec_mod.pop(ctx, None)
                if entry.owner == order and not entry.spec_mod:
                    doomed.append(entry)
            for entry in doomed:
                # Logically-later epochs that loaded from this version
                # recorded their exposed-load bits here; those bits must
                # survive the squash or the readers' future violations
                # are silently missed (their L1 lines stay ``notified``
                # and never re-inform the L2).
                if entry.spec_loaded and not self._rehome_load_bits(entry):
                    continue  # entry recycled as the committed version
                self._drop(entry)
        return sorted(tags)

    def _rehome_load_bits(self, entry: L2Entry) -> bool:
        """Move surviving ``spec_loaded`` bits off a doomed version.

        Merges them into the line's committed version when one is on
        chip (returns True: caller drops ``entry``); otherwise recycles
        ``entry`` itself as a clean committed copy of the line so the
        bits keep a home (returns False: caller must keep it).
        """
        for other in self._versions(entry.tag):
            if other is not entry and other.owner == COMMITTED:
                for ctx, mask in entry.spec_loaded.items():
                    other.spec_loaded[ctx] = (
                        other.spec_loaded.get(ctx, 0) | mask
                    )
                entry.spec_loaded.clear()
                return True
        entry.owner = COMMITTED
        entry.dirty = False
        entry.spec_mod.clear()
        return False

    def _drop(self, entry: L2Entry) -> None:
        if entry.in_victim:
            self.victim.remove(entry)
            self._unindex(entry)
            return
        cset = self._set_for(entry.tag)
        if any(e is entry for e in cset.entries()):
            cset.remove(entry)
            self._unindex(entry)

    # ------------------------------------------------------------------
    # Functional-warming snapshot (repro.sim.machine.WarmState)
    # ------------------------------------------------------------------

    def warm_state(self) -> tuple:
        """Immutable copy of committed contents and hit/miss tallies.

        ``(((set index, ((tag, dirty), ...) LRU-first), ...), hits,
        misses)``.  Raises unless the cache holds committed state only:
        no context bits, an empty victim cache, and no speculative
        version or load/modify bit on any entry.
        """
        if self._ctx_lines or len(self.victim):
            raise RuntimeError("L2 holds speculative state")
        sets = []
        for idx, cset in self._sets.items():
            for e in cset._entries:
                if e.owner != COMMITTED or e.spec_loaded or e.spec_mod:
                    raise RuntimeError("L2 holds speculative state")
            sets.append(
                (idx, tuple((e.tag, e.dirty) for e in cset._entries))
            )
        return tuple(sets), self.hits, self.misses

    def restore_warm_state(self, state: tuple) -> None:
        """Install a :meth:`warm_state` snapshot into this empty cache,
        rebuilding the per-line version index from it."""
        sets, self.hits, self.misses = state
        index = self._line_versions
        for idx, lines in sets:
            cset = L2Set(self._assoc)
            for tag, dirty in lines:
                entry = L2Entry(tag=tag, dirty=dirty)
                cset._entries.append(entry)
                index[tag] = [entry]
            self._sets[idx] = cset

    # ------------------------------------------------------------------
    # Introspection (tests / invariant checks)
    # ------------------------------------------------------------------

    def all_entries(self) -> List[L2Entry]:
        out: List[L2Entry] = []
        for cset in self._sets.values():
            out.extend(cset.entries())
        out.extend(self.victim.entries())
        return out

    def speculative_entries(self) -> List[L2Entry]:
        return [e for e in self.all_entries() if e.is_speculative()]

    def versions_of_line(self, addr: int) -> List[L2Entry]:
        return self._versions(self.geom.line_addr(addr))

    def check_invariants(self) -> None:
        """Structural invariants; raises AssertionError on violation."""
        for idx, cset in self._sets.items():
            assert len(cset) <= cset.assoc, f"set {idx} over-full"
            seen = set()
            for entry in cset.entries():
                assert self.geom.set_index(entry.tag) == idx, (
                    "entry in wrong set"
                )
                key = (entry.tag, entry.owner)
                assert key not in seen, f"duplicate version {key}"
                seen.add(key)
        assert len(self.victim.entries()) <= self.victim.capacity
        # The per-line version index must mirror the on-chip entries
        # (sets + victim cache) exactly, entry for entry.
        expected: Dict[int, List[int]] = {}
        for cset in self._sets.values():
            for entry in cset._entries:
                expected.setdefault(entry.tag, []).append(id(entry))
        for entry in self.victim._entries:
            expected.setdefault(entry.tag, []).append(id(entry))
        actual = {
            tag: sorted(id(e) for e in lst)
            for tag, lst in self._line_versions.items()
        }
        assert actual == {
            tag: sorted(ids) for tag, ids in expected.items()
        }, "L2 line-version index diverged from on-chip entries"
