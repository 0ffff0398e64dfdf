"""The flash space engine: out-of-place writes, GC and WL over a die set.

:class:`FlashSpaceEngine` is the machinery both management layers share —
write frontiers, logical-to-physical mapping, garbage collection and static
wear levelling — parameterised by the *set of dies it owns*:

* the baseline FTL (:class:`repro.ftl.page_mapping.PageMappingFTL`) runs
  ONE engine over ALL dies: every object's pages mix in the same blocks,
  and GC victims carry whatever cocktail of hot and cold data happened to
  land together;
* NoFTL (:mod:`repro.core`) runs one engine PER REGION over that region's
  dies: blocks only ever contain pages of objects the DBA grouped
  together, so victim selection sees homogeneous data.

That parameterisation *is* the paper's experiment; everything else is held
constant by construction.

The engine also supports **growing and shrinking its die set** at runtime
(the paper: "the number of dies in each region ... is dynamic and can
change over time"), relocating live data off a die before releasing it.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.flash.address import PhysicalBlockAddress, PhysicalPageAddress
from repro.flash.block import PageMetadata
from repro.flash.device import CommandResult, FlashDevice
from repro.flash.errors import (
    CopybackError,
    DieFailedError,
    ProgramFaultError,
    TransientReadError,
)
from repro.mapping.blockinfo import BlockInfo, BlockState, DieBookkeeping
from repro.mapping.stats import ManagementStats
from repro.policies import GCPolicy, WLPolicy, resolve_gc_policy, resolve_wl_policy


class SpaceFullError(Exception):
    """The engine's dies hold only valid data; nothing can be reclaimed."""


#: Bound on re-driving a write after consecutive program failures.  Eight
#: grown-bad blocks in a row on one logical write means the device (or the
#: fault plan) is beyond salvage; give up rather than loop.
MAX_WRITE_REDRIVES = 8


class FlashSpaceEngine:
    """Out-of-place page store over an explicit set of flash dies.

    Logical pages are plain integer keys chosen by the caller; the engine
    maps them to physical pages, keeps them alive across GC/WL, and charges
    all background work to the owning dies' timelines.

    Args:
        device: shared native flash device.
        dies: global die indices this engine may use (its exclusive
            property; die sets of different engines must not overlap).
        books: per-die bookkeeping, keyed by die index.  Passing these in
            (rather than creating them) lets dies migrate between engines
            with their wear history intact.
        stats: counter sink (one per management layer or per region).
        gc_policy: GC victim selection — a registered policy name (e.g.
            ``"greedy"``, ``"cost_benefit"``) or a ready
            :class:`~repro.policies.base.GCPolicy` instance; resolved
            through :func:`repro.policies.resolve_gc_policy` at
            construction, so unknown names fail fast.
        gc_trigger_free_blocks / gc_target_free_blocks: per-die watermarks.
        wear_level_threshold: per-die erase-count spread triggering static
            WL, or ``None`` to disable.
        wl_check_interval_erases: WL evaluation cadence, in GC erases.
        wl_policy: static-WL block ranking — a registered name (default
            ``"coldest_first"``, the historical behaviour) or a
            :class:`~repro.policies.base.WLPolicy` instance.
        obj_id: stamped into page metadata (regions use their region id).
        read_disturb_threshold: reads a block may absorb between erases
            before its live pages are refreshed (relocated) — real NAND
            loses data to read disturb; ``None`` disables the patrol.
        max_read_retries: attempts a transient read failure is retried
            before the error propagates (successful retries trigger a
            scrub of the offending block).
    """

    def __init__(
        self,
        device: FlashDevice,
        dies: list[int],
        books: dict[int, DieBookkeeping],
        stats: ManagementStats,
        gc_policy: str | GCPolicy = "greedy",
        gc_trigger_free_blocks: int = 2,
        gc_target_free_blocks: int = 3,
        wear_level_threshold: int | None = None,
        wl_check_interval_erases: int = 64,
        wl_policy: str | WLPolicy = "coldest_first",
        obj_id: int | None = None,
        group_stripe_width: int = 8,
        read_disturb_threshold: int | None = None,
        max_read_retries: int = 8,
    ) -> None:
        if not dies:
            raise ValueError("an engine needs at least one die")
        if gc_trigger_free_blocks < 2:
            raise ValueError("gc_trigger_free_blocks must be >= 2 (GC needs a spare block)")
        if gc_target_free_blocks < gc_trigger_free_blocks:
            raise ValueError("gc_target_free_blocks must be >= gc_trigger_free_blocks")
        missing = [d for d in dies if d not in books]
        if missing:
            raise ValueError(f"no bookkeeping passed for dies {missing}")
        self.device = device
        self.geometry = device.geometry
        # geometry derivations are Python properties (recomputed per call);
        # the mapping hot path packs/unpacks addresses on every page op, so
        # pin the two factors it needs
        self._pages_per_die = self.geometry.pages_per_die
        self._pages_per_block = self.geometry.pages_per_block
        self.dies: list[int] = list(dies)
        self.books = books
        self.stats = stats
        self.gc_policy: GCPolicy = resolve_gc_policy(gc_policy)
        self.wl_policy: WLPolicy = resolve_wl_policy(wl_policy)
        self.gc_trigger_free_blocks = gc_trigger_free_blocks
        self.gc_target_free_blocks = gc_target_free_blocks
        self.wear_level_threshold = wear_level_threshold
        self.wl_check_interval_erases = wl_check_interval_erases
        self.obj_id = obj_id
        self.group_stripe_width = max(1, group_stripe_width)
        self.read_disturb_threshold = read_disturb_threshold
        self.max_read_retries = max(1, max_read_retries)

        self._map: dict[int, int] = {}  # logical key -> packed ppa
        self._rmap: dict[int, int] = {}  # packed ppa -> logical key
        self._user_frontier: dict[int, BlockInfo | None] = {d: None for d in dies}
        self._gc_frontier: dict[int, BlockInfo | None] = {d: None for d in dies}
        self._group_frontiers: dict[int, list[BlockInfo | None]] = {}
        self._group_rr: dict[int, int] = {}
        self._group_cursor: dict[int, int] = {}
        self._rr_index = 0
        self._erases_since_wl_check = 0

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def reserve_blocks_per_die(self) -> int:
        """Blocks a die must keep for frontiers + GC headroom."""
        return self.gc_target_free_blocks + 2

    def physical_pages(self) -> int:
        """Raw good pages over the engine's dies."""
        per_block = self.geometry.pages_per_block
        return sum(
            sum(1 for b in self.books[d].blocks if b.state is not BlockState.BAD) * per_block
            for d in self.dies
        )

    def safe_capacity_pages(self) -> int:
        """Pages that may safely hold valid data (reserve subtracted)."""
        per_block = self.geometry.pages_per_block
        reserve = len(self.dies) * self.reserve_blocks_per_die * per_block
        return max(0, self.physical_pages() - reserve)

    def live_pages(self) -> int:
        """Logical pages currently mapped."""
        return len(self._map)

    def contains(self, key: int) -> bool:
        """Whether logical page ``key`` is currently mapped."""
        return key in self._map

    def keys(self) -> list[int]:
        """All mapped logical keys (sorted, for deterministic iteration)."""
        return sorted(self._map)

    def iter_keys(self) -> Iterator[int]:
        """Mapped logical keys in arbitrary order (no sort — O(n) consumers
        like counting and set-building should not pay O(n log n))."""
        return iter(self._map)

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def read(self, key: int, at: float) -> tuple[bytes, float]:
        """Read logical page ``key``; returns ``(data, completion_us)``."""
        packed = self._map.get(key)
        if packed is None:
            raise KeyError(f"logical page {key} is not mapped")
        ppa = PhysicalPageAddress.from_int(packed, self.geometry)
        try:
            result = self.device.read_page(ppa, at=at)
        except TransientReadError:
            result = self._retry_read(ppa, at, scrub=True)
        if self.read_disturb_threshold is not None:
            self._maybe_refresh(ppa, result.end_us)
        return result.data, result.end_us

    def _retry_read(
        self, ppa: PhysicalPageAddress, at: float, scrub: bool
    ) -> CommandResult:
        """Bounded retry of a transient read failure; scrub on success.

        Real controllers re-read with stepped reference voltages; here each
        retry is another READ PAGE command.  A success means the data was
        salvageable but the block is suspect, so (when ``scrub`` is set)
        its live pages are relocated and the block erased — the same move
        as a read-disturb refresh, charged asynchronously.
        """
        last: TransientReadError | None = None
        for __ in range(self.max_read_retries):
            try:
                result = self.device.read_page(ppa, at=at)
            except TransientReadError as exc:
                last = exc
                continue
            faults = self.device.faults
            if faults is not None:
                faults.stats.recovered_read_retry += 1
            bus = self.device.events
            if bus is not None:
                bus.emit(result.end_us, "faults", "read_recovered",
                         die=ppa.die, block=ppa.block, page=ppa.page)
            if scrub:
                self._scrub_block(ppa, result.end_us)
            return result
        assert last is not None
        raise last

    def _scrub_block(self, ppa: PhysicalPageAddress, at: float) -> None:
        """Relocate and erase a block that produced a transient read failure.

        Only FULL blocks are scrubbed — open frontiers refresh naturally
        when sealed and collected.  The erase routes through
        :meth:`_retire_or_recycle`, so a scrub that pushes the block past
        rated endurance retires it.
        """
        info = self.books[ppa.die].blocks[ppa.block]
        if info.state is not BlockState.FULL:
            return
        moved = 0
        t = at
        for page in info.valid_pages():
            t = self._relocate(PhysicalPageAddress(ppa.die, ppa.block, page), t)
            moved += 1
        self.device.erase_block(PhysicalBlockAddress(ppa.die, ppa.block), at=t)
        self.stats.gc_erases += 1
        self._retire_or_recycle(ppa.die, ppa.block)
        faults = self.device.faults
        if faults is not None:
            faults.stats.scrubs += 1
            faults.stats.scrub_relocations += moved
        bus = self.device.events
        if bus is not None:
            bus.emit(t, "faults", "scrub", die=ppa.die, block=ppa.block, moved=moved)

    def _maybe_refresh(self, ppa: PhysicalPageAddress, at: float) -> None:
        """Refresh a block whose read count crossed the disturb threshold.

        Live pages are relocated (the refresh) and the block erased —
        charged to the device timelines asynchronously, like GC.  Counts
        as wear-levelling work in the statistics.
        """
        block = self.device.dies[ppa.die].blocks[ppa.block]
        if block.reads_since_erase < self.read_disturb_threshold:
            return
        info = self.books[ppa.die].blocks[ppa.block]
        if info.state is not BlockState.FULL:
            return  # open frontiers refresh naturally when sealed/collected
        moved = 0
        t = at
        for page in info.valid_pages():
            t = self._relocate(PhysicalPageAddress(ppa.die, ppa.block, page), t)
            moved += 1
        self.stats.wl_moves += moved
        self.stats.gc_copybacks -= moved  # relocations above counted as GC
        self.device.erase_block(PhysicalBlockAddress(ppa.die, ppa.block), at=t)
        self.stats.wl_erases += 1
        self._retire_or_recycle(ppa.die, ppa.block)

    def write(self, key: int, data: bytes, at: float, group: int | None = None) -> float:
        """Write logical page ``key`` out-of-place; returns completion time.

        ``group`` is the caller's placement hint — the paper's "physical
        organization via logical structures".  Writes of the same group
        fill dedicated erase blocks (block-granular striping across the
        engine's dies), so objects with different lifetimes never share a
        block.  Without a group, writes interleave in arrival order on
        per-die frontiers — the knowledge-free placement an FTL performs
        and the paper's *traditional* baseline.
        """
        # Runs on packed integer coordinates end-to-end (no
        # PhysicalPageAddress / PageMetadata / CommandResult objects); a
        # program fault retires the frontier and re-drives the write.  Die
        # pick and frontier refill are inlined from _pick_die / _frontier;
        # `has_reclaimable` stays a property access so alternative
        # bookkeeping cost models keep being exercised.
        device = self.device
        ppd = self._pages_per_die
        ppb = self._pages_per_block
        books_map = self.books
        obj = -1 if self.obj_id is None else self.obj_id
        last: ProgramFaultError | None = None
        for __ in range(MAX_WRITE_REDRIVES):
            if group is None:
                dies = self.dies
                n = len(dies)
                rr = self._rr_index
                for offset in range(n):
                    die_index = dies[(rr + offset) % n]
                    books = books_map[die_index]
                    if len(books._free) > 1 or books.has_reclaimable:
                        self._rr_index = (rr + offset + 1) % n
                        break
                else:
                    raise SpaceFullError(
                        f"engine over dies {self.dies}: every die is full of valid data"
                    )
                if len(books._free) <= self.gc_trigger_free_blocks:
                    at = self._collect_if_needed(die_index, at)
                frontier = self._user_frontier[die_index]
                if frontier is None or books._written[frontier.block] >= ppb:
                    frontier = books.take_free_block()
                    self._user_frontier[die_index] = frontier
            else:
                frontier, at = self._group_frontier(group, at)
                die_index = frontier.die
                books = books_map[die_index]
            block = frontier.block
            page = books._written[block]
            seq = device._seq + 1  # next_sequence(), sans the call
            device._seq = seq
            try:
                end = device.program_page_packed(
                    die_index, block, page, data, key, seq, obj, at
                )
            except ProgramFaultError as exc:
                last = exc
                at = self._on_program_fault(frontier, at)
                continue
            # inline invalidate(key): the overwritten version (if any) dies
            old = self._map.pop(key, None)
            if old is not None:
                odie, rest = divmod(old, ppd)
                oblock, opage = divmod(rest, ppb)
                books_map[odie].invalidate_packed(oblock, opage)
                del self._rmap[old]
            books.note_write_packed(block, page, end)
            packed = die_index * ppd + block * ppb + page
            self._map[key] = packed
            self._rmap[packed] = key
            if group is None and books._written[block] >= ppb:
                self._user_frontier[die_index] = None
            return end
        assert last is not None
        raise last

    def write_atomic(
        self, entries: list[tuple[int, bytes]], at: float, group: int | None = None
    ) -> float:
        """Write several logical pages as one all-or-nothing unit.

        The paper's NoFTL advantage (iv): out-of-place updates give atomic
        multi-page writes *without additional overhead* — no journal, no
        double write.  Every page of the batch is programmed normally, its
        OOB metadata carrying ``(atomic id, batch size)``; the old versions
        are invalidated only after the last program completes.  Crash
        semantics are enforced by recovery (:meth:`rebuild_from_flash`): a
        batch whose page count on flash is short of its recorded size is
        discarded wholesale, resurrecting the previous versions.
        """
        if not entries:
            raise ValueError("atomic write needs at least one page")
        if len({key for key, __ in entries}) != len(entries):
            raise ValueError("atomic write cannot contain one key twice")
        last: ProgramFaultError | None = None
        for __ in range(MAX_WRITE_REDRIVES):
            # a fresh atomic id per attempt: an aborted attempt's pages stay
            # on flash as an incomplete batch, which recovery drops wholesale
            atomic_id = self.device.next_sequence()
            staged: list[tuple[int, PhysicalPageAddress, BlockInfo, int, float]] = []
            try:
                for key, data in entries:
                    if group is None:
                        die_index = self._pick_die()
                        at = self._collect_if_needed(die_index, at)
                        frontier = self._frontier(self._user_frontier, die_index)
                    else:
                        frontier, at = self._group_frontier(group, at)
                        die_index = frontier.die
                    page = frontier.written
                    ppa = PhysicalPageAddress(die_index, frontier.block, page)
                    meta = PageMetadata(
                        lpn=key,
                        seq=self.device.next_sequence(),
                        obj_id=self.obj_id,
                        extra={"atomic_id": atomic_id, "atomic_size": len(entries)},
                    )
                    result = self.device.program_page(ppa, data, meta, at=at)
                    at = result.end_us
                    frontier.note_write(page, at)
                    if frontier.is_full and group is None:
                        self._user_frontier[die_index] = None  # stripes refill lazily
                    staged.append((key, ppa, frontier, page, at))
            except ProgramFaultError as exc:
                # abandon the attempt BEFORE retiring the block, so the
                # salvage pass only relocates pages that are really mapped
                last = exc
                self._abandon_staged(staged)
                at = self._on_program_fault(frontier, at)
                continue
            except DieFailedError:
                # the region layer rebuilds around the die and retries the
                # whole batch; disown this attempt's pages first
                self._abandon_staged(staged)
                raise
            # "commit": flip all mappings only after the last page is on flash
            for key, ppa, __, ___, ____ in staged:
                self.invalidate(key)
                packed = ppa.to_int(self.geometry)
                self._map[key] = packed
                self._rmap[packed] = key
            return at
        assert last is not None
        raise last

    def _abandon_staged(
        self, staged: list[tuple[int, PhysicalPageAddress, BlockInfo, int, float]]
    ) -> None:
        """Disown the pages of an aborted atomic attempt.

        They were never mapped, so invalidating them in the bookkeeping is
        all that is needed for the live engine; on flash they remain as an
        incomplete atomic batch, which :meth:`rebuild_from_flash` discards.
        """
        for __, ppa, ___, page, ____ in staged:
            self.books[ppa.die].blocks[ppa.block].invalidate(page)

    def invalidate(self, key: int) -> None:
        """Drop the mapping for ``key`` (its physical page becomes garbage)."""
        packed = self._map.pop(key, None)
        if packed is None:
            return
        # unpack inline: this runs on every overwrite, and the engine only
        # ever stores addresses it packed itself, so no validation round-trip
        die, rest = divmod(packed, self._pages_per_die)
        block, page = divmod(rest, self._pages_per_block)
        self.books[die].invalidate_packed(block, page)
        del self._rmap[packed]

    # ------------------------------------------------------------------
    # Die selection & frontiers
    # ------------------------------------------------------------------
    def _pick_die(self) -> int:
        """Round-robin striping with dynamic skip of exhausted dies."""
        n = len(self.dies)
        for offset in range(n):
            die = self.dies[(self._rr_index + offset) % n]
            books = self.books[die]
            if books.free_count > 1 or books.has_reclaimable:
                self._rr_index = (self._rr_index + offset + 1) % n
                return die
        raise SpaceFullError(
            f"engine over dies {self.dies}: every die is full of valid data"
        )

    def _frontier(self, frontiers: dict[int, BlockInfo | None], die_index: int) -> BlockInfo:
        frontier = frontiers.get(die_index)
        if frontier is None or frontier.is_full:
            frontier = self.books[die_index].take_free_block()
            frontiers[die_index] = frontier
        return frontier

    def _group_frontier(self, group: int, at: float) -> tuple[BlockInfo, float]:
        """Active erase block of a placement group.

        Each group keeps up to ``group_stripe_width`` open blocks on
        distinct dies and rotates through them page by page, so even a
        burst of writes to one object spreads over several dies ("the
        distribution over available Flash data channels, dies or planes
        allows for better I/O parallelism").  Blocks stay object-pure; when
        one fills, its replacement comes from the next die in round-robin
        order."""
        stripe = self._group_frontiers.get(group)
        if stripe is None:
            width = min(self.group_stripe_width, len(self.dies))
            stripe = [None] * width
            self._group_frontiers[group] = stripe
            self._group_rr[group] = group % len(self.dies)
            self._group_cursor[group] = 0
        width = len(stripe)
        for attempt in range(width):
            cursor = self._group_cursor[group]
            self._group_cursor[group] = (cursor + 1) % width
            frontier = stripe[cursor]
            if frontier is not None and not frontier.is_full:
                return frontier, at
            frontier, at = self._take_group_block(group, at)
            if frontier is not None:
                stripe[cursor] = frontier
                return frontier, at
        raise SpaceFullError(
            f"engine over dies {self.dies}: every die is full of valid data"
        )

    def _take_group_block(self, group: int, at: float) -> tuple[BlockInfo | None, float]:
        """Allocate a fresh block for a group from the next viable die."""
        n = len(self.dies)
        start = self._group_rr[group]
        for offset in range(n):
            die_index = self.dies[(start + offset) % n]
            books = self.books[die_index]
            if books.free_count > 1 or books.has_reclaimable:
                at = self._collect_if_needed(die_index, at)
                self._group_rr[group] = (start + offset + 1) % n
                return books.take_free_block(), at
        return None, at

    def _map_page(
        self, key: int, ppa: PhysicalPageAddress, frontier: BlockInfo, page: int, now_us: float
    ) -> None:
        frontier.note_write(page, now_us)
        # pack inline (addresses built by the engine are valid by construction)
        packed = ppa.die * self._pages_per_die + ppa.block * self._pages_per_block + ppa.page
        self._map[key] = packed
        self._rmap[packed] = key

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def _collect_if_needed(self, die_index: int, at: float) -> float:
        """Reclaim space on ``die_index`` when its free pool hits the watermark.

        GC work always reserves device time (it contends with everything
        else on the die), but it stalls the *calling* operation only when
        the pool is critical (one free block left) — otherwise it runs as
        background work, the way both FTL firmware and a NoFTL storage
        manager overlap GC with foreground traffic.
        """
        books = self.books[die_index]
        if books.free_count > self.gc_trigger_free_blocks:
            return at
        blocking = books.free_count <= 1
        t = at
        while books.free_count < self.gc_target_free_blocks:
            victim = self.gc_policy.choose_victim_from_books(books, t)
            if victim is None:
                if books.free_count == 0:
                    raise SpaceFullError(
                        f"die {die_index}: no free blocks and nothing to reclaim"
                    )
                break
            t = self._collect_block(victim, t)
        t = self._maybe_wear_level(t)
        return t if blocking else at

    def _collect_block(self, victim: BlockInfo, at: float) -> float:
        die_index = victim.die
        self.stats.gc_victim_valid_pages += victim.valid_count
        bus = self.device.events
        if bus is not None:
            bus.emit(at, "mapping", "gc_collect", die=die_index, block=victim.block,
                     valid_pages=victim.valid_count, obj=self.obj_id)
        # the policy gets the same payload as the obs event, so adaptive
        # policies learn from the realised copy cost of their own picks
        self.gc_policy.observe({
            "event": "gc_collect",
            "die": die_index,
            "block": victim.block,
            "valid_pages": victim.valid_count,
            "pages_per_block": self._pages_per_block,
            "obj": self.obj_id,
        })
        for page in victim.valid_pages():
            src = PhysicalPageAddress(die_index, victim.block, page)
            at = self._relocate(src, at)
        end = self.device.erase_block_packed(die_index, victim.block, at)
        self.stats.gc_erases += 1
        self._erases_since_wl_check += 1
        self._retire_or_recycle(die_index, victim.block)
        return end

    def _retire_or_recycle(self, die_index: int, block: int) -> None:
        """After an erase: recycle the block, or retire it if it wore out.

        A block whose erase pushed it past rated endurance is bad on the
        *device*; the management layer must mirror that or the next program
        into it would fail.  Either way the block first leaves every
        frontier slot: a group stripe keeps its slot after the block fills,
        and an erased block reads as not full again, so a stale slot would
        resume writing into a block that is back in the free pool."""
        self._drop_from_frontiers(self.books[die_index].blocks[block])
        if self.device.dies[die_index].blocks[block].is_bad:
            self.books[die_index].blocks[block].reset_after_erase()
            self.books[die_index].mark_bad(block)
        else:
            self.books[die_index].return_erased_block(block)

    def _drop_from_frontiers(self, info: BlockInfo) -> None:
        """Detach ``info`` from every write-frontier slot (user, GC and
        group stripes)."""
        die_index = info.die
        if self._user_frontier.get(die_index) is info:
            self._user_frontier[die_index] = None
        if self._gc_frontier.get(die_index) is info:
            self._gc_frontier[die_index] = None
        for stripe in self._group_frontiers.values():
            for i, slot in enumerate(stripe):
                if slot is info:
                    stripe[i] = None

    def _relocate(self, src: PhysicalPageAddress, at: float) -> float:
        """Move one live page to its die's GC frontier (copyback preferred).

        The OOB metadata travels unchanged — crucially including the write
        sequence number: relocation moves a *version*, it does not create
        one.  (A refreshed sequence number could outrank a later committed
        write at recovery time.)"""
        die_index = src.die
        src_packed = src.die * self._pages_per_die + src.block * self._pages_per_block + src.page
        key = self._rmap[src_packed]
        device = self.device
        books = self.books[die_index]
        last: ProgramFaultError | None = None
        for __ in range(MAX_WRITE_REDRIVES):
            frontier = self._frontier(self._gc_frontier, die_index)
            block = frontier.block
            page = books._written[block]
            try:
                end = device.copyback_packed(
                    die_index, src.block, src.page, block, page, at
                )
                self.stats.gc_copybacks += 1
            except CopybackError:
                read = self._read_for_relocation(src, at)
                dst = PhysicalPageAddress(die_index, block, page)
                try:
                    end = device.program_page(
                        dst, read.data, read.metadata, at=read.end_us
                    ).end_us
                except ProgramFaultError as exc:
                    last = exc
                    at = self._on_program_fault(frontier, at)
                    continue
                self.stats.gc_reads += 1
                self.stats.gc_programs += 1
            books.invalidate_packed(src.block, src.page)
            del self._rmap[src_packed]
            books.note_write_packed(block, page, end)
            packed = die_index * self._pages_per_die + block * self._pages_per_block + page
            self._map[key] = packed
            self._rmap[packed] = key
            if books._written[block] >= self._pages_per_block:
                self._gc_frontier[die_index] = None
            return end
        assert last is not None
        raise last

    def _read_for_relocation(
        self, src: PhysicalPageAddress, at: float
    ) -> CommandResult:
        """Read a page for relocation, absorbing transient read failures.

        No scrub on success: relocation callers are already emptying (or
        retiring) the source block, so scheduling another scrub of it would
        relocate the same pages twice.
        """
        try:
            return self.device.read_page(src, at=at)
        except TransientReadError:
            return self._retry_read(src, at, scrub=False)

    def _on_program_fault(self, frontier: BlockInfo, at: float) -> float:
        """Retire a write frontier whose program failed (grown bad block).

        The failed page was never committed by the device, but the block
        can no longer be trusted: detach it from every frontier slot,
        salvage its already-programmed live pages (still readable — program
        failures are per-page), and mirror the retirement on the device and
        in the books.  No erase — a grown-bad block cannot be erased; since
        it is marked bad, recovery scans skip it, so the stale page copies
        on it are never resurrected.
        """
        die_index = frontier.die
        block = frontier.block
        self._drop_from_frontiers(frontier)
        frontier.seal()
        moved = 0
        for page in frontier.valid_pages():
            at = self._relocate(PhysicalPageAddress(die_index, block, page), at)
            moved += 1
        self.device.dies[die_index].blocks[block].mark_bad()
        self.books[die_index].mark_bad(block)
        faults = self.device.faults
        if faults is not None:
            faults.stats.retired_grown_bad_blocks += 1
            faults.stats.salvage_relocations += moved
            faults.stats.redrive_writes += 1
        bus = self.device.events
        if bus is not None:
            bus.emit(at, "faults", "grown_bad_block", die=die_index, block=block,
                     salvaged=moved, obj=self.obj_id)
        return at

    def _unmap_physical(self, ppa: PhysicalPageAddress, packed: int | None = None) -> None:
        """Invalidate ``ppa`` in bookkeeping and drop its reverse mapping.

        ``packed`` lets callers that already linearized the address (to look
        up the owning key) skip a second round of packing.
        """
        if packed is None:
            packed = ppa.die * self._pages_per_die + ppa.block * self._pages_per_block + ppa.page
        self.books[ppa.die].invalidate_packed(ppa.block, ppa.page)
        del self._rmap[packed]

    # ------------------------------------------------------------------
    # Static wear levelling (within the engine's die set)
    # ------------------------------------------------------------------
    def _maybe_wear_level(self, at: float) -> float:
        if self.wear_level_threshold is None:
            return at
        if self._erases_since_wl_check < self.wl_check_interval_erases:
            return at
        self._erases_since_wl_check = 0
        for die_index in self.dies:
            at = self._wear_level_die(die_index, at)
        return at

    def _wear_level_die(self, die_index: int, at: float) -> float:
        books = self.books[die_index]
        die = self.device.dies[die_index]
        frees = books.free_blocks()
        if not frees:
            return at
        fulls = [b for b in books.blocks if b.state is BlockState.FULL and b.valid_count > 0]
        if not fulls:
            return at
        move = self.wl_policy.choose_move(
            frees, fulls, lambda b: die.blocks[b.block].erase_count
        )
        if move is None:
            return at
        worn_free, cold = move
        spread = die.blocks[worn_free.block].erase_count - die.blocks[cold.block].erase_count
        if spread <= self.wear_level_threshold:
            return at
        bus = self.device.events
        if bus is not None:
            bus.emit(at, "mapping", "wear_level", die=die_index, cold_block=cold.block,
                     target_block=worn_free.block, spread=spread, obj=self.obj_id)
        target = books.take_block(worn_free.block)
        page_out = 0
        for page in cold.valid_pages():
            src = PhysicalPageAddress(die_index, cold.block, page)
            dst = PhysicalPageAddress(die_index, target.block, page_out)
            src_packed = src.to_int(self.geometry)
            key = self._rmap[src_packed]
            try:
                result = self.device.copyback(src, dst, at=at)  # carries source OOB
            except CopybackError:
                read = self._read_for_relocation(src, at)
                try:
                    result = self.device.program_page(
                        dst, read.data, read.metadata, at=read.end_us
                    )
                except ProgramFaultError:
                    # WL target went grown-bad mid-move: salvage what moved,
                    # retire it, abandon this pass (cold block stays intact)
                    return self._on_program_fault(target, read.end_us)
                # the fallback is host-visible traffic either way: count it
                # like the GC fallback so WA accounting stays closed
                self.stats.gc_reads += 1
                self.stats.gc_programs += 1
            at = result.end_us
            self._unmap_physical(src, src_packed)
            self._map_page(key, dst, target, page_out, at)
            page_out += 1
            self.stats.wl_moves += 1
        result = self.device.erase_block(PhysicalBlockAddress(die_index, cold.block), at=at)
        self.stats.wl_erases += 1
        self._retire_or_recycle(die_index, cold.block)
        self._seal_partial_block(target)
        return result.end_us

    def _seal_partial_block(self, info: BlockInfo) -> None:
        """Close a partially-filled relocation target (tail counts invalid)."""
        info.seal()  # routes through bookkeeping so the candidate set learns

    # ------------------------------------------------------------------
    # Dynamic die membership
    # ------------------------------------------------------------------
    def add_die(self, die_index: int, books: DieBookkeeping) -> None:
        """Adopt a die (and its wear history) into this engine."""
        if die_index in self._user_frontier:
            raise ValueError(f"die {die_index} already belongs to this engine")
        self.dies.append(die_index)
        self.books[die_index] = books
        self._user_frontier[die_index] = None
        self._gc_frontier[die_index] = None

    def evacuate_die(self, die_index: int, at: float) -> tuple[DieBookkeeping, float]:
        """Move all live data off ``die_index`` and release the die.

        Relocation is cross-die (host read + program to the remaining
        dies).  Returns the die's bookkeeping (to hand to another engine)
        and the completion time.  The caller must ensure the remaining
        dies have capacity for the evacuated data.
        """
        if die_index not in self._user_frontier:
            raise ValueError(f"die {die_index} does not belong to this engine")
        if len(self.dies) == 1:
            raise ValueError("cannot evacuate the engine's last die")
        bus = self.device.events
        if bus is not None:
            bus.emit(at, "mapping", "evacuate_die", die=die_index, obj=self.obj_id)
        self.dies.remove(die_index)
        self._user_frontier.pop(die_index)
        self._gc_frontier.pop(die_index)
        for stripe in self._group_frontiers.values():
            for i, frontier in enumerate(stripe):
                if frontier is not None and frontier.die == die_index:
                    stripe[i] = None
        books = self.books.pop(die_index)
        # relocate every live page to the remaining dies via normal writes
        for info in books.blocks:
            for page in list(info.valid_pages()):
                src = PhysicalPageAddress(die_index, info.block, page)
                packed = src.to_int(self.geometry)
                key = self._rmap.pop(packed)
                read = self._read_for_relocation(src, at)
                self.stats.gc_reads += 1
                info.invalidate(page)
                del self._map[key]
                at = self.write(key, read.data, read.end_us)
                self.stats.gc_programs += 1
        # erase everything the engine had written on the die
        for info in books.blocks:
            if info.state is BlockState.BAD:
                continue
            if info.written > 0:
                result = self.device.erase_block(
                    PhysicalBlockAddress(die_index, info.block), at=at
                )
                at = result.end_us
                self.stats.gc_erases += 1
                if self.device.dies[die_index].blocks[info.block].is_bad:
                    info.reset_after_erase()
                    books.mark_bad(info.block)
                else:
                    books.return_erased_block(info.block)
            elif info.state is BlockState.OPEN:
                books.return_erased_block(info.block)
        return books, at

    def fail_die(self, die_index: int, at: float) -> tuple[int, float]:
        """Rebuild around a write/erase-dead die; returns ``(moved, end_us)``.

        The failure model (mirrored by the injector): the die stops
        accepting PROGRAM and ERASE but still serves reads, so its live
        pages are recoverable.  Unlike :meth:`evacuate_die` the blocks are
        *not* erased (erase would fail) and the bookkeeping is not handed
        to another engine: the die leaves the system permanently and the
        engine's capacity shrinks accordingly.
        """
        if die_index not in self._user_frontier:
            raise ValueError(f"die {die_index} does not belong to this engine")
        if len(self.dies) == 1:
            raise SpaceFullError(
                f"die {die_index} failed and the engine has no surviving dies"
            )
        bus = self.device.events
        if bus is not None:
            bus.emit(at, "faults", "die_rebuild_start", die=die_index, obj=self.obj_id)
        self.dies.remove(die_index)
        self._user_frontier.pop(die_index)
        self._gc_frontier.pop(die_index)
        for stripe in self._group_frontiers.values():
            for i, frontier in enumerate(stripe):
                if frontier is not None and frontier.die == die_index:
                    stripe[i] = None
        books = self.books.pop(die_index)
        moved = 0
        # pull every live page off the dead die via normal reads + writes
        # to the survivors (cross-die, so copyback cannot help here)
        for info in books.blocks:
            for page in list(info.valid_pages()):
                src = PhysicalPageAddress(die_index, info.block, page)
                packed = src.to_int(self.geometry)
                key = self._rmap.pop(packed)
                read = self._read_for_relocation(src, at)
                self.stats.gc_reads += 1
                info.invalidate(page)
                del self._map[key]
                at = self.write(key, read.data, read.end_us)
                self.stats.gc_programs += 1
                moved += 1
        faults = self.device.faults
        if faults is not None:
            faults.stats.retired_dies += 1
            faults.stats.rebuild_relocations += moved
        if bus is not None:
            bus.emit(at, "faults", "die_rebuild_done", die=die_index,
                     moved=moved, obj=self.obj_id)
        return moved, at

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def rebuild_from_flash(self, at: float = 0.0) -> float:
        """Reconstruct mapping and bookkeeping by scanning page metadata.

        This is why the native interface exposes *handle Page Metadata*
        (paper, Figure 1): the host's translation state is volatile, but
        every programmed page carries its logical key and a write-sequence
        number in the OOB area.  After a crash, a fresh engine over the
        same dies scans each block's pages in order (stopping at the first
        unprogrammed page — programming is sequential), keeps the
        highest-sequence version of every key and marks everything else
        invalid.  Partially written blocks are sealed.

        The scan is charged as OOB reads on the device timelines, so
        recovery time is measured rather than assumed.  Returns the
        completion time.
        """
        self._map.clear()
        self._rmap.clear()
        self._user_frontier = {d: None for d in self.dies}
        self._gc_frontier = {d: None for d in self.dies}
        self._group_frontiers.clear()
        self._group_rr.clear()
        self._group_cursor.clear()
        # pass 1 — scan every programmed page's OOB, collecting candidates
        candidates: list[tuple[PhysicalPageAddress, int, int, int | None, int]] = []
        atomic_seen: dict[int, int] = {}
        for die_index in self.dies:
            device_die = self.device.dies[die_index]
            books = self.books[die_index]
            books.reset_all()
            for block_index, block in enumerate(device_die.blocks):
                if block.is_bad:
                    books.mark_bad(block_index)
                    continue
                if block.write_pointer == 0:
                    continue
                info = books.take_block(block_index)
                for page in range(block.write_pointer):
                    ppa = PhysicalPageAddress(die_index, block_index, page)
                    result = self.device.read_metadata(ppa, at=at)
                    at = result.end_us
                    info.note_write(page, at)
                    meta = result.metadata
                    key = None if meta is None else meta.lpn
                    mine = meta is not None and (
                        self.obj_id is None or meta.obj_id == self.obj_id
                    )
                    if not mine or key is None:
                        info.invalidate(page)
                        continue
                    atomic_id = meta.extra.get("atomic_id") if meta.extra else None
                    atomic_size = meta.extra.get("atomic_size", 0) if meta.extra else 0
                    if atomic_id is not None:
                        atomic_seen[atomic_id] = atomic_seen.get(atomic_id, 0) + 1
                    candidates.append((ppa, key, meta.seq, atomic_id, atomic_size))
                self._seal_partial_block(info)

        # pass 2 — a torn atomic batch (fewer pages on flash than its
        # recorded size) never happened: drop all of its members
        def torn(atomic_id: int | None, atomic_size: int) -> bool:
            return atomic_id is not None and atomic_seen.get(atomic_id, 0) < atomic_size

        # pass 3 — highest surviving sequence number wins per key
        best_seq: dict[int, int] = {}
        locations: dict[int, PhysicalPageAddress] = {}
        for ppa, key, seq, atomic_id, atomic_size in candidates:
            if torn(atomic_id, atomic_size):
                continue
            if key not in best_seq or seq > best_seq[key]:
                best_seq[key] = seq
                locations[key] = ppa

        # pass 4 — every non-winner page becomes garbage
        winners = {ppa for ppa in locations.values()}
        for ppa, key, seq, atomic_id, atomic_size in candidates:
            if ppa not in winners:
                self.books[ppa.die].blocks[ppa.block].invalidate(ppa.page)
        for key, ppa in locations.items():
            packed = ppa.to_int(self.geometry)
            self._map[key] = packed
            self._rmap[packed] = key
        return at

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Assert mapping/bookkeeping invariants (used by property tests)."""
        seen: set[int] = set()
        for key, packed in self._map.items():
            assert packed not in seen, f"physical page shared by two keys: {packed}"
            seen.add(packed)
            assert self._rmap.get(packed) == key, f"rmap mismatch for key {key}"
            ppa = PhysicalPageAddress.from_int(packed, self.geometry)
            assert ppa.die in self.books, f"mapped page on foreign die: {ppa}"
            info = self.books[ppa.die].blocks[ppa.block]
            assert info.is_valid(ppa.page), f"mapped page not valid in bookkeeping: {ppa}"
        assert seen == set(self._rmap), "rmap contains stale entries"
        slots = [*self._user_frontier.values(), *self._gc_frontier.values()]
        for stripe in self._group_frontiers.values():
            slots.extend(stripe)
        held: set[tuple[int, int]] = set()
        for info in slots:
            if info is None:
                continue
            assert (info.die, info.block) not in held, f"block held by two frontiers: {info!r}"
            held.add((info.die, info.block))
            assert info.state is not BlockState.FREE, f"frontier holds a FREE block: {info!r}"
        for die_index, books in self.books.items():
            device_blocks = self.device.dies[die_index].blocks
            for info in books.blocks:
                pointer = device_blocks[info.block].write_pointer
                # seal() counts a closed block's unwritten tail as written,
                # and bad blocks are sealed before they retire
                if info.state in (BlockState.FREE, BlockState.OPEN):
                    assert info.written == pointer, (
                        f"bookkeeping written {info.written} != device write pointer "
                        f"{pointer}: {info!r}"
                    )
                else:
                    assert info.written >= pointer, (
                        f"bookkeeping written {info.written} < device write pointer "
                        f"{pointer}: {info!r}"
                    )
            books.check_invariants()
