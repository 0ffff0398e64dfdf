"""The native flash device: command set, timing and contention.

:class:`FlashDevice` exposes exactly the native interface of the paper's
Figure 1 — *Read/Program Page, Erase Block, Copyback, handle Page Metadata*
— plus the geometry and per-die/per-channel occupancy timelines that make
data placement matter.

Every command takes the caller's current virtual time ``at`` and returns a
:class:`CommandResult` carrying the completion time.  Commands contend for
two resources:

* the **die** (one array operation at a time), and
* the **channel** (shared by all chips on it, used only for host transfers —
  copyback and erase never move data over the channel, which is precisely
  why GC prefers copyback).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.flash.address import PhysicalBlockAddress, PhysicalPageAddress
from repro.flash.block import Block, PageMetadata
from repro.flash.die import Die
from repro.flash.errors import ConfigError, CopybackError, DataError
from typing import TYPE_CHECKING

from repro.flash.geometry import FlashGeometry
from repro.flash.simclock import ResourceTimeline, SimClock
from repro.flash.stats import FlashStats
from repro.flash.timing import DEFAULT_TIMING, TimingModel

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.obs.events import EventBus


@dataclass(frozen=True)
class CommandResult:
    """Outcome of one native flash command.

    Attributes:
        start_us: when the command began executing (after queueing).
        end_us: when the command completed; the caller's clock should
            advance to this value for synchronous I/O.
        data: page payload for READ PAGE, else ``None``.
        metadata: OOB metadata for READ PAGE, else ``None``.
    """

    start_us: float
    end_us: float
    data: bytes | None = None
    metadata: PageMetadata | None = None

    @property
    def service_us(self) -> float:
        """Execution time excluding queueing (start to completion)."""
        return self.end_us - self.start_us


class FlashDevice:
    """A simulated native flash device (a loose set of flash dies).

    Args:
        geometry: physical shape of the device.
        timing: latency model; defaults to :data:`~repro.flash.timing.DEFAULT_TIMING`.
        clock: shared virtual clock; a fresh one is created if omitted.
        initial_bad_block_rate: fraction of blocks marked bad at
            "manufacture time" (deterministic given ``seed``).
        strict_plane_copyback: if ``True``, COPYBACK additionally requires
            source and destination to share a plane, as on strict hardware.
        seed: RNG seed for bad-block placement.
        events: optional :class:`~repro.obs.events.EventBus`; when set,
            every native command emits a ``layer="flash"`` event with die /
            block / page attribution.  Management layers above share the
            same bus, so one stream shows host I/O -> mapping decision ->
            native command.  ``None`` (the default) costs one attribute
            test per command.
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        timing: TimingModel | None = None,
        clock: SimClock | None = None,
        initial_bad_block_rate: float = 0.0,
        strict_plane_copyback: bool = False,
        seed: int = 0,
        events: EventBus | None = None,
    ) -> None:
        if not 0.0 <= initial_bad_block_rate < 1.0:
            raise ConfigError("initial_bad_block_rate must be in [0, 1)")
        self.geometry = geometry
        self.timing = timing if timing is not None else DEFAULT_TIMING
        self.clock = clock if clock is not None else SimClock()
        self.strict_plane_copyback = strict_plane_copyback
        self.events = events
        #: optional fault injector (:mod:`repro.faults`); same None-guard
        #: pattern as ``events`` — one attribute test per command when off
        self.faults: FaultInjector | None = None
        self.dies: list[Die] = [Die(i, geometry) for i in range(geometry.dies)]
        self.channels: list[ResourceTimeline] = [
            ResourceTimeline(name=f"ch{i}") for i in range(geometry.channels)
        ]
        self.stats = FlashStats(dies=geometry.dies)
        # hot-path constants: the packed command variants run per simulated
        # page write, so the per-call property/bus-math cost is pinned here
        self._die_channels: list[ResourceTimeline] = [
            self.channels[geometry.channel_of_die(d)] for d in range(geometry.dies)
        ]
        self._die_timelines: list[ResourceTimeline] = [d.timeline for d in self.dies]
        self._die_blocks: list[list[Block]] = [d.blocks for d in self.dies]
        self._page_size = geometry.page_size
        self._page_bus_us = self.timing.bus_us(geometry.page_size, geometry.page_size)
        self._program_us = self.timing.program_us
        self._erase_us = self.timing.erase_us
        self._copyback_us = self.timing.copyback_us
        self._seq = 0
        if initial_bad_block_rate > 0.0:
            rng = random.Random(seed)
            for die in self.dies:
                for block in die.blocks:
                    if rng.random() < initial_bad_block_rate:
                        block.mark_bad()

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def die(self, index: int) -> Die:
        """Return die ``index`` (validated)."""
        self.geometry.check_die(index)
        return self.dies[index]

    def block(self, address: PhysicalBlockAddress) -> Block:
        """Return the block at ``address`` (validated)."""
        address.validate(self.geometry)
        return self.dies[address.die].blocks[address.block]

    def channel_of_die(self, die: int) -> ResourceTimeline:
        """Return the channel timeline serving ``die``."""
        return self.channels[self.geometry.channel_of_die(die)]

    def next_sequence(self) -> int:
        """Monotonic write sequence number for page metadata."""
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # Native command set
    # ------------------------------------------------------------------
    def read_page(self, ppa: PhysicalPageAddress, at: float | None = None) -> CommandResult:
        """READ PAGE: array read on the die, then transfer over the channel."""
        ppa.validate(self.geometry)
        issue = self.clock.now if at is None else at
        if self.faults is not None:
            self.faults.on_command("read_page", ppa.die, ppa.block, ppa.page, at=issue)
        die = self.dies[ppa.die]
        data, metadata = die.blocks[ppa.block].read(ppa.page)
        start, array_done = die.timeline.reserve(issue, self.timing.read_us)
        channel = self.channel_of_die(ppa.die)
        bus = self.timing.bus_us(self.geometry.page_size, self.geometry.page_size)
        __, end = channel.reserve(array_done, bus)
        self.stats.record_read(ppa.die, len(data), end - issue)
        if self.events is not None:
            self.events.emit(issue, "flash", "read_page", die=ppa.die,
                             block=ppa.block, page=ppa.page, start_us=start, end_us=end)
        self.clock.advance_to(end)
        return CommandResult(start_us=start, end_us=end, data=data, metadata=metadata)

    def read_metadata(self, ppa: PhysicalPageAddress, at: float | None = None) -> CommandResult:
        """Handle Page Metadata: read only the OOB area of a page.

        Cheaper than a full page read (partial bus transfer); used by the
        host to rebuild translation state at recovery time.
        """
        ppa.validate(self.geometry)
        issue = self.clock.now if at is None else at
        die = self.dies[ppa.die]
        __, metadata = die.blocks[ppa.block].read(ppa.page)
        start, array_done = die.timeline.reserve(issue, self.timing.read_us)
        channel = self.channel_of_die(ppa.die)
        bus = self.timing.bus_us(self.geometry.oob_size, self.geometry.page_size)
        __, end = channel.reserve(array_done, bus)
        self.stats.record_read(ppa.die, self.geometry.oob_size, end - issue)
        if self.events is not None:
            self.events.emit(issue, "flash", "read_metadata", die=ppa.die,
                             block=ppa.block, page=ppa.page, start_us=start, end_us=end)
        self.clock.advance_to(end)
        return CommandResult(start_us=start, end_us=end, data=None, metadata=metadata)

    def program_page(
        self,
        ppa: PhysicalPageAddress,
        data: bytes,
        metadata: PageMetadata | None = None,
        at: float | None = None,
    ) -> CommandResult:
        """PROGRAM PAGE: transfer over the channel, then program the array."""
        ppa.validate(self.geometry)
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise DataError(f"page payload must be bytes-like, got {type(data).__name__}")
        data = bytes(data)
        if len(data) > self.geometry.page_size:
            raise DataError(
                f"payload of {len(data)} bytes exceeds page size {self.geometry.page_size}"
            )
        issue = self.clock.now if at is None else at
        if self.faults is not None:
            # before any state mutates: a program fault leaves the page
            # unprogrammed and the timelines unreserved
            self.faults.on_command("program_page", ppa.die, ppa.block, ppa.page, at=issue)
        die = self.dies[ppa.die]
        channel = self.channel_of_die(ppa.die)
        bus = self.timing.bus_us(self.geometry.page_size, self.geometry.page_size)
        start, xfer_done = channel.reserve(issue, bus)
        __, end = die.timeline.reserve(xfer_done, self.timing.program_us)
        die.blocks[ppa.block].program(ppa.page, data, metadata)
        self.stats.record_program(ppa.die, len(data), end - issue)
        if self.events is not None:
            self.events.emit(issue, "flash", "program_page", die=ppa.die,
                             block=ppa.block, page=ppa.page, start_us=start, end_us=end)
        self.clock.advance_to(end)
        return CommandResult(start_us=start, end_us=end)

    def erase_block(self, pba: PhysicalBlockAddress, at: float | None = None) -> CommandResult:
        """ERASE BLOCK: array-only operation, no channel occupancy."""
        pba.validate(self.geometry)
        issue = self.clock.now if at is None else at
        if self.faults is not None:
            self.faults.on_command("erase_block", pba.die, pba.block, at=issue)
        die = self.dies[pba.die]
        die.blocks[pba.block].erase()
        if self.faults is not None:
            self.faults.after_erase(pba.die, pba.block, at=issue)
        start, end = die.timeline.reserve(issue, self.timing.erase_us)
        self.stats.record_erase(pba.die)
        if self.events is not None:
            self.events.emit(issue, "flash", "erase_block", die=pba.die,
                             block=pba.block, start_us=start, end_us=end)
        self.clock.advance_to(end)
        return CommandResult(start_us=start, end_us=end)

    def copyback(
        self,
        src: PhysicalPageAddress,
        dst: PhysicalPageAddress,
        metadata: PageMetadata | None = None,
        at: float | None = None,
    ) -> CommandResult:
        """COPYBACK: move a page within one die without a host transfer.

        The payload travels cell array -> page register -> cell array
        entirely on-die, so only the die timeline is occupied.  If
        ``metadata`` is given it replaces the OOB of the destination page
        (hosts use this to refresh the write sequence number); otherwise
        the source metadata is carried over.
        """
        src.validate(self.geometry)
        dst.validate(self.geometry)
        if src.die != dst.die:
            raise CopybackError(f"copyback must stay on one die: {src} -> {dst}")
        if self.strict_plane_copyback:
            src_plane = self.geometry.plane_of_block(src.block)
            dst_plane = self.geometry.plane_of_block(dst.block)
            if src_plane != dst_plane:
                raise CopybackError(
                    f"strict plane copyback: {src} (plane {src_plane}) -> {dst} (plane {dst_plane})"
                )
        issue = self.clock.now if at is None else at
        if self.faults is not None:
            self.faults.on_command("copyback", src.die, src.block, src.page, at=issue)
        die = self.dies[src.die]
        data, src_meta = die.blocks[src.block].read(src.page)
        die.blocks[dst.block].program(dst.page, data, metadata if metadata is not None else src_meta)
        start, end = die.timeline.reserve(issue, self.timing.copyback_us)
        self.stats.record_copyback(src.die)
        if self.events is not None:
            self.events.emit(issue, "flash", "copyback", die=src.die,
                             block=src.block, page=src.page,
                             dst_block=dst.block, dst_page=dst.page,
                             start_us=start, end_us=end)
        self.clock.advance_to(end)
        return CommandResult(start_us=start, end_us=end)

    # ------------------------------------------------------------------
    # Packed variants
    # ------------------------------------------------------------------
    # The mapping engine issues millions of page operations per experiment
    # using addresses it constructed itself (valid by construction).  These
    # variants take raw integer coordinates, skip address re-validation and
    # the CommandResult allocation, and return only the completion time.
    # They run the same None-guarded hooks as their address-object twins —
    # the fault injector before any state changes, one flash event after —
    # so the engine has one command path whether or not anything observes it.

    def program_page_packed(
        self, die: int, block: int, page: int, data: bytes,
        lpn: int, seq: int, obj_id: int, at: float,
    ) -> float:
        """PROGRAM PAGE on pre-validated coordinates; returns completion time.

        Equivalent to :meth:`program_page` with
        ``PageMetadata(lpn=lpn, seq=seq, obj_id=obj_id)`` (``-1`` encodes an
        unset ``lpn``/``obj_id``).
        """
        if type(data) is not bytes:
            if not isinstance(data, (bytearray, memoryview)):
                raise DataError(
                    f"page payload must be bytes-like, got {type(data).__name__}"
                )
            data = bytes(data)
        nbytes = len(data)
        if nbytes > self._page_size:
            raise DataError(
                f"payload of {nbytes} bytes exceeds page size {self._page_size}"
            )
        if self.faults is not None:
            self.faults.on_command("program_page", die, block, page, at=at)
        start, xfer_done = self._die_channels[die].reserve(at, self._page_bus_us)
        __, end = self._die_timelines[die].reserve(xfer_done, self._program_us)
        self._die_blocks[die][block].program_packed(page, data, lpn, seq, obj_id)
        self.stats.record_program(die, nbytes, end - at)
        if self.events is not None:
            self.events.emit(at, "flash", "program_page", die=die,
                             block=block, page=page, start_us=start, end_us=end)
        clock = self.clock
        if end > clock._now:
            clock._now = end
        return end

    def copyback_packed(
        self, die: int, src_block: int, src_page: int,
        dst_block: int, dst_page: int, at: float,
    ) -> float:
        """COPYBACK on pre-validated coordinates; returns completion time.

        Carries the source OOB record unchanged (the only way the engine
        ever uses copyback).  Raises
        :class:`~repro.flash.errors.CopybackError` under strict plane
        rules, exactly like :meth:`copyback`.
        """
        if self.strict_plane_copyback:
            src_plane = self.geometry.plane_of_block(src_block)
            dst_plane = self.geometry.plane_of_block(dst_block)
            if src_plane != dst_plane:
                raise CopybackError(
                    f"strict plane copyback: die {die} block {src_block} (plane {src_plane})"
                    f" -> block {dst_block} (plane {dst_plane})"
                )
        if self.faults is not None:
            self.faults.on_command("copyback", die, src_block, src_page, at=at)
        blocks = self._die_blocks[die]
        blocks[src_block].copy_page_to(src_page, blocks[dst_block], dst_page)
        start, end = self._die_timelines[die].reserve(at, self._copyback_us)
        self.stats.record_copyback(die)
        if self.events is not None:
            self.events.emit(at, "flash", "copyback", die=die,
                             block=src_block, page=src_page,
                             dst_block=dst_block, dst_page=dst_page,
                             start_us=start, end_us=end)
        self.clock.advance_to(end)
        return end

    def erase_block_packed(self, die: int, block: int, at: float) -> float:
        """ERASE BLOCK on pre-validated coordinates; returns completion time."""
        if self.faults is not None:
            self.faults.on_command("erase_block", die, block, at=at)
        self._die_blocks[die][block].erase()
        if self.faults is not None:
            self.faults.after_erase(die, block, at=at)
        start, end = self._die_timelines[die].reserve(at, self._erase_us)
        self.stats.record_erase(die)
        if self.events is not None:
            self.events.emit(at, "flash", "erase_block", die=die,
                             block=block, start_us=start, end_us=end)
        self.clock.advance_to(end)
        return end

    # ------------------------------------------------------------------
    # Multi-plane operations
    # ------------------------------------------------------------------
    def program_multi_plane(
        self,
        ppas: list[PhysicalPageAddress],
        payloads: list[bytes],
        metadatas: list[PageMetadata | None] | None = None,
        at: float | None = None,
    ) -> CommandResult:
        """Multi-plane PROGRAM: one page per plane of one die, one array op.

        Real NAND exposes this to multiply program bandwidth: the pages'
        data is shifted in sequentially over the channel, then all planes
        program **concurrently**, so the array phase is paid once instead
        of once per page.  Constraints (as on hardware): all targets on the
        same die, one page per distinct plane.
        """
        if not ppas:
            raise DataError("multi-plane program needs at least one page")
        if len(ppas) != len(payloads):
            raise DataError("pages and payloads differ in length")
        metadatas = metadatas if metadatas is not None else [None] * len(ppas)
        die_index = ppas[0].die
        planes = set()
        for ppa in ppas:
            ppa.validate(self.geometry)
            if ppa.die != die_index:
                raise CopybackError("multi-plane program must stay on one die")
            plane = self.geometry.plane_of_block(ppa.block)
            if plane in planes:
                raise DataError(f"two pages target plane {plane}")
            planes.add(plane)
        issue = self.clock.now if at is None else at
        if self.faults is not None:
            self.faults.on_command(
                "program_multi_plane", die_index, ppas[0].block, ppas[0].page, at=issue
            )
        die = self.dies[die_index]
        channel = self.channel_of_die(die_index)
        bus = self.timing.bus_us(self.geometry.page_size, self.geometry.page_size)
        # sequential transfers, then one shared program phase
        start = None
        xfer_done = issue
        for __ in ppas:
            s, xfer_done = channel.reserve(xfer_done, bus)
            start = s if start is None else start
        __, end = die.timeline.reserve(xfer_done, self.timing.program_us)
        for ppa, data, meta in zip(ppas, payloads, metadatas):
            data = bytes(data)
            if len(data) > self.geometry.page_size:
                raise DataError(
                    f"payload of {len(data)} bytes exceeds page size {self.geometry.page_size}"
                )
            die.blocks[ppa.block].program(ppa.page, data, meta)
            self.stats.record_program(ppa.die, len(data), end - issue)
        if self.events is not None:
            self.events.emit(issue, "flash", "program_multi_plane", die=die_index,
                             pages=len(ppas), start_us=start, end_us=end)
        self.clock.advance_to(end)
        return CommandResult(start_us=start, end_us=end)

    def read_multi_plane(
        self, ppas: list[PhysicalPageAddress], at: float | None = None
    ) -> list[CommandResult]:
        """Multi-plane READ: one page per plane of one die, one array op.

        The array read is paid once; the transfers drain sequentially over
        the channel.  Returns one result per requested page, in order.
        """
        if not ppas:
            raise DataError("multi-plane read needs at least one page")
        die_index = ppas[0].die
        planes = set()
        for ppa in ppas:
            ppa.validate(self.geometry)
            if ppa.die != die_index:
                raise CopybackError("multi-plane read must stay on one die")
            plane = self.geometry.plane_of_block(ppa.block)
            if plane in planes:
                raise DataError(f"two pages target plane {plane}")
            planes.add(plane)
        issue = self.clock.now if at is None else at
        if self.faults is not None:
            self.faults.on_command(
                "read_multi_plane", die_index, ppas[0].block, ppas[0].page, at=issue
            )
        die = self.dies[die_index]
        start, array_done = die.timeline.reserve(issue, self.timing.read_us)
        channel = self.channel_of_die(die_index)
        bus = self.timing.bus_us(self.geometry.page_size, self.geometry.page_size)
        results = []
        xfer_done = array_done
        for ppa in ppas:
            data, metadata = die.blocks[ppa.block].read(ppa.page)
            __, xfer_done = channel.reserve(xfer_done, bus)
            self.stats.record_read(ppa.die, len(data), xfer_done - issue)
            results.append(
                CommandResult(start_us=start, end_us=xfer_done, data=data, metadata=metadata)
            )
        if self.events is not None:
            self.events.emit(issue, "flash", "read_multi_plane", die=die_index,
                             pages=len(ppas), start_us=start, end_us=xfer_done)
        self.clock.advance_to(xfer_done)
        return results

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_event_bus(self, capacity: int = 100_000) -> EventBus:
        """Create (or return) the device's shared cross-layer event bus."""
        from repro.obs.events import EventBus

        if self.events is None:
            self.events = EventBus(capacity=capacity)
        return self.events

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def attach_fault_injector(self, injector: FaultInjector) -> FaultInjector:
        """Wire a :class:`~repro.faults.injector.FaultInjector` into every
        injectable command (OOB metadata reads are exempt, so recovery
        scans never trip fresh faults).  Off by default; with no injector
        attached each command pays one ``is not None`` test."""
        injector.device = self
        self.faults = injector
        return injector

    # ------------------------------------------------------------------
    # Wear / health reporting
    # ------------------------------------------------------------------
    def erase_counts(self) -> list[list[int]]:
        """Per-die lists of per-block erase counts."""
        return [die.erase_counts() for die in self.dies]

    def max_erase_count(self) -> int:
        """Highest per-block erase count anywhere on the device."""
        return max((b.erase_count for die in self.dies for b in die.blocks), default=0)

    def total_erase_count(self) -> int:
        """Sum of erase counts over the whole device."""
        return sum(die.total_erase_count for die in self.dies)

    def die_utilizations(self, horizon: float | None = None) -> list[float]:
        """Busy fraction of each die over ``[0, horizon]`` (default: now)."""
        h = self.clock.now if horizon is None else horizon
        return [die.timeline.utilization(h) for die in self.dies]

    def channel_utilizations(self, horizon: float | None = None) -> list[float]:
        """Busy fraction of each channel over ``[0, horizon]`` (default: now)."""
        h = self.clock.now if horizon is None else horizon
        return [ch.utilization(h) for ch in self.channels]
