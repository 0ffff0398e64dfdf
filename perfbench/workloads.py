"""The benchmark's workloads, driven through the program's public API.

Each workload has a ``setup`` (from nothing to ready to measure), a
``run`` that executes operations until its ``keep_going(count, elapsed)``
callback says stop, and a ``check`` of the program's outputs, which runs
after the measured window and is not timed.

Simulated metrics are taken at a fixed operation horizon, not at the end
of the wall-clock window, so for a given seed they are identical from run
to run and from machine to machine.
"""

from __future__ import annotations

import heapq
import math
import random
import struct
import time
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.bench.synthetic import SyntheticConfig
from repro.core.placement import figure2_placement
from repro.core.region import Region, RegionConfig
from repro.core.store import NoFTLStore
from repro.db.buffer import BufferPool
from repro.db.database import Database
from repro.flash.device import FlashDevice
from repro.flash.geometry import paper_geometry
from repro.tpcc.consistency import check_consistency
from repro.tpcc.driver import Driver
from repro.tpcc.loader import load_database
from repro.tpcc.metrics import WorkloadMetrics
from repro.tpcc.schema import ScaleConfig
from repro.tpcc.transactions import (
    DELIVERY,
    NEW_ORDER,
    ORDER_STATUS,
    PAYMENT,
    STOCK_LEVEL,
    TxnResult,
)

KeepGoing = Callable[[int, float], bool]

#: TransactionExecutor method -> transaction kind
TXN_KINDS = {
    "new_order_txn": NEW_ORDER,
    "payment_txn": PAYMENT,
    "order_status_txn": ORDER_STATUS,
    "delivery_txn": DELIVERY,
    "stock_level_txn": STOCK_LEVEL,
}


#: error lines a window keeps; every failed operation still counts
MAX_ERRORS = 10


@dataclass
class Window:
    """What one measured window did."""

    attempted: int = 0
    failed: int = 0
    #: messages of the first operations that raised
    errors: list[str] = field(default_factory=list)
    #: reads that returned something other than the last write
    stale_reads: int = 0
    #: wall seconds of the whole window
    elapsed: float = 0.0
    #: simulated metrics at the horizon (see :func:`sim_metrics`)
    sim: dict[str, float] = field(default_factory=dict)

    def fail(self, exc: Exception) -> None:
        """Count one operation that raised; the window carries on."""
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 for no values).

    Only the values from the rank up are copied out, so a long
    ``array('d')`` of samples is not turned into a list of floats.
    """
    if not values:
        return 0.0
    rank = min(max(math.ceil(round(fraction * len(values), 9)), 1), len(values))
    return heapq.nlargest(len(values) - rank + 1, values)[-1]


def counters(state: TpccState | FlashState) -> dict[str, Any]:
    """Simulated counters; the simulated and per-layer metrics are deltas of them."""
    device = state.device
    regions = state.regions
    stats = device.stats
    pool = state.pool
    return {
        "reads": stats.reads,
        "programs": stats.programs,
        "copybacks": stats.copybacks,
        "erases": stats.erases,
        "host_reads": sum(r.stats.host_reads for r in regions),
        "host_writes": sum(r.stats.host_writes for r in regions),
        "gc_erases": sum(r.stats.gc_erases for r in regions),
        "gc_victim_valid_pages": sum(r.stats.gc_victim_valid_pages for r in regions),
        "now_us": device.clock.now,
        "die_busy_us": [die.timeline.busy_us for die in device.dies],
        "channel_busy_us": [channel.busy_us for channel in device.channels],
        "dirty_evictions": pool.stats.dirty_evictions if pool is not None else 0,
        "flusher_writes": pool.stats.flusher_writes if pool is not None else 0,
    }


def sim_metrics(
    before: dict[str, Any], after: dict[str, Any], requests_per_s: float, p99_us: float,
) -> dict[str, float]:
    """The simulated end-to-end metrics over one horizon."""
    writes = after["host_writes"] - before["host_writes"]
    flash_writes = (after["programs"] - before["programs"]
                    + after["copybacks"] - before["copybacks"])
    return {
        "sim_requests_per_s": requests_per_s,
        "sim_p99_ms": p99_us / 1000.0,
        "write_amplification": flash_writes / writes if writes else 0.0,
        "erases_per_1k_writes": 1000.0 * (after["erases"] - before["erases"]) / writes
        if writes else 0.0,
    }


class StopWindow(Exception):
    """Raised through the TPC-C driver to end a measured window."""


# ----------------------------------------------------------------------
# TPC-C
# ----------------------------------------------------------------------
#: the fig3 population
TPCC_SCALE = ScaleConfig(
    warehouses=2,
    districts=10,
    customers_per_district=150,
    items=3000,
    initial_orders_per_district=40,
)
TERMINALS = 8
#: transactions over which the simulated metrics are taken
SIM_TXNS = 6000
#: most transactions in one window, whatever ``keep_going`` says.  TPC-C
#: only grows the database (Delivery deletes no order lines): on the fig3
#: device rgOrderLine is full after 13,200-14,400 transactions (seeds
#: 1-10), and from then on every NewOrder raises RegionFullError.
MAX_TXNS = 10_000


@dataclass
class TpccState:
    db: Database
    start_us: float

    @property
    def device(self) -> FlashDevice:
        return self.db.device

    @property
    def regions(self) -> list[Region]:
        assert self.db.store is not None
        return self.db.store.regions()

    @property
    def pool(self) -> BufferPool | None:
        return self.db.buffer_pool


@dataclass(frozen=True)
class TpccWorkload:
    """TPC-C on the fig3 stack under the published Figure-2 placement."""

    name: str
    buffer_frames: int
    #: operations the simulated metrics need
    horizon = SIM_TXNS

    def setup(self, seed: int) -> TpccState:
        """Build the stack, load the population and checkpoint it."""
        db = Database.on_native_flash(
            geometry=paper_geometry(blocks_per_plane=5, pages_per_block=32),
            placement=figure2_placement(64),
            buffer_pages=self.buffer_frames,
            flusher_interval=256,
            flusher_batch=8,
            cpu_us_per_op=5.0,
        )
        return TpccState(db=db, start_us=load_database(db, TPCC_SCALE, seed=seed))

    def run(self, state: TpccState, seed: int, keep_going: KeepGoing) -> Window:
        """Run closed-loop transactions until ``keep_going`` says stop or
        ``MAX_TXNS`` have run.

        A transaction that raises is counted as failed and the terminal
        goes on with its next one.  The simulated metrics come from the
        program's own :class:`WorkloadMetrics` over the first ``SIM_TXNS``
        transactions, except the NewOrder p99: ``WorkloadMetrics`` buckets
        it to ~12%, too coarse to compare runs, so it is taken exactly.
        """
        driver = Driver(state.db, TPCC_SCALE, terminals=TERMINALS, seed=seed)
        window = Window()
        figure3 = WorkloadMetrics(start_us=state.start_us, end_us=state.start_us)
        new_order_us = array("d")
        before = counters(state)
        clock = time.perf_counter
        start = clock()

        def horizon_metrics() -> dict[str, float]:
            return sim_metrics(before, counters(state), figure3.tps,
                               percentile(new_order_us, 0.99))

        def measured(method: Callable[..., TxnResult], kind: str) -> Callable[..., TxnResult]:
            def call(*args: Any) -> TxnResult:
                done = window.attempted
                if done >= MAX_TXNS or not keep_going(done, clock() - start):
                    raise StopWindow
                window.attempted += 1
                try:
                    result = method(*args)
                except Exception as exc:  # any raise is a failed operation
                    window.fail(exc)
                    at = args[-1]
                    return TxnResult(kind, committed=False, start_us=at, end_us=at)
                if figure3.transactions < SIM_TXNS:
                    figure3.record(result)
                    if result.kind == NEW_ORDER:
                        new_order_us.append(result.response_us)
                    if figure3.transactions == SIM_TXNS:
                        window.sim = horizon_metrics()
                return result
            return call

        executor = driver.executor
        for name, kind in TXN_KINDS.items():
            setattr(executor, name, measured(getattr(executor, name), kind))
        try:
            driver.run(num_transactions=2**62, start_us=state.start_us)
        except StopWindow:
            pass
        window.elapsed = clock() - start
        if not window.sim:
            window.sim = horizon_metrics()
        return window

    def check(self, state: TpccState) -> list[str]:
        """TPC-C consistency conditions and the engines' mapping invariants."""
        problems = check_consistency(state.db, at=state.db.now).violations[:MAX_ERRORS]
        assert state.db.store is not None
        try:
            state.db.store.check_consistency()
        except Exception as exc:  # the engines raise their own error types too
            problems.append(f"store.check_consistency: {type(exc).__name__}: {exc}")
        return problems


# ----------------------------------------------------------------------
# Flash hot/cold
# ----------------------------------------------------------------------
_STAMP = struct.Struct("<QQ")

FLASH_DIES = 8
#: share of the region's safe capacity that is preloaded
UTILIZATION = 0.7
#: the hot pages, and the share of operations that go to them
HOT_FRACTION = 1 / 8
HOT_TRAFFIC = 0.9
#: the share of flash operations that are reads in tpcc_regions
READ_SHARE = 0.44
#: closed-loop host streams (outstanding operations)
STREAMS = 8
#: operations between looks at the clock; the counts below are whole chunks
CHUNK_OPS = 4096
#: operations before the simulated-metric horizon starts (GC warm-up)
WARMUP_OPS = 2 * CHUNK_OPS
#: operations over which the simulated metrics are taken
SIM_OPS = 96 * CHUNK_OPS
#: length of the generated operation stream (replayed cyclically)
STREAM_OPS = 128 * CHUNK_OPS


@dataclass
class FlashState:
    store: NoFTLStore
    region: Region
    rpns: list[int]
    #: last payload written per page
    payloads: list[bytes]
    now_us: float
    version: int = 0

    @property
    def device(self) -> FlashDevice:
        return self.store.device

    @property
    def regions(self) -> list[Region]:
        return [self.region]

    @property
    def pool(self) -> BufferPool | None:
        return None


def flash_stream(seed: int, pages: int) -> array:
    """Seeded host operations over ``pages`` pages, each ``page * 2 + is_read``."""
    rng = random.Random(seed)
    hot = max(1, int(pages * HOT_FRACTION))
    ops = array("I")
    for __ in range(STREAM_OPS):
        if rng.random() < HOT_TRAFFIC:
            page = rng.randrange(hot)
        else:
            page = hot + rng.randrange(pages - hot)
        ops.append(page * 2 + (rng.random() < READ_SHARE))
    return ops


@dataclass(frozen=True)
class FlashWorkload:
    """GC-bound host page traffic on one NoFTL region, no DBMS above it."""

    name: str
    #: operations the simulated metrics need
    horizon = WARMUP_OPS + SIM_OPS

    def setup(self, seed: int) -> FlashState:
        """Build one region over every die and preload it (``seed`` unused:
        the preload is the same for every seed)."""
        store = NoFTLStore.create(SyntheticConfig(dies=FLASH_DIES).geometry())
        region = store.create_region(RegionConfig(name="rgAll"), num_dies=FLASH_DIES)
        pages = int(region.capacity_pages() * UTILIZATION)
        rpns = region.allocate(pages)
        payloads = [_STAMP.pack(page, 0) for page in range(pages)]
        now = 0.0
        for rpn, payload in zip(rpns, payloads):
            now = region.write(rpn, payload, now)
        return FlashState(store=store, region=region, rpns=rpns, payloads=payloads, now_us=now)

    def run(self, state: FlashState, seed: int, keep_going: KeepGoing) -> Window:
        """Issue the seed's stream from ``STREAMS`` closed-loop host streams.

        Like the TPC-C driver's terminals, the stream whose clock is
        furthest behind issues the next operation when its previous one
        completes.  The stream is generated before the timer starts.  An
        operation that raises is counted as failed and its stream goes on.
        """
        ops = flash_stream(seed, len(state.rpns))
        region = state.region
        read = region.read
        write = region.write
        rpns = state.rpns
        payloads = state.payloads
        stamp = _STAMP.pack
        replace = heapq.heapreplace
        window = Window()
        read_us = array("d")
        before: dict[str, Any] = {}
        sim_t0 = state.now_us
        warmup_failed = 0
        streams = [(state.now_us, stream) for stream in range(STREAMS)]
        version = state.version
        position = 0
        clock = time.perf_counter
        start = clock()

        def horizon_metrics(done: int) -> dict[str, float]:
            sim_us = max(streams)[0] - sim_t0
            return sim_metrics(before or counters(state), counters(state),
                               done / (sim_us / 1e6) if sim_us > 0 else 0.0,
                               percentile(read_us, 0.99))

        while keep_going(window.attempted, clock() - start):
            done = window.attempted
            if done == WARMUP_OPS:
                before = counters(state)
                sim_t0 = streams[0][0]
                warmup_failed = window.failed
            sink = read_us if WARMUP_OPS <= done < self.horizon else None
            chunk = ops[position:position + CHUNK_OPS]
            position = (position + CHUNK_OPS) % len(ops)
            for op in chunk:
                window.attempted += 1
                page = op >> 1
                now, stream = streams[0]
                try:
                    if op & 1:
                        data, end = read(rpns[page], now)
                        if data != payloads[page]:
                            window.stale_reads += 1
                        if sink is not None:
                            sink.append(end - now)
                    else:
                        version += 1
                        data = stamp(page, version)
                        end = write(rpns[page], data, now)
                        payloads[page] = data
                except Exception as exc:  # any raise is a failed operation
                    window.fail(exc)
                    continue
                replace(streams, (end, stream))
            if window.attempted == self.horizon:
                window.sim = horizon_metrics(SIM_OPS - window.failed + warmup_failed)
        window.elapsed = clock() - start
        state.now_us = max(streams)[0]
        state.version = version
        if not window.sim:
            window.sim = horizon_metrics(
                max(0, window.attempted - WARMUP_OPS - window.failed + warmup_failed))
        return window

    def check(self, state: FlashState) -> list[str]:
        """Read every page back against its last write; mapping invariants."""
        problems: list[str] = []
        now = state.now_us
        for page, rpn in enumerate(state.rpns):
            data, now = state.region.read(rpn, now)
            if data != state.payloads[page]:
                problems.append(f"page {page}: read back differs from the last write")
                if len(problems) >= MAX_ERRORS:
                    break
        state.now_us = now
        try:
            state.store.check_consistency()
        except Exception as exc:  # the engines raise their own error types too
            problems.append(f"store.check_consistency: {type(exc).__name__}: {exc}")
        return problems
