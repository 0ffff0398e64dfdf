"""Per-layer wall-time tracing, applied from outside the program.

:class:`Tracer` replaces the public functions of each layer with timing
wrappers (class attributes, so every instance built while it is installed
calls through them) and puts the originals back on :meth:`Tracer.remove`.
Each wrapper keeps a span on a stack: a call's *self time* is its duration
minus the time of the traced calls it made.  Counts and self times are
aggregated per function in memory; only transactions and host page reads
keep one record per call, because their percentiles are reported.

The event bus, the flash tracer and the fault injector are never used:
the mapping engine leaves its packed fast path when either hook is set,
so a trace through them would time a different program.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from typing import Any

from repro.core.region import Region
from repro.db.backend import StorageBackend
from repro.db.btree import BTree
from repro.db.buffer import BufferPool
from repro.db.heap import HeapFile
from repro.db.records import RowCodec
from repro.db.slotted_page import SlottedPage
from repro.db.table import Table
from repro.flash.device import FlashDevice
from repro.flash.simclock import ResourceTimeline
from repro.mapping.engine import FlashSpaceEngine
from repro.policies.base import GCPolicy, WLPolicy
from repro.tpcc.random_gen import TPCCRandom
from repro.tpcc.transactions import TransactionExecutor
from workloads import TXN_KINDS, percentile

#: B-tree operations that descend from the root (``search_all`` delegates
#: to ``range_scan``, so it is not counted twice).
BTREE_SEARCHES = ("search", "range_scan")


def _policy_classes(base: type) -> list[type]:
    found: list[type] = []
    todo = [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


#: layer name -> (classes, method names).  Layer names are module names.
#: ``BTree._encode_node``/``_decode_node`` are included although private:
#: the buffer pool calls them as the index's page codec, so without them
#: index decoding would count as buffer time.
LAYERS: dict[str, tuple[tuple[type, ...], tuple[str, ...]]] = {
    "tpcc.transactions": ((TransactionExecutor,), tuple(TXN_KINDS)),
    "tpcc.random_gen": ((TPCCRandom,), (
        "uniform", "decimal", "astring", "nstring", "nurand", "customer_id", "item_id",
        "last_name", "customer_last_name_load", "customer_last_name_run", "permutation",
        "zip_code", "data_string",
    )),
    "db.table": ((Table,), (
        "insert", "read", "update", "update_columns", "delete", "lookup", "lookup_rid",
        "lookup_all",
    )),
    "db.heap": ((HeapFile,), ("insert", "read", "update", "delete")),
    "db.btree": ((BTree,), (
        "search", "search_all", "range_scan", "insert", "delete", "_encode_node", "_decode_node",
    )),
    "db.records": ((RowCodec,), ("encode", "decode")),
    "db.slotted_page": ((SlottedPage,), (
        "from_bytes", "to_bytes", "insert", "read", "update", "delete", "slots", "fits",
        "free_space",
    )),
    "db.buffer": ((BufferPool,), ("get", "put_new", "flush_page")),
    "db.backend": ((StorageBackend,), ("read_page", "write_page")),
    "core.region": ((Region,), ("read", "write", "write_atomic")),
    "mapping.engine": ((FlashSpaceEngine,), ("read", "write", "write_atomic", "invalidate")),
    "policies": (
        tuple(_policy_classes(GCPolicy) + _policy_classes(WLPolicy)),
        ("choose_victim", "choose_victim_from_books", "choose_move"),
    ),
    "flash.device": ((FlashDevice,), (
        "read_page", "read_metadata", "program_page", "erase_block", "copyback",
        "program_page_packed", "copyback_packed", "erase_block_packed",
        "program_multi_plane", "read_multi_plane",
    )),
    "flash.simclock": ((ResourceTimeline,), ("reserve",)),
}


class FuncStats:
    """Calls and self wall seconds of one traced function."""

    __slots__ = ("layer", "calls", "self_s")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Installs timing wrappers on every layer in :data:`LAYERS`."""

    _search_names = frozenset(f"BTree.{m}" for m in BTREE_SEARCHES)

    def __init__(self) -> None:
        self.funcs: dict[str, FuncStats] = {}
        self._patches: list[tuple[type, str, object]] = []
        # one child-time accumulator and one name per open span; the
        # bottom entries stand for untraced code
        self._child: list[float] = [0.0]
        self._names: list[str] = [""]
        self.reset()

    def reset(self) -> None:
        """Zero every counter (the wrappers stay installed)."""
        for stats in self.funcs.values():
            stats.calls = 0
            stats.self_s = 0.0
        #: (kind, wall seconds) per transaction
        self.txn_spans: list[tuple[str, float]] = []
        #: simulated latency (µs) per host page read
        self.read_latency_us: list[float] = []
        self.region_group_writes = 0
        #: buffer gets that hit / missed, and their self seconds
        self.buffer = {"hit": 0, "miss": 0, "hit_s": 0.0, "miss_s": 0.0}
        self.search_pages = 0

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every listed method that a class defines itself."""
        for layer, (classes, methods) in LAYERS.items():
            for cls in classes:
                for attr in methods:
                    if attr in cls.__dict__:
                        self._patch(layer, cls, attr)

    def remove(self) -> None:
        """Restore every original (in reverse order of patching)."""
        while self._patches:
            cls, attr, original = self._patches.pop()
            setattr(cls, attr, original)

    def _patch(self, layer: str, cls: type, attr: str) -> None:
        original = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        stats = self.funcs.setdefault(name, FuncStats(layer))
        if isinstance(original, classmethod):
            wrapped: object = classmethod(self._wrap(name, stats, original.__func__))
        else:
            wrapped = self._wrap(name, stats, original)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def _wrap(self, name: str, stats: FuncStats, fn: Callable[..., Any]) -> Callable[..., Any]:
        child = self._child
        names = self._names
        clock = time.perf_counter
        #: (total s, self s) of this function's latest completed call
        last = [0.0, 0.0]

        def span(*args: Any, **kwargs: Any) -> Any:
            child.append(0.0)
            names.append(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                names.pop()
                own = elapsed - child.pop()
                child[-1] += elapsed
                stats.calls += 1
                stats.self_s += own
                last[0] = elapsed
                last[1] = own

        if stats.layer == "tpcc.transactions":
            kind = TXN_KINDS[name.split(".")[1]]

            def txn(*args: Any) -> Any:
                result = span(*args)
                self.txn_spans.append((kind, last[0]))
                return result
            return txn
        if name == "BufferPool.get":
            def buffer_get(pool: BufferPool, *args: Any, **kwargs: Any) -> Any:
                if names[-1] in self._search_names:
                    self.search_pages += 1
                misses = pool.stats.misses
                result = span(pool, *args, **kwargs)
                outcome = "hit" if pool.stats.misses == misses else "miss"
                self.buffer[outcome] += 1
                self.buffer[outcome + "_s"] += last[1]
                return result
            return buffer_get
        if name == "Region.read":
            def region_read(region: Region, rpn: int, at: float) -> Any:
                result = span(region, rpn, at)
                self.read_latency_us.append(result[1] - at)
                return result
            return region_read
        if name == "Region.write":
            def region_write(region: Region, *args: Any, **kwargs: Any) -> Any:
                if kwargs.get("group") is not None and region.config.object_frontiers:
                    self.region_group_writes += 1
                return span(region, *args, **kwargs)
            return region_write
        return span

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        """Calls of one function (``Class.method``) since the last reset."""
        stats = self.funcs.get(name)
        return stats.calls if stats is not None else 0

    def self_seconds(self, name: str) -> float:
        """Self time of one function since the last reset."""
        stats = self.funcs.get(name)
        return stats.self_s if stats is not None else 0.0

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per layer since the last reset (every layer listed)."""
        totals = {layer: 0.0 for layer in LAYERS}
        for stats in self.funcs.values():
            totals[stats.layer] += stats.self_s
        return totals



# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: percentiles tried for a transaction kind's wall-time tail, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def wall_tail(seconds: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(seconds)
    for pct in TAIL_PERCENTILES:
        if n - math.ceil(round(pct / 100 * n, 9)) >= 10:
            break
    return pct, percentile(seconds, pct / 100)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    wall_s: float,
    txns: int,
    before: dict[str, Any],
    after: dict[str, Any],
    read_service_us: float,
    pages_per_block: int,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced window, plus each layer's share.

    Returns ``(metrics, shares)``; ``shares`` maps every layer of
    :data:`LAYERS` and ``unattributed`` to its self time over ``wall_s``,
    so the shares sum to 1.
    """
    delta = {k: after[k] - before[k] for k in after if not isinstance(after[k], list)}
    host_ops = delta["host_reads"] + delta["host_writes"]

    def per_txn(count: float) -> float:
        return _ratio(count, txns)

    calls = tracer.calls
    layer_self = tracer.layer_self_seconds()
    shares = {layer: _ratio(seconds, wall_s) for layer, seconds in layer_self.items()}
    shares["unattributed"] = 1.0 - sum(shares.values())
    m: dict[str, float] = {f"{layer}.self_share": share for layer, share in shares.items()}

    by_kind: dict[str, list[float]] = {kind: [] for kind in TXN_KINDS.values()}
    for kind, seconds in tracer.txn_spans:
        by_kind[kind].append(seconds)
    for kind, spans in by_kind.items():
        m[f"tpcc.transactions.{kind}.count"] = len(spans)
        m[f"tpcc.transactions.{kind}.wall_p50_ms"] = 1000 * percentile(spans, 0.5)
        m[f"tpcc.transactions.{kind}.wall_tail_ms"] = 1000 * wall_tail(spans)[1]

    m["db.heap.ops_per_txn"] = per_txn(sum(calls(f"HeapFile.{op}") for op in LAYERS["db.heap"][1]))
    searches = sum(calls(f"BTree.{op}") for op in BTREE_SEARCHES)
    m["db.btree.searches_per_txn"] = per_txn(searches)
    m["db.btree.pages_per_search"] = _ratio(tracer.search_pages, searches)
    m["db.records.decodes_per_txn"] = per_txn(calls("RowCodec.decode"))
    m["db.records.encodes_per_txn"] = per_txn(calls("RowCodec.encode"))
    m["db.slotted_page.from_bytes_per_txn"] = per_txn(calls("SlottedPage.from_bytes"))
    m["db.slotted_page.to_bytes_per_txn"] = per_txn(calls("SlottedPage.to_bytes"))

    buf = tracer.buffer
    m["db.buffer.hit_ratio"] = _ratio(buf["hit"], buf["hit"] + buf["miss"])
    m["db.buffer.misses_per_txn"] = per_txn(buf["miss"])
    m["db.buffer.dirty_evictions_per_txn"] = per_txn(delta["dirty_evictions"])
    m["db.buffer.flusher_writes_per_txn"] = per_txn(delta["flusher_writes"])
    m["db.buffer.hit_us"] = 1e6 * _ratio(buf["hit_s"], buf["hit"])
    m["db.buffer.miss_us"] = 1e6 * _ratio(buf["miss_s"], buf["miss"])
    m["db.backend.reads_per_txn"] = per_txn(calls("StorageBackend.read_page"))
    m["db.backend.writes_per_txn"] = per_txn(calls("StorageBackend.write_page"))

    for cls, layer in ((Region, "core.region"), (FlashSpaceEngine, "mapping.engine")):
        for op in ("read", "write"):
            name = f"{cls.__name__}.{op}"
            m[f"{layer}.{op}_us"] = 1e6 * _ratio(tracer.self_seconds(name), calls(name))
    m["core.region.group_writes_share"] = _ratio(tracer.region_group_writes, calls("Region.write"))
    latencies = tracer.read_latency_us
    m["core.region.sim_read_p99_us"] = percentile(latencies, 0.99)
    m["mapping.gc.victim_valid_ratio"] = _ratio(
        delta["gc_victim_valid_pages"], delta["gc_erases"] * pages_per_block
    )
    victim_calls = sum(
        s.calls for name, s in tracer.funcs.items()
        if s.layer == "policies" and ".choose_victim" in name
    )
    m["policies.choose_victim_calls_per_1k_writes"] = 1000 * _ratio(victim_calls, delta["host_writes"])
    for counter, metric in (("reads", "reads"), ("programs", "programs"),
                            ("copybacks", "copybacks"), ("erases", "erases")):
        m[f"flash.device.{metric}_per_op"] = _ratio(delta[counter], host_ops)
    m["flash.simclock.reserves_per_op"] = _ratio(calls("ResourceTimeline.reserve"), host_ops)

    sim_us = delta["now_us"]
    die_busy = [_ratio(a - b, sim_us) for a, b in zip(after["die_busy_us"], before["die_busy_us"])]
    channel_busy = [
        _ratio(a - b, sim_us) for a, b in zip(after["channel_busy_us"], before["channel_busy_us"])
    ]
    m["flash.die_busy_share_mean"] = _ratio(sum(die_busy), len(die_busy))
    m["flash.die_busy_share_max"] = max(die_busy, default=0.0)
    m["flash.channel_busy_share_mean"] = _ratio(sum(channel_busy), len(channel_busy))
    m["flash.read_wait_us"] = _ratio(
        sum(latencies) - read_service_us * len(latencies), len(latencies)
    )
    m["trace.window_s"] = wall_s
    return m, shares
