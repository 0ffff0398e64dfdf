"""Fixed-seed workloads whose engine statistics are pinned to golden values.

The hot-path optimisation work (incremental GC bookkeeping, bitmask
validity, O(1) free pools) must be *observationally pure*: victim choice,
erase/copyback counts and the final logical-to-physical mapping have to be
bit-identical to the unoptimised implementation.  These helpers run small
but feature-dense deterministic workloads — skewed overwrites, placement
groups, atomic batches, trims, GC under both policies, static wear
levelling, factory bad blocks — and reduce the end state to a snapshot
dict that golden tests compare field by field.

The golden values in ``test_engine_equivalence.py`` and
``tests/integration/test_determinism.py`` were captured from the seed
(pre-optimisation) implementation; any future change to these numbers
means simulated behaviour changed, which a pure performance PR must not do.
"""

from __future__ import annotations

import hashlib
import random

from repro.flash import FlashDevice, FlashGeometry
from repro.mapping import DieBookkeeping, FlashSpaceEngine, ManagementStats


def small_geometry() -> FlashGeometry:
    """A 4-die device small enough that GC churns constantly."""
    return FlashGeometry(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=16,
        pages_per_block=16,
        page_size=128,
        oob_size=16,
        max_pe_cycles=100_000,
    )


def build_engine(gc_policy: str, seed: int) -> FlashSpaceEngine:
    geometry = small_geometry()
    # real (default) timing so cost-benefit GC sees distinct block ages and
    # the resource timelines accumulate/prune reservations like a long run
    device = FlashDevice(geometry, initial_bad_block_rate=0.03, seed=seed)
    dies = list(range(geometry.dies))
    books = {
        d: DieBookkeeping(d, geometry.blocks_per_die, geometry.pages_per_block)
        for d in dies
    }
    for d in dies:
        books[d].adopt_factory_bad_blocks(device.dies[d])
    return FlashSpaceEngine(
        device,
        dies=dies,
        books=books,
        stats=ManagementStats(),
        gc_policy=gc_policy,
        wear_level_threshold=4,
        wl_check_interval_erases=8,
    )


def run_engine_workload(
    gc_policy: str, seed: int, ops: int = 6000, slow_path: bool = False
) -> dict:
    """Skewed write/trim/atomic workload straight against one engine.

    ``slow_path=True`` means "event bus attached": every device command,
    the engine's packed ones included, then emits a flash event.  The
    engine has one command path either way, so golden tests use it to
    prove that observing a run leaves the run unchanged.
    """
    engine = build_engine(gc_policy, seed)
    if slow_path:
        engine.device.attach_event_bus()
    rng = random.Random(seed)
    # keep the live set well inside safe capacity so GC has slack
    keys = max(64, int(engine.safe_capacity_pages() * 0.72))
    hot = max(8, keys // 10)
    at = 0.0
    for i in range(ops):
        roll = rng.random()
        # 90% of traffic hammers the hot 10% of the key space
        key = rng.randrange(hot) if rng.random() < 0.9 else rng.randrange(keys)
        if roll < 0.08:
            engine.invalidate(key)
        elif roll < 0.12:
            batch_keys = rng.sample(range(keys), rng.randrange(2, 5))
            entries = [(k, bytes([k % 256, i % 256])) for k in batch_keys]
            at = engine.write_atomic(entries, at, group=rng.choice([None, 1]))
        else:
            group = rng.choice([None, None, 1, 2])
            at = engine.write(key, bytes([key % 256, i % 256]), at, group=group)
    engine.check_consistency()
    return engine_snapshot(engine, at)


def engine_snapshot(engine: FlashSpaceEngine, at: float) -> dict:
    """Reduce everything observable about an engine run to plain values."""
    stats = engine.stats
    digest = hashlib.sha256()
    for key in engine.keys():
        digest.update(f"{key}:{engine._map[key]};".encode())
    return {
        "gc_erases": stats.gc_erases,
        "gc_copybacks": stats.gc_copybacks,
        "gc_reads": stats.gc_reads,
        "gc_programs": stats.gc_programs,
        "gc_victim_valid_pages": stats.gc_victim_valid_pages,
        "wl_moves": stats.wl_moves,
        "wl_erases": stats.wl_erases,
        "erase_counts_per_die": [
            sum(counts) for counts in engine.device.erase_counts()
        ],
        "free_blocks_per_die": [engine.books[d].free_count for d in engine.dies],
        "live_pages": engine.live_pages(),
        "final_at_us": round(at, 6),
        "mapping_sha256": digest.hexdigest(),
    }
