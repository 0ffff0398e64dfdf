"""Engine write-path throughput: incremental vs. seed scan bookkeeping.

Every simulated number in this repo funnels through
``FlashSpaceEngine.write``, so its Python-level cost bounds how large an
experiment is affordable.  The seed implementation rescanned every block of
a die — re-deriving each block's valid count page by page — on **every**
host write (die selection) and again per reclaimed block (victim
selection): O(blocks × pages) per page op.  The incremental bookkeeping
(maintained candidate buckets, integer popcounts, O(1) free pools) makes
the same decisions in O(1).

This harness measures steady-state engine ops/sec on a skewed-write
workload twice on the same device shape:

* ``incremental`` — the shipped bookkeeping;
* ``seed_scan``  — a :class:`DieBookkeeping` subclass that answers the
  same three hot-path questions (``has_reclaimable``, greedy victim,
  candidate iteration) by full per-call scans with per-page valid-count
  recomputation, faithfully reproducing the seed's cost model.

Both modes must report identical GC statistics (the scan picks the same
victims — that is the bit-identical guarantee), so the ratio is pure
bookkeeping overhead.  Results go to ``BENCH_hotpath.json`` at the repo
root so future PRs have a perf trajectory.

Run standalone (``python benchmarks/bench_hotpath.py``) or via pytest.
``REPRO_BENCH_MODE=full`` scales the measurement up.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # for conftest helpers

from conftest import bench_mode

from repro.flash import FlashDevice, FlashGeometry
from repro.mapping import BlockState, DieBookkeeping, FlashSpaceEngine, ManagementStats
from repro.policies import select_victim_greedy

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"


class SeedScanBookkeeping(DieBookkeeping):
    """The seed's cost model: every hot-path question is a fresh die scan.

    Valid counts are recomputed page by page (the seed summed a
    ``list[bool]`` per block), and the candidate list is rebuilt for die
    selection *and* victim selection alike.  Selection outcomes are
    identical to the incremental structures by construction.
    """

    def _scan_candidates(self):
        out = []
        for info in self.blocks:
            if info.state is BlockState.FULL:
                mask = info.valid_mask
                valid = sum(mask >> p & 1 for p in range(info.pages_per_block))
                if info.written - valid > 0:
                    out.append(info)
        return out

    @property
    def has_reclaimable(self) -> bool:
        return bool(self._scan_candidates())

    def greedy_victim(self):
        return select_victim_greedy(self._scan_candidates())

    def iter_candidates(self):
        return iter(self._scan_candidates())


def hotpath_geometry() -> FlashGeometry:
    """4 dies x 1024 blocks x 32 pages — a big enough die that per-victim
    scans hurt the way they do at paper-experiment scale."""
    return FlashGeometry(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=512,
        pages_per_block=32,
        page_size=128,
        oob_size=16,
        max_pe_cycles=10_000_000,
    )


def build_engine(book_cls) -> FlashSpaceEngine:
    geometry = hotpath_geometry()
    device = FlashDevice(geometry)
    dies = list(range(geometry.dies))
    books = {
        d: book_cls(d, geometry.blocks_per_die, geometry.pages_per_block)
        for d in dies
    }
    return FlashSpaceEngine(device, dies, books, ManagementStats(), gc_policy="greedy")


def run_mode(book_cls, writes: int, checkpoint: int, seed: int = 7) -> dict:
    """Prefill, warm until GC is in steady state, then time skewed overwrites.

    The warmup loop runs until every die has been through several GC
    rounds; both cost models consume the identical RNG stream and make the
    identical decisions, so the warmup write count and all GC counters are
    exactly equal across modes.  ``checkpoint`` records the stats — and a
    timing split — after that many *timed* writes, letting the test
    compare the two modes at equal write counts even though the fast mode
    times many more: the reported speedup is the ratio of the
    equal-window (checkpoint) rates, so a run's fixed overhead is
    amortised over the same number of writes in both modes instead of
    skewing the mode with the bigger budget.
    """
    engine = build_engine(book_cls)
    rng = random.Random(seed)
    keys = int(engine.safe_capacity_pages() * 0.9)
    hot = max(1, keys // 4)
    payload = bytes(8)
    at = 0.0
    for key in range(keys):  # prefill: the device starts 90% full of live data
        at = engine.write(key, payload, at)

    def next_key() -> int:
        # 75% of traffic hammers the hot quarter of the key space
        return rng.randrange(hot) if rng.random() < 0.75 else rng.randrange(keys)

    warmup = 0
    while engine.stats.gc_erases < 8 * len(engine.dies):
        at = engine.write(next_key(), payload, at)
        warmup += 1
    base = engine.stats
    base_erases = base.gc_erases
    base_copybacks = base.gc_copybacks
    base_victim_valid = base.gc_victim_valid_pages
    at_checkpoint: dict | None = None
    split: float | None = None
    t0 = time.perf_counter()
    for i in range(writes):
        at = engine.write(next_key(), payload, at)
        if i + 1 == checkpoint:
            split = time.perf_counter() - t0
            at_checkpoint = {
                "gc_erases": engine.stats.gc_erases - base_erases,
                "gc_copybacks": engine.stats.gc_copybacks - base_copybacks,
                "gc_victim_valid_pages": engine.stats.gc_victim_valid_pages
                - base_victim_valid,
            }
    elapsed = time.perf_counter() - t0
    stats = engine.stats
    return {
        "writes": writes,
        "warmup_writes": warmup,
        "elapsed_s": round(elapsed, 4),
        "ops_per_sec": round(writes / elapsed, 1),
        "checkpoint_writes": checkpoint if split is not None else None,
        "checkpoint_elapsed_s": round(split, 4) if split is not None else None,
        "checkpoint_ops_per_sec": round(checkpoint / split, 1) if split else None,
        "gc_erases": stats.gc_erases - base_erases,
        "gc_copybacks": stats.gc_copybacks - base_copybacks,
        "gc_victim_valid_pages": stats.gc_victim_valid_pages - base_victim_valid,
        "at_checkpoint": at_checkpoint,
    }


def run_bench() -> dict:
    mode = bench_mode()
    opt_writes = 200_000 if mode == "full" else 20_000
    scan_writes = 10_000 if mode == "full" else 2_000
    incremental = run_mode(DieBookkeeping, opt_writes, checkpoint=scan_writes)
    seed_scan = run_mode(SeedScanBookkeeping, scan_writes, checkpoint=scan_writes)
    geometry = hotpath_geometry()
    result = {
        "benchmark": "engine write-path throughput (skewed overwrites, steady state)",
        "mode": mode,
        "engine_core": "array",  # flat-column block/page state, packed addresses
        "geometry": {
            "dies": geometry.dies,
            "blocks_per_die": geometry.blocks_per_die,
            "pages_per_block": geometry.pages_per_block,
        },
        "incremental": incremental,
        "seed_scan": seed_scan,
        # equal-window ratio: both rates cover exactly `scan_writes` timed
        # writes from the same warmed-up state, so fixed per-run overhead
        # cancels instead of deflating the mode with the bigger budget
        "speedup": round(
            incremental["checkpoint_ops_per_sec"] / seed_scan["checkpoint_ops_per_sec"], 2
        ),
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    return result


def test_hotpath(benchmark):
    from conftest import run_once

    result = run_once(benchmark, run_bench)
    # the optimisation must be worth its complexity...
    assert result["speedup"] >= 3.0, f"hot path regressed: {result}"
    # ...and observationally pure: same RNG stream + same decisions means
    # that at equal write counts the GC counters must match exactly
    inc, scan = result["incremental"], result["seed_scan"]
    assert inc["warmup_writes"] == scan["warmup_writes"], f"warmup diverged: {result}"
    assert inc["at_checkpoint"] == scan["at_checkpoint"], f"GC diverged: {result}"


if __name__ == "__main__":
    out = run_bench()
    print(json.dumps(out, indent=2))
    if out["speedup"] < 3.0:
        sys.exit(f"hot path speedup {out['speedup']}x is below the 3x floor")
