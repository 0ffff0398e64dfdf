"""Watching GC interference, op by op.

The paper's complaint about FTL SSDs: "unpredictable performance caused by
the background FTL processes (wear-levelling and garbage collection)".
This example records every flash command on the device's event bus during
a churn workload and renders per-die timelines plus a queueing post-mortem,
making the interference visible instead of inferred.

Run:  python examples/gc_interference.py
"""

import heapq
import random

from repro.bench.timeline import gc_interference_report, render_timeline
from repro.core import NoFTLStore, RegionConfig
from repro.flash import FlashGeometry


def main() -> None:
    geometry = FlashGeometry(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=10,
        pages_per_block=32,
        page_size=4096,
        oob_size=64,
    )
    store = NoFTLStore.create(geometry)
    region = store.create_region(RegionConfig(name="rg"), num_dies=4)
    pages = region.allocate(int(region.capacity_pages() * 0.75))

    t = 0.0
    for p in pages:  # fill to 75% so GC has to work
        t = region.write(p, b"seed", t)

    bus = store.device.attach_event_bus()
    rng = random.Random(4)
    reads = writes = 0
    window_start = t
    # eight concurrent closed-loop streams: reads land while GC owns dies
    clocks = [(t, i) for i in range(8)]
    heapq.heapify(clocks)
    for __ in range(3000):
        now, stream = heapq.heappop(clocks)
        if rng.random() < 0.5:
            __, done = region.read(rng.choice(pages), now)
            reads += 1
        else:
            done = region.write(rng.choice(pages), b"update", now)
            writes += 1
        t = max(t, done)
        heapq.heappush(clocks, (done, stream))

    print(f"{reads} reads + {writes} writes; "
          f"{region.stats.gc_erases} GC erases, {region.stats.gc_copybacks} copybacks\n")
    # zoom into the densest 30 ms of the run
    mid = window_start + (t - window_start) / 2
    print(render_timeline(bus.events, start_us=mid, end_us=mid + 30_000, width=76))
    print()
    print(gc_interference_report(bus.events, top=5))
    print("\nE/C runs are GC reclaiming a die; note reads stacking up behind them -")
    print("the unpredictability the paper attributes to background flash management.")


if __name__ == "__main__":
    main()
