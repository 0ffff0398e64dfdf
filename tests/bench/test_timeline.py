"""Tests for the ASCII timeline renderer."""

import pytest

import heapq
import random

from repro.bench.timeline import gc_interference_report, render_timeline
from repro.core import NoFTLStore, RegionConfig
from repro.flash import FlashDevice, PhysicalBlockAddress, PhysicalPageAddress, small_geometry
from repro.flash.geometry import FlashGeometry
from repro.obs.events import ObsEvent


def event(op, die, start, end, issue=None):
    return ObsEvent(
        ts_us=issue if issue is not None else start,
        layer="flash",
        kind=op,
        attrs={"die": die, "block": 0, "page": 0, "start_us": start, "end_us": end},
    )


class TestRenderTimeline:
    def test_empty(self):
        assert render_timeline([]) == "(no events)"

    def test_single_op_fills_its_slices(self):
        events = [event("read_page", 0, 0.0, 50.0), event("program_page", 0, 50.0, 100.0)]
        out = render_timeline(events, width=10)
        row = [line for line in out.splitlines() if line.startswith("die   0")][0]
        body = row.split("|")[1]
        assert body == "RRRRRWWWWW"

    def test_idle_gaps_are_dots(self):
        events = [event("read_page", 0, 0.0, 10.0), event("read_page", 0, 90.0, 100.0)]
        out = render_timeline(events, width=10)
        body = [l for l in out.splitlines() if l.startswith("die")][0].split("|")[1]
        assert body[0] == "R" and body[-1] == "R"
        assert "." in body

    def test_multiple_dies(self):
        events = [event("read_page", 0, 0.0, 100.0), event("erase_block", 3, 0.0, 100.0)]
        out = render_timeline(events, width=5)
        assert "die   0 |RRRRR|" in out
        assert "die   3 |EEEEE|" in out

    def test_die_filter(self):
        events = [event("read_page", 0, 0.0, 10.0), event("read_page", 1, 0.0, 10.0)]
        out = render_timeline(events, dies=[1], width=4)
        assert "die   0" not in out
        assert "die   1" in out

    def test_window_validation(self):
        with pytest.raises(ValueError):
            render_timeline([event("read_page", 0, 0.0, 10.0)], start_us=5.0, end_us=5.0)
        with pytest.raises(ValueError):
            render_timeline([event("read_page", 0, 0.0, 10.0)], width=1)

    def test_from_real_trace(self):
        device = FlashDevice(small_geometry())
        bus = device.attach_event_bus()
        for page in range(4):
            device.program_page(PhysicalPageAddress(0, 0, page), b"x")
        device.erase_block(PhysicalBlockAddress(0, 0))
        out = render_timeline(bus.events, width=20)
        assert "W" in out and "E" in out

    def test_other_layers_are_ignored(self):
        events = [
            event("read_page", 0, 0.0, 10.0),
            ObsEvent(ts_us=5.0, layer="mapping", kind="gc_collect", attrs={"die": 0}),
        ]
        assert "die   0 |RRRR|" in render_timeline(events, width=4)


class TestInterferenceReport:
    def test_empty(self):
        assert gc_interference_report([]) == "(no events)"

    def test_reports_blockers(self):
        device = FlashDevice(small_geometry())
        bus = device.attach_event_bus()
        # an erase occupies die 0; a read issued meanwhile queues behind it
        device.program_page(PhysicalPageAddress(0, 0, 0), b"x", at=0.0)
        device.erase_block(PhysicalBlockAddress(0, 1), at=600.0)
        device.read_page(PhysicalPageAddress(0, 0, 0), at=650.0)
        report = gc_interference_report(bus.events, top=1)
        assert "read_page d0 waited" in report
        assert "erase_block" in report


class TestRegionUnderGC:
    """A region driven into GC: the engine's own commands must be visible.

    The engine issues its programs, copybacks and erases through the
    packed device commands, so a trace that only saw the address-object
    commands would show nothing but the host reads.
    """

    def _churn(self):
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
        for p in pages:
            t = region.write(p, b"seed", t)
        bus = store.device.attach_event_bus()
        rng = random.Random(4)
        clocks = [(t, i) for i in range(8)]
        heapq.heapify(clocks)
        for __ in range(3000):
            now, stream = heapq.heappop(clocks)
            if rng.random() < 0.5:
                __, done = region.read(rng.choice(pages), now)
            else:
                done = region.write(rng.choice(pages), b"update", now)
            heapq.heappush(clocks, (done, stream))
        return region, bus

    def test_engine_commands_reach_the_timeline(self):
        region, bus = self._churn()
        assert region.stats.gc_copybacks > 0 and region.stats.gc_erases > 0
        kinds = {e.kind for e in bus.by_layer("flash")}
        assert {"read_page", "program_page", "copyback", "erase_block"} <= kinds
        out = render_timeline(bus.events, width=400)
        rows = "".join(line for line in out.splitlines() if line.startswith("die"))
        assert "C" in rows and "E" in rows

    def test_interference_report_names_gc_blockers(self):
        __, bus = self._churn()
        report = gc_interference_report(bus.events, top=20)
        assert "copyback" in report or "erase_block" in report
