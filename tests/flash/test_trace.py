"""Flash command tracing through the device's event bus.

``device.attach_event_bus()`` records every native command as one
``layer="flash"`` event: ``ts_us`` is the issue time, and the ``die`` /
``block`` / ``page`` / ``start_us`` / ``end_us`` attributes say where and
when it executed.  The packed commands the mapping engine issues emit the
same events as their address-object twins.
"""

import pytest

from repro.bench.timeline import gc_interference_report
from repro.flash import FlashDevice, PhysicalBlockAddress, PhysicalPageAddress, small_geometry


@pytest.fixture
def device():
    return FlashDevice(small_geometry())


def ppa(die=0, block=0, page=0):
    return PhysicalPageAddress(die, block, page)


def flash_kinds(bus):
    return [e.kind for e in bus.by_layer("flash")]


class TestAttachment:
    def test_records_all_command_kinds(self, device):
        bus = device.attach_event_bus()
        device.program_page(ppa(), b"x")
        device.read_page(ppa())
        device.read_metadata(ppa())
        device.copyback(ppa(), ppa(0, 1, 0))
        device.erase_block(PhysicalBlockAddress(0, 0))
        device.program_page_packed(0, 2, 0, b"y", 7, device.next_sequence(), -1, 0.0)
        device.copyback_packed(0, 2, 0, 3, 0, 0.0)
        device.erase_block_packed(0, 2, 0.0)
        assert flash_kinds(bus) == [
            "program_page", "read_page", "read_metadata", "copyback", "erase_block",
            "program_page", "copyback", "erase_block",
        ]

    def test_detach_stops_tracing(self, device):
        bus = device.attach_event_bus()
        device.program_page(ppa(), b"x")
        device.events = None
        device.read_page(ppa())
        device.program_page_packed(0, 0, 1, b"y", 7, device.next_sequence(), -1, 0.0)
        assert len(bus) == 1

    def test_second_attach_returns_the_same_bus(self, device):
        bus = device.attach_event_bus()
        assert device.attach_event_bus() is bus

    def test_device_results_unchanged(self, device):
        plain = FlashDevice(small_geometry())
        device.attach_event_bus()
        for dev in (device, plain):
            dev.program_page(ppa(), b"payload", at=0.0)
            dev.program_page_packed(0, 0, 1, b"packed", 7, 9, -1, 0.0)
        traced = [device.read_page(ppa(0, 0, page)) for page in (0, 1)]
        assert traced == [plain.read_page(ppa(0, 0, page)) for page in (0, 1)]
        assert [r.data for r in traced] == [b"payload", b"packed"]
        assert device.stats.snapshot() == plain.stats.snapshot()


class TestRingBuffer:
    def test_capacity_bounds_and_drop_count(self, device):
        bus = device.attach_event_bus(capacity=3)
        for page in range(5):
            device.program_page(ppa(0, 0, page), b"x")
        assert len(bus) == 3
        assert bus.dropped == 2

    def test_eviction_keeps_newest_events(self, device):
        bus = device.attach_event_bus(capacity=3)
        for page in range(7):
            device.program_page_packed(0, 0, page, b"x", page, device.next_sequence(), -1, 0.0)
        # oldest events fall off the front; the last `capacity` survive
        assert [e.attrs["page"] for e in bus.events] == [4, 5, 6]
        assert bus.dropped == 4

    def test_invalid_capacity(self, device):
        with pytest.raises(ValueError):
            device.attach_event_bus(capacity=0)


class TestQueries:
    def test_event_properties(self, device):
        bus = device.attach_event_bus()
        device.program_page(ppa(0, 0, 0), b"x", at=0.0)
        device.read_page(ppa(0, 0, 0), at=100.0)  # queues behind the program
        read = bus.matching(layer="flash", kind="read_page")[0]
        assert read.ts_us == 100.0
        assert read.attrs["start_us"] > read.ts_us
        assert read.attrs["end_us"] > read.attrs["start_us"]
        assert (read.attrs["die"], read.attrs["block"], read.attrs["page"]) == (0, 0, 0)

    def test_on_die_and_between(self, device):
        bus = device.attach_event_bus()
        device.program_page(ppa(0, 0, 0), b"x", at=0.0)
        device.program_page(ppa(1, 0, 0), b"y", at=0.0)
        assert len(bus.matching(layer="flash", die=0)) == 1
        assert len(bus.matching(layer="flash", die=1)) == 1
        first_end = bus.events[0].attrs["end_us"]
        assert bus.between(0.0, first_end) != []

    def test_slowest_orders_by_queue(self, device):
        bus = device.attach_event_bus()
        # two programs to the same die: the second queues
        device.program_page(ppa(0, 0, 0), b"x", at=0.0)
        device.program_page(ppa(0, 0, 1), b"y", at=0.0)
        worst, other = gc_interference_report(bus.events, top=2).splitlines()[1:]
        assert "behind: program_page" in worst
        assert other == "  program_page d0 waited 0us behind: nothing traced"

    def test_snapshot(self, device):
        bus = device.attach_event_bus()
        for page in range(4):
            device.program_page(ppa(0, 0, page), b"x")
        snap = bus.snapshot()
        assert snap["events"] == 4.0
        assert snap["flash.program_page"] == 4.0

    def test_empty_snapshot(self, device):
        snap = device.attach_event_bus().snapshot()
        assert snap == {"events": 0.0, "dropped": 0.0}
