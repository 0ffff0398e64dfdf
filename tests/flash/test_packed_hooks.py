"""The packed device commands run the same hooks as their address-object twins.

``program_page_packed`` / ``copyback_packed`` / ``erase_block_packed`` are
the commands the mapping engine issues on every write, relocation and GC
erase.  They consult the fault injector before any state changes (and
apply a scheduled wear-out after an erase), and emit one ``layer="flash"``
event with the same kind and attributes as the address-object command, so
the engine needs no second path for observed or fault-injected runs.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.flash import (
    FlashDevice,
    PhysicalBlockAddress,
    PhysicalPageAddress,
    small_geometry,
)
from repro.flash.errors import DieFailedError, ProgramFaultError


@pytest.fixture
def device():
    return FlashDevice(small_geometry())


def _inject(device, *specs):
    return device.attach_fault_injector(FaultInjector(FaultPlan(specs=specs)))


def _packed_calls(device):
    return [
        lambda: device.program_page_packed(0, 0, 0, b"x", 1, 1, -1, 0.0),
        lambda: device.copyback_packed(0, 0, 0, 1, 0, 0.0),
        lambda: device.erase_block_packed(0, 1, 0.0),
    ]


class TestPackedHooks:
    def test_packed_commands_run_without_hooks(self, device):
        end = device.program_page_packed(0, 0, 0, b"x", 1, 1, -1, 0.0)
        assert end > 0.0
        device.copyback_packed(0, 0, 0, 1, 0, end)
        device.erase_block_packed(0, 1, end)
        assert (device.stats.programs, device.stats.copybacks, device.stats.erases) == (1, 1, 1)

    def test_scheduled_faults_fire_on_packed_commands(self, device):
        device.program_page_packed(0, 0, 0, b"x", 1, 1, -1, 0.0)
        injector = _inject(device, FaultSpec(kind="die_fail", at_op=1, die=0))
        for call in _packed_calls(device):
            with pytest.raises(DieFailedError):
                call()
        assert injector.op_number == 3
        assert injector.stats.injected_die_fail == 1

    def test_wearout_lands_after_a_packed_erase(self, device):
        injector = _inject(device, FaultSpec(kind="wearout", at_op=1))
        device.erase_block_packed(0, 3, 0.0)
        assert device.dies[0].blocks[3].is_bad
        assert injector.stats.retired_wearout_blocks == 1

    def test_program_fault_fires_before_any_state_change(self, device):
        _inject(device, FaultSpec(kind="program_fail", at_op=1))
        with pytest.raises(ProgramFaultError):
            device.program_page_packed(0, 0, 0, b"x", 1, 1, -1, 0.0)
        # nothing was programmed, reserved or recorded
        assert device.stats.programs == 0
        assert device.dies[0].blocks[0].write_pointer == 0
        assert device.dies[0].timeline.busy_us == 0.0
        assert device.clock.now == 0.0
        # the next attempt goes through
        device.program_page_packed(0, 0, 0, b"x", 1, 2, -1, 0.0)
        assert device.dies[0].blocks[0].write_pointer == 1

    def test_fault_names_the_command(self, device):
        _inject(device, FaultSpec(kind="die_fail", at_op=1, die=0))
        with pytest.raises(DieFailedError) as exc:
            device.erase_block_packed(0, 0, 0.0)
        assert exc.value.op == "erase_block"

    def test_packed_events_match_address_object_twins(self):
        twin = FlashDevice(small_geometry())
        packed = FlashDevice(small_geometry())
        twin_bus = twin.attach_event_bus()
        packed_bus = packed.attach_event_bus()

        twin.program_page(PhysicalPageAddress(0, 2, 0), b"x", at=10.0)
        twin.copyback(PhysicalPageAddress(0, 2, 0), PhysicalPageAddress(0, 3, 0), at=20.0)
        twin.erase_block(PhysicalBlockAddress(0, 2), at=30.0)

        packed.program_page_packed(0, 2, 0, b"x", -1, 0, -1, 10.0)
        packed.copyback_packed(0, 2, 0, 3, 0, 20.0)
        packed.erase_block_packed(0, 2, 30.0)

        assert [e.kind for e in packed_bus.events] == ["program_page", "copyback", "erase_block"]
        assert list(packed_bus.events) == list(twin_bus.events)

    def test_attach_injector_mid_run_writes_still_succeed(self):
        from repro.core import NoFTLStore, RegionConfig
        from repro.flash import paper_geometry

        store = NoFTLStore.create(paper_geometry(blocks_per_plane=4))
        region = store.create_region(RegionConfig(name="rg"), num_dies=4)
        pages = region.allocate(8)
        t = region.write(pages[0], b"before", 0.0)
        injector = store.device.attach_fault_injector(FaultInjector(FaultPlan()))
        t = region.write(pages[1], b"after", t)
        data, _ = region.read(pages[1], t)
        assert data == b"after"
        assert injector.op_number == 2  # the packed program and the read
