"""Long engine runs and the frontier and write-pointer invariants of ``check_consistency``.

A group stripe keeps its slot after its block fills.  When GC collected
such a block and recycled it to the free pool, the stale slot read as not
full again and resumed writing into a free block; the next allocation of
that block then double-programmed page 0.  The goldens stop at 6,000 ops,
well short of the first occurrence (greedy seed 1, op 17,674), so these
runs go past it and check the invariants that pin the fix.
"""

import pytest

from repro.mapping import BlockState
from tests.mapping.equivalence_workloads import build_engine, run_engine_workload


def test_first_stale_stripe_write_is_gone():
    """The shortest known repro of the stale-stripe double program."""
    snapshot = run_engine_workload("greedy", 1, ops=17674)
    assert snapshot["gc_erases"] > 0


@pytest.mark.parametrize("policy", ["greedy", "cost_benefit"])
def test_long_run_stays_consistent(policy):
    """50k ops: GC, wear levelling and stripe rotation many times over."""
    snapshot = run_engine_workload(policy, 0, ops=50_000)
    assert snapshot["gc_erases"] > 500
    assert snapshot["wl_erases"] > 0


class TestFrontierInvariants:
    def test_free_block_in_a_stripe_slot_is_caught(self):
        engine = build_engine("greedy", 0)
        engine.write(0, b"x", 0.0, group=1)
        free = engine.books[0].free_blocks()[0]
        assert free.state is BlockState.FREE
        engine._group_frontiers[1].append(free)
        with pytest.raises(AssertionError, match="frontier holds a FREE block"):
            engine.check_consistency()

    def test_block_in_two_slots_is_caught(self):
        engine = build_engine("greedy", 0)
        engine.write(0, b"x", 0.0, group=1)
        held = next(slot for slot in engine._group_frontiers[1] if slot is not None)
        engine._group_frontiers[2] = [held]
        with pytest.raises(AssertionError, match="block held by two frontiers"):
            engine.check_consistency()

    def test_recycling_drops_the_block_from_every_slot(self):
        engine = build_engine("greedy", 0)
        engine.write(0, b"x", 0.0, group=1)
        held = next(slot for slot in engine._group_frontiers[1] if slot is not None)
        engine.invalidate(0)
        engine.device.erase_block_packed(held.die, held.block, 0.0)
        engine._retire_or_recycle(held.die, held.block)
        assert all(slot is not held for slot in engine._group_frontiers[1])
        engine.check_consistency()


class TestWritePointerInvariant:
    """Bookkeeping ``written`` against the device block's ``write_pointer``."""

    def test_open_block_ahead_of_the_device_is_caught(self):
        engine = build_engine("greedy", 0)
        engine.write(0, b"x", 0.0)
        info = next(slot for slot in engine._user_frontier.values() if slot is not None)
        assert info.state is BlockState.OPEN
        engine.check_consistency()
        info.written += 1
        with pytest.raises(AssertionError, match="!= device write pointer"):
            engine.check_consistency()

    def test_free_block_with_programmed_pages_is_caught(self):
        engine = build_engine("greedy", 0)
        free = engine.books[0].free_blocks()[0]
        engine.device.program_page_packed(free.die, free.block, 0, b"x", -1, 0, -1, 0.0)
        with pytest.raises(AssertionError, match="!= device write pointer"):
            engine.check_consistency()

    def test_full_block_behind_the_device_is_caught(self):
        engine = build_engine("greedy", 0)
        engine.write(0, b"x", 0.0)
        info = next(slot for slot in engine._user_frontier.values() if slot is not None)
        info.seal()  # a sealed block counts its unwritten tail as written
        assert info.state is BlockState.FULL
        engine.check_consistency()
        info.written = 0
        with pytest.raises(AssertionError, match="< device write pointer"):
            engine.check_consistency()
