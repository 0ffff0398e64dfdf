"""Array-core equivalence: an observed run equals an unobserved one.

The engine's write/GC/WL hot paths run against flat column storage
(``array``/``bytearray`` valid masks and counters, integer-packed
physical addresses) and issue the device's packed command variants,
which emit flash events when an event bus is attached.  "Slow path"
here means *event bus attached*: the same seeded workload, observed,
must land on the *same* golden snapshots pinned in
``test_engine_equivalence.py`` — observing a run never changes it.
"""

import pytest

from tests.mapping.equivalence_workloads import run_engine_workload
from tests.mapping.test_engine_equivalence import GOLDEN


@pytest.mark.parametrize("policy,seed", sorted(GOLDEN))
def test_slow_path_matches_goldens(policy, seed):
    """With an event bus attached the goldens hold."""
    snapshot = run_engine_workload(policy, seed, slow_path=True)
    expected = GOLDEN[(policy, seed)]
    diverged = {
        key: (snapshot[key], want)
        for key, want in expected.items()
        if snapshot[key] != want
    }
    assert not diverged, f"slow path diverged from pinned behaviour: {diverged}"


@pytest.mark.parametrize("policy,seed", [("greedy", 3), ("cost_benefit", 11)])
def test_fast_and_slow_paths_bit_identical(policy, seed):
    """Field-by-field identity of a run with and without an event bus."""
    fast = run_engine_workload(policy, seed, slow_path=False)
    slow = run_engine_workload(policy, seed, slow_path=True)
    assert fast == slow


def test_blockinfo_views_share_die_columns():
    """BlockInfo objects are row views, not copies: a write through the
    view must be visible in the die's columns and vice versa."""
    from repro.mapping import BlockState, DieBookkeeping

    books = DieBookkeeping(die=0, blocks_per_die=4, pages_per_block=8)
    info = books.take_free_block()
    info.note_write(0, 123.0)
    assert books._valid_count[info.block] == 1
    assert books._last_write_us[info.block] == 123.0
    books._valid_mask[info.block] |= 1 << 3
    books._valid_count[info.block] += 1
    assert info.is_valid(3)
    assert info.valid_count == 2
    assert info.state is BlockState.OPEN


def test_standalone_blockinfo_still_constructs():
    """BlockInfo built outside any die (tests, policies) keeps working."""
    from repro.mapping import BlockInfo, BlockState

    info = BlockInfo(die=1, block=2, pages_per_block=8)
    assert info.state is BlockState.FREE
    info.note_write(0, 1.0)
    info.note_write(1, 2.0)
    info.invalidate(0)
    assert info.valid_count == 1
    assert info.invalid_count == 1
    assert info.valid_pages() == [1]
    assert info == BlockInfo(
        die=1,
        block=2,
        pages_per_block=8,
        state=BlockState.FREE,  # state transitions belong to the bookkeeping
        valid_mask=0b10,
        valid_count=1,
        written=2,
        last_write_us=2.0,
    )
