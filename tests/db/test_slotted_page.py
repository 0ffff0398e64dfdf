"""Unit tests for slotted pages."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.db import PageFullError, SlotError, SlottedPage
from repro.db.slotted_page import _HEADER, _SLOT


class TestBasics:
    def test_insert_read_roundtrip(self):
        page = SlottedPage(256)
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"

    def test_multiple_records_distinct_slots(self):
        page = SlottedPage(256)
        slots = [page.insert(bytes([i])) for i in range(5)]
        assert slots == [0, 1, 2, 3, 4]
        for i, slot in enumerate(slots):
            assert page.read(slot) == bytes([i])

    def test_delete_and_slot_reuse(self):
        page = SlottedPage(256)
        a = page.insert(b"a")
        page.insert(b"b")
        page.delete(a)
        assert page.insert(b"c") == a

    def test_read_deleted_slot_rejected(self):
        page = SlottedPage(256)
        slot = page.insert(b"x")
        page.delete(slot)
        # slot directory shrank: the slot is now out of range or empty
        with pytest.raises(SlotError):
            page.read(slot)

    def test_update_in_place(self):
        page = SlottedPage(256)
        slot = page.insert(b"old")
        page.update(slot, b"newer")
        assert page.read(slot) == b"newer"

    def test_page_full(self):
        page = SlottedPage(64)
        with pytest.raises(PageFullError):
            for __ in range(20):
                page.insert(b"0123456789")

    def test_free_space_decreases(self):
        page = SlottedPage(256)
        before = page.free_space()
        page.insert(b"xxxx")
        assert page.free_space() < before

    def test_live_record_count(self):
        page = SlottedPage(256)
        a = page.insert(b"a")
        page.insert(b"b")
        page.delete(a)
        assert page.live_records() == 1
        assert not page.is_empty()


class TestSerialisation:
    def test_roundtrip_preserves_records_and_slots(self):
        page = SlottedPage(256)
        page.insert(b"alpha")
        b = page.insert(b"beta")
        page.insert(b"gamma")
        page.delete(b)
        image = page.to_bytes()
        assert len(image) == 256
        restored = SlottedPage.from_bytes(image)
        assert restored.read(0) == b"alpha"
        assert restored.read(2) == b"gamma"
        with pytest.raises(SlotError):
            restored.read(1)

    def test_empty_page_roundtrip(self):
        restored = SlottedPage.from_bytes(SlottedPage.empty_image(128))
        assert restored.is_empty()
        assert restored.slot_count == 0

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            SlottedPage.from_bytes(b"\x00" * 128)

    def test_roundtrip_after_updates(self):
        page = SlottedPage(256)
        slot = page.insert(b"aaaa")
        page.update(slot, b"bb")
        restored = SlottedPage.from_bytes(page.to_bytes())
        assert restored.read(slot) == b"bb"

    def test_zero_length_record(self):
        page = SlottedPage(128)
        slot = page.insert(b"")
        restored = SlottedPage.from_bytes(page.to_bytes())
        assert restored.read(slot) == b""


class TestEdgeCases:
    def test_tiny_page_rejected(self):
        with pytest.raises(ValueError):
            SlottedPage(8)

    def test_slot_out_of_range(self):
        page = SlottedPage(128)
        with pytest.raises(SlotError):
            page.read(0)

    def test_update_that_does_not_fit(self):
        page = SlottedPage(64)
        slot = page.insert(b"x" * 30)
        with pytest.raises(PageFullError):
            page.update(slot, b"y" * 60)

    def test_non_bytes_rejected(self):
        page = SlottedPage(128)
        with pytest.raises(TypeError):
            page.insert("text")


page_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.binary(max_size=40)),
        st.tuples(st.just("update"), st.integers(0, 63), st.binary(max_size=40)),
        st.tuples(st.just("delete"), st.integers(0, 63)),
        st.tuples(st.just("reload")),
    ),
    max_size=80,
)


def reference_image(page):
    """The on-flash layout written one record and one slot at a time."""
    buf = bytearray(page.page_size)
    free_end = page.page_size
    directory = []
    for record in page._records:
        if record is None:
            directory.append((0, 0))
            continue
        free_end -= len(record)
        buf[free_end : free_end + len(record)] = record
        directory.append((free_end, len(record)))
    _HEADER.pack_into(buf, 0, 0x5350, len(page._records), free_end)
    for i, (offset, length) in enumerate(directory):
        _SLOT.pack_into(buf, _HEADER.size + i * _SLOT.size, offset, length)
    return bytes(buf)


def assert_accounting_matches_records(page):
    """The O(1) space queries equal a from-scratch recompute over ``_records``."""
    records = page._records
    live = [r for r in records if r is not None]
    used = _HEADER.size + _SLOT.size * len(records) + sum(map(len, live))
    free = page.page_size - used - _SLOT.size
    reusable = _SLOT.size if len(live) < len(records) else 0
    assert page.free_space() == free
    assert page.live_records() == len(live)
    assert page.is_empty() == (not live)
    for size in range(max(0, free - 2), free + reusable + 3):
        assert page.fits(bytes(size)) == (size <= free + reusable), size


class TestSpaceAccounting:
    @settings(max_examples=200, deadline=None)
    @given(page_ops)
    def test_accounting_and_image_match_recompute(self, ops):
        page = SlottedPage(160)
        for op in ops:
            live = [slot for slot, __ in page.slots()]
            if op[0] == "insert":
                if page.fits(op[1]):
                    assert page.read(page.insert(op[1])) == op[1]
                else:
                    with pytest.raises(PageFullError):
                        page.insert(op[1])
            elif op[0] == "update" and live:
                slot = live[op[1] % len(live)]
                growth = len(op[2]) - len(page.read(slot))
                if growth <= page.free_space() + _SLOT.size:
                    page.update(slot, op[2])
                    assert page.read(slot) == op[2]
                else:
                    with pytest.raises(PageFullError):
                        page.update(slot, op[2])
            elif op[0] == "delete" and live:
                page.delete(live[op[1] % len(live)])
            elif op[0] == "reload":
                image = page.to_bytes()
                page = SlottedPage.from_bytes(image)
                assert page.to_bytes() == image
            assert_accounting_matches_records(page)
            assert page.to_bytes() == reference_image(page)
