"""Slotted heap pages.

The classic layout: a header, a slot directory growing from the front and
record payloads growing from the back.  In-memory the page is a structured
object (records as byte strings per slot); :meth:`SlottedPage.to_bytes` and
:meth:`SlottedPage.from_bytes` produce/consume the on-flash image.  The
buffer manager caches the object form, so (de)serialisation cost is paid
only at real I/O boundaries — exactly when a real engine pays it.

On-flash layout::

    +--------+-----------------+----------------+-------------+
    | header | slot directory  |   free space   |   records   |
    +--------+-----------------+----------------+-------------+
    header: magic u16, slot_count u16, free_end u16 (offset where the
            record heap begins, from page start)
    slot:   offset u16 (0 = empty), length u16
"""

from __future__ import annotations

import struct

_HEADER = struct.Struct("<HHH")
_SLOT = struct.Struct("<HH")
_MAGIC = 0x5350  # "SP"
_EMPTY_SLOT = _SLOT.pack(0, 0)


class PageFullError(Exception):
    """The record does not fit into the page's free space."""


class SlotError(Exception):
    """Bad slot number or state (e.g. reading a deleted slot)."""


class SlottedPage:
    """A slotted page of a fixed on-flash size.

    Args:
        page_size: serialized size in bytes (the flash page size).
    """

    def __init__(self, page_size: int) -> None:
        min_size = _HEADER.size + _SLOT.size
        if page_size < min_size + 1:
            raise ValueError(f"page_size {page_size} too small (min {min_size + 1})")
        self.page_size = page_size
        self._records: list[bytes | None] = []
        # kept in step with _records so space queries are O(1)
        self._payload = 0  # bytes of live records
        self._holes = 0  # emptied slots (None entries)

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------
    def _used_bytes(self) -> int:
        return _HEADER.size + _SLOT.size * len(self._records) + self._payload

    def free_space(self) -> int:
        """Bytes available for a new record (slot overhead included)."""
        return self.page_size - self._used_bytes() - _SLOT.size

    def fits(self, record: bytes) -> bool:
        """Whether ``record`` can be inserted into this page."""
        # a reusable empty slot saves the directory entry
        if self._holes:
            return len(record) <= self.free_space() + _SLOT.size
        return len(record) <= self.free_space()

    @property
    def slot_count(self) -> int:
        """Size of the slot directory (including emptied slots)."""
        return len(self._records)

    def live_records(self) -> int:
        """Number of non-deleted records."""
        return len(self._records) - self._holes

    def is_empty(self) -> bool:
        """Whether the page holds no live records."""
        return len(self._records) == self._holes

    # ------------------------------------------------------------------
    # Record operations
    # ------------------------------------------------------------------
    def insert(self, record: bytes) -> int:
        """Insert ``record``; returns its slot number.

        Reuses an emptied slot when available so RIDs stay dense.
        """
        if not isinstance(record, (bytes, bytearray)):
            raise TypeError("record must be bytes")
        record = bytes(record)
        if not self.fits(record):
            raise PageFullError(
                f"record of {len(record)} bytes does not fit ({self.free_space()} free)"
            )
        self._payload += len(record)
        if self._holes:
            self._holes -= 1
            slot = self._records.index(None)
            self._records[slot] = record
            return slot
        self._records.append(record)
        return len(self._records) - 1

    def read(self, slot: int) -> bytes:
        """Return the record in ``slot``."""
        record = self._slot(slot)
        if record is None:
            raise SlotError(f"slot {slot} is empty")
        return record

    def update(self, slot: int, record: bytes) -> None:
        """Replace the record in ``slot`` (must fit the page)."""
        old = self._slot(slot)
        if old is None:
            raise SlotError(f"slot {slot} is empty")
        growth = len(record) - len(old)
        if growth > self.free_space() + _SLOT.size:
            raise PageFullError(
                f"update grows record by {growth} bytes, only {self.free_space()} free"
            )
        self._records[slot] = bytes(record)
        self._payload += growth

    def delete(self, slot: int) -> None:
        """Delete the record in ``slot`` (slot becomes reusable)."""
        old = self._slot(slot)
        if old is None:
            raise SlotError(f"slot {slot} already empty")
        self._records[slot] = None
        self._payload -= len(old)
        self._holes += 1
        # shrink the directory if a tail of slots is empty
        while self._records and self._records[-1] is None:
            self._records.pop()
            self._holes -= 1

    def slots(self) -> list[tuple[int, bytes]]:
        """All live ``(slot, record)`` pairs in slot order."""
        return [(i, r) for i, r in enumerate(self._records) if r is not None]

    def _slot(self, slot: int) -> bytes | None:
        if not 0 <= slot < len(self._records):
            raise SlotError(f"slot {slot} out of range [0, {len(self._records)})")
        return self._records[slot]

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialise to the fixed ``page_size`` on-flash image."""
        slots: list[bytes] = []
        heap: list[bytes] = []
        free_end = self.page_size
        for record in self._records:
            if record is None:
                slots.append(_EMPTY_SLOT)
                continue
            free_end -= len(record)
            slots.append(_SLOT.pack(free_end, len(record)))
            heap.append(record)
        heap.reverse()  # records fill the page from the back, slot 0 last
        gap = free_end - _HEADER.size - _SLOT.size * len(slots)
        header = _HEADER.pack(_MAGIC, len(self._records), free_end)
        return b"".join((header, *slots, bytes(gap), *heap))

    @classmethod
    def from_bytes(cls, data: bytes) -> "SlottedPage":
        """Reconstruct a page from its on-flash image."""
        page = cls(len(data))
        magic, slot_count, __ = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise ValueError(f"not a slotted page (magic {magic:#x})")
        records = page._records
        directory = data[_HEADER.size : _HEADER.size + _SLOT.size * slot_count]
        for offset, length in _SLOT.iter_unpack(directory):
            if offset == 0:
                records.append(None)
                page._holes += 1
            else:
                record = bytes(data[offset : offset + length])
                records.append(record)
                page._payload += len(record)
        return page

    @classmethod
    def empty_image(cls, page_size: int) -> bytes:
        """On-flash image of a fresh empty page."""
        return cls(page_size).to_bytes()
