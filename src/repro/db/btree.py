"""B+-tree secondary indexes over the buffer pool.

Nodes are page-sized and travel through the same buffer/backend path as
heap pages, so index traffic hits flash exactly like Shore-MT's B-trees
do.  Design points:

* composite keys — tuples of INT/CHAR/VARCHAR column values, compared
  lexicographically; a :class:`KeyCodec` serialises them;
* values are heap :class:`~repro.db.heap.RID`\\ s;
* duplicates allowed unless ``unique=True`` (non-unique lookups return
  every match);
* deletes are *lazy* (no merge/rebalance on underflow) — the strategy of
  several production engines; emptied leaves are reclaimed only when the
  index is rebuilt;
* leaves are chained for range scans.
"""

from __future__ import annotations

import bisect
import struct

from repro.db.buffer import BufferPool
from repro.db.heap import RID
from repro.db.records import ColumnType, Key, Schema, SchemaError


class IndexError_(Exception):
    """Invalid index operation (duplicate key on unique index, ...)."""


_RID_STRUCT = struct.Struct("<iH")
_CHILD_STRUCT = struct.Struct("<i")
_LEAF_HEADER = struct.Struct("<BHi")  # type, count, next_leaf
_INNER_HEADER = struct.Struct("<BH")  # type, count
_LEAF_TYPE = 1
_INNER_TYPE = 2
_I64 = struct.Struct("<q")  # INT key part
_U16 = struct.Struct("<H")  # text key part length prefix


class KeyCodec:
    """Serialises composite keys of INT/CHAR/VARCHAR columns.

    INT parts are ``<q``; text parts (CHAR included) are ``<H``-prefixed
    UTF-8.  An all-INT key is one precompiled :class:`struct.Struct`.
    """

    def __init__(self, schema: Schema) -> None:
        for column in schema:
            if column.type is ColumnType.FLOAT:
                raise SchemaError(f"FLOAT column {column.name!r} cannot be a key")
        self.schema = schema
        #: per part: True for INT, False for text
        self._int_parts = tuple(c.type is ColumnType.INT for c in schema)
        self._ints: struct.Struct | None = (
            struct.Struct("<" + "q" * len(schema)) if all(self._int_parts) else None
        )

    @property
    def max_size(self) -> int:
        """Largest serialized key size in bytes."""
        total = 0
        for column in self.schema:
            if column.type is ColumnType.INT:
                total += 8
            else:
                total += 2 + column.length
        return total

    def encode(self, key: Key) -> bytes:
        """Serialise a key tuple."""
        if len(key) != len(self._int_parts):
            raise SchemaError(f"key has {len(key)} parts, index has {len(self._int_parts)}")
        if self._ints is not None:
            return self._ints.pack(*key)
        parts: list[bytes] = []
        for is_int, value in zip(self._int_parts, key):
            if is_int:
                parts.append(_I64.pack(value))
            else:
                raw = value.encode("utf-8")
                parts.append(_U16.pack(len(raw)))
                parts.append(raw)
        return b"".join(parts)

    def decode(self, data: bytes, offset: int) -> tuple[Key, int]:
        """Deserialise one key starting at ``offset``; returns (key, end)."""
        if self._ints is not None:
            return self._ints.unpack_from(data, offset), offset + self._ints.size
        values = []
        for is_int in self._int_parts:
            if is_int:
                (v,) = _I64.unpack_from(data, offset)
                offset += 8
            else:
                (length,) = _U16.unpack_from(data, offset)
                offset += 2
                v = data[offset : offset + length].decode("utf-8")
                offset += length
            values.append(v)
        return tuple(values), offset


class _Node:
    """In-memory B+-tree node (leaf or inner)."""

    __slots__ = ("is_leaf", "keys", "values", "children", "next_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.keys: list[Key] = []
        self.values: list[RID] = []  # leaves only
        self.children: list[int] = []  # inner only: len(keys) + 1 page_nos
        self.next_leaf: int = -1  # leaves only


class BTree:
    """A B+-tree index stored in one tablespace.

    Args:
        buffer_pool: shared buffer manager.
        space_id: tablespace for the index's pages.
        key_schema: columns forming the key (order matters).
        unique: reject duplicate keys when ``True``.
    """

    def __init__(
        self,
        buffer_pool: BufferPool,
        space_id: int,
        key_schema: Schema,
        unique: bool = False,
    ) -> None:
        self.buffer_pool = buffer_pool
        self.space_id = space_id
        self.codec = KeyCodec(key_schema)
        self.unique = unique
        self.page_size = buffer_pool.backend.page_size
        leaf_entry = self.codec.max_size + _RID_STRUCT.size
        inner_entry = self.codec.max_size + _CHILD_STRUCT.size
        self.leaf_capacity = (self.page_size - _LEAF_HEADER.size) // leaf_entry
        self.inner_capacity = (
            self.page_size - _INNER_HEADER.size - _CHILD_STRUCT.size
        ) // inner_entry
        if self.leaf_capacity < 4 or self.inner_capacity < 4:
            raise IndexError_(
                f"key of max {self.codec.max_size} bytes leaves fanout < 4 on "
                f"{self.page_size}-byte pages"
            )
        self._root_page: int = -1
        self._height = 0
        self._entry_count = 0
        self._pins: list[int] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        """Number of (key, rid) entries in the index."""
        return self._entry_count

    @property
    def height(self) -> int:
        """Tree height (0 = empty, 1 = root leaf)."""
        return self._height

    # ------------------------------------------------------------------
    # Node I/O
    # ------------------------------------------------------------------
    def _encode_node(self, node: _Node) -> bytes:
        buf = bytearray()
        if node.is_leaf:
            buf += _LEAF_HEADER.pack(_LEAF_TYPE, len(node.keys), node.next_leaf)
            for key, rid in zip(node.keys, node.values):
                buf += self.codec.encode(key)
                buf += _RID_STRUCT.pack(rid.page_no, rid.slot)
        else:
            buf += _INNER_HEADER.pack(_INNER_TYPE, len(node.keys))
            buf += _CHILD_STRUCT.pack(node.children[0])
            for key, child in zip(node.keys, node.children[1:]):
                buf += self.codec.encode(key)
                buf += _CHILD_STRUCT.pack(child)
        if len(buf) > self.page_size:
            raise IndexError_(f"node overflow: {len(buf)} > {self.page_size}")
        return bytes(buf.ljust(self.page_size, b"\x00"))

    def _decode_node(self, data: bytes) -> _Node:
        node_type = data[0]
        if node_type == _LEAF_TYPE:
            __, count, next_leaf = _LEAF_HEADER.unpack_from(data, 0)
            node = _Node(is_leaf=True)
            node.next_leaf = next_leaf
            offset = _LEAF_HEADER.size
            for __ in range(count):
                key, offset = self.codec.decode(data, offset)
                page_no, slot = _RID_STRUCT.unpack_from(data, offset)
                offset += _RID_STRUCT.size
                node.keys.append(key)
                node.values.append(RID(page_no, slot))
            return node
        if node_type == _INNER_TYPE:
            __, count = _INNER_HEADER.unpack_from(data, 0)
            node = _Node(is_leaf=False)
            offset = _INNER_HEADER.size
            (first,) = _CHILD_STRUCT.unpack_from(data, offset)
            offset += _CHILD_STRUCT.size
            node.children.append(first)
            for __ in range(count):
                key, offset = self.codec.decode(data, offset)
                (child,) = _CHILD_STRUCT.unpack_from(data, offset)
                offset += _CHILD_STRUCT.size
                node.keys.append(key)
                node.children.append(child)
            return node
        raise IndexError_(f"corrupt index page (type byte {node_type})")

    def _fetch(self, page_no: int, at: float, pin: bool = True) -> tuple[_Node, float]:
        node, at = self.buffer_pool.get(
            self.space_id,
            page_no,
            at,
            decoder=self._decode_node,
            encoder=self._encode_node,
            pin=pin,
        )
        if pin:
            self._pins.append(page_no)
        return node, at

    def _new_node(self, node: _Node, at: float, pin: bool = True) -> tuple[int, float]:
        page_no, at = self.buffer_pool.backend.allocate_page(self.space_id, at)
        at = self.buffer_pool.put_new(
            self.space_id, page_no, node, encoder=self._encode_node, at=at, pin=pin
        )
        if pin:
            self._pins.append(page_no)
        return page_no, at

    def _dirty(self, page_no: int) -> None:
        self.buffer_pool.mark_dirty(self.space_id, page_no)

    def _release_pins(self) -> None:
        while self._pins:
            self.buffer_pool.unpin(self.space_id, self._pins.pop())

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _descend_to_leaf(
        self, key: Key, at: float, pin: bool = True
    ) -> tuple[int, _Node, float]:
        """Walk from the root to the leaf that may contain ``key``.

        Read-only callers pass ``pin=False``: they keep Python references
        to the decoded nodes, which stay readable even if the frame is
        evicted, so long chains never exhaust the pool.  Mutating callers
        keep the default pinning so their in-place changes cannot be lost
        to eviction mid-operation.
        """
        page_no = self._root_page
        node, at = self._fetch(page_no, at, pin=pin)
        while not node.is_leaf:
            # rightmost child whose separator <= key (duplicates: go left
            # of equal separators so scans start at the first duplicate)
            index = bisect.bisect_left(node.keys, key)
            page_no = node.children[index]
            node, at = self._fetch(page_no, at, pin=pin)
        return page_no, node, at

    def search(self, key: Key, at: float) -> tuple[RID | None, float]:
        """First RID stored under ``key``, or ``None``."""
        if self._root_page < 0:
            return None, at
        try:
            __, leaf, at = self._descend_to_leaf(key, at, pin=False)
            while True:
                index = bisect.bisect_left(leaf.keys, key)
                if index < len(leaf.keys):
                    if leaf.keys[index] == key:
                        return leaf.values[index], at
                    return None, at
                if leaf.next_leaf < 0:
                    return None, at
                leaf, at = self._fetch(leaf.next_leaf, at, pin=False)
        finally:
            self._release_pins()

    def search_all(self, key: Key, at: float) -> tuple[list[RID], float]:
        """Every RID stored under ``key`` (non-unique indexes)."""
        results, at = self.range_scan(key, key, at)
        return [rid for __, rid in results], at

    def range_scan(
        self, lo: Key | None, hi: Key | None, at: float, limit: int | None = None
    ) -> tuple[list[tuple[Key, RID]], float]:
        """Entries with ``lo <= key <= hi`` (either bound may be ``None``).

        Returns ``(entries, completion_us)``; ``limit`` caps the result.
        """
        if self._root_page < 0:
            return [], at
        try:
            if lo is None:
                leaf, at = self._leftmost_leaf(at)
                index = 0
            else:
                __, leaf, at = self._descend_to_leaf(lo, at, pin=False)
                index = bisect.bisect_left(leaf.keys, lo)
            results: list[tuple[Key, RID]] = []
            while True:
                while index < len(leaf.keys):
                    key = leaf.keys[index]
                    if hi is not None and key > hi:
                        return results, at
                    results.append((key, leaf.values[index]))
                    if limit is not None and len(results) >= limit:
                        return results, at
                    index += 1
                if leaf.next_leaf < 0:
                    return results, at
                leaf, at = self._fetch(leaf.next_leaf, at, pin=False)
                index = 0
        finally:
            self._release_pins()

    def _leftmost_leaf(self, at: float) -> tuple[_Node, float]:
        node, at = self._fetch(self._root_page, at, pin=False)
        while not node.is_leaf:
            node, at = self._fetch(node.children[0], at, pin=False)
        return node, at

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, key: Key, rid: RID, at: float) -> float:
        """Insert ``(key, rid)``; raises on duplicates for unique indexes."""
        key = tuple(key)
        try:
            if self._root_page < 0:
                root = _Node(is_leaf=True)
                root.keys.append(key)
                root.values.append(rid)
                self._root_page, at = self._new_node(root, at)
                self._height = 1
                self._entry_count = 1
                return at
            split, at = self._insert_into(self._root_page, key, rid, at)
            if split is not None:
                sep_key, new_page = split
                new_root = _Node(is_leaf=False)
                new_root.keys.append(sep_key)
                new_root.children.extend([self._root_page, new_page])
                self._root_page, at = self._new_node(new_root, at)
                self._height += 1
            self._entry_count += 1
            return at
        finally:
            self._release_pins()

    def _insert_into(
        self, page_no: int, key: Key, rid: RID, at: float
    ) -> tuple[tuple[Key, int] | None, float]:
        """Recursive insert; returns (separator, new right sibling) on split."""
        node, at = self._fetch(page_no, at)
        if node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            if self.unique and index < len(node.keys) and node.keys[index] == key:
                raise IndexError_(f"duplicate key {key!r} on unique index")
            node.keys.insert(index, key)
            node.values.insert(index, rid)
            self._dirty(page_no)
            if len(node.keys) <= self.leaf_capacity:
                return None, at
            return self._split_leaf(page_no, node, at)
        index = bisect.bisect_left(node.keys, key)
        split, at = self._insert_into(node.children[index], key, rid, at)
        if split is None:
            return None, at
        sep_key, new_page = split
        node.keys.insert(index, sep_key)
        node.children.insert(index + 1, new_page)
        self._dirty(page_no)
        if len(node.keys) <= self.inner_capacity:
            return None, at
        return self._split_inner(page_no, node, at)

    def _split_leaf(
        self, page_no: int, node: _Node, at: float
    ) -> tuple[tuple[Key, int], float]:
        mid = len(node.keys) // 2
        right = _Node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        right.next_leaf = node.next_leaf
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right_page, at = self._new_node(right, at)
        node.next_leaf = right_page
        self._dirty(page_no)
        return (right.keys[0], right_page), at

    def _split_inner(
        self, page_no: int, node: _Node, at: float
    ) -> tuple[tuple[Key, int], float]:
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = _Node(is_leaf=False)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        right_page, at = self._new_node(right, at)
        self._dirty(page_no)
        return (sep_key, right_page), at

    # ------------------------------------------------------------------
    # Delete (lazy: no rebalancing)
    # ------------------------------------------------------------------
    def delete(self, key: Key, rid: RID | None, at: float) -> tuple[bool, float]:
        """Remove one entry for ``key`` (matching ``rid`` if given).

        Returns ``(deleted, completion_us)``.
        """
        if self._root_page < 0:
            return False, at
        key = tuple(key)
        try:
            __, leaf, at = self._descend_to_leaf(key, at)
            leaf_page = self._pins[-1]
            while True:
                index = bisect.bisect_left(leaf.keys, key)
                while index < len(leaf.keys) and leaf.keys[index] == key:
                    if rid is None or leaf.values[index] == rid:
                        del leaf.keys[index]
                        del leaf.values[index]
                        self._dirty(leaf_page)
                        self._entry_count -= 1
                        return True, at
                    index += 1
                if index < len(leaf.keys) or leaf.next_leaf < 0:
                    return False, at
                leaf_page = leaf.next_leaf
                leaf, at = self._fetch(leaf_page, at)
        finally:
            self._release_pins()

    # ------------------------------------------------------------------
    # Validation (tests and property checks)
    # ------------------------------------------------------------------
    def check_invariants(self, at: float = 0.0) -> float:
        """Assert key ordering and structural invariants; returns time."""
        if self._root_page < 0:
            assert self._entry_count == 0
            return at
        try:
            count, at = self._check_node(self._root_page, None, None, at)
            assert count == self._entry_count, (
                f"entry count drift: counted {count}, tracked {self._entry_count}"
            )
            return at
        finally:
            self._release_pins()

    def _check_node(
        self, page_no: int, lo: Key | None, hi: Key | None, at: float
    ) -> tuple[int, float]:
        node, at = self._fetch(page_no, at, pin=False)
        keys = node.keys
        assert keys == sorted(keys), f"unsorted keys in page {page_no}"
        for key in keys:
            assert lo is None or key >= lo, f"key {key} below subtree bound {lo}"
            assert hi is None or key <= hi, f"key {key} above subtree bound {hi}"
        if node.is_leaf:
            assert len(node.values) == len(keys)
            return len(keys), at
        assert len(node.children) == len(keys) + 1
        total = 0
        bounds = [lo] + keys + [hi]
        for i, child in enumerate(node.children):
            count, at = self._check_node(child, bounds[i], bounds[i + 1], at)
            total += count
        return total, at
