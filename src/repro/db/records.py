"""Row schemas and the record codec.

Tables declare a :class:`Schema` of typed columns; :class:`RowCodec`
serialises rows to the byte strings stored in slotted pages and back.
Supported column types mirror what TPC-C needs:

* ``INT`` — signed 64-bit integer;
* ``FLOAT`` — IEEE double (TPC-C amounts; exactness is not exercised);
* ``CHAR(n)`` — fixed-length text, space-padded;
* ``VARCHAR(n)`` — variable-length text with a 2-byte length prefix.

Rows with only fixed-width columns serialise to a fixed size, which the
heap layer exploits for capacity estimates.
"""

from __future__ import annotations

import enum
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any, TypeAlias

#: A table row: column values in schema order.  Rows are heterogeneous by
#: construction (an INT/FLOAT/CHAR/VARCHAR mix), so the element type is
#: ``Any``; :class:`RowCodec` validates per-column types at the
#: serialisation boundary, which is where a wrong value can corrupt data.
Row: TypeAlias = tuple[Any, ...]

#: An index key: the indexed columns' values, compared lexicographically.
#: Structurally identical to :data:`Row` but kept as a separate name so
#: signatures say which of the two they mean.
Key: TypeAlias = tuple[Any, ...]


class SchemaError(Exception):
    """Invalid schema definition or row value."""


class ColumnType(enum.Enum):
    """Supported column types."""

    INT = "int"
    FLOAT = "float"
    CHAR = "char"
    VARCHAR = "varchar"


@dataclass(frozen=True)
class Column:
    """One column: name, type and (for text types) length limit."""

    name: str
    type: ColumnType
    length: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.type in (ColumnType.CHAR, ColumnType.VARCHAR) and self.length <= 0:
            raise SchemaError(f"column {self.name!r}: text types need a positive length")

    @property
    def fixed_size(self) -> int | None:
        """Serialized size in bytes if fixed-width, else ``None``."""
        if self.type is ColumnType.INT:
            return 8
        if self.type is ColumnType.FLOAT:
            return 8
        if self.type is ColumnType.CHAR:
            return self.length
        return None

    @property
    def max_size(self) -> int:
        """Largest possible serialized size in bytes."""
        if self.type is ColumnType.VARCHAR:
            return 2 + self.length
        size = self.fixed_size
        assert size is not None
        return size


def int_col(name: str) -> Column:
    """Shorthand for an INT column."""
    return Column(name, ColumnType.INT)


def float_col(name: str) -> Column:
    """Shorthand for a FLOAT column."""
    return Column(name, ColumnType.FLOAT)


def char_col(name: str, length: int) -> Column:
    """Shorthand for a CHAR(length) column."""
    return Column(name, ColumnType.CHAR, length)


def varchar_col(name: str, length: int) -> Column:
    """Shorthand for a VARCHAR(length) column."""
    return Column(name, ColumnType.VARCHAR, length)


class Schema:
    """An ordered set of columns."""

    def __init__(self, columns: list[Column]) -> None:
        if not columns:
            raise SchemaError("schema needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        self.columns = list(columns)
        self._index = {c.name: i for i, c in enumerate(columns)}

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def position(self, name: str) -> int:
        """Index of column ``name`` in the row tuple."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no column named {name!r}") from None

    def column(self, name: str) -> Column:
        """Column definition by name."""
        return self.columns[self.position(name)]

    def project(self, names: list[str]) -> "Schema":
        """Sub-schema of the named columns (in the given order)."""
        return Schema([self.column(n) for n in names])

    @property
    def max_row_size(self) -> int:
        """Largest serialized row size in bytes."""
        return sum(c.max_size for c in self.columns)

    @property
    def fixed_row_size(self) -> int | None:
        """Serialized row size if all columns are fixed-width, else ``None``."""
        total = 0
        for c in self.columns:
            size = c.fixed_size
            if size is None:
                return None
            total += size
        return total


#: VARCHAR length prefix.
_U16 = struct.Struct("<H")

#: ``struct`` format code of each fixed-width column type.
_FIXED_CODES = {ColumnType.INT: "q", ColumnType.FLOAT: "d"}

# enum member lookups are slow attribute accesses; the codec loops test
# against these module-level names instead
_INT, _FLOAT, _CHAR = ColumnType.INT, ColumnType.FLOAT, ColumnType.CHAR


class RowCodec:
    """Serialises rows (tuples, schema order) to bytes and back.

    The schema is compiled once into *segments*: each run of fixed-width
    columns becomes one :class:`struct.Struct` (INT ``q``, FLOAT ``d``,
    CHAR(n) ``ns``) and each VARCHAR its own ``<H``-prefixed segment, so a
    row costs one ``pack``/``unpack_from`` per segment instead of one per
    column.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._arity = len(schema)
        #: (position, type, length, name) per column, for encode's checks
        self._plan = tuple((i, c.type, c.length, c.name) for i, c in enumerate(schema))
        self._char_positions = tuple(
            i for i, c in enumerate(schema) if c.type is ColumnType.CHAR
        )
        segments: list[tuple[struct.Struct | None, int, int]] = []
        run, start = "", 0
        for pos, column in enumerate(schema):
            if column.type is ColumnType.VARCHAR:
                if run:
                    segments.append((struct.Struct("<" + run), start, pos))
                segments.append((None, pos, pos + 1))
                run, start = "", pos + 1
            elif column.type is ColumnType.CHAR:
                run += f"{column.length}s"
            else:
                run += _FIXED_CODES[column.type]
        if run:
            segments.append((struct.Struct("<" + run), start, self._arity))
        #: (struct, start, stop): the row positions each segment packs
        self._segments = tuple(segments)

    def encode(self, row: Row) -> bytes:
        """Serialise ``row``; validates arity, types and text lengths."""
        if len(row) != self._arity:
            raise SchemaError(
                f"row has {len(row)} values, schema has {self._arity} columns"
            )
        values = list(row)
        for i, kind, length, name in self._plan:
            value = values[i]
            if kind is _INT:
                if not isinstance(value, int):
                    raise SchemaError(
                        f"column {name!r} expects int, got {type(value).__name__}"
                    )
            elif kind is _FLOAT:
                if not isinstance(value, (int, float)):
                    raise SchemaError(
                        f"column {name!r} expects number, got {type(value).__name__}"
                    )
            else:
                if not isinstance(value, str):
                    raise SchemaError(
                        f"column {name!r} expects str, got {type(value).__name__}"
                    )
                raw = value.encode("utf-8")
                if len(raw) > length:
                    raise SchemaError(
                        f"column {name!r}: value of {len(raw)} bytes exceeds "
                        f"{kind.value.upper()}({length})"
                    )
                # struct pads ``ns`` with NULs; CHAR pads with spaces
                values[i] = raw.ljust(length, b" ") if kind is _CHAR else raw
        parts: list[bytes] = []
        for segment, start, stop in self._segments:
            if segment is None:
                raw = values[start]
                parts.append(_U16.pack(len(raw)))
                parts.append(raw)
            else:
                parts.append(segment.pack(*values[start:stop]))
        return b"".join(parts)

    def decode(self, data: bytes) -> Row:
        """Inverse of :meth:`encode`."""
        values: list[Any] = []
        offset = 0
        for segment, __, __ in self._segments:
            if segment is None:
                (length,) = _U16.unpack_from(data, offset)
                offset += 2
                values.append(data[offset : offset + length].decode("utf-8"))
                offset += length
            else:
                values.extend(segment.unpack_from(data, offset))
                offset += segment.size
        if offset != len(data):
            raise SchemaError(f"trailing {len(data) - offset} bytes after decoding row")
        for i in self._char_positions:
            values[i] = values[i].decode("utf-8").rstrip(" ")
        return tuple(values)
