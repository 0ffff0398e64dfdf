"""Per-column reference codecs: the oracle for the compiled ones in ``src``.

These are the interpretive row and key codecs the compiled
:class:`~repro.db.records.RowCodec` and :class:`~repro.db.btree.KeyCodec`
replaced, kept verbatim in behaviour: one ``struct`` call per column,
driven by the :class:`~repro.db.records.Schema`.  The property tests in
``test_codec_oracle.py`` check that the compiled codecs write the same
bytes, read the same tuples and reject the same rows.
"""

import struct

from repro.db.records import Column, ColumnType, Key, Row, Schema, SchemaError


class ReferenceRowCodec:
    """One ``struct`` call per column; CHAR space-padded, VARCHAR ``<H``-prefixed."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema

    def encode(self, row: Row) -> bytes:
        if len(row) != len(self.schema):
            raise SchemaError(
                f"row has {len(row)} values, schema has {len(self.schema)} columns"
            )
        return b"".join(self._encode_value(c, v) for c, v in zip(self.schema, row))

    def decode(self, data: bytes) -> Row:
        values = []
        offset = 0
        for column in self.schema:
            value, offset = self._decode_value(column, data, offset)
            values.append(value)
        if offset != len(data):
            raise SchemaError(f"trailing {len(data) - offset} bytes after decoding row")
        return tuple(values)

    def _encode_value(self, column: Column, value: object) -> bytes:
        if column.type is ColumnType.INT:
            if not isinstance(value, int):
                raise SchemaError(f"column {column.name!r} expects int, got {type(value).__name__}")
            return struct.pack("<q", value)
        if column.type is ColumnType.FLOAT:
            if not isinstance(value, (int, float)):
                raise SchemaError(f"column {column.name!r} expects number, got {type(value).__name__}")
            return struct.pack("<d", float(value))
        if not isinstance(value, str):
            raise SchemaError(f"column {column.name!r} expects str, got {type(value).__name__}")
        raw = value.encode("utf-8")
        if len(raw) > column.length:
            raise SchemaError(
                f"column {column.name!r}: value of {len(raw)} bytes exceeds "
                f"{column.type.value.upper()}({column.length})"
            )
        if column.type is ColumnType.CHAR:
            return raw.ljust(column.length, b" ")
        return struct.pack("<H", len(raw)) + raw

    def _decode_value(self, column: Column, data: bytes, offset: int) -> tuple[object, int]:
        if column.type is ColumnType.INT:
            (value,) = struct.unpack_from("<q", data, offset)
            return value, offset + 8
        if column.type is ColumnType.FLOAT:
            (value,) = struct.unpack_from("<d", data, offset)
            return value, offset + 8
        if column.type is ColumnType.CHAR:
            raw = data[offset : offset + column.length]
            return raw.decode("utf-8").rstrip(" "), offset + column.length
        (length,) = struct.unpack_from("<H", data, offset)
        offset += 2
        raw = data[offset : offset + length]
        return raw.decode("utf-8"), offset + length


class ReferenceKeyCodec:
    """One ``struct`` call per key part; text parts ``<H``-prefixed."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema

    def encode(self, key: Key) -> bytes:
        if len(key) != len(self.schema):
            raise SchemaError(f"key has {len(key)} parts, index has {len(self.schema)}")
        parts: list[bytes] = []
        for column, value in zip(self.schema, key):
            if column.type is ColumnType.INT:
                parts.append(struct.pack("<q", value))
            else:
                raw = value.encode("utf-8")
                parts.append(struct.pack("<H", len(raw)) + raw)
        return b"".join(parts)

    def decode(self, data: bytes, offset: int) -> tuple[Key, int]:
        values = []
        for column in self.schema:
            if column.type is ColumnType.INT:
                (v,) = struct.unpack_from("<q", data, offset)
                offset += 8
            else:
                (length,) = struct.unpack_from("<H", data, offset)
                offset += 2
                v = data[offset : offset + length].decode("utf-8")
                offset += length
            values.append(v)
        return tuple(values), offset
