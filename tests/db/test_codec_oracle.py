"""The compiled row and key codecs against the per-column reference codecs.

Every property compares :mod:`repro.db`'s codecs with
:mod:`tests.db.reference_codecs` over generated schemas: VARCHAR first, in
the middle, last or absent, CHAR and VARCHAR of several lengths, empty
and multibyte UTF-8 text, negative and ±2**62 ints.  Valid rows must
encode to identical bytes and decode to equal tuples; invalid rows (wrong
arity, wrong type, overlong text) must raise the same :class:`SchemaError`.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.db import RID, BTree, BufferPool, RowCodec, Schema, SchemaError
from repro.db.btree import KeyCodec, _Node
from repro.db.records import Column, ColumnType
from tests.db.conftest import MemoryBackend
from tests.db.reference_codecs import ReferenceKeyCodec, ReferenceRowCodec

ints = st.one_of(
    st.sampled_from([-(2**62), 2**62, -(2**63), 2**63 - 1, -1, 0, 1]),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
floats = st.one_of(st.floats(allow_nan=False), ints)  # ints are valid FLOATs
# any non-surrogate text, biased towards multibyte UTF-8
texts = st.one_of(
    st.text(alphabet=st.sampled_from("aZ9 é€😀ß"), max_size=12),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
)

fixed_columns = st.one_of(
    st.just((ColumnType.INT, 0)),
    st.just((ColumnType.FLOAT, 0)),
    st.tuples(st.just(ColumnType.CHAR), st.integers(1, 24)),
)
varchar_columns = st.tuples(st.just(ColumnType.VARCHAR), st.integers(1, 24))
any_columns = st.one_of(fixed_columns, varchar_columns)


@st.composite
def schemas(draw):
    """Mixed columns with a VARCHAR first, in the middle, last, everywhere or nowhere."""
    kinds = draw(st.lists(any_columns, min_size=0, max_size=8))
    where = draw(st.sampled_from(["first", "middle", "last", "all", "none"]))
    if where in ("first", "all"):
        kinds.insert(0, draw(varchar_columns))
    if where in ("middle", "all"):
        kinds.insert(len(kinds) // 2, draw(varchar_columns))
        if len(kinds) < 3:
            kinds = [draw(fixed_columns), *kinds, draw(fixed_columns)]
    if where in ("last", "all"):
        kinds.append(draw(varchar_columns))
    if where == "none":
        kinds = [k for k in kinds if k[0] is not ColumnType.VARCHAR] or [(ColumnType.INT, 0)]
    return Schema([Column(f"c{i}", kind, length) for i, (kind, length) in enumerate(kinds)])


def fit(text, limit):
    """Trim ``text`` until its UTF-8 form fits ``limit`` bytes."""
    while len(text.encode("utf-8")) > limit:
        text = text[:-1]
    return text


def value_for(draw, column):
    if column.type is ColumnType.INT:
        return draw(ints)
    if column.type is ColumnType.FLOAT:
        return draw(floats)
    return fit(draw(texts), column.length)


@st.composite
def schema_and_row(draw):
    schema = draw(schemas())
    return schema, tuple(value_for(draw, c) for c in schema)


def outcome(codec, row):
    """``("ok", bytes)`` or ``("error", message)`` of encoding ``row``."""
    try:
        return "ok", codec.encode(row)
    except SchemaError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(schema_and_row())
def test_valid_rows_encode_to_reference_bytes_and_decode_equal(case):
    schema, row = case
    compiled, reference = RowCodec(schema), ReferenceRowCodec(schema)
    data = compiled.encode(row)
    assert data == reference.encode(row)
    assert compiled.decode(data) == reference.decode(data)


@settings(max_examples=100, deadline=None)
@given(schema_and_row(), st.binary(min_size=1, max_size=3))
def test_trailing_bytes_rejected_by_both(case, junk):
    schema, row = case
    data = ReferenceRowCodec(schema).encode(row) + junk
    for codec in (RowCodec(schema), ReferenceRowCodec(schema)):
        with pytest.raises(SchemaError, match=f"trailing {len(junk)} bytes"):
            codec.decode(data)


wrong_for = {
    ColumnType.INT: st.sampled_from([1.5, "1", b"1", None]),
    ColumnType.FLOAT: st.sampled_from(["1.0", b"1", None, 1j]),
    ColumnType.CHAR: st.sampled_from([1, 1.0, b"x", None]),
    ColumnType.VARCHAR: st.sampled_from([1, 1.0, b"x", None]),
}


@st.composite
def invalid_rows(draw):
    schema, row = draw(schema_and_row())
    fault = draw(st.sampled_from(["short", "long", "type", "overlong"]))
    if fault == "short":
        return schema, row[:-1]
    if fault == "long":
        return schema, row + (0,)
    i = draw(st.integers(0, len(row) - 1))
    column = schema.columns[i]
    if fault == "type" or column.type not in (ColumnType.CHAR, ColumnType.VARCHAR):
        bad = draw(wrong_for[column.type])
    else:
        # one byte too many, in ASCII or in two-byte characters
        bad = draw(st.sampled_from(["x" * (column.length + 1), "é" * (column.length // 2 + 1)]))
    row = row[:i] + (bad,) + row[i + 1 :]
    if i + 1 < len(row) and draw(st.booleans()):
        # a second fault further on: both codecs must report the first
        j = draw(st.integers(i + 1, len(row) - 1))
        row = row[:j] + (None,) + row[j + 1 :]
    return schema, row


@settings(max_examples=300, deadline=None)
@given(invalid_rows())
def test_invalid_rows_raise_the_same_schema_error(case):
    schema, row = case
    got = outcome(RowCodec(schema), row)
    assert got[0] == "error"
    assert got == outcome(ReferenceRowCodec(schema), row)


# ----------------------------------------------------------------------
# keys and B-tree nodes
# ----------------------------------------------------------------------
key_columns = st.one_of(
    st.just((ColumnType.INT, 0)),
    st.tuples(st.sampled_from([ColumnType.CHAR, ColumnType.VARCHAR]), st.integers(1, 12)),
)


@st.composite
def key_schemas(draw, all_int):
    if all_int:
        kinds = [(ColumnType.INT, 0)] * draw(st.integers(1, 4))
    else:
        kinds = draw(st.lists(key_columns, min_size=1, max_size=4))
    return Schema([Column(f"k{i}", kind, length) for i, (kind, length) in enumerate(kinds)])


@st.composite
def schema_and_keys(draw, all_int):
    schema = draw(key_schemas(all_int))
    count = draw(st.integers(0, 12))
    keys = [tuple(value_for(draw, c) for c in schema) for __ in range(count)]
    return schema, keys


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(schema_and_keys))
def test_keys_encode_to_reference_bytes_and_decode_equal(case):
    schema, keys = case
    compiled, reference = KeyCodec(schema), ReferenceKeyCodec(schema)
    data = b"".join(compiled.encode(k) for k in keys)
    assert data == b"".join(reference.encode(k) for k in keys)
    offset = ref_offset = 0
    for __ in keys:
        key, offset = compiled.decode(data, offset)
        want, ref_offset = reference.decode(data, ref_offset)
        assert key == want
        assert offset == ref_offset
    assert offset == len(data)


@settings(max_examples=100, deadline=None)
@given(st.booleans().flatmap(schema_and_keys), st.data())
def test_btree_nodes_round_trip(case, data):
    schema, keys = case
    backend = MemoryBackend(page_size=1024)
    tree = BTree(BufferPool(backend, capacity=8), backend.create_space("idx"), schema)
    keys = sorted(keys)[: tree.inner_capacity]
    leaf = _Node(is_leaf=True)
    leaf.keys = list(keys)
    leaf.values = [
        RID(data.draw(st.integers(0, 2**31 - 1)), data.draw(st.integers(0, 2**16 - 1)))
        for __ in keys
    ]
    leaf.next_leaf = data.draw(st.integers(-1, 2**31 - 1))
    inner = _Node(is_leaf=False)
    inner.keys = list(keys)
    inner.children = [data.draw(st.integers(0, 2**31 - 1)) for __ in range(len(keys) + 1)]
    for node in (leaf, inner):
        image = tree._encode_node(node)
        assert len(image) == tree.page_size
        back = tree._decode_node(image)
        assert back.is_leaf == node.is_leaf
        assert back.keys == node.keys
        assert back.values == node.values
        assert back.children == node.children
        assert back.next_leaf == node.next_leaf
