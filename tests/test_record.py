"""Tests for the sparse interpreted record format."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog.dictionary import AttributeDictionary, UnknownAttributeError
from repro.storage.record import (
    MAX_ENTITY_ID,
    RecordFormatError,
    StoredRecord,
    deserialize_record,
    serialize_record,
    valid_entity_id,
    validate_value,
)

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**61), max_value=2**61),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
attributes = st.dictionaries(
    st.text(min_size=1, max_size=10).filter(bool), values, max_size=15
)


class TestRoundtrip:
    def test_simple_record(self):
        d = AttributeDictionary()
        record = serialize_record(7, {"name": "Canon", "weight": 198}, d)
        eid, attrs = deserialize_record(record, d)
        assert eid == 7
        assert attrs == {"name": "Canon", "weight": 198}

    def test_all_value_types(self):
        d = AttributeDictionary()
        original = {
            "null": None,
            "true": True,
            "false": False,
            "int": -12345,
            "float": 3.5,
            "str": "héllo wörld",
            "bytes": b"\x00\x01\xff",
        }
        _, attrs = deserialize_record(serialize_record(1, original, d), d)
        assert attrs == original

    def test_empty_attribute_set(self):
        d = AttributeDictionary()
        eid, attrs = deserialize_record(serialize_record(3, {}, d), d)
        assert (eid, attrs) == (3, {})

    def test_deterministic_bytes(self):
        d = AttributeDictionary()
        a = serialize_record(1, {"x": 1, "y": 2}, d)
        b = serialize_record(1, {"y": 2, "x": 1}, d)
        assert a == b

    @given(st.integers(0, 2**40), attributes)
    def test_roundtrip_property(self, eid, attrs):
        d = AttributeDictionary()
        eid_out, attrs_out = deserialize_record(serialize_record(eid, attrs, d), d)
        assert eid_out == eid
        assert set(attrs_out) == set(attrs)
        for key, value in attrs.items():
            out = attrs_out[key]
            if isinstance(value, float):
                assert out == value or (math.isinf(value) and out == value)
            else:
                assert out == value

    def test_sparse_records_are_compact(self):
        """A 1-attribute record must not pay for a 100-attribute universe."""
        d = AttributeDictionary(f"attr{i}" for i in range(100))
        record = serialize_record(1, {"attr0": 1}, d)
        assert len(record) < 10


class TestErrors:
    def test_unsupported_type_rejected(self):
        d = AttributeDictionary()
        with pytest.raises(RecordFormatError):
            serialize_record(1, {"x": object()}, d)

    def test_huge_int_rejected(self):
        d = AttributeDictionary()
        with pytest.raises(RecordFormatError):
            serialize_record(1, {"x": 2**80}, d)

    def test_entity_id_the_reader_cannot_read_is_not_written(self):
        d = AttributeDictionary()
        widest = serialize_record(MAX_ENTITY_ID, {"x": 1}, d)
        assert deserialize_record(widest, d) == (MAX_ENTITY_ID, {"x": 1})
        with pytest.raises(RecordFormatError):
            serialize_record(MAX_ENTITY_ID + 1, {"x": 1}, d)
        assert valid_entity_id(0) and valid_entity_id(MAX_ENTITY_ID)
        for refused in (MAX_ENTITY_ID + 1, -1, True, 1.0, "7", None):
            assert not valid_entity_id(refused)

    def test_validate_value_agrees_with_the_writer(self):
        d = AttributeDictionary()
        samples = [None, True, 0, -(2**62) + 1, 1.5, "s", b"b",
                   2**62, [1, 2], {"k": 1}, object(), "\ud800"]
        for value in samples:
            try:
                serialize_record(1, {"x": value}, d)
            except ValueError:
                with pytest.raises(ValueError):
                    validate_value(value)
            else:
                validate_value(value)

    def test_truncated_record_rejected(self):
        d = AttributeDictionary()
        record = serialize_record(1, {"name": "long-enough-value"}, d)
        with pytest.raises(RecordFormatError):
            deserialize_record(record[:-3], d)

    def test_trailing_bytes_rejected(self):
        d = AttributeDictionary()
        record = serialize_record(1, {"x": 1}, d)
        with pytest.raises(RecordFormatError):
            deserialize_record(record + b"\x00", d)

    def test_unknown_value_tag_rejected(self):
        d = AttributeDictionary(["a", "b"])
        # entity 5, two pairs: (a, NULL), then b with tag 9
        with pytest.raises(RecordFormatError):
            deserialize_record(bytes([5, 2, 0, 0, 1, 9]), d)

    def test_unknown_attribute_id_rejected(self):
        record = serialize_record(1, {"a": 1, "b": 2}, AttributeDictionary(["a", "b"]))
        with pytest.raises(UnknownAttributeError):
            deserialize_record(record, AttributeDictionary(["a"]))


#: enough names that attribute ids reach multi-byte varints (>= 128)
WIDE = AttributeDictionary(f"attr{i}" for i in range(200))
wide_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62) + 1, max_value=2**62 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)
wide_records = st.tuples(
    st.integers(0, MAX_ENTITY_ID),
    st.dictionaries(st.sampled_from(WIDE.names()), wide_values, max_size=12),
)


class TestStoredRecord:
    @given(wide_records)
    def test_entity_id_is_the_first_varint(self, entity):
        data = serialize_record(*entity, WIDE)
        assert StoredRecord(data, 0).eid == deserialize_record(data, WIDE)[0]
