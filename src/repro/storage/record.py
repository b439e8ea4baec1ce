"""Sparse record serialization — the interpreted attribute storage format.

Universal tables are extremely sparse, so storing them positionally (one
fixed slot per attribute) wastes almost all space.  The paper's premise
(Section I, refs [1]–[3]) is that modern systems store such tables
efficiently; the canonical technique is Beckmann et al.'s *interpreted
attribute storage format* — each record stores only ``(attribute id,
value)`` pairs plus interpretation metadata.  This module implements that
format:

* records are ``header | n × (attr-id varint, type tag, value)``;
* attribute ids come from the table's :class:`AttributeDictionary`;
* values support the types a product catalog / DBpedia extract needs:
  NULL, bool, int, float, str, bytes.

Record length in bytes is what :class:`~repro.core.sizes.ByteSizeModel`
prices and what the I/O statistics count.
"""

from __future__ import annotations

import struct
from typing import Any, Mapping, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.dictionary import AttributeDictionary

_TAG_NULL = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_BYTES = 6

_FLOAT = struct.Struct("<d")

#: the widest entity id :func:`_read_varint` reads back (ten 7-bit groups)
MAX_ENTITY_ID = (1 << 70) - 1


class RecordFormatError(ValueError):
    """Raised when bytes do not form a valid sparse record."""


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise RecordFormatError(f"varints are unsigned, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise RecordFormatError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise RecordFormatError("varint too long")


def _write_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_TAG_NULL)
    elif value is False:
        out.append(_TAG_FALSE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        # zig-zag encode so negative ints stay compact
        _write_varint(out, (value << 1) ^ (value >> 63) if -(2**62) < value < 2**62
                      else _reject_huge_int(value))
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.extend(_FLOAT.pack(value))
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(_TAG_STR)
        _write_varint(out, len(encoded))
        out.extend(encoded)
    elif isinstance(value, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        _write_varint(out, len(value))
        out.extend(value)
    else:
        raise RecordFormatError(
            f"unsupported value type {type(value).__name__}: {value!r}"
        )


def _reject_huge_int(value: int) -> int:
    raise RecordFormatError(f"integer out of 63-bit range: {value}")


def valid_entity_id(value: Any) -> bool:
    """Whether *value* is an entity id a record can carry (for the
    tiers that take ids from outside: refuse before anything is stored)."""
    return type(value) is int and 0 <= value <= MAX_ENTITY_ID


def validate_value(value: Any) -> None:
    """Raise ``ValueError`` unless the record format stores *value* —
    by encoding it, so the check cannot drift from the format."""
    _write_value(bytearray(), value)


def _read_value(data: bytes, offset: int) -> tuple[Any, int]:
    """Read the value at *offset*: ``(value, end)``."""
    if offset >= len(data):
        raise RecordFormatError("truncated record: missing value tag")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_INT:
        raw, offset = _read_varint(data, offset)
        return (raw >> 1) ^ -(raw & 1), offset
    if tag == _TAG_FLOAT:
        end = offset + _FLOAT.size
        if end > len(data):
            raise RecordFormatError("truncated float value")
        return _FLOAT.unpack_from(data, offset)[0], end
    if tag == _TAG_STR:
        length, offset = _read_varint(data, offset)
        end = offset + length
        if end > len(data):
            raise RecordFormatError("truncated string value")
        return data[offset:end].decode("utf-8"), end
    if tag == _TAG_BYTES:
        length, offset = _read_varint(data, offset)
        end = offset + length
        if end > len(data):
            raise RecordFormatError("truncated bytes value")
        return bytes(data[offset:end]), end
    raise RecordFormatError(f"unknown value tag {tag}")


def serialize_record(
    entity_id: int,
    attributes: Mapping[str, Any],
    dictionary: "AttributeDictionary",
) -> bytes:
    """Serialize an entity into the sparse interpreted record format.

    Attribute names are interned into *dictionary*; pairs are stored in
    ascending attribute-id order so serialization is deterministic.
    """
    if entity_id > MAX_ENTITY_ID:  # written it could never be read back
        raise RecordFormatError(f"entity id out of range: {entity_id}")
    out = bytearray()
    _write_varint(out, entity_id)
    pairs = sorted(
        (dictionary.intern(name), value) for name, value in attributes.items()
    )
    _write_varint(out, len(pairs))
    for attr_id, value in pairs:
        _write_varint(out, attr_id)
        _write_value(out, value)
    return bytes(out)


class StoredRecord:
    """One record as a heap page holds it: its bytes, its entity id (read
    off the first varint when the object is made), ``mask``, the entity's
    synopsis — the attribute bitmask the catalog holds for it, handed in
    by whoever stores the record and never read from the bytes — and what
    readers made of it: ``decoded``, the ``(eid, attributes)`` pair once a
    reader decoded it, and ``rows``, per query shape the record's rendered
    row once a reader rendered it (only a record the query matches is
    rendered: a reader tests the mask first).

    The bytes and the mask never change: an update stores a new object.
    A split, merge or reorganization moves the object itself from heap to
    heap, so its mask and what was decoded and rendered for it move along.
    The mask is not persisted: it is the synopsis of the attributes the
    bytes hold, so whoever restores a record computes it again.
    """

    __slots__ = ("data", "eid", "mask", "decoded", "rows")

    def __init__(self, data: bytes, mask: int) -> None:
        self.data = data
        self.eid = _read_varint(data, 0)[0]
        self.mask = mask
        self.decoded: Optional[tuple[int, dict[str, Any]]] = None
        self.rows: Optional[dict[Any, str]] = None


def deserialize_record(
    data: bytes, dictionary: "AttributeDictionary"
) -> tuple[int, dict[str, Any]]:
    """Decode a sparse record into ``(entity_id, attributes)``."""
    entity_id, offset = _read_varint(data, 0)
    count, offset = _read_varint(data, offset)
    attributes: dict[str, Any] = {}
    for _ in range(count):
        attr_id, offset = _read_varint(data, offset)
        value, offset = _read_value(data, offset)
        attributes[dictionary.name_of(attr_id)] = value
    if offset != len(data):
        raise RecordFormatError(
            f"trailing bytes in record: read {offset} of {len(data)}"
        )
    return entity_id, attributes
