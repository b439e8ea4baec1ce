"""Failure-injection tests: corrupted data and misuse must fail loudly.

"Errors should never pass silently" — every corruption or misuse below
must surface as a specific exception or as a reported inconsistency,
never as silently wrong answers.
"""

import pytest

from repro.catalog.dictionary import AttributeDictionary
from repro.core.config import CinderellaConfig
from repro.query.query import AttributeQuery
from repro.storage.record import RecordFormatError, deserialize_record, serialize_record
from repro.storage.snapshot import SnapshotFormatError, load_table, save_table
from repro.table.partitioned import CinderellaTable, unpartitioned_table


def build_table() -> CinderellaTable:
    table = CinderellaTable(CinderellaConfig(max_partition_size=3, weight=0.4))
    for i in range(9):
        table.insert({"a": i} if i % 2 else {"b": i}, entity_id=i)
    return table


class TestRecordCorruption:
    def test_bit_flips_are_detected_or_decode_differently(self):
        """A flipped byte either raises or changes the payload — the
        format never silently yields the original data."""
        dictionary = AttributeDictionary()
        record = serialize_record(1, {"name": "Canon", "weight": 198}, dictionary)
        original = deserialize_record(record, dictionary)
        for position in range(len(record)):
            corrupted = bytearray(record)
            corrupted[position] ^= 0xFF
            try:
                decoded = deserialize_record(bytes(corrupted), dictionary)
            except (RecordFormatError, KeyError, UnicodeDecodeError):
                continue  # loud failure: good
            assert decoded != original, f"silent corruption at byte {position}"

    def test_truncation_always_raises(self):
        dictionary = AttributeDictionary()
        record = serialize_record(7, {"x": "abcdefgh", "y": 123}, dictionary)
        for cut in range(1, len(record)):
            with pytest.raises(RecordFormatError):
                deserialize_record(record[:cut], dictionary)


class TestCatalogCorruptionDetection:
    def test_synopsis_tampering_reported(self):
        table = build_table()
        partition = next(iter(table.catalog))
        partition.mask ^= 0b1000_0000
        assert table.check_consistency() != []

    def test_size_tampering_reported(self):
        table = build_table()
        partition = next(iter(table.catalog))
        partition.total_size += 5
        assert any("size" in p for p in table.check_consistency())

    def test_location_map_tampering_reported(self):
        table = build_table()
        catalog = table.catalog
        eid = next(iter(catalog)).entity_ids()[0]
        other = [p.pid for p in catalog if eid not in p][0]
        catalog._entity_to_pid[eid] = other
        assert table.check_consistency() != []

    def test_stored_mask_tampering_reported(self):
        """The snapshot reads skip a record by the mask it carries, so a
        mask that disagrees with the catalog silently drops (or keeps)
        rows; the check compares the two, the record's bytes aside."""
        table = build_table()
        pid = table.catalog.partition_of(3)
        rid = table._rids[3]
        table.heap_of(pid)._pages[rid.page].stored(rid.slot).mask = 0
        query = AttributeQuery(("a",))
        assert table.execute(query).rows != table.execute_naive(query).rows
        assert table.check_consistency() == [
            "entity 3: stored record's mask differs from its catalog synopsis"
        ]

    def test_starter_tampering_reported(self):
        table = build_table()
        partition = next(p for p in table.catalog if len(p) >= 2)
        partition.starters.eid_a = 999_999
        assert any("starter" in p for p in table.check_consistency())


class TestSnapshotCorruption:
    """Snapshot files damaged on disk must always be rejected loudly."""

    def snapshot_bytes(self, tmp_path):
        path = tmp_path / "table.snapshot.json"
        save_table(build_table(), path)
        return path, path.read_bytes()

    def test_truncation_always_raises(self, tmp_path):
        path, data = self.snapshot_bytes(tmp_path)
        for cut in range(0, len(data), 13):
            path.write_bytes(data[:cut])
            with pytest.raises(SnapshotFormatError):
                load_table(path)

    def test_byte_flips_always_raise(self, tmp_path):
        path, data = self.snapshot_bytes(tmp_path)
        for position in range(0, len(data), 11):
            corrupted = bytearray(data)
            corrupted[position] ^= 0xFF
            path.write_bytes(bytes(corrupted))
            with pytest.raises(SnapshotFormatError):
                load_table(path)

    def test_valid_json_tampering_caught_by_checksum(self, tmp_path):
        """Edits that keep the JSON well-formed still fail the checksum."""
        path, data = self.snapshot_bytes(tmp_path)
        text = data.decode("utf-8")
        assert '"weight": 0.4' in text
        path.write_text(text.replace('"weight": 0.4', '"weight": 0.9'))
        with pytest.raises(SnapshotFormatError):
            load_table(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SnapshotFormatError):
            load_table(tmp_path / "never-written.json")


class TestMisuse:
    def test_insert_duplicate_entity_id(self):
        table = build_table()
        with pytest.raises(ValueError):
            table.insert({"a": 1}, entity_id=0)

    def test_delete_twice(self):
        table = build_table()
        table.delete(0)
        with pytest.raises(KeyError):
            table.delete(0)

    def test_update_after_delete(self):
        table = build_table()
        table.delete(0)
        with pytest.raises(KeyError):
            table.update(0, {"a": 1})

    def test_get_missing_entity(self):
        table = build_table()
        with pytest.raises(KeyError):
            table.get(404)

    def test_universal_table_same_guards(self):
        table = unpartitioned_table()
        table.insert({"a": 1}, entity_id=1)
        with pytest.raises(ValueError):
            table.insert({"a": 2}, entity_id=1)
        with pytest.raises(KeyError):
            table.delete(2)

    def test_invalid_config_rejected_up_front(self):
        with pytest.raises(ValueError):
            CinderellaConfig(weight=1.5)
        with pytest.raises(ValueError):
            CinderellaConfig(max_partition_size=0)
        with pytest.raises(ValueError):
            CinderellaConfig(selection="random")

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            AttributeQuery(())


class TestQueryRobustness:
    def test_query_on_empty_table(self):
        table = CinderellaTable()
        result = table.execute(AttributeQuery(("anything",)))
        assert result.rows == []
        assert result.stats.partitions_total == 0

    def test_query_after_everything_deleted(self):
        table = build_table()
        for eid in range(9):
            table.delete(eid)
        result = table.execute(AttributeQuery(("a",)))
        assert result.rows == []
        assert table.partition_count() == 0

    def test_query_for_never_seen_attribute(self):
        table = build_table()
        result = table.execute(AttributeQuery(("never_inserted",)))
        assert result.rows == []
        assert result.stats.entities_read == 0  # fully pruned
