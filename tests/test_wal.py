"""Tests for the node write-ahead log (restart and PITR on top of it:
``test_backup.py``, ``test_server.py``, ``test_cluster_chaos.py``)."""

import pytest

from repro.storage.wal import (
    WAL_FORMAT,
    WAL_VERSION,
    WALClosedError,
    WALFormatError,
    WriteAheadLog,
    _encode_line,
    read_wal,
)


def write_log(path, header_extra, seqs, basis_seq=0):
    """A log file built by hand: the header every existing node WAL
    carries (``basis_seq`` plus *header_extra*) and one record per seq."""
    header = {
        "format": WAL_FORMAT, "version": WAL_VERSION,
        "basis_seq": basis_seq, **header_extra,
    }
    lines = [_encode_line(0, "header", header)]
    lines += [_encode_line(seq, "insert", {"eid": seq}) for seq in seqs]
    path.write_text("".join(lines))


class TestWriteAheadLog:
    def test_append_and_read_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append("insert", {"eid": 1, "mask": 0b11})
        wal.append("delete", {"eid": 1})
        records = wal.records()
        assert [(r.seq, r.op) for r in records] == [(1, "insert"), (2, "delete")]
        assert records[0].payload == {"eid": 1, "mask": 3}

    def test_reopen_resumes_sequence(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append("insert", {"eid": 1, "mask": 1})
        wal.close()
        wal = WriteAheadLog(path)
        assert wal.last_seq == 1
        wal.append("insert", {"eid": 2, "mask": 1})
        assert [r.seq for r in wal.records()] == [1, 2]

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append("insert", {"eid": 1, "mask": 1})
        wal.append("insert", {"eid": 2, "mask": 1})
        wal.close()
        # simulate a crash mid-append: half of the last record is gone
        content = path.read_text()
        path.write_text(content[:-10])
        reopened = WriteAheadLog(path)
        assert reopened.torn_records_dropped == 1
        assert [r.payload["eid"] for r in reopened.records()] == [1]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append("insert", {"eid": 1, "mask": 1})
        wal.append("insert", {"eid": 2, "mask": 1})
        wal.close()
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:12] + "X" + lines[1][13:]  # flip inside record 1
        path.write_text("".join(lines))
        with pytest.raises(WALFormatError):
            read_wal(path)

    def test_sequence_gap_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append("insert", {"eid": 1, "mask": 1})
        wal.append("insert", {"eid": 2, "mask": 1})
        wal.close()
        lines = path.read_text().splitlines(keepends=True)
        del lines[1]  # drop record 1, keep record 2: a gap, not a tail
        path.write_text("".join(lines))
        with pytest.raises(WALFormatError):
            read_wal(path)

    def test_a_header_field_cannot_switch_the_gap_check_off(self, tmp_path):
        """The gap check has no off switch: a header field the reader
        does not know (the retired ``compactions`` count) relaxes
        nothing."""
        path = tmp_path / "wal.log"
        write_log(path, {"compactions": 1, "last_seq": 3}, [1, 3])
        with pytest.raises(WALFormatError, match="WAL sequence gap"):
            read_wal(path)
        with pytest.raises(WALFormatError, match="WAL sequence gap"):
            WriteAheadLog(path)

    def test_log_with_the_earlier_header_shape_opens(self, tmp_path):
        """Every node WAL written so far carries ``"compactions": 0``
        and ``last_seq`` in its header; it must open and resume."""
        path = tmp_path / "wal.log"
        write_log(
            path, {"compactions": 0, "last_seq": 7}, [8, 9], basis_seq=7
        )
        with WriteAheadLog(path) as wal:
            assert (wal.basis_seq, wal.last_seq) == (7, 9)
            assert wal.append("insert", {"eid": 10}) == 10
        basis_seq, records, torn = read_wal(path)
        assert (basis_seq, [r.seq for r in records], torn) == (7, [8, 9, 10], 0)

    def test_sync_appends_are_counted(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append("insert", {"eid": 1, "mask": 1})
        wal.append("insert", {"eid": 2, "mask": 1}, sync=True)
        assert wal.syncs == 1

    def test_not_a_wal_raises(self, tmp_path):
        path = tmp_path / "other.log"
        path.write_text("hello world\n")
        with pytest.raises(WALFormatError):
            read_wal(path)

    def test_reset_records_basis(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append("insert", {"eid": 1, "mask": 1})
        wal.append("insert", {"eid": 2, "mask": 1})
        wal.reset(basis_seq=2)
        assert wal.records() == []
        assert wal.basis_seq == 2
        seq = wal.append("insert", {"eid": 3, "mask": 1})
        assert seq == 3  # sequence numbers continue across checkpoints


class TestClosedLog:
    """Using a closed WAL is a clear, typed error — not a bare
    ``ValueError: I/O operation on closed file`` from the file object."""

    def closed_wal(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append("insert", {"eid": 1, "mask": 1})
        wal.close()
        return wal

    def test_append_after_close(self, tmp_path):
        wal = self.closed_wal(tmp_path)
        with pytest.raises(WALClosedError, match="append"):
            wal.append("insert", {"eid": 2, "mask": 1})

    def test_sync_after_close(self, tmp_path):
        wal = self.closed_wal(tmp_path)
        with pytest.raises(WALClosedError, match="sync"):
            wal.sync()

    def test_reset_after_close(self, tmp_path):
        wal = self.closed_wal(tmp_path)
        with pytest.raises(WALClosedError, match="reset"):
            wal.reset(basis_seq=1)

    def test_error_names_the_log(self, tmp_path):
        wal = self.closed_wal(tmp_path)
        with pytest.raises(WALClosedError) as caught:
            wal.append("insert", {"eid": 2, "mask": 1})
        assert str(wal.path) in str(caught.value)

    def test_is_a_value_error(self, tmp_path):
        """The serving node's abort-mid-batch path catches ``(OSError,
        ValueError)`` to un-ack queued writes when the journal goes
        away — the typed error must stay inside that net."""
        assert issubclass(WALClosedError, ValueError)

    def test_close_is_idempotent(self, tmp_path):
        wal = self.closed_wal(tmp_path)
        wal.close()  # no error the second time
        # reads never needed the handle: the file is still consultable
        assert [r.seq for r in wal.records()] == [1]
