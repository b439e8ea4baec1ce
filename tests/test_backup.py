"""The backup subsystem: node checkpoints, WAL archiving, and PITR.

Three batteries:

* :class:`TestBackupArchive` — the on-disk archive contract: idempotent
  atomic writes, overlapping segments deduplicated by sequence, and the
  at-rest scrub catching every corruption it claims to catch.
* :class:`TestCheckpointCrashMatrix` — the checkpoint ordering proof:
  kill the checkpoint at *every* step, recover from what is on disk,
  and land exactly on the pre-crash state with no write applied twice
  and none lost.
* :class:`TestPointInTimeRecovery` — ``restore_to_seq`` rebuilds the
  exact historical state for every archived sequence, twice-restored
  states are bit-for-bit identical, and a gap in the archived history
  is an error instead of a silent partial restore.

Beside them, :class:`TestLiveEqualsReplay`: the WAL a serving node wrote
replays into the table it served (one interpreter, ``apply_record``,
reads a record on both sides).
"""

import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.backup import (
    CHECKPOINT_STEPS,
    BackupArchive,
    BackupError,
    checkpoint_node,
    replay_into_table,
    restore_to_seq,
)
from repro.core.config import CinderellaConfig
from repro.obs import runtime as obs
from repro.server import CinderellaServer, ServerConfig, ServerThread
from repro.server.client import ServerClient
from repro.storage.snapshot import (
    SnapshotFormatError,
    load_node_checkpoint,
    save_node_checkpoint,
)
from repro.storage.wal import WriteAheadLog, read_wal
from repro.table.partitioned import CinderellaTable
from repro.txn.crash import CrashInjector, MidOperationCrash


def table_signature(table):
    """Logical state: every entity with its exact attributes."""
    return sorted(
        (entity.entity_id, tuple(sorted(entity.attributes.items())))
        for entity in table.scan()
    )


def journaled_table(wal_path, n=30):
    """A table whose every write is journaled, like a serving node's."""
    wal = WriteAheadLog(wal_path)
    table = CinderellaTable()
    for eid in range(n):
        attributes = {"uid": f"u{eid}", "v": eid, f"a{eid % 3}": True}
        table.insert(attributes, entity_id=eid)
        wal.append("insert", {"eid": eid, "attributes": attributes})
    wal.sync()
    return table, wal


class TestBackupArchive:
    def test_segment_round_trip(self, tmp_path):
        _table, wal = journaled_table(tmp_path / "node.wal")
        archive = BackupArchive(tmp_path / "archive")
        path = archive.archive_segment(wal.basis_seq, wal.records())
        assert path is not None and path.exists()
        segments = archive.segments()
        assert [(s.first_seq, s.last_seq) for s in segments] == [(1, 30)]
        _basis, records, torn = read_wal(path)
        assert torn == 0
        assert [r.seq for r in records] == list(range(1, 31))
        assert records == wal.records()
        wal.close()

    def test_archiving_is_idempotent(self, tmp_path):
        _table, wal = journaled_table(tmp_path / "node.wal")
        archive = BackupArchive(tmp_path / "archive")
        first = archive.archive_segment(wal.basis_seq, wal.records())
        before = first.read_bytes()
        again = archive.archive_segment(wal.basis_seq, wal.records())
        assert again == first
        assert first.read_bytes() == before  # kept, not rewritten
        assert len(archive.segments()) == 1
        wal.close()

    def test_empty_wal_archives_nothing(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "empty.wal")
        archive = BackupArchive(tmp_path / "archive")
        assert archive.archive_segment(wal.basis_seq, wal.records()) is None
        assert archive.segments() == []
        wal.close()

    def test_gapped_tail_is_refused_not_relabelled(self, tmp_path):
        """A tail that skips a sequence number, or does not start right
        above its basis, is lost history — archiving it would launder
        the loss into a segment that scrubs clean."""
        _table, wal = journaled_table(tmp_path / "node.wal", n=3)
        archive = BackupArchive(tmp_path / "archive")
        rec1, rec2, rec3 = wal.records()
        with pytest.raises(BackupError, match="not gap-free"):
            archive.archive_segment(0, [rec1, rec3])
        with pytest.raises(BackupError, match="not gap-free"):
            archive.archive_segment(0, [rec2, rec3])
        assert archive.segments() == []
        assert not archive.segments_dir.exists()
        wal.close()

    def test_overlapping_segments_deduplicate_by_seq(self, tmp_path):
        """A crash between archive and truncate re-archives overlapping
        ranges; reading history back must not double-apply them."""
        _table, wal = journaled_table(tmp_path / "node.wal", n=20)
        archive = BackupArchive(tmp_path / "archive")
        records = wal.records()
        archive.archive_segment(0, records[:15])     # seqs 1..15
        archive.archive_segment(9, records[9:])      # seqs 10..20 (overlap)
        merged = archive.records_through()
        assert [r.seq for r in merged] == list(range(1, 21))
        assert archive.last_archived_seq() == 20
        wal.close()

    def test_records_through_respects_bounds(self, tmp_path):
        _table, wal = journaled_table(tmp_path / "node.wal", n=20)
        archive = BackupArchive(tmp_path / "archive")
        archive.archive_segment(wal.basis_seq, wal.records())
        window = archive.records_through(to_seq=12, after_seq=5)
        assert [r.seq for r in window] == list(range(6, 13))
        wal.close()

    def test_scrub_clean_archive(self, tmp_path):
        table, wal = journaled_table(tmp_path / "node.wal")
        archive = BackupArchive(tmp_path / "archive")
        checkpoint_node(table, wal, tmp_path / "node.snapshot", archive=archive)
        report = archive.scrub()
        assert report["problems"] == []
        assert report["checkpoints_verified"] == 1
        assert report["segments_verified"] == 1
        assert report["records_verified"] == 30
        wal.close()

    def test_scrub_catches_corrupt_segment(self, tmp_path):
        table, wal = journaled_table(tmp_path / "node.wal")
        archive = BackupArchive(tmp_path / "archive")
        checkpoint_node(table, wal, tmp_path / "node.snapshot", archive=archive)
        segment = archive.segments()[0].path
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[3] = lines[3].replace(b'"insert"', b'"infect"', 1)
        segment.write_bytes(b"".join(lines))
        report = archive.scrub()
        assert any("checksum" in p for p in report["problems"])
        wal.close()

    def test_scrub_catches_corrupt_checkpoint(self, tmp_path):
        table, wal = journaled_table(tmp_path / "node.wal")
        archive = BackupArchive(tmp_path / "archive")
        checkpoint_node(table, wal, tmp_path / "node.snapshot", archive=archive)
        checkpoint = archive.checkpoints()[0].path
        document = json.loads(checkpoint.read_text())
        document["partitions"][0]["members"] = []
        checkpoint.write_text(json.dumps(document))
        report = archive.scrub()
        assert report["problems"], "tampered checkpoint passed the scrub"
        wal.close()

    def test_scrub_catches_mislabeled_checkpoint(self, tmp_path):
        table, wal = journaled_table(tmp_path / "node.wal")
        snapshot = tmp_path / "node.snapshot"
        save_node_checkpoint(table, 30, snapshot)
        archive = BackupArchive(tmp_path / "archive")
        archive.archive_checkpoint(snapshot, 99)  # filename lies
        report = archive.scrub()
        assert any("filename claims" in p for p in report["problems"])
        wal.close()


class TestNodeCheckpoint:
    def test_checkpoint_resets_wal_and_bounds_replay(self, tmp_path):
        table, wal = journaled_table(tmp_path / "node.wal")
        report = checkpoint_node(table, wal, tmp_path / "node.snapshot")
        assert report["wal_seq"] == 30
        assert report["records_truncated"] == 30
        assert wal.records() == []
        assert wal.basis_seq == 30
        # post-checkpoint writes land in the (now tiny) journal
        table.insert({"uid": "late"}, entity_id=100)
        wal.append("insert", {"eid": 100, "attributes": {"uid": "late"}},
                   sync=True)
        restored, checkpoint_seq = load_node_checkpoint(
            tmp_path / "node.snapshot"
        )
        assert checkpoint_seq == 30
        _basis, records, _torn = read_wal(wal.path)
        replayed = replay_into_table(restored, records,
                                     after_seq=checkpoint_seq)
        assert replayed == 1  # only the post-checkpoint suffix
        assert table_signature(restored) == table_signature(table)
        wal.close()

    def test_seq_skip_never_applies_twice(self, tmp_path):
        """Replaying records the checkpoint already covers is a no-op."""
        table, wal = journaled_table(tmp_path / "node.wal")
        save_node_checkpoint(table, wal.last_seq, tmp_path / "node.snapshot")
        restored, checkpoint_seq = load_node_checkpoint(
            tmp_path / "node.snapshot"
        )
        replayed = replay_into_table(
            restored, wal.records(), after_seq=checkpoint_seq
        )
        assert replayed == 0
        assert table_signature(restored) == table_signature(table)
        wal.close()

    def test_restart_replays_journaled_sync_records(self, tmp_path):
        """A node that restarts *after* a resync replays the sync
        records its WAL journaled — the peer's copy must win again."""
        from repro.storage.snapshot import _encode_value

        def encoded(attributes):
            return {
                name: _encode_value(value)
                for name, value in attributes.items()
            }

        wal = WriteAheadLog(tmp_path / "node.wal")
        table = CinderellaTable()
        for eid in range(8):
            attributes = {"uid": f"u{eid}", "common": eid % 3}
            table.insert(attributes, entity_id=eid)
            wal.append("insert", {"eid": eid, "attributes": attributes})
        # the resync the node lived through: shard 1 of 4 wiped, then
        # the peer's copy streamed in — a rewritten u1 (two overlapping
        # delta pages), u5 unchanged, u9 the node had never seen
        wal.append("sync_reset", {"n_shards": 4, "shards": [1]})
        wal.append("sync_put", {
            "eid": 1, "attributes": encoded({"uid": "u1-stale", "common": 0}),
        })
        peer_copy = {
            1: {"uid": "u1-peer", "common": 9},
            5: {"uid": "u5", "common": 2},
            9: {"uid": "u9", "common": 0},
        }
        for eid, attributes in peer_copy.items():
            wal.append("sync_put", {"eid": eid, "attributes": encoded(attributes)})
        wal.sync()
        for eid in (1, 5):  # mirror the resync on the live table
            table.delete(eid)
        for eid, attributes in peer_copy.items():
            table.insert(attributes, entity_id=eid)

        recovered = CinderellaTable()
        _basis, records, torn = read_wal(wal.path)
        assert torn == 0
        assert replay_into_table(recovered, records) == len(records)
        assert table_signature(recovered) == table_signature(table)
        assert recovered.check_consistency() == []
        wal.close()


    def test_records_the_table_refuses_are_skipped_not_fatal(self, tmp_path):
        """A kind this version does not know, a record already reflected,
        and an insert an earlier version journaled with an id no record
        can carry: each is skipped with an event, the rest replay."""
        wal = WriteAheadLog(tmp_path / "node.wal")
        wal.append("insert", {"eid": 1, "attributes": {"a": 1}})
        wal.append("compact", {"level": 3})
        wal.append("insert", {"eid": 1, "attributes": {"a": 9}})
        wal.append("delete", {"eid": 404})
        wal.append("insert", {"eid": 2**70, "attributes": {"a": 2}})
        wal.append("insert", {"attributes": {"a": 3}})
        wal.sync()
        table = CinderellaTable()
        state = obs.enable(trace=False)
        try:
            assert replay_into_table(table, wal.records()) == 2
        finally:
            obs.disable()
        skipped = state.events.of_kind("backup.replay_skip")
        assert [(e.fields["seq"], e.fields["op"]) for e in skipped] == [
            (2, "compact"), (3, "insert"), (4, "delete"), (5, "insert"),
        ]
        assert table_signature(table) == [(1, (("a", 1),)), (2, (("a", 3),))]
        assert table.check_consistency() == []
        wal.close()


def small_table():
    return CinderellaTable(CinderellaConfig(
        max_partition_size=4.0, weight=0.3, use_synopsis_index=True
    ))


#: (kind, eid, attribute): a small id space, so inserts collide with
#: stored ids and updates/deletes miss — the refusals are part of it
LIVE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "update", "delete"]),
        st.integers(0, 9),
        st.integers(0, 3),
    ),
    min_size=2, max_size=40,
)


class TestLiveEqualsReplay:
    @given(ops=LIVE_OPS, reset_shard=st.integers(0, 2))
    @settings(max_examples=15)
    def test_a_nodes_wal_replays_into_the_table_it_served(self, ops, reset_shard):
        def send(client, kind, eid, attr):
            fields = {"eid": eid}
            if kind != "delete":
                fields["attributes"] = {"common": eid % 2, f"attr{attr}": eid}
            return client.request(kind, **fields).status

        with tempfile.TemporaryDirectory() as root:
            wal_path = Path(root) / "node.wal"
            server = CinderellaServer(table=small_table(), config=ServerConfig(
                wal_path=wal_path, maintenance_interval_s=0,
            ))
            with ServerThread(server=server) as harness:
                with ServerClient(*harness.address, check=False) as client:
                    half = len(ops) // 2
                    statuses = [send(client, *op) for op in ops[:half]]
                    # a resync page in the middle: one shard wiped, a
                    # peer's copy of two of its entities streamed in
                    delta = client.request(
                        "sync_delta",
                        reset={"n_shards": 3, "shards": [reset_shard]},
                        entities=[
                            {"eid": eid, "attributes": {"peer": eid}}
                            for eid in (reset_shard, reset_shard + 3)
                        ],
                    )
                    assert delta.ok
                    statuses += [send(client, *op) for op in ops[half:]]
            assert set(statuses) <= {"applied", "rejected"}
            live = server.table  # quiescent: the harness drained and joined
            _basis, records, torn = read_wal(wal_path)
            assert torn == 0
            # a refused write is not journaled; the delta is three records
            assert len(records) == statuses.count("applied") + 3
            replayed = small_table()
            assert replay_into_table(replayed, records) == len(records)
        assert table_signature(replayed) == table_signature(live)
        assert replayed.check_consistency() == []
        assert live.check_consistency() == []


def recover_from_disk(snapshot_path, wal_path):
    """What a restarting node does: checkpoint basis + WAL tail replay."""
    table, checkpoint_seq = None, 0
    if snapshot_path.exists():
        try:
            table, checkpoint_seq = load_node_checkpoint(snapshot_path)
        except SnapshotFormatError:
            table, checkpoint_seq = None, 0
    if table is None:
        table = CinderellaTable()
    _basis, records, _torn = read_wal(wal_path)
    replayed = replay_into_table(table, records, after_seq=checkpoint_seq)
    return table, replayed


class TestCheckpointCrashMatrix:
    """Kill the checkpoint at every step; recovery must be exact."""

    def test_crash_at_every_step_recovers_exactly(self, tmp_path):
        # dry run to learn the step labels actually walked
        table, wal = journaled_table(tmp_path / "dry.wal")
        counter = CrashInjector()
        checkpoint_node(
            table, wal, tmp_path / "dry.snapshot",
            archive=BackupArchive(tmp_path / "dry-archive"),
            crash_hook=counter.reached,
        )
        wal.close()
        assert counter.labels == list(CHECKPOINT_STEPS)

        for crash_at, label in enumerate(CHECKPOINT_STEPS):
            tag = f"crash{crash_at}"
            table, wal = journaled_table(tmp_path / f"{tag}.wal")
            # a pre-existing older checkpoint, as any steady-state node has
            snapshot = tmp_path / f"{tag}.snapshot"
            archive = BackupArchive(tmp_path / f"{tag}-archive")
            checkpoint_node(table, wal, snapshot, archive=archive)
            for eid in range(30, 42):
                attributes = {"uid": f"u{eid}", "v": eid}
                table.insert(attributes, entity_id=eid)
                wal.append("insert", {"eid": eid, "attributes": attributes})
            wal.sync()
            before = table_signature(table)
            with pytest.raises(MidOperationCrash):
                checkpoint_node(
                    table, wal, snapshot, archive=archive,
                    crash_hook=CrashInjector(crash_at).reached,
                )
            wal.close()  # the crash took the process; file state stands
            recovered, _replayed = recover_from_disk(
                snapshot, tmp_path / f"{tag}.wal"
            )
            assert table_signature(recovered) == before, (
                f"crash at step {crash_at} ({label}) lost or duplicated "
                f"writes on recovery"
            )
            assert recovered.check_consistency() == []

    def test_crash_then_retry_archives_identical_bytes(self, tmp_path):
        """The idempotent-archive contract under crash-retry: the retry
        after a crash between archive and truncate changes nothing."""
        table, wal = journaled_table(tmp_path / "retry.wal")
        archive = BackupArchive(tmp_path / "retry-archive")
        reset_step = CHECKPOINT_STEPS.index("reset_wal")
        with pytest.raises(MidOperationCrash):
            checkpoint_node(
                table, wal, tmp_path / "retry.snapshot", archive=archive,
                crash_hook=CrashInjector(reset_step).reached,
            )
        first = {p.path.name: p.path.read_bytes() for p in archive.segments()}
        checkpoint_node(
            table, wal, tmp_path / "retry.snapshot", archive=archive
        )
        after = {p.path.name: p.path.read_bytes() for p in archive.segments()}
        for name, payload in first.items():
            assert after[name] == payload
        wal.close()


class TestPointInTimeRecovery:
    def build_history(self, tmp_path, checkpoints_at=(10, 25)):
        """A node's life: inserts, updates, deletes, periodic checkpoints.

        Returns (archive, states) where states[seq] is the logical table
        state immediately after the write with that sequence applied.
        """
        wal = WriteAheadLog(tmp_path / "node.wal")
        table = CinderellaTable()
        archive = BackupArchive(tmp_path / "archive")
        states = {}
        for step in range(1, 36):
            if step % 7 == 0 and step > 7:
                table.update(step - 5, {"uid": f"u{step - 5}", "rev": step})
                wal.append("update", {
                    "eid": step - 5,
                    "attributes": {"uid": f"u{step - 5}", "rev": step},
                })
            elif step % 11 == 0:
                table.delete(step - 9)
                wal.append("delete", {"eid": step - 9})
            else:
                attributes = {"uid": f"u{step}", "v": step}
                table.insert(attributes, entity_id=step)
                wal.append("insert", {"eid": step, "attributes": attributes})
            states[wal.last_seq] = table_signature(table)
            if wal.last_seq in checkpoints_at:
                wal.sync()
                checkpoint_node(
                    table, wal, tmp_path / "node.snapshot", archive=archive
                )
        wal.sync()
        # archive the live tail too (what `repro backup` does)
        archive.archive_segment(wal.basis_seq, wal.records())
        wal.close()
        return archive, states

    def test_restore_every_historical_seq_exactly(self, tmp_path):
        archive, states = self.build_history(tmp_path)
        for seq, expected in states.items():
            restored, restored_seq = restore_to_seq(archive, to_seq=seq)
            assert restored_seq == seq
            assert table_signature(restored) == expected, (
                f"restore --to-seq {seq} did not land on the exact state"
            )

    def test_restore_is_bit_for_bit_reproducible(self, tmp_path):
        archive, states = self.build_history(tmp_path)
        seq = max(states)
        once, _ = restore_to_seq(archive, to_seq=seq)
        twice, _ = restore_to_seq(archive, to_seq=seq)
        save_node_checkpoint(once, seq, tmp_path / "once.json")
        save_node_checkpoint(twice, seq, tmp_path / "twice.json")
        assert (tmp_path / "once.json").read_bytes() == \
            (tmp_path / "twice.json").read_bytes()

    def test_restore_defaults_to_newest_archived(self, tmp_path):
        archive, states = self.build_history(tmp_path)
        restored, seq = restore_to_seq(archive)
        assert seq == max(states)
        assert table_signature(restored) == states[seq]

    def test_gap_in_history_is_an_error(self, tmp_path):
        archive, states = self.build_history(tmp_path)
        # destroy the middle of history: the second checkpoint and the
        # segment covering it — restore must now bridge seqs 11..25
        # from the first checkpoint, and cannot
        middle = [s for s in archive.segments() if s.first_seq == 11]
        assert middle, "history did not produce the expected middle segment"
        middle[0].path.unlink()
        archive.checkpoints()[-1].path.unlink()
        with pytest.raises(BackupError, match="missing sequences"):
            restore_to_seq(archive, to_seq=max(states))

    def test_target_past_archive_end_is_an_error(self, tmp_path):
        archive, states = self.build_history(tmp_path)
        with pytest.raises(BackupError, match="ends at sequence"):
            restore_to_seq(archive, to_seq=max(states) + 10)

    def test_restore_before_first_checkpoint_replays_from_empty(
        self, tmp_path
    ):
        archive, states = self.build_history(tmp_path)
        restored, seq = restore_to_seq(archive, to_seq=5)
        assert seq == 5
        assert table_signature(restored) == states[5]


class TestBackupCli:
    def test_backup_recover_scrub_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        table, wal = journaled_table(tmp_path / "node.wal")
        snapshot = tmp_path / "node.snapshot"
        save_node_checkpoint(table, wal.last_seq, snapshot)
        wal.close()
        archive = tmp_path / "archive"
        assert main([
            "backup", "--wal", str(tmp_path / "node.wal"),
            "--archive", str(archive), "--snapshot", str(snapshot),
        ]) == 0
        assert main([
            "recover", "--archive", str(archive), "--to-seq", "30",
            "--out", str(tmp_path / "restored.json"),
        ]) == 0
        restored, seq = load_node_checkpoint(tmp_path / "restored.json")
        assert seq == 30
        assert table_signature(restored) == table_signature(table)
        assert main([
            "scrub", "--archive", str(archive), "--snapshot", str(snapshot),
        ]) == 0
        out = capsys.readouterr().out
        assert "backup integrity: OK" in out

    def test_scrub_fails_on_tampering(self, tmp_path, capsys):
        from repro.cli import main

        table, wal = journaled_table(tmp_path / "node.wal")
        snapshot = tmp_path / "node.snapshot"
        archive = BackupArchive(tmp_path / "archive")
        checkpoint_node(table, wal, snapshot, archive=archive)
        wal.close()
        segment = archive.segments()[0].path
        segment.write_bytes(segment.read_bytes()[:-20])
        assert main(["scrub", "--archive", str(tmp_path / "archive")]) == 1
        assert "FAILED" in capsys.readouterr().out
