"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def _subcommands() -> list[str]:
    """Every registered subcommand, straight from the parser.

    Enumerated dynamically so a newly added command is covered by the
    help smoke test without anyone remembering to list it here.
    """
    parser = build_parser()
    for action in parser._subparsers._group_actions:
        return sorted(action.choices)
    raise AssertionError("parser has no subcommands")


class TestHelpSmoke:
    """``--help`` must exit 0 and have no side effects, for every command."""

    @pytest.mark.parametrize("argv", [[]] + [[name] for name in _subcommands()])
    def test_help_exits_zero(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "usage:" in out
        assert list(tmp_path.iterdir()) == []  # no files, no sockets, nothing

    def test_all_commands_have_handlers(self):
        from repro.cli import _HANDLERS

        assert sorted(_HANDLERS) == _subcommands()


class TestDemo:
    def test_runs_and_prints_plan(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "partitions formed" in out
        assert "SELECT aperture, resolution" in out
        assert "pruned" in out


class TestDBpedia:
    def test_prints_partition_stats(self, capsys):
        assert main(["dbpedia", "--entities", "500", "--partition-size", "50"]) == 0
        out = capsys.readouterr().out
        assert "partitions" in out
        assert "median entities/partition" in out

    def test_saves_snapshot(self, tmp_path, capsys):
        snapshot = tmp_path / "table.json"
        code = main([
            "dbpedia", "--entities", "300", "--partition-size", "40",
            "--snapshot", str(snapshot),
        ])
        assert code == 0
        assert snapshot.exists()
        assert "snapshot written" in capsys.readouterr().out


class TestTpch:
    def test_reports_schema_recovery(self, capsys):
        assert main(["tpch", "--scale-factor", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "schema recovered exactly: True" in out

    def test_runs_a_query(self, capsys):
        assert main(["tpch", "--scale-factor", "0.001", "--query", "1"]) == 0
        out = capsys.readouterr().out
        assert "Q1:" in out


class TestAdvise:
    def test_prints_recommendation(self, capsys):
        assert main(["advise", "--entities", "400"]) == 0
        out = capsys.readouterr().out
        assert "recommended: B=" in out
        assert "Advisor trials" in out


class TestInspect:
    def test_inspects_snapshot(self, tmp_path, capsys):
        snapshot = tmp_path / "table.json"
        main([
            "dbpedia", "--entities", "300", "--partition-size", "40",
            "--snapshot", str(snapshot),
        ])
        capsys.readouterr()
        assert main(["inspect", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "entities" in out and "partitions" in out

    def test_bad_snapshot_is_an_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert main(["inspect", str(bogus)]) == 1
        assert "error:" in capsys.readouterr().err


class TestNodeCheckpointVerbs:
    """``inspect`` and ``verify-catalog`` read the one snapshot file the
    serving stack writes (``serve --snapshot``, ``checkpoint_node``,
    ``recover --out``), not only ``dbpedia --snapshot``'s."""

    WAL_SEQ = 4711

    @pytest.fixture
    def checkpoint(self, tmp_path):
        from repro.core.config import CinderellaConfig
        from repro.storage.snapshot import save_node_checkpoint
        from repro.table.partitioned import CinderellaTable

        table = CinderellaTable(CinderellaConfig(max_partition_size=8, weight=0.3))
        for i in range(40):
            table.insert({"common": i, f"attr{i % 4}": i}, entity_id=i)
        path = tmp_path / "node.ckpt"
        save_node_checkpoint(table, self.WAL_SEQ, path)
        return path, table

    def test_verify_catalog_accepts_a_node_checkpoint(self, checkpoint, capsys):
        path, table = checkpoint
        assert main(["verify-catalog", str(path)]) == 0
        out = capsys.readouterr().out
        assert (f"node checkpoint: {table.partition_count()} partitions, "
                f"40 entities, wal_seq={self.WAL_SEQ}") in out
        assert "catalog integrity: OK" in out

    def test_inspect_accepts_a_node_checkpoint(self, checkpoint, capsys):
        path, _table = checkpoint
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "entities" in out and "partitions" in out
        assert str(self.WAL_SEQ) in out

    @pytest.mark.parametrize("verb", ["verify-catalog", "inspect"])
    @pytest.mark.parametrize("restamp", [False, True])
    def test_tampered_member_list_is_refused(
        self, checkpoint, capsys, verb, restamp
    ):
        """An entity listed in two partitions: caught by the checksum,
        and — when the tamperer re-stamps it — by the loader."""
        import json

        from repro.storage.snapshot import _payload_checksum

        path, _table = checkpoint
        document = json.loads(path.read_text())
        partitions = document["partitions"]
        partitions[1]["members"].append(partitions[0]["members"][0])
        if restamp:
            document["checksum"] = _payload_checksum(document)
        path.write_text(json.dumps(document))
        assert main([verb, str(path)]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err or "invariant violation:" in captured.err
        assert "catalog integrity: OK" not in captured.out

    def test_unknown_format_is_named(self, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text('{"format": "something-else"}')
        assert main(["verify-catalog", str(other)]) == 1
        assert "format 'something-else'" in capsys.readouterr().err


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_query_range_enforced(self):
        with pytest.raises(SystemExit):
            main(["tpch", "--query", "23"])
