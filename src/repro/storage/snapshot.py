"""Snapshot persistence for Cinderella-partitioned tables.

Saves a :class:`~repro.table.partitioned.CinderellaTable` — configuration,
attribute dictionary, and the exact partition membership with all entity
payloads — to a single JSON file, and restores it without re-running the
partitioning algorithm.  Restoring replays each partition's members in
stored order, so the split-starter pairs are rebuilt deterministically
with the same incremental rule the online algorithm uses (the pair after
restore equals the pair a fresh partition would reach when fed its
members in that order; the *placement* of every entity is preserved
exactly).

The format is versioned and checksummed: every snapshot carries a CRC32
over its canonical payload, so truncation and byte-level corruption are
always detected at load time.  Loaders reject unknown versions,
malformed payloads, and checksum mismatches with
:class:`SnapshotFormatError` rather than guessing.

A *node checkpoint* (:func:`save_node_checkpoint` /
:func:`load_node_checkpoint`) is the same body plus ``wal_seq``, the
write-ahead-log position it covers — the basis a serving node
(:mod:`repro.server`) restarts from and :mod:`repro.backup` archives.
"""

from __future__ import annotations

import base64
import json
import os
import zlib
from pathlib import Path
from typing import Any, Union

from repro.core.config import CinderellaConfig
from repro.core.sizes import (
    AttributeCountSizeModel,
    ByteSizeModel,
    SizeModel,
    UniformSizeModel,
)

FORMAT_VERSION = 2
NODE_CHECKPOINT_FORMAT = "repro-cinderella-node-checkpoint"
NODE_CHECKPOINT_VERSION = 1

_SIZE_MODELS: dict[str, type[SizeModel]] = {
    "UniformSizeModel": UniformSizeModel,
    "AttributeCountSizeModel": AttributeCountSizeModel,
    "ByteSizeModel": ByteSizeModel,
}


class SnapshotFormatError(ValueError):
    """Raised when a snapshot file cannot be interpreted."""


def _encode_value(value: Any) -> Any:
    if isinstance(value, (bytes, bytearray)):
        return {"$bytes": base64.b64encode(bytes(value)).decode("ascii")}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"$bytes"}:
            return base64.b64decode(value["$bytes"])
        raise SnapshotFormatError(f"unexpected nested object value: {value!r}")
    return value


def _payload_checksum(document: dict) -> str:
    """CRC32 over the canonical JSON of everything but the checksum."""
    payload = {key: value for key, value in document.items() if key != "checksum"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(canonical.encode('utf-8')) & 0xFFFFFFFF:08x}"


def _write_document(document: dict, path: Union[str, Path]) -> None:
    """Stamp the checksum and write atomically via a temp file.

    The temp file is fsynced before the rename, so a crash anywhere in
    this function leaves either the previous snapshot or the complete
    new one under the final name — never a torn file.  Checkpoint
    ordering rests on this: the WAL may only be truncated once the
    snapshot covering it has *returned* from here.
    """
    document["checksum"] = _payload_checksum(document)
    target = Path(path)
    temporary = target.with_suffix(target.suffix + ".tmp")
    with temporary.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(document))
        handle.flush()
        os.fsync(handle.fileno())
    temporary.replace(target)


def _read_document(path: Union[str, Path], expected_format: str) -> dict:
    """Read, parse, and integrity-check a snapshot document."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        # ValueError covers both JSONDecodeError and the UnicodeDecodeError
        # a byte-flipped file raises before JSON even sees it.
        raise SnapshotFormatError(f"cannot read snapshot {path}: {error}") from error
    if not isinstance(document, dict) or document.get("format") != expected_format:
        raise SnapshotFormatError(f"{path} is not a {expected_format} file")
    return document


def _verify_checksum(document: dict, path: Union[str, Path]) -> None:
    stated = document.get("checksum")
    if stated != _payload_checksum(document):
        raise SnapshotFormatError(
            f"snapshot {path} failed its integrity check "
            f"(checksum {stated!r}) — the file is corrupted"
        )


def _table_document(table) -> dict:
    """The snapshot body shared by table snapshots and node checkpoints:
    config, dictionary, and exact partition membership with payloads."""
    config = table.config
    size_model_name = type(config.size_model).__name__
    if size_model_name not in _SIZE_MODELS:
        raise SnapshotFormatError(
            f"cannot persist custom size model {size_model_name}"
        )
    partitions = []
    for partition in table.catalog:
        members = []
        for eid, _mask, _size in partition.members():
            entity = table.get(eid)
            members.append(
                {
                    "eid": eid,
                    "attributes": {
                        name: _encode_value(value)
                        for name, value in entity.attributes.items()
                    },
                }
            )
        partitions.append({"members": members})
    return {
        "config": {
            "max_partition_size": config.max_partition_size,
            "weight": config.weight,
            "size_model": size_model_name,
            "use_synopsis_index": config.use_synopsis_index,
            "selection": config.selection,
            "exact_starters": config.exact_starters,
        },
        "page_size": table.page_size,
        "dictionary": list(table.dictionary.names()),
        "partitions": partitions,
    }


def _table_from_document(document: dict, path):
    """Rebuild a :class:`CinderellaTable` from a snapshot body."""
    from repro.catalog.dictionary import AttributeDictionary
    from repro.table.partitioned import CinderellaTable

    try:
        config_doc = document["config"]
        size_model_cls = _SIZE_MODELS[config_doc["size_model"]]
        config = CinderellaConfig(
            max_partition_size=config_doc["max_partition_size"],
            weight=config_doc["weight"],
            size_model=size_model_cls(),
            use_synopsis_index=config_doc["use_synopsis_index"],
            selection=config_doc["selection"],
            exact_starters=config_doc["exact_starters"],
        )
        dictionary = AttributeDictionary(document["dictionary"])
        table = CinderellaTable(
            config=config,
            dictionary=dictionary,
            page_size=document["page_size"],
        )
        for partition_doc in document["partitions"]:
            table._restore_partition(
                [
                    (
                        member["eid"],
                        {
                            name: _decode_value(value)
                            for name, value in member["attributes"].items()
                        },
                    )
                    for member in partition_doc["members"]
                ]
            )
    except SnapshotFormatError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        # ValueError: a checksum-valid body the table refuses, e.g. one
        # entity listed in two partitions
        raise SnapshotFormatError(f"malformed snapshot {path}: {error}") from error
    return table


def save_table(table, path: Union[str, Path]) -> None:
    """Write a snapshot of *table* to *path* (JSON, atomic via temp file)."""
    document = {
        "format": "repro-cinderella-snapshot",
        "version": FORMAT_VERSION,
        **_table_document(table),
    }
    _write_document(document, path)


def load_table(path: Union[str, Path]):
    """Restore a :class:`CinderellaTable` from a snapshot file.

    Partition membership is restored exactly (partition ids are freshly
    assigned); no rating or splitting runs during the load.
    """
    document = _read_document(path, "repro-cinderella-snapshot")
    if document.get("version") != FORMAT_VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot version {document.get('version')!r}"
        )
    _verify_checksum(document, path)
    return _table_from_document(document, path)


def save_node_checkpoint(table, wal_seq: int, path: Union[str, Path]) -> None:
    """Checkpoint a serving node's table to *path*.

    A node checkpoint is a table snapshot plus ``wal_seq`` — the journal
    position it covers.  Recovery loads the checkpoint and replays only
    WAL records with a later sequence number, so replay work is bounded
    by the writes since the last checkpoint instead of the node's whole
    history.
    """
    document = {
        "format": NODE_CHECKPOINT_FORMAT,
        "version": NODE_CHECKPOINT_VERSION,
        "wal_seq": wal_seq,
        **_table_document(table),
    }
    _write_document(document, path)


def load_node_checkpoint(path: Union[str, Path]):
    """Restore a node checkpoint; returns ``(table, wal_seq)``.

    ``wal_seq`` is the journal position the checkpoint covers; the
    caller must skip WAL records at or below it when replaying.
    """
    document = _read_document(path, NODE_CHECKPOINT_FORMAT)
    if document.get("version") != NODE_CHECKPOINT_VERSION:
        raise SnapshotFormatError(
            f"unsupported node checkpoint version {document.get('version')!r}"
        )
    _verify_checksum(document, path)
    wal_seq = document.get("wal_seq")
    if not isinstance(wal_seq, int):
        raise SnapshotFormatError(f"node checkpoint {path} lacks a wal_seq")
    return _table_from_document(document, path), wal_seq
