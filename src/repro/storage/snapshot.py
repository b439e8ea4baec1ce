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

This module also persists the *distributed coordinator*
(:func:`save_store` / :func:`load_store`): the full catalog — exact
partition ids, members, and split-starter pairs — plus the cluster's
replica placement and node health.  Together with the write-ahead log
(:mod:`repro.storage.wal`) this is the coordinator's crash-recovery
basis: ``load_store`` restores the checkpointed state bit-for-bit and
the WAL tail replays deterministically on top of it.
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
STORE_FORMAT_VERSION = 1
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
    except (KeyError, TypeError) as error:
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


# ----------------------------------------------------------------------
# distributed coordinator snapshots (checkpoint basis for WAL recovery)
# ----------------------------------------------------------------------
def save_store(store, path: Union[str, Path]) -> None:
    """Checkpoint a :class:`DistributedUniversalStore` to *path*.

    Persists the coordinator's exact state: partition ids, members (in
    insertion order), split-starter pairs, partitioner counters, and the
    cluster's replica placement and node health.  ``wal_seq`` records
    the journal position this snapshot covers; recovery replays only
    WAL records after it.  Only Cinderella partitioners are supported —
    baselines carry partitioner-specific state this format does not
    model.
    """
    from repro.core.partitioner import CinderellaPartitioner

    if not isinstance(store.partitioner, CinderellaPartitioner):
        raise SnapshotFormatError(
            "only CinderellaPartitioner-backed stores can be persisted"
        )
    config = store.partitioner.config
    size_model_name = type(config.size_model).__name__
    if size_model_name not in _SIZE_MODELS:
        raise SnapshotFormatError(
            f"cannot persist custom size model {size_model_name}"
        )
    partitions = []
    for partition in store.catalog:
        starters = partition.starters
        partitions.append({
            "pid": partition.pid,
            "members": [
                [eid, mask, size] for eid, mask, size in partition.members()
            ],
            "starters": [
                starters.eid_a, starters.mask_a,
                starters.eid_b, starters.mask_b,
            ],
        })
    cluster = store.cluster
    document = {
        "format": "repro-cinderella-store-snapshot",
        "version": STORE_FORMAT_VERSION,
        "config": {
            "max_partition_size": config.max_partition_size,
            "weight": config.weight,
            "size_model": size_model_name,
            "use_synopsis_index": config.use_synopsis_index,
            "selection": config.selection,
            "exact_starters": config.exact_starters,
        },
        "split_count": store.partitioner.split_count,
        "ratings_computed": store.partitioner.ratings_computed,
        "next_pid": store.catalog.next_partition_id,
        "partitions": partitions,
        "cluster": {
            "node_count": len(cluster),
            "replication_factor": cluster.replication_factor,
            "nodes": [
                {
                    "node_id": node.node_id,
                    "state": node.state.value,
                    "slowdown": node.slowdown,
                    "drop_every": node.drop_every,
                }
                for node in cluster.nodes
            ],
            "replicas": [
                [pid, list(cluster.replica_nodes(pid))]
                for pid in sorted(cluster.partition_ids())
            ],
            "sizes": [
                [pid, cluster.partition_size(pid)]
                for pid in sorted(cluster.partition_ids())
            ],
            "unhosted": sorted(cluster.unhosted_partitions()),
        },
        "wal_seq": store.wal.last_seq if store.wal is not None else 0,
        "applied_op_ids": sorted(store.applied_op_ids),
    }
    _write_document(document, path)


def load_store(store_path: Union[str, Path], network=None):
    """Restore a coordinator checkpoint; returns ``(store, wal_seq)``.

    The restored store is bit-for-bit the checkpointed one: same
    partition ids, members, starter pairs, replica placement, and node
    health.  ``wal_seq`` is the journal position the snapshot covers.
    """
    from repro.core.partitioner import CinderellaPartitioner
    from repro.distributed.failures import NodeState
    from repro.distributed.store import DistributedUniversalStore

    document = _read_document(store_path, "repro-cinderella-store-snapshot")
    if document.get("version") != STORE_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"unsupported store snapshot version {document.get('version')!r}"
        )
    _verify_checksum(document, store_path)
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
        cluster_doc = document["cluster"]
        store = DistributedUniversalStore(
            cluster_doc["node_count"],
            CinderellaPartitioner(config),
            network=network,
            replication_factor=cluster_doc["replication_factor"],
        )
        catalog = store.catalog
        for partition_doc in document["partitions"]:
            partition = catalog.create_partition_with_id(partition_doc["pid"])
            for eid, mask, size in partition_doc["members"]:
                catalog.add_entity(
                    partition.pid, eid, mask, size, observe_starters=False
                )
            starters = partition.starters
            (starters.eid_a, starters.mask_a,
             starters.eid_b, starters.mask_b) = partition_doc["starters"]
        catalog.next_partition_id = document["next_pid"]
        store.partitioner.split_count = document["split_count"]
        store.partitioner.ratings_computed = document["ratings_computed"]
        cluster = store.cluster
        for node_doc in cluster_doc["nodes"]:
            node = cluster.nodes[node_doc["node_id"]]
            node.state = NodeState(node_doc["state"])
            node.slowdown = node_doc["slowdown"]
            node.drop_every = node_doc["drop_every"]
        sizes = {pid: size for pid, size in cluster_doc["sizes"]}
        cluster._sizes = dict(sizes)
        cluster._replica_nodes = {
            pid: list(nids) for pid, nids in cluster_doc["replicas"] if nids
        }
        cluster._unhosted = set(cluster_doc["unhosted"])
        for pid, nids in cluster._replica_nodes.items():
            for nid in nids:
                node = cluster.nodes[nid]
                node.partitions.add(pid)
                node.load += sizes[pid]
        wal_seq = document["wal_seq"]
        # absent in pre-ingest-hardening snapshots — default to empty
        store.applied_op_ids = set(document.get("applied_op_ids", ()))
    except (KeyError, TypeError, IndexError, ValueError) as error:
        if isinstance(error, SnapshotFormatError):
            raise
        raise SnapshotFormatError(
            f"malformed store snapshot {store_path}: {error}"
        ) from error
    problems = store.check_placement()
    if problems:
        raise SnapshotFormatError(
            f"store snapshot {store_path} is internally inconsistent: "
            f"{problems[:3]}"
        )
    return store, wal_seq
