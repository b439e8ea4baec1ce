"""The traced run: one op stream replayed at every boundary of the stack.

The first ops of connection 0's stream — after the same set-up as the
untraced run — are replayed with one connection and window 1, so per-op
times add along the blocking path, at each boundary in turn:

    core      CinderellaPartitioner on masks; reads are catalog plans
    table     CinderellaTable (+ QueryResultCache), merges every few ops
    durable   table + txn + SnapshotManager.publish + WriteAheadLog,
              reads from the published TableSnapshot
    codec     durable + request decode and response encode
    node      one serve process over loopback
    router1   route process → 1 node, rf=1
    router3   route process → 3 nodes, rf=2
    (node+obs one serve process with --obs: a side branch, not a rung)

A layer's self-time is its boundary's mean per-op time minus the
boundary below it, or a span's own duration for leaf calls.  At window
1 every write is its own group commit at every boundary, in process and
over the wire alike; what batching buys shows in the end-to-end runs
(``server.batch_size_mean``), not here.

Spans — (boundary, layer, op, start, end, parent) — are recorded by this
file around its calls into each layer's public functions, kept in
memory, and written to ``out/trace-<workload>.jsonl`` at the end.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.catalog.dictionary import AttributeDictionary
from repro.core.efficiency import catalog_efficiency
from repro.core.partitioner import CinderellaPartitioner
from repro.query.rewrite import rewrite
from repro.query.snapshot import SnapshotManager
from repro.server import protocol
from repro.storage.record import serialize_record
from repro.storage.wal import WriteAheadLog

import procs
from calibrate import Scale
import workloads
from streams import DELETE, INSERT, QUERY, UPDATE, Stream
from workloads import Metric, RunResult, Workload

#: ops of connection 0's stream the ladder replays
TRACE_OPS = 2_000
#: the table boundary runs a merge pass every this many ops
TRACE_MERGE_EVERY = 250
#: share of ``--seconds`` the untraced phase (layer counts under the
#: real load shape) gets, and the share the top boundary may take; the
#: boundaries below it replay exactly the ops the top boundary finished
COUNTS_SHARE = 0.2
TOP_SHARE = 0.15

CHAIN = ("core", "table", "durable", "codec", "node", "router1", "router3")
_LAYER_OF = {
    "core": "repro.core + catalog",
    "table": "repro.table / storage / query.cache",
    "durable": "repro.txn + storage.wal + query.snapshot",
    "codec": "repro.server.protocol",
    "node": "repro.server",
    "router1": "repro.router (1 node)",
    "router3": "repro.router fan-out (3 nodes, rf=2)",
}

Span = tuple[str, str, int, float, float, Optional[int]]
#: the leaf span that is a wait for the disk, not CPU work
DISK_LEAF = "wal.sync"


@dataclass
class Boundary:
    """What one replay measured: a time per op and leaf-call durations."""

    name: str
    seconds: list[float] = field(default_factory=list)
    leaves: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, Metric] = field(default_factory=dict)
    #: wall time of the whole replay loop (in-process replays)
    wall: float = 0.0
    #: seconds at reference machine speed per second measured during
    #: this replay (see ``calibrate.py``)
    scale: float = 1.0
    #: per op, the part of ``seconds`` spent waiting for the disk, which
    #: a slower machine does not stretch (in-process replays; empty = none)
    waits: list[float] = field(default_factory=list)
    #: ops answered non-ok or structurally wrong (networked replays)
    failed: int = 0

    def mean_us(self, ops: Sequence[tuple], reads: Optional[bool] = None) -> float:
        """Mean per-op time over all *ops*, or over its reads / writes."""
        picked = [
            (seconds - wait) * self.scale + wait
            for op, seconds, wait in zip(
                ops, self.seconds, self.waits or repeat(0.0)
            )
            if reads is None or (op[0] == QUERY) == reads
        ]
        return statistics.fmean(picked) * 1e6 if picked else 0.0

    def leaf_us(self, name: str) -> float:
        values = self.leaves.get(name)
        scale = 1.0 if name == DISK_LEAF else self.scale
        return statistics.fmean(values) * scale * 1e6 if values else 0.0


class Tracer:
    """Spans in memory until the ladder ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    @staticmethod
    def cost_per_span(samples: int = 100_000) -> float:
        """Seconds it takes to record one span, measured on many."""
        spans: list[Span] = []
        clock = time.perf_counter
        started = clock()
        for position in range(samples):
            spans.append(("core", "core.insert", position, started, started, None))
        return (clock() - started) / samples

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for boundary, layer, op, start, end, parent in self.spans:
                handle.write(json.dumps({
                    "boundary": boundary, "layer": layer, "op": op,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")


# ----------------------------------------------------------------------
# in-process boundaries
# ----------------------------------------------------------------------
def replay_core(workload, inputs, ops, shapes, tracer: Tracer) -> Boundary:
    """The partitioner alone, on masks; a read is its catalog plan."""
    boundary = Boundary("core")
    dictionary = AttributeDictionary()
    partitioner = CinderellaPartitioner(workloads.table_config(workload))

    def encoded(eid, attributes):
        # what CinderellaTable computes before it calls the partitioner
        return (
            dictionary.encode(attributes),
            len(serialize_record(eid, attributes, dictionary)),
        )

    for entity in inputs.entities[:workload.preload]:
        mask, size = encoded(entity.entity_id, entity.attributes)
        partitioner.insert(entity.entity_id, mask, payload_bytes=size)
    prepared = [
        encoded(key, attributes) if attributes is not None else None
        for _kind, key, attributes in ops
    ]
    catalog = partitioner.catalog
    clock = time.perf_counter
    with Scale() as scale:
        for position, (kind, key, _attributes) in enumerate(ops):
            started = clock()
            if kind == QUERY:
                rewrite(shapes[key], catalog, dictionary)
            elif kind == INSERT:
                partitioner.insert(key, prepared[position][0], payload_bytes=prepared[position][1])
            elif kind == UPDATE:
                partitioner.update(key, prepared[position][0], payload_bytes=prepared[position][1])
            else:
                partitioner.delete(key)
            ended = clock()
            boundary.seconds.append(ended - started)
            layer = "catalog.plan" if kind == QUERY else f"core.{kind}"
            tracer.spans.append(("core", layer, position, started, ended, None))
    boundary.wall, boundary.scale = scale.seconds, scale.ratio
    return boundary


def replay_table(workload, inputs, ops, shapes, lines, tracer: Tracer) -> Boundary:
    """The embedded API: ``CinderellaTable`` with a result cache, and a
    merge pass every :data:`TRACE_MERGE_EVERY` ops."""
    boundary = Boundary("table")
    table = workloads.new_table(workload, inputs.entities[:workload.preload])
    partitioner = table.partitioner
    ratings_before = partitioner.ratings_computed
    splits_before = partitioner.split_count
    io_before = table.io.snapshot()
    merges = boundary.leaves.setdefault("maintenance.merge", [])
    rated = moves = merged = user = 0
    reads = rows = entities_read = pages = pruned = total = hits = lookups = 0
    clock = time.perf_counter
    with Scale() as scale:
        for position, (kind, key, attributes) in enumerate(ops):
            started = clock()
            if kind == QUERY:
                stats = table.execute(shapes[key]).stats
            else:
                outcome = workloads.apply_write(table, kind, key, attributes)
            ended = clock()
            boundary.seconds.append(ended - started)
            tracer.spans.append(("table", f"table.{kind}", position, started, ended, None))
            if kind == QUERY:
                reads += 1
                rows += stats.rows_returned
                entities_read += stats.entities_read
                pages += stats.pages_read
                pruned += stats.partitions_pruned
                total += stats.partitions_total
                hits += stats.cache_hits
                lookups += stats.cache_hits + stats.cache_misses
            else:
                rated += kind != DELETE
                if outcome.splits:
                    moves += len(outcome.moves)
                user += len(lines[position])
            if (position + 1) % TRACE_MERGE_EVERY == 0 or position + 1 == len(ops):
                started = clock()
                merged += table.merge_small_partitions(workloads.MERGE_MIN_FILL).merge_count
                ended = clock()
                merges.append(ended - started)
                tracer.spans.append(
                    ("table", "maintenance.merge", position, started, ended, None)
                )
    boundary.wall, boundary.scale = scale.seconds, scale.ratio
    splits = partitioner.split_count - splits_before
    written = table.io.delta_since(io_before).bytes_written
    wide = [shape.synopsis_mask(table.dictionary) for shape in inputs.wide]
    ratings = partitioner.ratings_computed - ratings_before
    boundary.counts = {
        "core.ratings_per_insert": Metric(ratings / max(rated, 1), "count"),
        "core.splits": Metric(splits, "count"),
        "core.moves_per_split": Metric(moves / max(splits, 1), "count"),
        "core.partitions": Metric(len(table.catalog), "count"),
        "core.efficiency": Metric(catalog_efficiency(table.catalog, wide), "share"),
        "catalog.pruned_share": Metric(pruned / max(total, 1), "share"),
        "table.rows_per_query": Metric(rows / max(reads, 1), "count"),
        "table.entities_read_per_row": Metric(entities_read / max(rows, 1), "count"),
        "storage.pages_read_per_query": Metric(pages / max(reads, 1), "count"),
        "storage.bytes_per_user_byte": Metric(written / max(user, 1), "B/B"),
        "query.cache_hit_share": Metric(hits / max(lookups, 1), "share"),
        "maintenance.partitions_merged": Metric(merged, "count"),
    }
    return boundary


def replay_durable(
    workload, inputs, ops, shapes, lines: Sequence[bytes], workdir: Path,
    tracer: Tracer,
) -> tuple[Boundary, Boundary]:
    """The ``durable`` and ``codec`` boundaries, in one pass.

    Durable is what one group commit of the server does, called
    directly: a catalog transaction with a savepoint around the table
    call, a snapshot publish, a WAL append and an fsync — per write,
    because at window 1 every write is a batch.  A read is served from
    the latest published snapshot as a wire fragment.  Codec wraps each
    such op in the server's side of the wire format: the request line is
    decoded first and the response line built last.  Timing both in the
    same pass keeps one fsync's jitter from landing between them.
    """
    durable, codec = Boundary("durable"), Boundary("codec")
    table = workloads.new_table(workload, inputs.entities[:workload.preload])
    manager = SnapshotManager()
    manager.publish(table)
    leaves: dict[str, list[float]] = {
        leaf: [] for leaf in (
            "txn.batch", "snapshot.publish", "wal.append", "wal.sync",
            "snapshot.serve_query", "codec.decode_request",
            "codec.encode_response", "codec.encode_request",
            "codec.decode_response",
        )
    }
    durable.leaves = codec.leaves = leaves
    waits = durable.waits = codec.waits = []
    spans = tracer.spans
    response_bytes = user = cached = reads = 0
    clock = time.perf_counter
    with WriteAheadLog(workdir / "ladder.wal") as wal:
        with Scale() as scale:
            for position, (kind, key, attributes) in enumerate(ops):
                started = clock()
                request = protocol.decode_request(lines[position].strip())
                inner = clock()
                if kind == QUERY:
                    fragment, _count, from_cache = manager.latest.serve_query(shapes[key])
                    served = clock()
                    leaves["snapshot.serve_query"].append(served - inner)
                    spans.append(("durable", "snapshot.serve_query", position, inner, served, position))
                    reads += 1
                    cached += from_cache
                    line = b'{"id":' + str(request.id).encode() + fragment
                    ended = clock()
                else:
                    txn = table.catalog.begin_transaction()
                    txn.savepoint()
                    t1 = clock()
                    outcome = workloads.apply_write(table, kind, key, attributes)
                    t2 = clock()
                    txn.commit()
                    t3 = clock()
                    manager.publish(table)
                    t4 = clock()
                    payload = {"eid": key}
                    if attributes is not None:
                        payload["attributes"] = attributes
                    wal.append(kind, payload, sync=False)
                    t5 = clock()
                    wal.sync()
                    served = clock()
                    line = protocol.encode_response(
                        request.id, protocol.APPLIED, eid=outcome.entity_id,
                        partition=outcome.partition_id, splits=outcome.splits,
                        moves=len(outcome.moves), in_place=outcome.in_place,
                    )
                    ended = clock()
                    leaves["txn.batch"].append((t1 - inner) + (t3 - t2))
                    leaves["snapshot.publish"].append(t4 - t3)
                    leaves["wal.append"].append(t5 - t4)
                    leaves[DISK_LEAF].append(served - t5)
                    leaves["codec.encode_response"].append(ended - served)
                    spans.append(("durable", "txn.begin+savepoint", position, inner, t1, position))
                    spans.append(("durable", f"table.{kind}", position, t1, t2, position))
                    spans.append(("durable", "txn.commit", position, t2, t3, position))
                    spans.append(("durable", "snapshot.publish", position, t3, t4, position))
                    spans.append(("durable", "wal.append", position, t4, t5, position))
                    spans.append(("durable", "wal.sync", position, t5, served, position))
                    spans.append(("codec", "codec.encode_response", position, served, ended, position))
                    user += len(lines[position])
                leaves["codec.decode_request"].append(inner - started)
                waits.append(served - t5 if kind != QUERY else 0.0)
                durable.seconds.append(served - inner)
                codec.seconds.append(ended - started)
                spans.append(("codec", "codec.decode_request", position, started, inner, position))
                spans.append(("durable", f"durable.{kind}", position, inner, served, position))
                spans.append(("codec", f"codec.{kind}", position, started, ended, None))
                # the client's side of the format: not on a node's blocking
                # path (requests are pre-encoded, responses read as lines),
                # but paid by the router once per hop
                response_bytes += len(line)
                t0 = clock()
                protocol.decode_response(line)
                t1 = clock()
                fields: dict[str, Any] = {"eid": key}
                if kind == QUERY:
                    fields = {"attributes": list(shapes[key].attributes)}
                elif attributes is not None:
                    fields["attributes"] = attributes
                protocol.encode_request(kind, position, **fields)
                t2 = clock()
                leaves["codec.decode_response"].append(t1 - t0)
                leaves["codec.encode_request"].append(t2 - t1)
        durable.wall = codec.wall = scale.seconds
        durable.scale = codec.scale = scale.ratio
        writes = len(ops) - reads
        durable.counts = {
            "wal.syncs_per_write": Metric(wal.syncs / max(writes, 1), "count"),
            "wal.bytes_per_user_byte": Metric(wal.size_bytes() / max(user, 1), "B/B"),
            "snapshot.response_cache_hit_share": Metric(cached / max(reads, 1), "share"),
            "codec.response_bytes_per_op":
                Metric(response_bytes / max(len(ops), 1), "B"),
        }
    return durable, codec


# ----------------------------------------------------------------------
# networked boundaries
# ----------------------------------------------------------------------
def replay_networked(
    name: str, topology: Workload, stream: Stream, shapes,
    preload: Sequence[bytes], limit: int, cutoff_s: Optional[float],
    tracer: Tracer, obs: bool = False,
) -> Boundary:
    """One connection, window 1, against a freshly set-up topology."""
    program = workloads.launch(topology, preload, obs=obs)
    try:
        driven = workloads.drive(
            program, topology, [stream], shapes, 1, cutoff_s, limit
        )
    finally:
        program.close()
    (conn,) = driven.conns
    for position, (sent, taken) in enumerate(zip(conn.sent_at, conn.latencies)):
        tracer.spans.append(
            (name, f"{name}.{stream.ops[position][0]}", position,
             sent, sent + taken, None)
        )
    return Boundary(
        name, seconds=conn.latencies, counts=driven.counts,
        scale=driven.timings.ratio(), failed=len(conn.failed),
    )


def _topology(workload: Workload, nodes: int, router: bool, rf: int) -> Workload:
    """The workload's data and mix on another arrangement of processes."""
    return replace(workload, nodes=nodes, router=router, replication_factor=rf)


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def run_traced(workload: Workload, seed: int, seconds: float) -> RunResult:
    # layer counts under the real load shape, and the correctness checks
    result = workloads.run_untraced(
        workload, seed, seconds * COUNTS_SHARE, once=True
    )
    untraced_counts = dict(result.counts)
    result.metrics.clear()
    result.counts.clear()

    inputs, streams = workloads.prepare(
        workload, seed, workloads.stream_length(workload, seconds)
    )
    stream = streams[0]
    shapes = inputs.shapes(workload.mix.shapes)
    preload = workloads.preload_lines(inputs, workload.preload)
    tracer = Tracer()
    boundaries: dict[str, Boundary] = {}

    # the slowest boundary goes first, inside a time box; every other
    # boundary then replays exactly the ops it got through
    box = seconds * TOP_SHARE
    boundaries["router3"] = replay_networked(
        "router3", _topology(workload, 3, True, 2), stream, shapes, preload,
        min(TRACE_OPS, len(stream)), box, tracer,
    )
    ops = stream.ops[:len(boundaries["router3"].seconds)]
    node = _topology(workload, 1, False, 1)
    for name, topology, obs in (
        ("router1", _topology(workload, 1, True, 1), False),
        ("node+obs", node, True),
        ("node", node, False),
    ):
        boundaries[name] = replay_networked(
            name, topology, stream, shapes, preload, len(ops), None, tracer, obs=obs
        )
    with procs.scratch_dir() as scratch:
        boundaries["durable"], boundaries["codec"] = replay_durable(
            workload, inputs, ops, shapes, stream.payloads, Path(scratch), tracer
        )
    boundaries["table"] = replay_table(
        workload, inputs, ops, shapes, stream.payloads, tracer
    )
    boundaries["core"] = replay_core(workload, inputs, ops, shapes, tracer)
    tracer.write(procs.OUT / f"trace-{workload.name}.jsonl")

    failed = sum(boundary.failed for boundary in boundaries.values())
    result.attempted += len(ops) * 4
    result.failed += failed
    if failed:
        result.problems.append(f"{failed} replayed ops failed")

    counts = result.counts

    def put(name: str, value: float, unit: str) -> None:
        counts[name] = Metric(value, unit)

    def rung(upper: str, lower: Optional[str], reads: Optional[bool]) -> float:
        below = boundaries[lower].mean_us(ops, reads) if lower else 0.0
        return boundaries[upper].mean_us(ops, reads) - below

    put("core.write_us", rung("core", None, False), "us")
    put("catalog.plan_us", rung("core", None, True), "us")
    put("table.write_us", rung("table", "core", False), "us")
    put("table.read_us", rung("table", "core", True), "us")
    durable, codec = boundaries["durable"], boundaries["codec"]
    put("txn.batch_us", durable.leaf_us("txn.batch"), "us")
    put("wal.append_us", durable.leaf_us("wal.append"), "us")
    put("wal.sync_us", durable.leaf_us("wal.sync"), "us")
    put("snapshot.publish_us", durable.leaf_us("snapshot.publish"), "us")
    put("snapshot.serve_query_us", durable.leaf_us("snapshot.serve_query"), "us")
    for leaf in ("encode_request", "decode_request", "encode_response", "decode_response"):
        put(f"codec.{leaf}_us", codec.leaf_us(f"codec.{leaf}"), "us")
    put("server.added_read_us", rung("node", "codec", True), "us")
    put("server.added_write_us", rung("node", "codec", False), "us")
    put("obs.added_us_per_op", rung("node+obs", "node", None), "us")
    put("router.added_read_us", rung("router1", "node", True), "us")
    put("router.added_write_us", rung("router1", "node", False), "us")
    put("router.fanout_added_read_us", rung("router3", "router1", True), "us")
    put("router.fanout_added_write_us", rung("router3", "router1", False), "us")
    put("maintenance.merge_ms", boundaries["table"].leaf_us("maintenance.merge") / 1e3, "ms")
    # A bare replay cannot resolve a sub-percent effect on a machine whose
    # speed wanders by ±15% from second to second, so: the measured cost of
    # recording a span, times the spans of the boundary with the cheapest
    # ops (one per op), over that boundary's time
    put("gen.trace_overhead_share",
        Tracer.cost_per_span() * len(ops) / boundaries["core"].wall, "share")

    # counts: the ladder's own, then — for a tier the workload's topology
    # lacks — the boundary that introduces it, then everything the
    # untraced phase read off the program under the real load shape
    merged = {**boundaries["table"].counts, **durable.counts}
    if not workload.nodes:
        merged.update(boundaries["node"].counts)
    if not workload.router:
        merged.update(
            (name, metric) for name, metric in boundaries["router3"].counts.items()
            if name.startswith("router.")
        )
    merged.update(untraced_counts)
    for name, metric in merged.items():
        counts.setdefault(name, metric)

    print_budget(workload, boundaries, ops, counts)
    return result


def print_budget(workload, boundaries, ops, counts) -> None:
    """µs/op each layer adds, summing to the top boundary's per-op time."""
    reads = sum(1 for op in ops if op[0] == QUERY)
    print(f"-- budget · {workload.name} · {len(ops)} ops replayed ({reads} reads,"
          f" {len(ops) - reads} writes), 1 connection, window 1 --")
    print(f"   {'boundary':<10} {'layer':<42} {'all us/op':>11} {'read us':>11} {'write us':>11}")
    below = None
    for name in CHAIN:
        row = [
            boundaries[name].mean_us(ops, kind)
            - (boundaries[below].mean_us(ops, kind) if below else 0.0)
            for kind in (None, True, False)
        ]
        print(f"   {name:<10} {_LAYER_OF[name]:<42} {row[0]:>11.1f} {row[1]:>11.1f} {row[2]:>11.1f}")
        below = name
    top = boundaries[CHAIN[-1]]
    print(f"   {'=':<10} {'router3 measured per-op time':<42}"
          f" {top.mean_us(ops):>11.1f} {top.mean_us(ops, True):>11.1f}"
          f" {top.mean_us(ops, False):>11.1f}")
    print(f"   {'node+obs':<10} {'repro.obs (side branch, over node)':<42}"
          f" {counts['obs.added_us_per_op'].value:>11.1f}")
    durable = boundaries["durable"]
    print("   leaf spans inside 'durable' (us per call): " + ", ".join(
        f"{leaf} {durable.leaf_us(leaf):.1f}"
        for leaf in ("txn.batch", "snapshot.publish", "wal.append", "wal.sync",
                     "snapshot.serve_query")
    ))
    print("   server under the real load shape: " + ", ".join(
        f"{name} {counts[name].value:.3f}"
        for name in ("server.batch_size_mean", "server.cpu_busy_share",
                     "server.added_write_us")
    ))
    print(flush=True)
