"""The asyncio serving layer: Cinderella answering live traffic.

One :class:`CinderellaServer` owns one
:class:`~repro.table.partitioned.CinderellaTable` and exposes it over
TCP with the line-delimited JSON protocol of
:mod:`repro.server.protocol`.  Listener, sessions, framing, request
accounting, the bounded drain and the connection loop are the front
door it shares with the router
(:class:`~repro.server.frontdoor.FrontDoor`); what is the node's own,
in one paragraph:

* its **dispatch rule**: a modification is validated, admitted and
  queued the moment its frame is decoded and answered once its batch
  is durable and published, so a connection's consecutive writes share
  a group commit; anything else is a barrier, served behind the
  connection's own queued writes, which gives every connection
  read-your-writes.  A connection owes at most ``batch_max`` answers —
  one batch's worth, the depth below which admission never sheds;
* every **query** (attribute query or SQL) is served from the latest
  :class:`~repro.query.snapshot.TableSnapshot` — an immutable MVCC view
  the writer publishes after every committed batch — directly on the
  event loop, with *no locking at all*: a read can never block on a
  writer and never observes a half-applied batch (snapshot isolation);
* every **modification** goes through *adaptive admission* first
  (:class:`~repro.server.admission.AdaptiveAdmission` — queue-based
  load leveling: the window tracks the batcher's measured drain rate
  under a target latency, bounded by ``max_pending``); submissions past
  the window are shed with the explicit ``overloaded`` status instead
  of queueing unboundedly — admitted writes are applied by the single
  **batcher** task, which drains up to ``batch_max`` queued writes and **group
  commits** them on a worker thread: one
  :class:`~repro.txn.transaction.CatalogTransaction` for the whole
  batch (per-op savepoints roll a refused write back exactly while the
  rest proceed), one WAL fsync covering every record, then one snapshot
  publish — durable before visible — and only then the acks.  There is
  no linger timer: the batcher takes what is queued after one turn of
  the loop, and the next batch fills while this one is applied and
  fsynced;
* **maintenance** (merge passes, optional reorganizations) runs as a
  cooperative background task between batches; one plain
  :class:`asyncio.Lock` orders the three writers — batcher, maintenance
  and resync deltas — and wakes waiters first-in first-out, so a
  maintenance pass waiting behind the current batch runs before the
  next one and the catalog keeps adapting while traffic flows — the
  paper's online setting made literal;
* **shutdown** is the front door's bounded drain; the node's part is
  to shed new writes with ``shutting_down``, flush the write queue and
  stop the batcher and maintenance tasks (reads are non-blocking, so
  there is nothing else to quiesce), then close its WAL.

A node's read path is therefore one path: latest snapshot →
per-snapshot response cache → per-partition and per-page chunk caches
→ decoded records (:mod:`repro.query.snapshot`) — also for the routing
tier's reads, whose ``shard_filter`` scopes the snapshot and is
otherwise one more component of the cache keys.  It stays coherent
because a snapshot is published only after its batch's transaction
commits and is never mutated afterwards: a response cache dies with its
snapshot, and a chunk cache lives on a partition state or a page view,
both immutable.  ``tests/test_server_soak.py``
and ``tests/test_isolation.py`` check served rows against naive
re-execution after a concurrent mixed workload.

Its write path has one interpreter: a batch's writes and a resync
delta are applied as the WAL records they are journaled as, by
:func:`repro.backup.apply_record` — the function restart replay and
point-in-time recovery read the journal back through.
"""

from __future__ import annotations

import asyncio
import json
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from repro.adapt.controller import AdaptationConfig, AdaptationController
from repro.backup import (
    BackupArchive,
    apply_record,
    checkpoint_node,
    replay_into_table,
)
from repro.core.config import CinderellaConfig
from repro.obs import runtime as obs
from repro.obs.counters import ServerCounters
from repro.obs.federation import local_obs_document
from repro.obs.registry import SERVER_LATENCY_BUCKETS
from repro.query.query import AttributeQuery
from repro.query.snapshot import ShardScope, SnapshotManager, TableSnapshot
from repro.server import protocol
from repro.server.admission import AdaptiveAdmission
from repro.server.frontdoor import (
    Answer,
    FrontDoor,
    Outcome,
    Raw,
    Refused,
    Session,
    Tier,
    request_trace_context,
)
from repro.server.protocol import Request
from repro.storage.page import PageFullError
from repro.storage.record import valid_entity_id, validate_value
from repro.storage.snapshot import (
    SnapshotFormatError,
    _decode_value,
    _encode_value,
    load_node_checkpoint,
)
from repro.storage.wal import WriteAheadLog
from repro.table.partitioned import CinderellaTable

# NOTE on spans: the tracer's span stack is per *thread*; concurrent
# tasks on the event loop would interleave enter/exit and mis-parent
# each other's spans if one were held across an ``await``.  Spans are
# therefore only opened around purely synchronous regions: batch
# application and maintenance passes on their worker thread, snapshot
# scans on the loop.

#: the ops that go through admission → queue → batcher
_WRITE_OPS = frozenset(("insert", "update", "delete"))

# the batch-apply and group-commit (WAL fsync) spans double as latency
# histograms on the server-latency bucket preset — the default bounds
# leave the sub-10ms band where both live almost entirely in one bucket
obs.bind_span_histogram(
    "server.batch", "repro_server_batch_seconds",
    "Group-commit batch apply latency", buckets=SERVER_LATENCY_BUCKETS,
)
obs.bind_span_histogram(
    "server.group_commit", "repro_server_fsync_seconds",
    "Group-commit WAL fsync latency", buckets=SERVER_LATENCY_BUCKETS,
)


def _shard_scope(spec: Any) -> ShardScope:
    """Validate a ``{"n_shards", "shards"}`` object: a read's
    ``shard_filter``, a sync op's own pair, a ``sync_delta``'s ``reset``."""
    if not isinstance(spec, dict):
        spec = {}
    n_shards, shards = spec.get("n_shards"), spec.get("shards")
    if (
        type(n_shards) is not int
        or n_shards <= 0
        or not isinstance(shards, list)
        or not all(type(shard) is int for shard in shards)
    ):
        raise Refused(
            protocol.BAD_REQUEST, "bad_shard_spec",
            "a shard scope is {'n_shards': int > 0, 'shards': [int, ...]}",
        )
    return ShardScope(n_shards, frozenset(shards))


@dataclass
class ServerConfig:
    """Tunables of one serving instance (not the partitioning itself)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests, benchmarks)
    port: int = 0
    #: node name — labels metrics/events when several servers share a
    #: process (one per cluster node behind the router)
    name: str = "node"
    #: write-admission hard ceiling: the adaptive window never exceeds
    #: this many queued modifications (0 = admit nothing)
    max_pending: int = 256
    #: adaptive admission: the window is sized so a full queue drains
    #: within this latency at the batcher's measured rate
    admission_target_latency_s: float = 0.05
    #: modifications applied per group commit — and so, per connection,
    #: the answers it may owe before it stops reading, and the depth
    #: below which admission never sheds
    batch_max: int = 32
    #: cooperative maintenance cadence (seconds; 0 disables the task)
    maintenance_interval_s: float = 0.25
    #: merge threshold handed to the maintenance pass
    merge_min_fill: float = 0.25
    #: every Nth maintenance pass also reorganizes (0 = never)
    reorganize_every: int = 0
    #: durability journal: when set, every acknowledged write is in this
    #: WAL (group-committed per batch) before its ack leaves the server,
    #: and :meth:`start` replays the log so a restarted node rejoins
    #: with every acknowledged write intact
    wal_path: Optional[Union[str, Path]] = None
    #: node checkpoint file: when set (with ``wal_path``), checkpoints
    #: snapshot the table here and reset the WAL, so restart replay is
    #: bounded by the writes since the last checkpoint instead of the
    #: node's whole history
    snapshot_path: Optional[Union[str, Path]] = None
    #: checkpoint cadence: after this many journaled writes the next
    #: maintenance pass checkpoints (0 = only on ``maintain`` requests
    #: with ``checkpoint: true`` and at the end of a resync)
    checkpoint_every: int = 0
    #: backup archive root: when set, every checkpoint first archives
    #: the WAL segment it is about to truncate (and a copy of the
    #: snapshot), enabling point-in-time recovery via ``repro recover``
    archive_dir: Optional[Union[str, Path]] = None
    #: every Nth maintenance pass also consults the adaptation
    #: controller (0 disables the closed loop entirely)
    adapt_every: int = 0
    #: decision-pipeline tunables of the controller (defaults apply
    #: when ``adapt_every`` is set and this is left ``None``)
    adaptation: Optional[AdaptationConfig] = None


@dataclass
class _PendingWrite:
    """One admitted modification waiting for the batcher."""

    request: Request
    future: asyncio.Future


class CinderellaServer(FrontDoor):
    """A Cinderella table behind a TCP socket (see the module docstring)."""

    TIER = Tier(
        events="server",
        hop="node",
        request_seconds=(
            "repro_server_request_seconds",
            "Server request latency by op (admission wait included)",
        ),
        requests_total=(
            "repro_server_requests_total", "Server requests by op and status",
        ),
    )

    def __init__(
        self,
        table: Optional[CinderellaTable] = None,
        config: Optional[ServerConfig] = None,
        table_config: Optional[CinderellaConfig] = None,
    ) -> None:
        if table is None:
            if table_config is None:
                table_config = CinderellaConfig(
                    max_partition_size=500.0, weight=0.3,
                    use_synopsis_index=True,
                )
            table = CinderellaTable(table_config)
        self.table = table
        config = config if config is not None else ServerConfig()
        super().__init__(config, ServerCounters(), inflight=config.batch_max)
        #: the closed adaptation loop, consulted from the maintenance
        #: slot every ``adapt_every`` passes (None while disabled)
        self.adapt: Optional[AdaptationController] = None
        if self.config.adapt_every > 0:
            self.adapt = AdaptationController(self.config.adaptation)
            self.adapt.bind_table(self.table)
        #: orders the three writers (batcher, maintenance, sync deltas);
        #: readers never take it.  asyncio.Lock wakes waiters FIFO, so a
        #: waiting maintenance pass gets in behind the current batch
        self._write_lock = asyncio.Lock()
        self._write_queue: asyncio.Queue[_PendingWrite] = asyncio.Queue()
        self._snapshots = SnapshotManager()
        self._admission = AdaptiveAdmission(
            self.config.max_pending,
            target_latency_s=self.config.admission_target_latency_s,
            # a queue no deeper than one batch drains in one group
            # commit, and one pipelining connection may queue that many:
            # never shed below it, whatever the drain rate reads —
            # measured on the small batches of a quiet moment or a cold
            # start, it says little about what a full batch drains
            min_window=max(1, self.config.batch_max),
        )
        self._batcher_task: Optional[asyncio.Task] = None
        self._maintenance_task: Optional[asyncio.Task] = None
        self._writes_since_maintenance = 0
        self._maintenance_passes = 0
        self._wal: Optional[WriteAheadLog] = None
        self._archive: Optional[BackupArchive] = (
            BackupArchive(self.config.archive_dir)
            if self.config.archive_dir is not None else None
        )
        self._wal_writes_since_checkpoint = 0
        self._last_checkpoint_seq = 0

    # ------------------------------------------------------------------
    # lifecycle: the node's hooks into the front door
    # ------------------------------------------------------------------
    def _prepare(self) -> None:
        """With ``wal_path`` configured the journal is opened — and any
        existing records replayed into the table — *before* the socket
        binds, so a restarted node never serves a request against a
        state missing writes it acknowledged in a previous life."""
        self._recover_state()
        # first snapshot before the socket binds: a query can never find
        # no published state to serve from
        self._publish()

    def _launch(self) -> None:
        self._batcher_task = asyncio.create_task(
            self._batcher(), name="repro-server-batcher"
        )
        if self.config.maintenance_interval_s > 0:
            self._maintenance_task = asyncio.create_task(
                self._maintenance_loop(), name="repro-server-maintenance"
            )

    def _recover_state(self) -> None:
        """Restore durable state before binding: checkpoint, then WAL tail.

        With a checkpoint on disk the table is rebuilt from it and only
        WAL records *after* the covered sequence replay on top — the
        sequence skip is what makes recovery exact (a record is never
        applied twice).  A checkpoint that fails its integrity check is
        ignored in favor of full WAL replay, which is always correct as
        long as the journal reaches back to sequence zero.
        """
        checkpoint_seq = 0
        snapshot_path = self.config.snapshot_path
        if snapshot_path is not None and Path(snapshot_path).exists():
            try:
                self.table, checkpoint_seq = load_node_checkpoint(
                    snapshot_path
                )
            except SnapshotFormatError as err:
                checkpoint_seq = 0
                obs.event(
                    "server.checkpoint_rejected", node=self.config.name,
                    path=str(snapshot_path), error=str(err),
                )
            else:
                self._last_checkpoint_seq = checkpoint_seq
                obs.event(
                    "server.checkpoint_loaded", node=self.config.name,
                    path=str(snapshot_path), wal_seq=checkpoint_seq,
                )
        if self.config.wal_path is not None:
            self._open_and_replay_wal(after_seq=checkpoint_seq)
        if self.adapt is not None:
            # checkpoint load may have replaced the table object
            self.adapt.bind_table(self.table)

    def _open_and_replay_wal(self, after_seq: int = 0) -> None:
        """Open the durability journal and re-apply its records, skipping
        everything a loaded checkpoint already covers."""
        assert self.config.wal_path is not None
        self._wal = WriteAheadLog(self.config.wal_path)
        replayed = replay_into_table(
            self.table, self._wal.records(), after_seq=after_seq
        )
        self.counters.wal_records_replayed += replayed
        if replayed:
            obs.event(
                "server.wal_replayed", node=self.config.name,
                records=replayed, path=str(self.config.wal_path),
            )

    async def _quiesce(self, deadline: float) -> bool:
        """Flush queued writes, but only until *deadline* — past it,
        still-queued writes are refused with a typed ``shutting_down``
        status.  Reads never block: they serve from an immutable
        snapshot on the event loop, so there is no scan to quiesce."""
        forced = False
        obs.event("server.draining", queued=self._write_queue.qsize())
        # flush: the batcher keeps applying while the queue drains
        try:
            await asyncio.wait_for(
                self._write_queue.join(),
                timeout=max(0.0, deadline - time.monotonic()),
            )
        except asyncio.TimeoutError:
            forced = True
        if self._batcher_task is not None:
            self._batcher_task.cancel()
            await asyncio.gather(self._batcher_task, return_exceptions=True)
        if forced:
            # past the deadline with writes still queued: answer each
            # with a typed refusal instead of leaving futures hanging
            while not self._write_queue.empty():
                pending = self._write_queue.get_nowait()
                self._resolve(pending, Refused(
                    protocol.SHUTTING_DOWN, "drain_deadline",
                    "drain deadline reached before this write was applied",
                ))
                self._write_queue.task_done()
        if self._maintenance_task is not None:
            self._maintenance_task.cancel()
            await asyncio.gather(self._maintenance_task, return_exceptions=True)
        return forced

    def _release(self) -> None:
        if self._wal is not None:
            self._wal.close()

    async def abort(self) -> None:
        """Crash the node: RST every connection, cancel every task, drop
        queued-but-unacknowledged writes, keep only what the WAL already
        holds.  The chaos suite's kill switch — the durability contract
        is that acknowledged writes survive exactly this plus a restart
        (:meth:`start` replays the journal before binding)."""
        self._draining = True
        if self._listener is not None:
            self._listener.close()
        for task in (self._batcher_task, self._maintenance_task):
            if task is not None:
                task.cancel()
        for writer in list(self._writers.values()):
            transport = writer.transport
            if transport is not None:
                transport.abort()  # RST, no drain: the crash on the wire
        for task in list(self._conn_tasks):
            task.cancel()
        # writes admitted but never applied die silently, like a crash
        while not self._write_queue.empty():
            pending = self._write_queue.get_nowait()
            if not pending.future.done():
                pending.future.cancel()
            self._write_queue.task_done()
        self._release()
        obs.event("server.aborted", node=self.config.name)
        self._stopped.set()
        await asyncio.sleep(0)  # let cancellations propagate

    # ------------------------------------------------------------------
    # the dispatch rule
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        request: Request,
        session: Session,
        previous: Optional[asyncio.Future],
    ) -> Optional[asyncio.Future]:
        """Queue a write at once (or raise its refusal): the next frame
        is read while its batch fills, so a connection's consecutive
        writes share a group commit.  Anything else is a barrier, served
        once the connection's queued writes have published: a read sees
        every write sent before it."""
        if request.op in _WRITE_OPS:
            return self._handle_write(request)
        return None

    async def _route(self, request: Request, session: Session) -> Outcome:
        """Serve one request that is not a queued write."""
        op = request.op
        if op == "ping":
            return protocol.OK, {"payload": request.get("payload")}, None
        if op == "query":
            return await self._handle_query(request)
        if op == "sql":
            return await self._handle_sql(request)
        if op == "stats":
            return protocol.OK, self._stats_snapshot(), None
        if op == "obs":
            return protocol.OK, self._obs_snapshot(), None
        if op == "maintain":
            return await self._handle_maintain(request)
        if op == "sync_snapshot":
            return await self._handle_sync_snapshot(request)
        if op == "sync_delta":
            return await self._handle_sync_delta(request)
        if op == "shutdown":
            return self._shutdown(session)
        raise Refused(  # unreachable: decode_request validates ops
            protocol.BAD_REQUEST, "unknown_op", f"unhandled op {op!r}"
        )

    # ------------------------------------------------------------------
    # writes: admission → queue → batcher
    # ------------------------------------------------------------------
    def _handle_write(self, request: Request) -> asyncio.Future:
        """Validate, admit and queue one modification, or raise the
        refusal.  The future resolves, once the write's batch is durable
        and published, to its ack (:class:`Raw`) or to the
        :class:`Refused` the batcher answered it with."""
        if self._draining:
            self.counters.writes_shed_shutdown += 1
            raise Refused(
                protocol.SHUTTING_DOWN, "draining",
                "server is draining; no new modifications",
            )
        self._validate_write(request)
        if not self._admission.admit(self._write_queue.qsize()):
            # explicit shedding: nothing is enqueued, the client backs
            # off and resubmits
            self.counters.writes_shed_overloaded += 1
            obs.event(
                "server.shed", op=request.op,
                pending=self._write_queue.qsize(),
                window=self._admission.window,
            )
            raise Refused(
                protocol.OVERLOADED, "overloaded",
                f"write queue full ({self._write_queue.qsize()} pending, "
                f"window {self._admission.window}); back off and resubmit",
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._write_queue.put_nowait(_PendingWrite(request, future))
        depth = self._write_queue.qsize()
        if depth > self.counters.queue_high_watermark:
            self.counters.queue_high_watermark = depth
        obs.gauge_set(
            "repro_server_queue_depth", depth,
            "Modifications queued behind the batcher",
        )
        return future

    def _validate_write(self, request: Request) -> None:
        """Shape checks before admission: refuse before anything is
        enqueued."""
        op = request.op
        if op in ("insert", "update"):
            attributes = request.get("attributes")
            if not isinstance(attributes, dict) or not attributes:
                raise Refused(
                    protocol.REJECTED, "empty_synopsis",
                    f"{op} needs a non-empty 'attributes' object; Cinderella "
                    f"cannot rate an entity without attributes",
                )
            if not all(isinstance(name, str) for name in attributes):
                raise Refused(
                    protocol.REJECTED, "bad_attributes",
                    "attribute names must be strings",
                )
            try:
                for value in attributes.values():
                    validate_value(value)
            except ValueError as err:
                raise Refused(
                    protocol.REJECTED, "bad_attributes", str(err)
                ) from None
        eid = request.get("eid")
        if not valid_entity_id(eid) and (eid is not None or op != "insert"):
            raise Refused(
                protocol.REJECTED, "invalid_entity_id",
                f"{op} needs a non-negative integer 'eid' below 2**70, "
                f"got {eid!r}",
            )

    async def _batcher(self) -> None:
        """Drain queued writes in group-committed batches."""
        while True:
            first = await self._write_queue.get()
            # no linger timer: one turn of the loop lets every connection
            # with frames already in its buffer queue them, and the next
            # batch fills while this one is applied and fsynced
            await asyncio.sleep(0)
            batch = [first]
            while (
                len(batch) < self.config.batch_max
                and not self._write_queue.empty()
            ):
                batch.append(self._write_queue.get_nowait())
            started = time.perf_counter()
            async with self._write_lock:
                acked, refused = await asyncio.to_thread(
                    self._apply_batch, batch
                )
            # asyncio futures are not thread-safe: verdicts come back
            # from the worker thread and resolve here, on the loop —
            # and only after the publish inside _apply_batch, so every
            # acked client immediately reads its own write
            for pending, refusal in refused:
                self._resolve(pending, refusal)
            for pending, _payload, raw in acked:
                self._resolve(pending, raw)
            self._admission.observe_batch(
                len(batch), time.perf_counter() - started
            )
            self.counters.admission_window = self._admission.window
            obs.observe(
                "repro_server_batch_size", len(batch),
                "Writes drained per group commit",
            )
            self.counters.batches_flushed += 1
            self._writes_since_maintenance += len(batch)
            for _ in batch:
                self._write_queue.task_done()
            obs.gauge_set(
                "repro_server_queue_depth", self._write_queue.qsize(),
                "Modifications queued behind the batcher",
            )

    def _apply_batch(
        self, batch: list[_PendingWrite]
    ) -> tuple[
        list[tuple[_PendingWrite, dict[str, Any], Raw]],
        list[tuple[_PendingWrite, Refused]],
    ]:
        """Group-commit one batch on a worker thread.

        One undo-log transaction covers the whole batch; a savepoint
        before each operation rolls a refused write back exactly while
        the batch's earlier successes stand.  After the commit every
        success is journaled, one fsync — the group commit — makes them
        all durable, and only then is the new state published as a
        snapshot: no connection reads a write a crash could still lose.
        Nothing here touches futures (asyncio futures are not
        thread-safe): verdicts return to the batcher for resolution.
        """
        acked: list[tuple[_PendingWrite, dict[str, Any], Raw]] = []
        refused: list[tuple[_PendingWrite, Refused]] = []
        txn = self.table.catalog.begin_transaction()
        try:
            with obs.span("server.batch", size=len(batch)):
                for pending in batch:
                    request = pending.request
                    savepoint = txn.savepoint()
                    try:
                        payload, outcome = self._apply_to_table(request)
                    except Refused as refusal:
                        txn.rollback_to(savepoint)
                        self.counters.writes_rejected += 1
                        refused.append((pending, refusal))
                    except Exception as err:
                        # unexpected — the savepoint restores the exact
                        # pre-op catalog, so one poisoned request cannot
                        # corrupt the batch
                        txn.rollback_to(savepoint)
                        self.counters.writes_rejected += 1
                        obs.event(
                            "server.write_rollback", op=request.op,
                            error=f"{type(err).__name__}: {err}",
                        )
                        refused.append((pending, Refused(
                            protocol.ERROR, "internal",
                            f"{type(err).__name__}: {err}",
                        )))
                    else:
                        self.counters.writes_applied += 1
                        # pre-serialize the ack on the worker thread:
                        # the loop splices the request id in front of
                        # this fragment instead of re-encoding JSON
                        acked.append((pending, payload, Raw(
                            protocol.APPLIED,
                            (
                                f',"ok":true,"status":"applied"'
                                f',"eid":{outcome.entity_id}'
                                ',"partition":'
                                f'{json.dumps(outcome.partition_id)}'
                                f',"splits":{outcome.splits}'
                                f',"moves":{len(outcome.moves)}'
                                f',"in_place":'
                                f'{"true" if outcome.in_place else "false"}'
                                "}\n"
                            ).encode(),
                        )))
        except BaseException:
            txn.rollback()
            raise
        txn.commit()
        if self._wal is not None and acked:
            for pending, payload, _raw in acked:
                self._wal.append(pending.request.op, payload, sync=False)
                self.counters.wal_writes_logged += 1
                self._wal_writes_since_checkpoint += 1
            try:
                with obs.span("server.group_commit", records=len(acked)):
                    self._wal.sync()
            except (OSError, ValueError):
                # the journal vanished under us (abort mid-batch): a
                # write that is not durable must not be acked — every
                # would-be ack becomes a typed refusal so no client
                # hangs on an unresolved future
                refused.extend(
                    (pending, Refused(
                        protocol.ERROR, "not_durable",
                        "write applied but could not be made durable",
                    ))
                    for pending, _payload, _raw in acked
                )
                return [], refused
        if acked:
            self._publish()
        return acked, refused

    def _apply_to_table(self, request: Request) -> tuple[dict[str, Any], Any]:
        """Apply one client write as the record it is journaled as;
        returns that record and the table's outcome."""
        op = request.op
        payload: dict[str, Any] = {"eid": request.get("eid")}
        if op != "delete":
            payload["attributes"] = request.get("attributes")
        code, refused = (
            ("duplicate_entity", ValueError) if op == "insert"
            else ("unknown_entity", KeyError)
        )
        try:
            outcome = apply_record(self.table, op, payload)
        except refused as err:
            raise Refused(protocol.REJECTED, code, str(err)) from None
        payload["eid"] = outcome.entity_id  # the id an insert was given
        return payload, outcome

    def _resolve(
        self, pending: _PendingWrite, verdict: Union[Raw, Refused]
    ) -> None:
        """Hand the batcher's verdict back to the waiting connection.

        A refusal is the future's *result*, not its exception: a
        connection that dies before collecting it leaves nothing behind
        for the loop to warn about."""
        if not pending.future.cancelled():  # else: it died while queued
            pending.future.set_result(verdict)

    # ------------------------------------------------------------------
    # reads: lock-free, from the latest MVCC snapshot
    # ------------------------------------------------------------------
    def _publish(self) -> TableSnapshot:
        """Publish the table's committed state as the latest snapshot.

        Called by every writer after its transaction commits (batch
        apply and sync deltas on the worker thread, maintenance after a
        merge/reorganize, :meth:`start` after recovery); the manager's
        own lock makes it safe from any thread.
        """
        snapshot = self._snapshots.publish(self.table)
        self.counters.snapshots_published = self._snapshots.published
        obs.gauge_set(
            "repro_server_snapshot_age_seconds", 0.0,
            "Seconds since the latest snapshot was published",
        )
        return snapshot

    def _latest_snapshot(self) -> TableSnapshot:
        """The snapshot reads serve from; never ``None`` once started.

        A read holds the snapshot it grabbed for as long as it serves
        from it; a publish meanwhile cannot take it away.
        """
        snapshot = self._snapshots.latest
        if snapshot is None:  # handler exercised without start() (tests)
            snapshot = self._publish()
        return snapshot

    async def _handle_query(self, request: Request) -> Raw:
        attributes = request.get("attributes")
        mode = request.get("mode", "any")
        if (
            not isinstance(attributes, (list, tuple))
            or not attributes
            or not all(isinstance(name, str) for name in attributes)
        ):
            raise Refused(
                protocol.BAD_REQUEST, "bad_query",
                "query needs a non-empty 'attributes' list of strings",
            )
        try:
            query = AttributeQuery(tuple(attributes), mode)
        except ValueError as err:
            raise Refused(
                protocol.BAD_REQUEST, "bad_query", str(err)
            ) from None
        snapshot = self._read_snapshot(request)
        self.counters.queries_served += 1
        self.counters.snapshot_reads += 1
        if self.adapt is not None:
            # feed the workload trace from the serve path: the mask, the
            # partitions this shape would scan (shared plan cache), and
            # an exemplar so the calibrator can replay the shape
            self.adapt.observe_query(
                query.synopsis_mask(snapshot.dictionary),
                snapshot.surviving_pids(query),
                version=snapshot.version_clock,
                exemplar=(query.attributes, query.mode),
            )
        # a pre-serialized fragment straight from the snapshot's response
        # cache (or built once and cached).  trace_scope is safe here —
        # serve_query is synchronous — and parents any execution spans
        # (index prune, scan) under this request's hop in the
        # distributed trace
        with obs.trace_scope(request_trace_context(request)):
            fragment, _row_count, from_cache = snapshot.serve_query(query)
        if from_cache:
            self.counters.snapshot_response_cache_hits += 1
        return Raw(protocol.OK, fragment)

    async def _handle_sql(self, request: Request) -> Answer:
        text = request.get("sql")
        if not isinstance(text, str) or not text.strip():
            raise Refused(
                protocol.BAD_REQUEST, "bad_sql", "sql op needs a 'sql' string"
            )
        from repro.sql import SqlSyntaxError, execute

        snapshot = self._read_snapshot(request)
        try:
            with obs.trace_scope(request_trace_context(request)):
                result = execute(text, snapshot)
        except SqlSyntaxError as err:
            raise Refused(
                protocol.BAD_REQUEST, "sql_syntax", str(err)
            ) from None
        self.counters.sql_served += 1
        self.counters.snapshot_reads += 1
        return protocol.OK, {  # rows last, as in a query's answer
            "row_count": len(result.rows),
            "pruned_partitions": len(result.pruned_pids),
            "rows": result.rows,
        }, None

    def _read_snapshot(self, request: Request) -> TableSnapshot:
        """The latest snapshot, scoped by the read's optional
        ``shard_filter``.

        The routing tier's shard-scoped reads: a node holding replicas
        of several shards must answer for exactly the subset the router
        assigned it, or scatter-gather over a replicated placement would
        double-count rows.
        """
        spec = request.get("shard_filter")
        return self._latest_snapshot().scoped(
            None if spec is None else _shard_scope(spec)
        )

    # ------------------------------------------------------------------
    # maintenance: cooperative, between batches
    # ------------------------------------------------------------------
    async def _maintenance_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.maintenance_interval_s)
            if self._writes_since_maintenance == 0:
                continue  # nothing changed; stay off the write lock
            await self._maintenance_pass()

    async def _maintenance_pass(
        self, force_checkpoint: bool = False
    ) -> dict[str, Any]:
        """One merge pass (and every Nth time a reorganization); also
        takes the periodic node checkpoint when one is due."""
        async with self._write_lock:
            # all catalog mutation runs on a worker thread; readers keep
            # serving the pre-maintenance snapshot until the publish
            merged, reorganized = await asyncio.to_thread(
                self._maintain_locked
            )
            # checkpoint inside the write lock (the table is quiesced)
            # but outside the span (fsyncs run on a worker thread and a
            # span must not cross an await)
            checkpoint = None
            if force_checkpoint or self._checkpoint_due():
                checkpoint = await asyncio.to_thread(self._checkpoint_locked)
        obs.event("server.maintenance", merged=merged, reorganized=reorganized)
        result = {"merged": merged, "reorganized": reorganized}
        if checkpoint is not None:
            result["checkpoint"] = checkpoint
        return result

    def _maintain_locked(self) -> tuple[int, bool]:
        """Merge (and maybe reorganize) on a worker thread; publishes a
        fresh snapshot when anything moved.  Caller holds the write lock."""
        with obs.span("server.maintenance") as span:
            self._writes_since_maintenance = 0
            report = self.table.merge_small_partitions(
                min_fill=self.config.merge_min_fill
            )
            merged = report.merge_count
            self._maintenance_passes += 1
            self.counters.maintenance_passes += 1
            self.counters.partitions_merged += merged
            reorganized = False
            if (
                self.config.reorganize_every > 0
                and self._maintenance_passes % self.config.reorganize_every == 0
            ):
                self.table.reorganize()
                self.counters.reorganizations += 1
                reorganized = True
            if (
                self.adapt is not None
                and self._maintenance_passes % self.config.adapt_every == 0
            ):
                decision = self.adapt.maybe_adapt(self.table)
                self.counters.adapt_decisions += 1
                if decision.acted:
                    self.counters.adapt_actions += 1
                    if decision.action == "reorganize":
                        self.counters.reorganizations += 1
                    reorganized = True
            if span.is_recording:
                span.set("merged", merged)
                span.set("reorganized", reorganized)
        if merged or reorganized:
            self._publish()
        return merged, reorganized

    def _checkpoint_due(self) -> bool:
        return (
            self.config.checkpoint_every > 0
            and self._wal is not None
            and self.config.snapshot_path is not None
            and self._wal_writes_since_checkpoint >= self.config.checkpoint_every
        )

    def _checkpoint_locked(self) -> Optional[dict[str, Any]]:
        """Take one node checkpoint; caller must hold the write lock.

        Runs the crash-safe ordering of :func:`repro.backup.checkpoint_node`:
        archive the WAL segment, write the snapshot durably, archive a
        copy, and only then truncate the journal.
        """
        if self._wal is None or self.config.snapshot_path is None:
            return None
        report = checkpoint_node(
            self.table, self._wal, self.config.snapshot_path,
            archive=self._archive,
        )
        self._wal_writes_since_checkpoint = 0
        self._last_checkpoint_seq = report["wal_seq"]
        self.counters.checkpoints_taken += 1
        self.counters.checkpoint_records_truncated += report["records_truncated"]
        return report

    async def _handle_maintain(self, request: Request) -> Answer:
        force_checkpoint = bool(request.get("checkpoint"))
        if force_checkpoint and (
            self._wal is None or self.config.snapshot_path is None
        ):
            raise Refused(
                protocol.REJECTED, "checkpoint_unconfigured",
                "this node has no wal_path/snapshot_path configured; "
                "nothing to checkpoint",
            )
        return protocol.OK, await self._maintenance_pass(
            force_checkpoint=force_checkpoint
        ), None

    # ------------------------------------------------------------------
    # replica repair: sync_snapshot (read side) / sync_delta (write side)
    # ------------------------------------------------------------------
    async def _handle_sync_snapshot(self, request: Request) -> Answer:
        """Serve one page of this node's entities for a set of shards.

        The router pages a resync from a healthy peer with this op.  The
        read serves from the latest MVCC snapshot like any query, so
        each page is a consistent cut; cross-page drift is the router's
        problem (it replays the delta it buffered while copying).
        """
        scope = _shard_scope(request.fields)
        after_eid = request.get("after_eid", -1)
        limit = request.get("limit", 200)
        if (
            isinstance(after_eid, bool) or not isinstance(after_eid, int)
            or isinstance(limit, bool) or not isinstance(limit, int)
            or limit <= 0
        ):
            raise Refused(
                protocol.BAD_REQUEST, "bad_sync_page",
                "'after_eid' must be an int and 'limit' a positive int",
            )
        count_only = bool(request.get("count_only"))
        fields = self._collect_sync_page(
            self._latest_snapshot().scoped(scope), after_eid, limit, count_only
        )
        self.counters.sync_pages_served += 1
        return protocol.OK, fields, None

    @staticmethod
    def _collect_sync_page(
        snapshot: TableSnapshot, after_eid: int, limit: int, count_only: bool
    ) -> dict[str, Any]:
        """One page (or the count and digest) of *snapshot*, which the
        caller scoped to the shards asked for: served from the partition
        states' eid-ordered memos, so a page costs O(page), not a sort of
        the scope."""
        if count_only:
            # order-independent identity of the shard contents: the
            # router compares count+digest across replicas to decide a
            # resynced node agrees with its healthy peer
            eids = snapshot.entity_ids()
            digest = zlib.crc32(",".join(map(str, eids)).encode())
            return {
                "count": len(eids),
                "digest": f"{digest:08x}",
                "version_clock": snapshot.version_clock,
            }
        page, done, count = snapshot.entity_page(after_eid, limit)
        entities = [
            {
                "eid": eid,
                "attributes": {
                    name: _encode_value(value)
                    for name, value in attributes.items()
                },
            }
            for eid, attributes in page
        ]
        return {
            "entities": entities,
            "next_after": page[-1][0] if page else after_eid,
            "done": done,
            "count": count,
        }

    async def _handle_sync_delta(self, request: Request) -> Answer:
        """Bulk-apply copied entities on this (resyncing) node.

        Deliberately bypasses the admission queue: this op is
        router-driven repair traffic, rare and must not be shed by the
        same backpressure that protects against client floods.  It still
        takes the exclusive lock and journals + fsyncs before acking, so
        a crash mid-resync replays exactly what was acknowledged.
        """
        if self._draining:
            raise Refused(
                protocol.SHUTTING_DOWN, "draining",
                "server is draining; no new modifications",
            )
        entities = request.get("entities", [])
        if not isinstance(entities, list) or not all(
            isinstance(e, dict)
            and valid_entity_id(e.get("eid"))
            and isinstance(e.get("attributes"), dict)
            for e in entities
        ):
            raise Refused(
                protocol.BAD_REQUEST, "bad_sync_delta",
                "'entities' must be a list of {'eid': int >= 0, "
                "'attributes': {}}",
            )
        # every value is checked before anything is applied: a value the
        # table refuses mid-delta would roll the catalog back but not the
        # heaps, leaving rows served that the catalog does not hold
        try:
            for entity in entities:
                for value in entity["attributes"].values():
                    validate_value(_decode_value(value))
        except ValueError as err:
            raise Refused(
                protocol.BAD_REQUEST, "bad_sync_delta",
                f"entity {entity['eid']}: {err}",
            ) from None
        spec = request.get("reset")
        reset = None if spec is None else _shard_scope(spec)
        async with self._write_lock:
            outcome = await asyncio.to_thread(
                self._apply_sync_delta, reset, entities
            )
            if bool(request.get("final")) and (
                self._wal is not None
                and self.config.snapshot_path is not None
            ):
                checkpoint = await asyncio.to_thread(self._checkpoint_locked)
                if checkpoint is not None:
                    outcome["checkpoint_seq"] = checkpoint["wal_seq"]
        self.counters.sync_deltas_applied += 1
        self.counters.sync_entities_received += len(entities)
        obs.event(
            "server.sync_delta", entities=len(entities),
            removed=outcome["removed"], reset=reset is not None,
            final=bool(request.get("final")),
        )
        return protocol.OK, outcome, None

    def _apply_sync_delta(
        self,
        reset: Optional[ShardScope],
        entities: list[dict[str, Any]],
    ) -> dict[str, Any]:
        """Apply a reset + upsert batch in one transaction (worker thread).

        The delta is written as the records it will be journaled as and
        those are what is applied; they are appended to the WAL only
        after the transaction commits — a rollback must not leave
        journal records describing writes that never happened — and the
        new state is published only once they are fsynced.
        """
        table = self.table
        # a put no page holds would fail after the reset's deletions,
        # which rolling the catalog back does not restore
        for entity in entities:
            try:
                table.record_of(entity["eid"], {
                    name: _decode_value(value)
                    for name, value in entity["attributes"].items()
                })
            except PageFullError as err:
                raise Refused(
                    protocol.BAD_REQUEST, "bad_sync_delta",
                    f"entity {entity['eid']}: {err}",
                ) from None
        journal: list[tuple[str, dict[str, Any]]] = []
        if reset is not None:
            journal.append(("sync_reset", {
                "n_shards": reset.n_shards, "shards": sorted(reset.shards),
            }))
        journal.extend(
            ("sync_put", {
                "eid": entity["eid"], "attributes": entity["attributes"],
            })
            for entity in entities
        )
        removed = 0
        txn = table.catalog.begin_transaction()
        try:
            for op, payload in journal:
                outcome = apply_record(table, op, payload)
                if op == "sync_reset":
                    removed = outcome
        except Exception as err:
            txn.rollback()
            raise Refused(
                protocol.ERROR, "sync_delta_failed",
                f"{type(err).__name__}: {err}",
            ) from None
        txn.commit()
        if self._wal is not None:
            for op, payload in journal:
                self._wal.append(op, payload, sync=False)
                self.counters.wal_writes_logged += 1
                self._wal_writes_since_checkpoint += 1
            try:
                self._wal.sync()
            except OSError as err:
                raise Refused(
                    protocol.ERROR, "wal_sync_failed",
                    f"could not make the sync delta durable: {err}",
                ) from None
        self._publish()
        return {
            "applied": len(entities),
            "removed": removed,
            "entities": table.catalog.entity_count,
            "version_clock": table.catalog.version_clock,
        }

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def _obs_snapshot(self) -> dict[str, Any]:
        """The ``obs`` verb: this node's observability document —
        registry exposition plus trace digests — for the router
        (or any client) to federate."""
        return local_obs_document(self.config.name, tier="node")

    def _stats_snapshot(self) -> dict[str, Any]:
        """A point-in-time view (no await; table state comes from the
        latest MVCC snapshot — the live table belongs to the batcher's
        worker thread)."""
        snapshot = self._latest_snapshot()
        age_s = round(time.monotonic() - snapshot.created_monotonic, 3)
        obs.gauge_set(
            "repro_server_snapshot_age_seconds", age_s,
            "Seconds since the latest snapshot was published",
        )
        return {
            "node": self.config.name,
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "draining": self._draining,
            "wal": (
                None if self._wal is None else {
                    "path": str(self._wal.path),
                    "basis_seq": self._wal.basis_seq,
                    "last_seq": self._wal.last_seq,
                    "syncs": self._wal.syncs,
                    "size_bytes": self._wal.size_bytes(),
                }
            ),
            "checkpoint": (
                None if self.config.snapshot_path is None else {
                    "snapshot_path": str(self.config.snapshot_path),
                    "last_checkpoint_seq": self._last_checkpoint_seq,
                    "wal_writes_since_checkpoint": (
                        self._wal_writes_since_checkpoint
                    ),
                    "archive": (
                        None if self._archive is None
                        else str(self._archive.root)
                    ),
                }
            ),
            "partitions": snapshot.partition_count,
            "entities": snapshot.entity_count,
            "version_clock": snapshot.version_clock,
            "split_count": self.table.partitioner.split_count,
            "queue_depth": self._write_queue.qsize(),
            "sessions": [s.as_dict() for s in self.sessions.values()],
            "counters": self.counters.as_dict(),
            "snapshots": {
                "latest_id": snapshot.snapshot_id,
                "version_clock": snapshot.version_clock,
                "age_s": age_s,
                "published": self._snapshots.published,
            },
            "admission": {
                "window": self._admission.window,
                "max_pending": self.config.max_pending,
                "rate_ewma": round(self._admission.rate_ewma, 1),
                "target_latency_s": self._admission.target_latency_s,
            },
            "heat": (
                None if self.adapt is None
                else self.adapt.trace.heat_as_dict()
            ),
            "adaptation": (
                None if self.adapt is None else self.adapt.status()
            ),
        }
