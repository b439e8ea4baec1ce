"""The asyncio serving layer: Cinderella answering live traffic.

One :class:`CinderellaServer` owns one
:class:`~repro.table.partitioned.CinderellaTable` and exposes it over
TCP with the line-delimited JSON protocol of
:mod:`repro.server.protocol`.  The concurrency architecture, in one
paragraph:

* every **connection** gets a :class:`Session` and an independent
  request loop; requests on one connection are answered in order,
  requests on different connections interleave freely.  The loop does
  not wait for a write's batch before it parses the next frame: a
  modification is validated, admitted and queued at once and answered
  later, so a connection's consecutive writes share a group commit.
  It collects its acks — oldest first — when the read buffer holds no
  complete frame, when it has ``batch_max`` writes unanswered (TCP
  back-pressure holds the rest of a burst), or when the next request is
  not a write: anything else is served behind the connection's own
  queued writes, which keeps responses in request order and gives every
  connection read-your-writes;
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
* **shutdown** is a drain: stop accepting, shed new work with
  ``shutting_down``, flush the write queue, then close every
  connection (reads are non-blocking, so there is nothing to quiesce).

A node's read path is therefore one path: latest snapshot →
per-snapshot response cache → per-partition-state chunk cache → decoded
records (:mod:`repro.query.snapshot`) — also for the routing tier's
reads, whose ``shard_filter`` scopes the snapshot and is otherwise one
more component of the cache keys.  It stays coherent because a
snapshot is published only after its batch's transaction commits and is
never mutated afterwards: a response cache dies with its snapshot, and
a chunk cache entry is keyed by a record-count prefix of a partition
state that only ever grows by appending.  ``tests/test_server_soak.py``
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
from collections import deque
from dataclasses import dataclass, field
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
from repro.obs.tracing import TraceContext
from repro.query.query import AttributeQuery
from repro.query.snapshot import ShardScope, SnapshotManager, TableSnapshot
from repro.server import protocol
from repro.server.admission import AdaptiveAdmission
from repro.server.protocol import ProtocolError, Request
from repro.storage.record import valid_entity_id, validate_value
from repro.storage.snapshot import (
    SnapshotFormatError,
    _encode_value,
    load_node_checkpoint,
)
from repro.storage.wal import WriteAheadLog
from repro.table.partitioned import CinderellaTable

# NOTE on spans: the tracer's span stack is per *thread*; concurrent
# tasks on the event loop would interleave enter/exit and mis-parent
# each other's spans if one were held across an ``await``.  Request
# latency is therefore measured directly into a histogram, and spans
# are only opened around purely synchronous regions: batch application
# and maintenance passes on their worker thread, snapshot scans on the
# loop.
_REQUEST_SECONDS = "repro_server_request_seconds"
_REQUESTS_TOTAL = "repro_server_requests_total"

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


def _request_trace_context(request: Request) -> Optional[TraceContext]:
    """The adopted trace context _decode stashed on the request (the
    isinstance check also drops a wire-supplied impostor field)."""
    context = request.fields.get("_trace_context")
    return context if isinstance(context, TraceContext) else None


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
        raise _OpRefused(
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
    #: the writes it may have queued before it stops to collect acks,
    #: and the depth below which admission never sheds
    batch_max: int = 32
    #: MVCC snapshots retained beyond the latest (pinned snapshots are
    #: always kept regardless)
    snapshot_retain: int = 8
    #: cooperative maintenance cadence (seconds; 0 disables the task)
    maintenance_interval_s: float = 0.25
    #: merge threshold handed to the maintenance pass
    merge_min_fill: float = 0.25
    #: every Nth maintenance pass also reorganizes (0 = never)
    reorganize_every: int = 0
    #: graceful-drain bound: seconds after which :meth:`stop` gives up
    #: waiting on queued writes and stalled connections and force-closes
    #: whatever survives with a typed ``shutting_down`` status
    drain_deadline_s: float = 5.0
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
class Session:
    """Per-connection bookkeeping."""

    sid: int
    peer: str
    opened_monotonic: float
    requests: int = 0
    errors: int = 0
    ops: dict[str, int] = field(default_factory=dict)
    closing: bool = False

    def observe(self, op: str, ok: bool) -> None:
        self.requests += 1
        self.ops[op] = self.ops.get(op, 0) + 1
        if not ok:
            self.errors += 1

    def as_dict(self) -> dict[str, Any]:
        return {
            "sid": self.sid,
            "peer": self.peer,
            "age_s": round(time.monotonic() - self.opened_monotonic, 3),
            "requests": self.requests,
            "errors": self.errors,
            "ops": dict(self.ops),
        }


class _OpRefused(Exception):
    """A request the server answers with a non-ok status (no traceback)."""

    def __init__(self, status: str, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


@dataclass
class _PendingWrite:
    """One admitted modification waiting for the batcher."""

    request: Request
    future: asyncio.Future


class _Raw:
    """A pre-serialized response fragment from the snapshot fast path.

    Holds everything of the wire line after the request id; the
    dispatcher splices ``{"id":N`` in front instead of re-encoding the
    rows through ``json.dumps`` — repeat queries cost no serialization.
    """

    __slots__ = ("status", "fragment")

    def __init__(self, status: str, fragment: bytes) -> None:
        self.status = status
        self.fragment = fragment


class CinderellaServer:
    """A Cinderella table behind a TCP socket (see the module docstring)."""

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
        self.config = config if config is not None else ServerConfig()
        self.counters = ServerCounters()
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
        self.sessions: dict[int, Session] = {}
        self._next_sid = 1
        self._write_queue: asyncio.Queue[_PendingWrite] = asyncio.Queue()
        self._snapshots = SnapshotManager(retain=self.config.snapshot_retain)
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
        self._server: Optional[asyncio.AbstractServer] = None
        self._batcher_task: Optional[asyncio.Task] = None
        self._maintenance_task: Optional[asyncio.Task] = None
        self._stop_task: Optional[asyncio.Task] = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._draining = False
        self._aborted = False
        self._stopped = asyncio.Event()
        self._writes_since_maintenance = 0
        self._maintenance_passes = 0
        self._started_monotonic = 0.0
        self._wal: Optional[WriteAheadLog] = None
        self._archive: Optional[BackupArchive] = (
            BackupArchive(self.config.archive_dir)
            if self.config.archive_dir is not None else None
        )
        self._wal_writes_since_checkpoint = 0
        self._last_checkpoint_seq = 0
        # per-dispatch metric children, pre-resolved per (op)/(op, status)
        # and keyed on the registry's identity so an obs.enable() cycle
        # (which swaps the registry) invalidates the cache.  _dispatch
        # runs for every request; going through the runtime facade there
        # costs a label-key build per call that this skips entirely
        self._dispatch_metrics: Optional[
            tuple[Any, dict[str, Any], dict[tuple[str, str], Any]]
        ] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — useful after an ephemeral bind."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        """Bind, start the background tasks, and begin accepting.

        With ``wal_path`` configured the journal is opened — and any
        existing records replayed into the table — *before* the socket
        binds, so a restarted node never serves a request against a
        state missing writes it acknowledged in a previous life.
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        self._recover_state()
        # first snapshot before the socket binds: a query can never find
        # no published state to serve from
        self._publish()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self._batcher_task = asyncio.create_task(
            self._batcher(), name="repro-server-batcher"
        )
        if self.config.maintenance_interval_s > 0:
            self._maintenance_task = asyncio.create_task(
                self._maintenance_loop(), name="repro-server-maintenance"
            )
        self._started_monotonic = time.monotonic()
        host, port = self.address
        obs.event("server.started", host=host, port=port)
        return host, port

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` op) completes."""
        await self._stopped.wait()

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

    async def stop(self) -> None:
        """Graceful drain, bounded: flush queued writes and finish
        in-flight work, but only until ``drain_deadline_s`` — past the
        deadline, still-queued writes are refused with a typed
        ``shutting_down`` status and surviving connections are
        force-closed, so one stalled client can never hang shutdown."""
        if self._server is None:  # never started: nothing to drain
            self._stopped.set()
            return
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        deadline = time.monotonic() + self.config.drain_deadline_s
        forced = False
        obs.event("server.draining", queued=self._write_queue.qsize())
        self._server.close()  # stop accepting
        await self._server.wait_closed()
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
                self._resolve(pending, _OpRefused(
                    protocol.SHUTTING_DOWN, "drain_deadline",
                    "drain deadline reached before this write was applied",
                ))
                self._write_queue.task_done()
        if self._maintenance_task is not None:
            self._maintenance_task.cancel()
            await asyncio.gather(self._maintenance_task, return_exceptions=True)
        # reads never block: they serve from an immutable snapshot on
        # the event loop, so there is no in-flight scan to quiesce
        for session in self.sessions.values():
            session.closing = True
        # handler tasks blocked in readline() only notice `closing` on
        # the next frame; yield once so finished dispatches flush their
        # responses, then force EOF on every remaining stream
        await asyncio.sleep(0)
        for writer in list(self._writers.values()):
            writer.close()
        if self._conn_tasks:
            _done, survivors = await asyncio.wait(
                list(self._conn_tasks),
                timeout=max(0.05, deadline - time.monotonic()),
            )
            if survivors:
                # a close() is graceful — it still waits for the kernel
                # buffer to drain, which a client that stopped reading
                # can stall forever.  The deadline's teeth: abort.
                forced = True
                self._force_close_connections()
                await asyncio.wait(list(survivors), timeout=1.0)
        if self._wal is not None:
            self._wal.close()
        obs.event(
            "server.stopped", node=self.config.name,
            sessions=len(self.sessions), forced=forced,
        )
        self._stopped.set()

    def _force_close_connections(self) -> None:
        """Abort every surviving connection with a best-effort typed frame."""
        for sid, writer in list(self._writers.items()):
            try:
                writer.write(protocol.encode_response(
                    0, protocol.SHUTTING_DOWN,
                    error=protocol.error_body(
                        "drain_deadline",
                        "connection force-closed at the drain deadline",
                    ),
                ))
            except Exception:
                pass  # transport already dying; the abort below settles it
            transport = writer.transport
            if transport is not None:
                transport.abort()
            self.counters.connections_force_closed += 1
            obs.event(
                "server.force_close", sid=sid, node=self.config.name
            )
        for task in list(self._conn_tasks):
            task.cancel()

    async def abort(self) -> None:
        """Crash the node: RST every connection, cancel every task, drop
        queued-but-unacknowledged writes, keep only what the WAL already
        holds.  The chaos suite's kill switch — the durability contract
        is that acknowledged writes survive exactly this plus a restart
        (:meth:`start` replays the journal before binding)."""
        self._aborted = True
        self._draining = True
        if self._server is not None:
            self._server.close()
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
        if self._wal is not None:
            self._wal.close()
        obs.event("server.aborted", node=self.config.name)
        self._stopped.set()
        await asyncio.sleep(0)  # let cancellations propagate

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        session = Session(
            sid=self._next_sid, peer=peer, opened_monotonic=time.monotonic()
        )
        self._next_sid += 1
        self.sessions[session.sid] = session
        self._writers[session.sid] = writer
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self.counters.connections_opened += 1
        obs.event("server.connect", sid=session.sid, peer=peer)
        out: list[bytes] = []  # responses accumulated for one flush
        # this connection's writes still owed an answer, oldest first:
        # (request, started, future of the verdict)
        unanswered: deque[tuple[Request, float, asyncio.Future]] = deque()
        loop = asyncio.get_running_loop()
        try:
            while True:
                # pipelined clients batch many requests per segment.
                # Consecutive writes are queued without waiting for each
                # one's group commit, and answering each request with
                # its own send syscall dominates the loop at high
                # concurrency — so acks are collected and responses
                # flushed, in one write, only when the read buffer has
                # no complete frame left or a bound is reached: one
                # batch's worth of queued writes (TCP back-pressure
                # holds the rest of the burst) or 128 built responses
                if session.closing or (
                    (unanswered or out) and (
                        len(unanswered) >= self.config.batch_max
                        or len(out) >= 128
                        or b"\n" not in getattr(reader, "_buffer", b"")
                    )
                ):
                    await self._collect_acks(unanswered, out, session)
                    if out:
                        writer.write(out[0] if len(out) == 1 else b"".join(out))
                        out.clear()
                        await writer.drain()
                if session.closing:
                    break
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # an over-long frame: answer once, then give up on the
                    # stream (framing can no longer be trusted)
                    self.counters.bad_requests += 1
                    await self._collect_acks(unanswered, out, session)
                    out.append(protocol.encode_response(
                        0, protocol.BAD_REQUEST,
                        error=protocol.error_body(
                            "frame_too_long",
                            f"frame exceeds {protocol.MAX_LINE_BYTES} bytes",
                        ),
                    ))
                    session.closing = True
                    continue
                if not line:
                    break  # EOF
                line = line.strip()
                if not line:
                    continue
                try:
                    request, started = self._decode(line)
                except ProtocolError as err:
                    self.counters.bad_requests += 1
                    session.observe("?", ok=False)
                    await self._collect_acks(unanswered, out, session)
                    out.append(protocol.encode_response(
                        0, protocol.BAD_REQUEST,
                        error=protocol.error_body("protocol", str(err)),
                    ))
                    continue
                if request.op in _WRITE_OPS:
                    # queued (or refused) at once, answered in turn: the
                    # next frame is parsed while this write's batch
                    # fills, so a connection's consecutive writes share
                    # a group commit
                    try:
                        verdict = self._handle_write(request)
                    except _OpRefused as refusal:
                        verdict = loop.create_future()
                        verdict.set_result(refusal)
                    unanswered.append((request, started, verdict))
                    continue
                # anything else is served behind the connection's own
                # queued writes: responses leave in request order, and a
                # read sees every write sent before it (their batches
                # have published by the time their futures resolve)
                await self._collect_acks(unanswered, out, session)
                out.append(self._finish(
                    session, request, started,
                    await self._route(request, session),
                ))
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-response
        except asyncio.CancelledError:
            pass  # force-close/abort cancelled us: end the task quietly
        finally:
            # writes still queued for a connection that is gone are
            # applied all the same; nobody is left to hear the verdict
            for _request, _started, verdict in unanswered:
                verdict.cancel()
            self.sessions.pop(session.sid, None)
            self._writers.pop(session.sid, None)
            if task is not None:
                self._conn_tasks.discard(task)
            self.counters.connections_closed += 1
            obs.event(
                "server.disconnect", sid=session.sid,
                requests=session.requests,
            )
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _decode(self, line: bytes) -> tuple[Request, float]:
        """Parse one frame; with the request, the clock reading its
        latency counts from."""
        request = protocol.decode_request(line)
        self.counters.requests_total += 1
        started = time.perf_counter()
        wire = request.fields.pop("trace", None)
        if wire is not None:
            # adopt the caller's trace context: this request's span
            # becomes a child of the caller's span.  The context rides
            # on the request object because handlers run concurrently
            # on the loop — a thread-local would bleed across tasks
            trace_context = obs.adopt_wire_trace(wire)
            if trace_context is not None:
                request.fields["_trace_context"] = trace_context
        return request, started

    async def _collect_acks(
        self,
        unanswered: deque[tuple[Request, float, asyncio.Future]],
        out: list[bytes],
        session: Session,
    ) -> None:
        """Answer the connection's queued writes, oldest first, each as
        soon as its batch is durable and published."""
        while unanswered:
            request, started, verdict = unanswered.popleft()
            out.append(self._finish(session, request, started, await verdict))

    def _finish(
        self,
        session: Session,
        request: Request,
        started: float,
        outcome: Union[_Raw, _OpRefused, tuple[str, dict[str, Any]]],
    ) -> bytes:
        """Account for one answered request and encode its response."""
        raw: Optional[_Raw] = None
        fields: dict[str, Any] = {}
        error = None
        if isinstance(outcome, _Raw):
            raw = outcome
            status = outcome.status
        elif isinstance(outcome, _OpRefused):
            status = outcome.status
            error = protocol.error_body(outcome.code, str(outcome))
        else:
            status, fields = outcome
        ended = time.perf_counter()
        registry = obs.registry()
        if registry is not None:
            cache = self._dispatch_metrics
            if cache is None or cache[0] is not registry:
                cache = self._dispatch_metrics = (registry, {}, {})
            op = request.op
            histogram = cache[1].get(op)
            if histogram is None:
                histogram = cache[1][op] = registry.histogram(
                    _REQUEST_SECONDS,
                    "Server request latency by op "
                    "(admission wait included)",
                    ("op",), buckets=SERVER_LATENCY_BUCKETS,
                ).labels(op=op)
            histogram.observe(ended - started)
            counter = cache[2].get((op, status))
            if counter is None:
                counter = cache[2][(op, status)] = registry.counter(
                    _REQUESTS_TOTAL,
                    "Server requests by op and status",
                    ("op", "status"),
                ).labels(op=op, status=status)
            counter.inc()
        ok = status in protocol.SUCCESS_STATUSES
        session.observe(request.op, ok=ok)
        if not ok:
            self.counters.requests_failed += 1
        trace_context = _request_trace_context(request)
        if trace_context is not None:
            # the node's hop in the distributed trace.  Recorded after
            # the fact (record_remote_span) because the request awaited
            # — a stack-held span would mis-parent interleaved tasks;
            # synchronous children (query execution) already nested
            # under this context via trace_scope
            obs.record_remote_span(
                "node.request", started, ended, trace_context,
                error=None if ok else status,
                op=request.op, node=self.config.name, status=status,
            )
        if raw is not None:
            return b'{"id":' + str(request.id).encode() + raw.fragment
        return protocol.encode_response(
            request.id, status, error=error, **fields
        )

    async def _route(
        self, request: Request, session: Session
    ) -> Union[_Raw, _OpRefused, tuple[str, dict[str, Any]]]:
        """Serve one request that is not a queued write.  Never raises:
        a refusal comes back as the :class:`_OpRefused` to answer with,
        and so does a handler bug, which must not kill the loop."""
        op = request.op
        try:
            if op == "ping":
                return protocol.OK, {"payload": request.get("payload")}
            if op == "query":
                return await self._handle_query(request)
            if op == "sql":
                return await self._handle_sql(request)
            if op == "stats":
                return protocol.OK, self._stats_snapshot()
            if op == "obs":
                return protocol.OK, self._obs_snapshot()
            if op == "maintain":
                return await self._handle_maintain(request)
            if op == "sync_snapshot":
                return await self._handle_sync_snapshot(request)
            if op == "sync_delta":
                return await self._handle_sync_delta(request)
            if op == "shutdown":
                session.closing = True
                self._stop_task = asyncio.get_running_loop().create_task(
                    self.stop()
                )
                return protocol.OK, {"draining": True}
            raise _OpRefused(  # unreachable: decode_request validates ops
                protocol.BAD_REQUEST, "unknown_op", f"unhandled op {op!r}"
            )
        except _OpRefused as refusal:
            return refusal
        except Exception as err:
            return _OpRefused(
                protocol.ERROR, "internal", f"{type(err).__name__}: {err}"
            )

    # ------------------------------------------------------------------
    # writes: admission → queue → batcher
    # ------------------------------------------------------------------
    def _handle_write(self, request: Request) -> asyncio.Future:
        """Validate, admit and queue one modification, or raise the
        refusal.  The future resolves, once the write's batch is durable
        and published, to its ack (:class:`_Raw`) or to the
        :class:`_OpRefused` the batcher answered it with."""
        if self._draining:
            self.counters.writes_shed_shutdown += 1
            raise _OpRefused(
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
            raise _OpRefused(
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
                raise _OpRefused(
                    protocol.REJECTED, "empty_synopsis",
                    f"{op} needs a non-empty 'attributes' object; Cinderella "
                    f"cannot rate an entity without attributes",
                )
            if not all(isinstance(name, str) for name in attributes):
                raise _OpRefused(
                    protocol.REJECTED, "bad_attributes",
                    "attribute names must be strings",
                )
            try:
                for value in attributes.values():
                    validate_value(value)
            except ValueError as err:
                raise _OpRefused(
                    protocol.REJECTED, "bad_attributes", str(err)
                ) from None
        eid = request.get("eid")
        if not valid_entity_id(eid) and (eid is not None or op != "insert"):
            raise _OpRefused(
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
        list[tuple[_PendingWrite, dict[str, Any], _Raw]],
        list[tuple[_PendingWrite, _OpRefused]],
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
        acked: list[tuple[_PendingWrite, dict[str, Any], _Raw]] = []
        refused: list[tuple[_PendingWrite, _OpRefused]] = []
        txn = self.table.catalog.begin_transaction()
        try:
            with obs.span("server.batch", size=len(batch)):
                for pending in batch:
                    request = pending.request
                    savepoint = txn.savepoint()
                    try:
                        payload, outcome = self._apply_to_table(request)
                    except _OpRefused as refusal:
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
                        refused.append((pending, _OpRefused(
                            protocol.ERROR, "internal",
                            f"{type(err).__name__}: {err}",
                        )))
                    else:
                        self.counters.writes_applied += 1
                        # pre-serialize the ack on the worker thread:
                        # the loop splices the request id in front of
                        # this fragment instead of re-encoding JSON
                        acked.append((pending, payload, _Raw(
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
                    (pending, _OpRefused(
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
            raise _OpRefused(protocol.REJECTED, code, str(err)) from None
        payload["eid"] = outcome.entity_id  # the id an insert was given
        return payload, outcome

    def _resolve(
        self, pending: _PendingWrite, verdict: Union[_Raw, _OpRefused]
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
        self.counters.snapshots_retired = self._snapshots.retired
        obs.gauge_set(
            "repro_server_snapshot_age_seconds", 0.0,
            "Seconds since the latest snapshot was published",
        )
        obs.gauge_set(
            "repro_server_snapshots_retained",
            self._snapshots.retained_count(),
            "MVCC snapshots currently retained",
        )
        return snapshot

    def _latest_snapshot(self) -> TableSnapshot:
        """The snapshot reads serve from; never ``None`` once started.

        No pin is needed on the event-loop read path: there is no await
        between grabbing the snapshot and serving from it, and the
        manager never collects the latest snapshot.
        """
        snapshot = self._snapshots.latest
        if snapshot is None:  # handler exercised without start() (tests)
            snapshot = self._publish()
        return snapshot

    async def _handle_query(self, request: Request) -> _Raw:
        attributes = request.get("attributes")
        mode = request.get("mode", "any")
        if (
            not isinstance(attributes, (list, tuple))
            or not attributes
            or not all(isinstance(name, str) for name in attributes)
        ):
            raise _OpRefused(
                protocol.BAD_REQUEST, "bad_query",
                "query needs a non-empty 'attributes' list of strings",
            )
        try:
            query = AttributeQuery(tuple(attributes), mode)
        except ValueError as err:
            raise _OpRefused(
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
        with obs.trace_scope(_request_trace_context(request)):
            fragment, _row_count, from_cache = snapshot.serve_query(query)
        if from_cache:
            self.counters.snapshot_response_cache_hits += 1
        return _Raw(protocol.OK, fragment)

    async def _handle_sql(self, request: Request) -> tuple[str, dict[str, Any]]:
        text = request.get("sql")
        if not isinstance(text, str) or not text.strip():
            raise _OpRefused(
                protocol.BAD_REQUEST, "bad_sql", "sql op needs a 'sql' string"
            )
        from repro.sql import SqlSyntaxError, execute

        snapshot = self._read_snapshot(request)
        try:
            with obs.trace_scope(_request_trace_context(request)):
                result = execute(text, snapshot)
        except SqlSyntaxError as err:
            raise _OpRefused(
                protocol.BAD_REQUEST, "sql_syntax", str(err)
            ) from None
        self.counters.sql_served += 1
        self.counters.snapshot_reads += 1
        return protocol.OK, {
            "rows": result.rows,
            "row_count": len(result.rows),
            "pruned_partitions": len(result.pruned_pids),
        }

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

    async def _handle_maintain(self, request: Request) -> tuple[str, dict[str, Any]]:
        force_checkpoint = bool(request.get("checkpoint"))
        if force_checkpoint and (
            self._wal is None or self.config.snapshot_path is None
        ):
            raise _OpRefused(
                protocol.REJECTED, "checkpoint_unconfigured",
                "this node has no wal_path/snapshot_path configured; "
                "nothing to checkpoint",
            )
        return protocol.OK, await self._maintenance_pass(
            force_checkpoint=force_checkpoint
        )

    # ------------------------------------------------------------------
    # replica repair: sync_snapshot (read side) / sync_delta (write side)
    # ------------------------------------------------------------------
    async def _handle_sync_snapshot(
        self, request: Request
    ) -> tuple[str, dict[str, Any]]:
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
            raise _OpRefused(
                protocol.BAD_REQUEST, "bad_sync_page",
                "'after_eid' must be an int and 'limit' a positive int",
            )
        count_only = bool(request.get("count_only"))
        fields = self._collect_sync_page(
            self._latest_snapshot().scoped(scope), after_eid, limit, count_only
        )
        self.counters.sync_pages_served += 1
        return protocol.OK, fields

    @staticmethod
    def _collect_sync_page(
        snapshot: TableSnapshot, after_eid: int, limit: int, count_only: bool
    ) -> dict[str, Any]:
        """One page (or the count and digest) of *snapshot*, which the
        caller scoped to the shards asked for."""
        attributes_of = dict(snapshot.entities())
        eids = sorted(attributes_of)
        if count_only:
            # order-independent identity of the shard contents: the
            # router compares count+digest across replicas to decide a
            # resynced node agrees with its healthy peer
            digest = zlib.crc32(",".join(map(str, eids)).encode())
            return {
                "count": len(eids),
                "digest": f"{digest:08x}",
                "version_clock": snapshot.version_clock,
            }
        page = [eid for eid in eids if eid > after_eid][:limit]
        entities = [
            {
                "eid": eid,
                "attributes": {
                    name: _encode_value(value)
                    for name, value in attributes_of[eid].items()
                },
            }
            for eid in page
        ]
        done = not page or page[-1] == eids[-1]
        return {
            "entities": entities,
            "next_after": page[-1] if page else after_eid,
            "done": done,
            "count": len(eids),
        }

    async def _handle_sync_delta(
        self, request: Request
    ) -> tuple[str, dict[str, Any]]:
        """Bulk-apply copied entities on this (resyncing) node.

        Deliberately bypasses the admission queue: this op is
        router-driven repair traffic, rare and must not be shed by the
        same backpressure that protects against client floods.  It still
        takes the exclusive lock and journals + fsyncs before acking, so
        a crash mid-resync replays exactly what was acknowledged.
        """
        if self._draining:
            raise _OpRefused(
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
            raise _OpRefused(
                protocol.BAD_REQUEST, "bad_sync_delta",
                "'entities' must be a list of {'eid': int >= 0, "
                "'attributes': {}}",
            )
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
        return protocol.OK, outcome

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
            raise _OpRefused(
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
                raise _OpRefused(
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
                "retained": self._snapshots.retained_count(),
                "pins": snapshot.pins,
                "published": self._snapshots.published,
                "retired": self._snapshots.retired,
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
