"""The routing tier: one TCP front door over a cluster of serving nodes.

:class:`CinderellaRouter` speaks the *same* line-delimited JSON
protocol as :class:`~repro.server.server.CinderellaServer` — a client
cannot tell (and should not care) whether it is talking to one node or
a routed cluster.  What the router adds:

* **partition-aware writes** — ``insert``/``update``/``delete`` are
  routed to the replica set of the owning shard
  (:class:`~repro.router.placement.PlacementMap`) and fanned out to
  every reachable replica; the write is acknowledged as soon as one
  replica acked it, and replicas that missed it are caught up from a
  bounded buffer when they return;
* **scatter-gather reads** — ``query``/``sql`` fan out to one replica
  per shard (with on-the-wire failover to the next replica when one
  does not answer) and merge the shards' rows — a concatenation of the
  row bytes the nodes rendered, never decoded here.  The partial-result
  contract is explicit: every shard answered → ``ok``; some shards had
  no reachable replica → ``degraded`` with the gathered rows *plus*
  ``unreachable_shards``; no shard reachable → ``node_unavailable``
  (retryable);
* **health tracking** — a per-node circuit breaker
  (:class:`~repro.router.health.NodeHealth`) with jittered
  timeout/retry/backoff, ejection windows, and probe-on-expiry, so a
  dead node costs each request at most one fast failure instead of a
  timeout per exchange.

Two deliberate limitations, documented rather than hidden: SQL
scatter-gather concatenates per-shard result rows, so cross-shard
aggregates and ``ORDER BY`` are per-shard, not global; and write
fan-out is asynchronous replication — a replica that missed a write
serves slightly stale reads until its catch-up replay lands.

Listener, sessions, framing, request accounting, the bounded drain and
the connection loop are the front door it shares with the serving node
(:class:`~repro.server.frontdoor.FrontDoor`); the router keeps its
dispatch rule, the teardown of a session's upstream channels and its
part of the drain: stop the resync monitor, close the upstream pools.

Its dispatch rule pipelines, one tier up from what a node does for a
pipelining client.  Each client session owns one pipelined upstream
channel per node (:class:`~repro.router.pool.Channel`).  A read or write
is *dispatched* the moment its frame is decoded — placement, then its
frames written to the chosen replicas' channels, with no ``await`` in
between — so one session's requests reach every replica in arrival
order; it is *completed* concurrently with the requests behind it, and
the front door answers in request order, owing at most
:data:`_SESSION_INFLIGHT` at a time.
Since a node answers a pipelined connection exactly like one request at
a time, a routed write set (``insert X`` then ``update X``) shares the
nodes' group commits without ever being reordered.  This fast path is
taken only when nothing is degraded; anything else — a replica out of
the write set, ejected, catching up, or a session channel that failed
— and the admin ops are *barriers*: the front door waits for the
session's unanswered requests and serves the barrier alone, through the
same retry, failover, dedup and catch-up logic as ever.  A request acts
on its replies only after the session's earlier requests completed, so
an exchange whose channel fails mid-flight retries behind them, and a
write that overtook one its replica shed (the replica still has writes
buffered) is not counted as applied there but buffered behind the shed
one, and replay applies both in arrival order.  A write the router sends
itself goes to a replica only once that replica's buffer is replayed.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Awaitable, Optional, Sequence, Union

from repro.obs import runtime as obs
from repro.obs.counters import RouterCounters
from repro.obs.federation import (
    local_obs_document,
    merge_documents,
    unreachable_document,
)
from repro.obs.registry import SERVER_LATENCY_BUCKETS
from repro.obs.tracing import TraceContext
from repro.router.health import (
    REPLICA_DIVERGED,
    REPLICA_RESYNCING,
    NodeHealth,
    ReplicaTracker,
)
from repro.router.placement import ROUTER_EID_BASE, NodeAddress, PlacementMap
from repro.router.pool import Channel, NodePool, UpstreamError
from repro.server import protocol
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
from repro.server.protocol import Request, Response
from repro.storage.record import valid_entity_id

#: refusal codes that mean "the write actually landed, the ack was
#: lost" when they follow a transport failure on the same exchange
_DEDUP_CODES = {"insert": "duplicate_entity", "delete": "unknown_entity"}
_WRITE_OPS = ("insert", "update", "delete")
#: a replica answering these did not apply the write in order: when a
#: peer acked it, the replica is caught up like one the write never
#: reached (``node_unavailable`` is never a node's answer, only
#: :data:`_BEHIND`'s)
_SHED_STATUSES = (
    protocol.OVERLOADED, protocol.SHUTTING_DOWN, protocol.NODE_UNAVAILABLE,
)
#: what a replica's answer to a write counts as while writes it missed
#: are still buffered ahead of it: whatever it answered, it did not see
#: the write in order, so replay brings it this write too, behind them
_BEHIND = Response(
    id=0, status=protocol.NODE_UNAVAILABLE,
    error=protocol.error_body(
        "replica_catching_up", "replica has buffered writes to replay first",
    ),
)
#: unanswered requests one client session may hold; past it, TCP
#: back-pressure holds the rest of a burst
_SESSION_INFLIGHT = 32
#: entities copied per ``sync_snapshot``/``sync_delta`` page of a resync
#: — the 1 MiB frame bound is the real ceiling, this keeps each exchange
#: comfortably under it
_SYNC_PAGE_ENTITIES = 200
#: count/digest agreement attempts before a resync is abandoned (live
#: traffic can race the comparison; each retry re-drains the buffered
#: delta first)
_RESYNC_VERIFY_ATTEMPTS = 8
#: attempts per node before failing over to the next replica
_UPSTREAM_ATTEMPTS = 2
#: jittered exponential backoff between same-node attempts: base · 2^k,
#: capped
_RETRY_BASE_S = 0.01
_RETRY_MAX_S = 0.1
#: buffered writes kept per unreachable node for catch-up replay;
#: overflowing this budget marks the replica ``diverged`` (resync
#: rebuilds it) instead of silently dropping buffered writes
_CATCHUP_LIMIT = 512


@dataclass
class RouterConfig:
    """Tunables of one router instance."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests, benchmarks)
    port: int = 0
    name: str = "router"
    #: per-exchange upstream timeout: for the connect, and for each reply
    #: once its exchange is the oldest in flight on its channel
    upstream_timeout_s: float = 2.0
    #: consecutive failures that trip a node's circuit breaker
    failure_threshold: int = 3
    #: ejection window growth: base · 2^(ejections−1), capped
    eject_base_s: float = 0.2
    eject_max_s: float = 5.0
    #: how often the resync monitor looks for diverged replicas to
    #: repair (seconds; 0 disables the monitor — resyncs then only run
    #: when driven explicitly, which is what the tests want)
    resync_interval_s: float = 0.25


@dataclass
class _Scatter:
    """One read's scatter-gather state across its failover rounds."""

    op: str
    #: the request's fields, minus the router-owned ones
    fields: dict[str, Any]
    context: Optional[TraceContext]
    #: shards no replica has answered for yet
    remaining: set[int]
    #: replica names each shard was already sent to
    tried: dict[int, set[str]]
    gathered: list[Response] = field(default_factory=list)
    #: shards served by a replica other than their primary
    failed_over: set[int] = field(default_factory=set)


#: one scatter round: the shards sent to each replica, and its exchanges
_Round = tuple[dict[NodeAddress, list[int]], list[Awaitable[Response]]]


async def _completed(future: Optional[asyncio.Future]) -> None:
    """Wait until *future* (if any) is done, whatever its outcome."""
    if future is not None and not future.done():
        await asyncio.wait((future,))


class CinderellaRouter(FrontDoor):
    """A placement-driven proxy over serving nodes (see module docs)."""

    TIER = Tier(
        events="router",
        hop="router",
        request_seconds=(
            "repro_router_request_seconds",
            "Router request latency by op (fan-out included)",
        ),
        requests_total=(
            "repro_router_requests_by_op_total",
            "Router requests by op and status",
        ),
    )

    def __init__(
        self,
        placement: PlacementMap,
        config: Optional[RouterConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.placement = placement
        super().__init__(
            config if config is not None else RouterConfig(), RouterCounters(),
            inflight=_SESSION_INFLIGHT,
        )
        self._rng = rng if rng is not None else random.Random()
        self.health: dict[str, NodeHealth] = {
            node.name: NodeHealth(
                node.name,
                failure_threshold=self.config.failure_threshold,
                eject_base_s=self.config.eject_base_s,
                eject_max_s=self.config.eject_max_s,
                rng=self._rng,
            )
            for node in placement.nodes
        }
        self.pools: dict[str, NodePool] = {
            node.name: NodePool(node, timeout_s=self.config.upstream_timeout_s)
            for node in placement.nodes
        }
        #: the nodes a read's fast path sends to: every shard's primary
        self._primaries = list({
            replicas[0].name: replicas[0] for replicas in placement.replica_sets
        }.values())
        self._catchup: dict[str, deque[tuple[str, dict[str, Any]]]] = {
            node.name: deque() for node in placement.nodes
        }
        #: writes ever buffered per node: an exchange compares it with
        #: its value at send time to learn that the node missed a write
        #: while the exchange was in flight — even one already replayed
        self._buffered: dict[str, int] = {
            node.name: 0 for node in placement.nodes
        }
        #: per-node replay serialization: concurrent successful
        #: exchanges must not interleave drains of the same deque, and
        #: an exchange that *waited* behind a replay needs to know one
        #: happened (its response predates the replayed writes)
        self._catchup_locks: dict[str, asyncio.Lock] = {
            node.name: asyncio.Lock() for node in placement.nodes
        }
        #: data-lifecycle state per replica (healthy/lagging/diverged/
        #: resyncing) — orthogonal to the reachability breaker above
        self.replicas: dict[str, ReplicaTracker] = {
            node.name: ReplicaTracker(node.name) for node in placement.nodes
        }
        self._catchup_dropped: dict[str, int] = {
            node.name: 0 for node in placement.nodes
        }
        self._resyncing: set[str] = set()
        #: each session's upstream channels (by node name, opened
        #: lazily), by session id
        self._session_channels: dict[int, dict[str, Channel]] = {}
        self._monitor_task: Optional[asyncio.Task] = None
        self._next_eid = ROUTER_EID_BASE

    # ------------------------------------------------------------------
    # lifecycle: the router's hooks into the front door
    # ------------------------------------------------------------------
    def _launch(self) -> None:
        if self.config.resync_interval_s > 0:
            self._monitor_task = asyncio.create_task(self._resync_monitor())

    async def _quiesce(self, deadline: float) -> bool:
        """Stop repairing replicas; the front door then lets every
        session answer the requests it has in flight."""
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            await asyncio.gather(self._monitor_task, return_exceptions=True)
            self._monitor_task = None
        return False

    def _release(self) -> None:
        for pool in self.pools.values():
            pool.close()

    def _end_session(self, session: Session) -> None:
        """Close the session's upstream channels: its requests settled."""
        for channel in self._session_channels.pop(session.sid, {}).values():
            channel.close()

    # ------------------------------------------------------------------
    # the dispatch rule: pipelined when nothing on the path is degraded
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        request: Request,
        session: Session,
        previous: Optional[asyncio.Future],
    ) -> Optional[Awaitable[Outcome]]:
        """Send a read or write on the session's channels now, when
        nothing on its path is degraded; the awaitable is its answer.
        None makes the request a barrier, after which the session's
        failed channels are redialed.  Each exchange waits for
        *previous* to complete before acting on its reply (see
        :meth:`_exchange_attempts`)."""
        channels = self._session_channels.setdefault(session.sid, {})
        routed: Optional[Awaitable[Outcome]] = None
        if not self._draining and request.op in _WRITE_OPS:
            shard, replicas = self._write_target(request)
            if all(self._fast(node, channels) for node in replicas):
                routed = self._send_write(
                    request, shard, replicas, replicas, channels, previous
                )
        elif not self._draining and request.op in ("query", "sql"):
            if all(self._fast(node, channels) for node in self._primaries):
                scatter = self._begin_scatter(request)
                routed = self._gather(
                    scatter, self._scatter_round(scatter, channels, previous)
                )
        if routed is None:
            for name, channel in list(channels.items()):
                if channel.broken is not None:
                    del channels[name]
        return routed

    def _fast(self, node: NodeAddress, channels: dict[str, Channel]) -> bool:
        """May a pipelined exchange go to *node* right now: in the write
        set (and so queryable), caught up, reachable, and its session
        channel not failed?"""
        name = node.name
        channel = channels.get(name)
        return (
            self.replicas[name].in_write_set
            and not self._catchup[name]
            and (channel is None or channel.broken is None)
            and self.health[name].available()
        )

    def _channel(
        self, channels: Optional[dict[str, Channel]], node: NodeAddress
    ) -> Optional[Channel]:
        """The channel to *node* among *channels* (a session's, a
        resync's or an admin fan-out's), dialing a new one when there is
        none or it failed; None when there are no *channels*."""
        if channels is None:
            return None
        channel = channels.get(node.name)
        if channel is None or channel.broken is not None:
            channel = channels[node.name] = self.pools[node.name].channel()
        return channel

    async def _route(self, request: Request, session: Session) -> Outcome:
        op = request.op
        if self._draining and op not in ("ping", "stats", "obs"):
            raise Refused(
                protocol.SHUTTING_DOWN, "draining",
                "router is draining; no new work",
            )
        if op == "ping":
            return protocol.OK, {
                "payload": request.get("payload"), "router": self.config.name,
            }, None
        if op in _WRITE_OPS:
            return await self._route_write(request)
        if op in ("query", "sql"):
            return await self._scatter(request)
        if op == "stats":
            snapshot = self._stats_snapshot()
            if request.get("heat"):
                snapshot["heat"] = await self._gather_heat(request)
            return protocol.OK, snapshot, None
        if op == "obs":
            return await self._fanout_obs(request)
        if op == "maintain":
            return await self._fanout_maintain(request)
        if op == "shutdown":
            return self._shutdown(session)
        raise Refused(  # unreachable: decode_request validates ops
            protocol.BAD_REQUEST, "unknown_op", f"unhandled op {op!r}"
        )

    # ------------------------------------------------------------------
    # one upstream node: retry loop + breaker + dedup
    # ------------------------------------------------------------------
    def _node_exchange(
        self,
        node: NodeAddress,
        op: str,
        fields: dict[str, Any],
        context: Optional[TraceContext] = None,
        channel: Optional[Channel] = None,
        previous: Optional[asyncio.Future] = None,
        own: Optional[dict[str, Channel]] = None,
    ) -> Awaitable[Response]:
        """Exchange with one node: bounded same-node retries with
        jittered backoff, breaker bookkeeping, catch-up replay, and
        lost-ack dedup.

        With a session *channel*, the first attempt's frame is written
        on it before this returns; retries go through the node's pool.
        With the session's *previous* request, nothing happens after the
        reply — no retry, no replay, no verdict — until that request
        completed, so a replica sees no retry ahead of it, and every
        catch-up entry an earlier request left is known here.  With
        *own* channels (by node name, private to the caller), every
        attempt goes on the node's, redialed when it broke.

        With a trace *context*, the exchange gets its own child span —
        ``router.exchange`` with the node's name — whose context crosses
        the wire on the request's ``trace`` field, so the node's span
        nests under this exchange.  A fully failed exchange records the
        transport error on that span: in a degraded scatter, the
        unreachable shard's hop is marked, not silently absent.

        The awaitable raises :class:`UpstreamError` when every attempt
        transport-failed.
        """
        started = time.perf_counter()
        exchange_context = None
        if context is not None:
            exchange_context = context.child()
            fields = {**fields, "trace": exchange_context.to_wire()}
        if own is not None:
            channel = self._channel(own, node)
        mark = self._buffered[node.name]
        first = channel.send(op, fields) if channel is not None else None
        attempts = self._exchange_attempts(
            node, op, fields, first, previous, own, mark
        )
        if exchange_context is None:
            return attempts
        return self._traced(attempts, node, op, exchange_context, started)

    async def _traced(
        self,
        attempts: Awaitable[Response],
        node: NodeAddress,
        op: str,
        exchange_context: TraceContext,
        started: float,
    ) -> Response:
        error: Optional[str] = None
        try:
            return await attempts
        except UpstreamError as err:
            error = f"UpstreamError: {err}"
            raise
        finally:
            obs.record_remote_span(
                "router.exchange", started, time.perf_counter(),
                exchange_context, error=error, node=node.name, op=op,
            )

    async def _exchange_attempts(
        self,
        node: NodeAddress,
        op: str,
        fields: dict[str, Any],
        first: Optional[asyncio.Future] = None,
        previous: Optional[asyncio.Future] = None,
        own: Optional[dict[str, Channel]] = None,
        mark: int = 0,
    ) -> Response:
        """The attempts behind :meth:`_node_exchange`; *mark* is the
        node's :attr:`_buffered` count when *first* was sent.

        A write answers :data:`_BEHIND` instead of counting as applied
        ahead of writes its replica missed (its verdict then buffers it
        behind them): a write sent here goes out only once the replica's
        buffer is replayed, and one whose replica missed a write while
        it was in flight — say, the session's write just before it,
        shed — overtook that write there."""
        name = node.name
        health = self.health[name]
        pool = self.pools[name]
        write = op in _WRITE_OPS
        if health.probing:
            self.counters.probes_sent += 1
        saw_transport_failure = False
        last_error: Optional[UpstreamError] = None
        for attempt in range(1, _UPSTREAM_ATTEMPTS + 1):
            try:
                if first is not None:
                    response = await first
                elif write and not await self._caught_up(name):
                    return _BEHIND
                else:
                    mark = self._buffered[name]
                    response = await (
                        self._channel(own, node).send(op, fields)
                        if own is not None else pool.request(op, **fields)
                    )
            except UpstreamError as err:
                first = None
                saw_transport_failure = True
                last_error = err
                self._count_failure(err)
                # the session channel failed: whatever happens next (a
                # retry, a failover, a catch-up entry) waits for the
                # session's earlier requests, so no replica sees this
                # one ahead of them
                await _completed(previous)
                previous = None
                if attempt < _UPSTREAM_ATTEMPTS:
                    self.counters.upstream_retries += 1
                    delay = min(
                        _RETRY_MAX_S, _RETRY_BASE_S * (2 ** (attempt - 1))
                    )
                    await asyncio.sleep(delay * (0.5 + self._rng.random() * 0.5))
                continue
            # earlier requests buffer what this replica missed of theirs
            await _completed(previous)
            previous = None
            if health.record_success():
                self.counters.node_restores += 1
            missed_meanwhile = self._buffered[name] != mark
            if write:
                if missed_meanwhile:
                    return _BEHIND
            else:
                # any successful exchange drains the node's catch-up
                # buffer — a replica can miss writes without ever being
                # ejected (a transport blip on one fan-out), so replay
                # cannot be tied to breaker restores alone; stale_risk
                # also covers a replay another task had in flight while
                # our response was being computed (we wait on its lock)
                stale_risk = (
                    missed_meanwhile
                    or bool(self._catchup[name])
                    or self._catchup_locks[name].locked()
                )
                replayed = await self._replay_catchup(name)
                if (replayed or stale_risk) and (
                    op in ("query", "sql") or not response.ok
                ):
                    # this response was computed before the catch-up
                    # landed: a read missing the buffered writes, or a
                    # refusal contradicting them.  Re-issue now that the
                    # node is caught up.  On a re-failure a read falls
                    # back to its pre-catch-up rows (usable, merely
                    # stale), but a stale refusal must not stand
                    try:
                        response = await pool.request(op, **fields)
                    except UpstreamError:
                        if not response.ok:
                            raise

            if (
                saw_transport_failure
                and response.error is not None
                and response.error.get("code") == _DEDUP_CODES.get(op)
            ):
                # the attempt that "failed" actually applied before its
                # ack was lost; the retransmit's refusal proves it —
                # surface the idempotent success, not the duplicate error
                return Response(
                    id=response.id, status=protocol.APPLIED,
                    fields={"eid": fields.get("eid"), "deduplicated": True},
                )
            return response
        assert last_error is not None
        raise last_error

    async def _caught_up(self, node_name: str) -> bool:
        """Replay what is buffered for *node_name* (or wait out a replay
        in flight); true when nothing is left ahead of a new write."""
        if self._catchup[node_name] or self._catchup_locks[node_name].locked():
            await self._replay_catchup(node_name)
        return not self._catchup[node_name]

    def _count_failure(self, err: UpstreamError) -> None:
        """Count a failed exchange against its node's breaker, once per
        failed connection: the exchanges that fail together with a
        poisoned channel share its error."""
        if err.counted:
            return
        err.counted = True
        if self.health[err.node].record_failure():
            self.counters.node_ejections += 1

    def _buffer_catchup(
        self, node_name: str, op: str, fields: dict[str, Any]
    ) -> None:
        """Remember a write a replica missed, within the bounded budget.

        Overflowing the budget does **not** drop the oldest buffered
        write (that would silently lose the replica's copy of an acked
        write): it declares the replica *diverged* — replay alone can no
        longer reconstruct it — abandons the buffer, and hands the node
        to the resync machinery, which rebuilds it from a healthy peer.
        """
        tracker = self.replicas[node_name]
        if tracker.state == REPLICA_DIVERGED:
            return  # a full resync rebuilds it; buffering is pointless
        buffer = self._catchup[node_name]
        if len(buffer) >= _CATCHUP_LIMIT:
            abandoned = len(buffer) + 1
            buffer.clear()
            self._catchup_dropped[node_name] += abandoned
            self.counters.catchup_dropped += abandoned
            self._mark_diverged(node_name, reason="catchup_overflow")
            obs.event(
                "router.catchup_overflow", node=node_name,
                abandoned=abandoned,
            )
            return
        buffer.append((op, dict(fields)))
        self._buffered[node_name] += 1
        tracker.mark_lagging()

    def _mark_diverged(self, node_name: str, reason: str) -> None:
        if self.replicas[node_name].mark_diverged(reason):
            self.counters.nodes_diverged += 1

    async def _replay_catchup(self, node_name: str, force: bool = False) -> int:
        """Flush the buffered writes of a node that just came back;
        returns how many were replayed.

        Skipped (unless *force*) while the replica is diverged or
        resyncing: a diverged buffer was abandoned, and a drain landing
        mid-resync would apply writes the snapshot cut is about to
        erase — the resync task owns the drain ordering and passes
        ``force=True`` at exactly the right point.
        """
        if not force and not self.replicas[node_name].in_write_set:
            return 0
        buffer = self._catchup[node_name]
        lock = self._catchup_locks[node_name]
        if not buffer and not lock.locked():
            return 0
        pool = self.pools[node_name]
        replayed = 0
        # serialize per node: interleaved drains would reorder the
        # buffered writes, and a waiter must not return before an
        # in-flight replay has finished (its caller re-reads after us)
        async with lock:
            while buffer:
                entry = buffer[0]
                op, fields = entry
                try:
                    response = await pool.request(op, **fields)
                except UpstreamError as err:
                    # gone again mid-replay: keep the rest buffered; the
                    # next successful exchange brings us back here
                    self._count_failure(err)
                    break
                if not buffer or buffer[0] is not entry:
                    # the buffer was taken over while we awaited — a
                    # divergence declaration emptied it, or a resync
                    # claimed it; its contents are no longer ours to pop
                    break
                if response.retryable:
                    # the node shed the replayed write (overloaded):
                    # dropping it here would silently lose the replica's
                    # copy — keep it buffered and come back later
                    break
                # applied, or a logical verdict (duplicate_entity when
                # the node already had it): this record is settled
                buffer.popleft()
                replayed += 1
            if not buffer:
                self.replicas[node_name].mark_caught_up()
        self.counters.catchup_replayed += replayed
        if replayed:
            obs.event(
                "router.catchup_replayed", node=node_name,
                records=replayed, remaining=len(buffer),
            )
        return replayed

    # ------------------------------------------------------------------
    # resync: rebuilding a diverged replica from a healthy peer
    # ------------------------------------------------------------------
    async def _resync_monitor(self) -> None:
        """Background repair loop: probe diverged replicas and resync
        the reachable ones."""
        while True:
            await asyncio.sleep(self.config.resync_interval_s)
            for name, tracker in self.replicas.items():
                if (
                    tracker.state == REPLICA_DIVERGED
                    and name not in self._resyncing
                    and self.health[name].available()
                ):
                    await self.resync_node(name)

    async def resync_node(self, node_name: str) -> bool:
        """Rebuild one diverged replica from healthy shard peers.

        The zero-lost-writes argument, in full: write buffering for the
        node resumes the moment its tracker enters ``resyncing`` —
        strictly before the first ``sync_snapshot`` page is cut on any
        peer.  Every write acked after divergence is therefore either
        (a) already applied on the peer and thus inside the copied
        pages, or (b) sitting in the catch-up buffer drained (with
        ``force=True``) after each copied page and after the final
        delta; a page is only cut after the previous drain, so none
        overwrites a drained write with an older copy.  Writes in both sets
        replay idempotently (``sync_put`` upserts; a replayed delete
        refused with ``unknown_entity`` is a settled verdict, not a
        loss).  Re-admission happens only after the node and its peers
        agree on entity count and an order-independent digest per shard
        group; live traffic can race that comparison, so it retries
        with a fresh drain each time.
        """
        tracker = self.replicas[node_name]
        if tracker.state != REPLICA_DIVERGED or node_name in self._resyncing:
            return False
        self._resyncing.add(node_name)
        tracker.begin_resync()
        self.counters.resyncs_started += 1
        # entries buffered while diverged do not exist (buffering was
        # off); anything stale from before the divergence is superseded
        # by the copy about to land
        self._catchup[node_name].clear()
        started = time.perf_counter()
        # the repair's own channels: its pages and count/digest reads
        # must not queue behind live writes on a node's shared channel,
        # or verification chases every write that lands meanwhile
        channels: dict[str, Channel] = {}
        try:
            ok = await self._run_resync(node_name, channels)
        except (UpstreamError, Refused) as err:
            obs.event(
                "router.resync_failed", node=node_name, error=str(err),
            )
            ok = False
        finally:
            self._resyncing.discard(node_name)
            for channel in channels.values():
                channel.close()
        if ok and tracker.state == REPLICA_RESYNCING:
            lagging = bool(self._catchup[node_name])
            tracker.complete_resync(lagging=lagging)
            self.counters.resyncs_completed += 1
            obs.event(
                "router.resync_complete", node=node_name,
                duration_s=round(time.perf_counter() - started, 4),
                lagging=lagging,
            )
            return True
        tracker.fail_resync("resync_failed")
        self.counters.resyncs_failed += 1
        return False

    async def _run_resync(
        self, node_name: str, channels: dict[str, Channel]
    ) -> bool:
        target = self._node_address(node_name)
        shards = self.placement.shards_on(node_name)
        n_shards = self.placement.n_shards
        if not shards:
            return True  # holds nothing: trivially consistent
        peer_shards = self._pick_resync_peers(node_name, shards)
        if peer_shards is None:
            obs.event("router.resync_failed", node=node_name,
                      error="no healthy peer for some shard")
            return False
        # 1. reset: clear the target's (diverged) copy of its shards in
        #    one transaction, journaled on the target as sync_reset
        await self._resync_request(target, "sync_delta", {
            "reset": {"n_shards": n_shards, "shards": shards},
            "entities": [],
        }, channels)
        # 2. stream each peer's consistent copy, page by page
        for peer_name, peer_group in peer_shards.items():
            peer = self._node_address(peer_name)
            after_eid = -1
            while True:
                page = await self._resync_request(peer, "sync_snapshot", {
                    "n_shards": n_shards, "shards": peer_group,
                    "after_eid": after_eid,
                    "limit": _SYNC_PAGE_ENTITIES,
                }, channels)
                entities = page.get("entities", [])
                if entities:
                    await self._resync_request(target, "sync_delta", {
                        "entities": entities,
                    }, channels)
                    self.counters.sync_entities_streamed += len(entities)
                # drain the live writes buffered so far: every page still
                # to come is cut after they landed on the peer, so none
                # can carry an older copy over them — and a long copy
                # under write load no longer overflows the budget
                await self._replay_catchup(node_name, force=True)
                if page.get("done", True):
                    break
                after_eid = page.get("next_after", after_eid)
        # 3. final delta: ask the target to checkpoint so the resynced
        #    state survives an immediate crash
        await self._resync_request(target, "sync_delta", {
            "entities": [], "final": True,
        }, channels)
        # 4. drain the writes buffered since the resync began, then
        #    verify target and peers agree per shard group — retrying,
        #    because live traffic keeps moving the goalposts
        for _attempt in range(_RESYNC_VERIFY_ATTEMPTS):
            # no pause between attempts: under live writes a pause only
            # lets the buffer grow towards its budget
            await self._replay_catchup(node_name, force=True)
            if self._catchup[node_name]:
                continue  # drain bounced (node busy); try again
            if await self._verify_resync(
                target, peer_shards, n_shards, channels
            ):
                return True
        obs.event(
            "router.resync_failed", node=node_name,
            error="count/digest verification never converged",
        )
        return False

    async def _verify_resync(
        self,
        target: NodeAddress,
        peer_shards: dict[str, list[int]],
        n_shards: int,
        channels: dict[str, Channel],
    ) -> bool:
        for peer_name, peer_group in peer_shards.items():
            peer = self._node_address(peer_name)
            fields = {
                "n_shards": n_shards, "shards": peer_group,
                "count_only": True,
            }
            ours, theirs = await asyncio.gather(
                self._resync_request(target, "sync_snapshot", fields, channels),
                self._resync_request(peer, "sync_snapshot", fields, channels),
            )
            if (
                ours.get("count") != theirs.get("count")
                or ours.get("digest") != theirs.get("digest")
            ):
                return False
        return True

    def _pick_resync_peers(
        self, node_name: str, shards: list[int]
    ) -> Optional[dict[str, list[int]]]:
        """Choose a healthy source replica per shard, grouped by peer so
        each peer streams its shards in one paging run.  None when some
        shard has no healthy reachable peer (resync would lose data)."""
        peer_shards: dict[str, list[int]] = {}
        for shard in shards:
            peer = next(
                (
                    node for node in self.placement.replica_sets[shard]
                    if node.name != node_name
                    and self.replicas[node.name].state
                    not in (REPLICA_DIVERGED, REPLICA_RESYNCING)
                    and self.health[node.name].available()
                ),
                None,
            )
            if peer is None:
                return None
            peer_shards.setdefault(peer.name, []).append(shard)
        return peer_shards

    def _node_address(self, node_name: str) -> NodeAddress:
        return next(
            node for node in self.placement.nodes if node.name == node_name
        )

    async def _resync_request(
        self,
        node: NodeAddress,
        op: str,
        fields: dict[str, Any],
        channels: dict[str, Channel],
    ) -> dict[str, Any]:
        """One repair exchange on the resync's *channels*: plain request
        + breaker bookkeeping, no catch-up replay (the resync task owns
        that ordering) and no dedup (sync ops are idempotent by
        construction)."""
        health = self.health[node.name]
        try:
            response = await self._channel(channels, node).send(op, fields)
        except UpstreamError as err:
            self._count_failure(err)
            raise
        if health.record_success():
            self.counters.node_restores += 1
        if not response.ok:
            error = response.error or {}
            raise Refused(
                response.status, error.get("code", "sync_failed"),
                f"{op} on {node.name}: "
                f"{error.get('message', 'refused')}",
            )
        return dict(response.fields)

    # ------------------------------------------------------------------
    # writes: partition-aware fan-out to the owning shard's replicas
    # ------------------------------------------------------------------
    def _write_target(
        self, request: Request
    ) -> tuple[int, tuple[NodeAddress, ...]]:
        """The shard a write belongs to and that shard's replicas; an
        insert without an id gets one here, kept on the request so a
        barrier routing it again reuses it."""
        eid = request.get("eid")
        if request.op == "insert" and eid is None:
            eid = request.fields["eid"] = self._next_eid
            self._next_eid += 1
        if not valid_entity_id(eid):
            raise Refused(
                protocol.REJECTED, "invalid_entity_id",
                f"entity id must be a non-negative integer below 2**70, "
                f"got {eid!r}",
            )
        shard = self.placement.shard_of(eid)
        return shard, self.placement.replica_sets[shard]

    async def _route_write(self, request: Request) -> Answer:
        shard, replicas = self._write_target(request)
        # diverged/resyncing replicas are out of the write set entirely:
        # fanning a write to a mid-resync node would race the snapshot
        # cut (resyncing nodes get their live writes via the catch-up
        # buffer instead, drained after the copy lands)
        writable = [
            node for node in replicas if self.replicas[node.name].in_write_set
        ]
        candidates = [
            node for node in writable if self.health[node.name].available()
        ]
        if not candidates:
            if not writable:
                # every replica of the shard is being rebuilt: no node
                # may take this write directly.  Retryable — the resync
                # machinery re-admits replicas shortly
                self.counters.writes_routed += 1
                self.counters.replies_unavailable += 1
                return protocol.NODE_UNAVAILABLE, {
                    "shard": shard,
                }, protocol.error_body(
                    "no_writable_replica",
                    f"every replica of shard {shard} is resyncing; "
                    f"back off and retry",
                )
            # last gasp: the breaker has every replica out, but refusing
            # outright would turn fast connect-refused failures into
            # guaranteed downtime — force one attempt at the first
            # writable replica, which doubles as the probe
            candidates = [writable[0]]
            self.counters.probes_sent += 1
        return await self._send_write(request, shard, replicas, candidates)

    def _send_write(
        self,
        request: Request,
        shard: int,
        replicas: tuple[NodeAddress, ...],
        candidates: Sequence[NodeAddress],
        channels: Optional[dict[str, Channel]] = None,
        previous: Optional[asyncio.Future] = None,
    ) -> Awaitable[Answer]:
        """Send the write to *candidates* now (on the session's
        *channels*, when given); the awaitable is its verdict."""
        fields = dict(request.fields)
        fields.pop("_trace_context", None)  # router-internal, not wire
        context = request_trace_context(request)
        self.counters.writes_routed += 1
        exchanges = [
            self._node_exchange(
                node, request.op, fields, context,
                self._channel(channels, node), previous,
            )
            for node in candidates
        ]
        return self._write_verdict(
            request.op, fields, shard, replicas, candidates, exchanges
        )

    async def _write_verdict(
        self,
        op: str,
        fields: dict[str, Any],
        shard: int,
        replicas: tuple[NodeAddress, ...],
        candidates: Sequence[NodeAddress],
        exchanges: list[Awaitable[Response]],
    ) -> Answer:
        """The ack discipline: acked as soon as one replica applied the
        write, every replica that did not is caught up later."""
        outcomes = await asyncio.gather(*exchanges, return_exceptions=True)
        acked: list[tuple[NodeAddress, Response]] = []
        refused: list[tuple[NodeAddress, Response]] = []
        missed = [node for node in replicas if node not in candidates]
        for node, outcome in zip(candidates, outcomes):
            if isinstance(outcome, UpstreamError):
                missed.append(node)
            elif isinstance(outcome, BaseException):
                raise outcome
            elif outcome.ok:
                acked.append((node, outcome))
            else:
                refused.append((node, outcome))
        if acked:
            # a replica that shed the write never applied it: it is as
            # behind as one the write never reached
            missed += [
                node for node, response in refused
                if response.status in _SHED_STATUSES
            ]
            for node in missed:
                self._buffer_catchup(node.name, op, fields)
            node, response = acked[0]
            merged = dict(response.fields)
            merged.update(
                shard=shard,
                replicas_acked=len(acked),
                replicas_missed=len(missed),
            )
            if len(acked) > 1:
                # per-replica partition ids differ (each node partitions
                # its slice independently); report the primary's view
                merged.pop("partition", None)
            self.counters.replies_complete += 1
            if node is not replicas[0]:
                self.counters.failovers += 1
            return protocol.APPLIED, merged, None
        if refused:
            if any(self._catchup[node.name] for node in replicas):
                # a refusal only speaks for the shard when every replica
                # is caught up: with writes still buffered, the verdict
                # may contradict the cluster-wide truth (unknown_entity
                # for an entity whose insert is sitting in the buffer).
                # Answer retryable — by the retry, the buffer has drained
                self.counters.replies_unavailable += 1
                return protocol.NODE_UNAVAILABLE, {
                    "shard": shard,
                }, protocol.error_body(
                    "replica_catching_up",
                    f"shard {shard} has replicas catching up; "
                    f"back off and retry",
                )
            # a logical verdict from a live replica (rejected, overloaded,
            # shutting_down): propagate it untouched — replicas apply
            # deterministically, so any one verdict speaks for the shard
            _node, response = refused[0]
            return response.status, dict(response.fields), response.error
        self.counters.replies_unavailable += 1
        obs.event("router.write_unroutable", shard=shard, op=op)
        return protocol.NODE_UNAVAILABLE, {"shard": shard}, protocol.error_body(
            "no_reachable_replica",
            f"no replica of shard {shard} is reachable; back off and retry",
        )

    # ------------------------------------------------------------------
    # reads: scatter-gather with per-shard replica failover
    # ------------------------------------------------------------------
    async def _scatter(self, request: Request) -> Outcome:
        """Shard-scoped scatter-gather with per-shard replica failover.

        Every shard is assigned to its first available replica, shards
        sharing a node are grouped into *one* upstream request carrying
        a ``shard_filter`` (the node answers for exactly those shards —
        with replication, an unscoped read would double-count rows held
        as secondary copies).  Shards whose node failed are reassigned
        to their next replica in the following round; a shard that runs
        out of replicas is reported in ``unreachable_shards``.
        """
        scatter = self._begin_scatter(request)
        return await self._gather(scatter, self._scatter_round(scatter))

    def _begin_scatter(self, request: Request) -> _Scatter:
        self.counters.queries_scattered += 1
        fields = dict(request.fields)
        fields.pop("shard_filter", None)  # router-owned field
        fields.pop("_trace_context", None)  # router-internal
        remaining = set(self.placement.shards)
        return _Scatter(
            op=request.op, fields=fields,
            context=request_trace_context(request),
            remaining=remaining,
            tried={shard: set() for shard in remaining},
        )

    def _scatter_round(
        self,
        scatter: _Scatter,
        channels: Optional[dict[str, Channel]] = None,
        previous: Optional[asyncio.Future] = None,
    ) -> Optional[_Round]:
        """Assign the remaining shards to replicas and send the round
        now; None when no shard has a replica left to try."""
        assignment: dict[NodeAddress, list[int]] = {}
        for shard in sorted(scatter.remaining):
            replicas = self.placement.replica_sets[shard]
            # diverged/resyncing replicas hold incomplete copies —
            # serving a scatter slice from one would silently drop
            # rows, so they are not even failover candidates
            untried = [
                node for node in replicas
                if node.name not in scatter.tried[shard]
                and self.replicas[node.name].is_queryable
            ]
            if not untried:
                continue  # out of replicas: stays unreachable
            available = [
                node for node in untried
                if self.health[node.name].available()
            ]
            # last gasp when the breaker has every replica out: one
            # forced attempt beats guaranteed downtime, and a dead
            # port fails fast anyway
            node = available[0] if available else untried[0]
            scatter.tried[shard].add(node.name)
            if node is not replicas[0]:
                scatter.failed_over.add(shard)
            assignment.setdefault(node, []).append(shard)
        if not assignment:
            return None
        n_shards = self.placement.n_shards
        return assignment, [
            self._node_exchange(
                node, scatter.op, {
                    **scatter.fields,
                    "shard_filter": {"n_shards": n_shards, "shards": shards},
                }, scatter.context, self._channel(channels, node), previous,
            )
            for node, shards in assignment.items()
        ]

    async def _gather(
        self,
        scatter: _Scatter,
        round_: Optional[_Round],
    ) -> Outcome:
        """Collect *round_* and the failover rounds after it; merge."""
        while round_ is not None:
            assignment, exchanges = round_
            outcomes = await asyncio.gather(*exchanges, return_exceptions=True)
            for (node, shards), outcome in zip(assignment.items(), outcomes):
                if isinstance(outcome, UpstreamError):
                    continue  # shards stay in remaining; next round
                if isinstance(outcome, BaseException):
                    raise outcome
                if not outcome.ok:
                    # a logical refusal (bad_query, sql_syntax): the
                    # request itself is wrong, every shard would refuse
                    # identically — propagate instead of half-merging
                    refusal = outcome
                    return refusal.status, dict(refusal.fields), refusal.error
                scatter.gathered.append(outcome)
                scatter.remaining.difference_update(shards)
            round_ = (
                self._scatter_round(scatter) if scatter.remaining else None
            )
        self.counters.failovers += len(scatter.failed_over - scatter.remaining)
        # the merge is synchronous, so a stack span is safe here; the
        # trace scope parents it under this request's router hop
        with obs.trace_scope(scatter.context), obs.span(
            "router.gather_merge", op=scatter.op,
            shards=self.placement.n_shards,
            unreachable=len(scatter.remaining),
        ):
            return self._merge_scatter(
                scatter.op, scatter.gathered, sorted(scatter.remaining)
            )

    def _merge_scatter(
        self,
        op: str,
        gathered: list[Response],
        unreachable: list[int],
    ) -> Outcome:
        """The union of the gathered replies, as one concatenation: their
        ``rows`` arrays spliced as the bytes the nodes rendered, under a
        header summed from theirs — rows last, as a node answers.  A
        reply whose rows arrived decoded contributes them re-encoded
        (counted in ``rows_reencoded``)."""
        n_shards = self.placement.n_shards
        if len(unreachable) == n_shards:
            self.counters.replies_unavailable += 1
            obs.event("router.scatter_unroutable", op=op)
            return protocol.NODE_UNAVAILABLE, {
                "shards_total": n_shards,
                "shards_answered": 0,
            }, protocol.error_body(
                "no_reachable_replica",
                "no shard had a reachable replica; back off and retry",
            )
        parts: list[bytes] = []
        row_count = 0
        stats_sum: dict[str, int] = {}
        pruned_partitions = 0
        for response in gathered:
            raw = response.rows_raw
            if raw is None:
                rows = response.get("rows", [])
                raw = json.dumps(rows, separators=(",", ":")).encode()
                self.counters.rows_reencoded += len(rows)
                row_count += len(rows)
            else:
                row_count += response.get("row_count", 0)
            inner = raw[1:-1].strip()
            if inner:
                parts.append(inner)
            pruned_partitions += response.get("pruned_partitions", 0)
            for key, value in (response.get("stats") or {}).items():
                if isinstance(value, (int, float)):
                    stats_sum[key] = stats_sum.get(key, 0) + value
        status = protocol.OK
        header: dict[str, Any] = {"row_count": row_count}
        if op == "query":
            header["stats"] = stats_sum
        else:
            header["pruned_partitions"] = pruned_partitions
        header["shards_total"] = n_shards
        header["shards_answered"] = n_shards - len(unreachable)
        if not unreachable:
            self.counters.replies_complete += 1
        else:
            # the partial-result contract: the rows we *did* gather,
            # plus an explicit account of what is missing
            status = protocol.DEGRADED
            header["unreachable_shards"] = unreachable
            header["error"] = protocol.error_body(
                "partial_result",
                f"{len(unreachable)} of {n_shards} shards had no "
                f"reachable replica; rows are incomplete",
            )
            self.counters.replies_degraded += 1
            obs.event(
                "router.scatter_degraded", op=op,
                unreachable_shards=unreachable,
            )
        head = json.dumps(
            {"ok": status in protocol.SUCCESS_STATUSES, "status": status,
             **header},
            separators=(",", ":"),
        ).encode()
        return Raw(status, b"".join((
            b",", head[1:-1], b',"rows":[', b",".join(parts), b"]}\n",
        )))

    # ------------------------------------------------------------------
    # admin ops
    # ------------------------------------------------------------------
    async def _ask_every_node(
        self, op: str, fields: dict[str, Any], request: Request
    ) -> list[tuple[NodeAddress, Union[Response, UpstreamError]]]:
        """Send *op* to every node at once, under *request*'s trace; a
        node that cannot be reached answers with its :class:`UpstreamError`.

        Each node gets a channel of this fan-out's own, closed once it
        answered: a slow admin exchange (a checkpointing ``maintain``)
        must not hold up, or time out, the barrier traffic queued on the
        node's shared channel."""
        context = request_trace_context(request)
        channels: dict[str, Channel] = {}

        async def ask(node: NodeAddress) -> Union[Response, UpstreamError]:
            try:
                return await self._node_exchange(
                    node, op, fields, context, own=channels,
                )
            except UpstreamError as err:
                return err

        nodes = self.placement.nodes
        try:
            return list(zip(nodes, await asyncio.gather(*map(ask, nodes))))
        finally:
            for channel in channels.values():
                channel.close()

    async def _fanout_maintain(self, request: Request) -> Answer:
        fields: dict[str, Any] = {}
        if request.get("checkpoint"):
            fields["checkpoint"] = True
        answers = await self._ask_every_node("maintain", fields, request)
        return protocol.OK, {"nodes": {
            node.name: (
                {"error": str(answer)} if isinstance(answer, UpstreamError)
                else dict(answer.fields)
            )
            for node, answer in answers
        }}, None

    async def _gather_heat(self, request: Request) -> dict[str, Any]:
        """Partition heat federated from every node's ``stats``.

        Opt-in (``stats`` with ``heat: true``) so the plain stats verb
        stays a synchronous local snapshot.  Keys are ``node/pid``; a
        node that cannot be scraped — or that serves with adaptation
        disabled — simply contributes nothing.
        """
        return {
            f"{node.name}/{pid}": doc
            for node, answer in await self._ask_every_node("stats", {}, request)
            if not isinstance(answer, UpstreamError)
            for pid, doc in (answer.get("heat") or {}).items()
        }

    async def _fanout_obs(self, request: Request) -> Answer:
        """Metrics federation: scatter ``obs`` to every node, merge.

        Every node's observability document (registry + trace
        digests) is gathered concurrently; a node that cannot be
        scraped contributes an explicit *unreachable* marker instead of
        vanishing.  The router's own document joins the set (labeled
        ``tier="router"``), and the merged cluster view — per-node
        labeled samples, bucket-merged histograms, staleness marks —
        is returned under ``cluster``.
        """
        started = time.perf_counter()
        documents = [
            unreachable_document(node.name, str(answer))
            if isinstance(answer, UpstreamError)
            else {**answer.fields, "name": answer.get("name", node.name)}
            for node, answer in await self._ask_every_node("obs", {}, request)
        ]
        documents.append(
            local_obs_document(self.config.name, tier="router")
        )
        view = merge_documents(documents)
        self.counters.obs_scrapes += 1
        obs.observe(
            "repro_router_obs_scrape_seconds",
            time.perf_counter() - started,
            "Cluster observability scrape latency (fan-out + merge)",
            buckets=SERVER_LATENCY_BUCKETS,
        )
        return protocol.OK, {"cluster": view.to_json_obj()}, None

    def _stats_snapshot(self) -> dict[str, Any]:
        return {
            "router": self.config.name,
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "draining": self._draining,
            "placement": self.placement.as_dict(),
            "health": {
                name: health.as_dict() for name, health in self.health.items()
            },
            "pools": {
                name: pool.as_dict() for name, pool in self.pools.items()
            },
            "replicas": {
                name: tracker.as_dict()
                for name, tracker in self.replicas.items()
            },
            "catchup_buffered": {
                name: len(buffer) for name, buffer in self._catchup.items()
            },
            "catchup_dropped": dict(self._catchup_dropped),
            "sessions": [s.as_dict() for s in self.sessions.values()],
            "counters": self.counters.as_dict(),
        }
