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
  does not answer) and merge the shards' rows.  The partial-result
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

Listener, sessions, framing, request accounting and the bounded drain
are the front door it shares with the serving node
(:class:`~repro.server.frontdoor.FrontDoor`); the router keeps its own
one-request-at-a-time connection loop and its part of the drain: stop
the resync monitor, close the upstream pools.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional, Union

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
from repro.router.pool import NodePool, UpstreamError
from repro.server import protocol
from repro.server.frontdoor import (
    Answer,
    FrontDoor,
    Outcome,
    Refused,
    Session,
    Tier,
    request_trace_context,
)
from repro.server.protocol import ProtocolError, Request, Response
from repro.storage.record import valid_entity_id

#: refusal codes that mean "the write actually landed, the ack was
#: lost" when they follow a transport failure on the same exchange
_DEDUP_CODES = {"insert": "duplicate_entity", "delete": "unknown_entity"}
#: entities copied per ``sync_snapshot``/``sync_delta`` page of a resync
#: — the 1 MiB frame bound is the real ceiling, this keeps each exchange
#: comfortably under it
_SYNC_PAGE_ENTITIES = 200
#: count/digest agreement attempts before a resync is abandoned (live
#: traffic can race the comparison; each retry re-drains the buffered
#: delta first)
_RESYNC_VERIFY_ATTEMPTS = 8


@dataclass
class RouterConfig:
    """Tunables of one router instance."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests, benchmarks)
    port: int = 0
    name: str = "router"
    #: per-exchange upstream timeout (connect, send, and read each)
    upstream_timeout_s: float = 2.0
    #: attempts per node before failing over to the next replica
    upstream_attempts: int = 2
    #: jittered exponential backoff between same-node attempts
    retry_base_s: float = 0.01
    retry_max_s: float = 0.1
    #: consecutive failures that trip a node's circuit breaker
    failure_threshold: int = 3
    #: ejection window growth: base · 2^(ejections−1), capped
    eject_base_s: float = 0.2
    eject_max_s: float = 5.0
    #: buffered writes kept per unreachable node for catch-up replay;
    #: overflowing this budget marks the replica ``diverged`` (resync
    #: rebuilds it) instead of silently dropping buffered writes
    catchup_limit: int = 512
    #: graceful-drain bound (same contract as the serving nodes)
    drain_deadline_s: float = 5.0
    #: how often the resync monitor looks for diverged replicas to
    #: repair (seconds; 0 disables the monitor — resyncs then only run
    #: when driven explicitly, which is what the tests want)
    resync_interval_s: float = 0.25


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
            config if config is not None else RouterConfig(), RouterCounters()
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
        self._catchup: dict[str, deque[tuple[str, dict[str, Any]]]] = {
            node.name: deque() for node in placement.nodes
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
        self._monitor_task: Optional[asyncio.Task] = None
        self._next_eid = ROUTER_EID_BASE

    # ------------------------------------------------------------------
    # lifecycle: the router's hooks into the front door
    # ------------------------------------------------------------------
    def _launch(self) -> None:
        if self.config.resync_interval_s > 0:
            self._monitor_task = asyncio.create_task(self._resync_monitor())

    async def _quiesce(self, deadline: float) -> bool:
        """Stop repairing replicas; in-flight requests finish on their
        connections, which the front door drains."""
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            await asyncio.gather(self._monitor_task, return_exceptions=True)
            self._monitor_task = None
        return False

    def _release(self) -> None:
        for pool in self.pools.values():
            pool.close()

    # ------------------------------------------------------------------
    # the connection loop: one request at a time, each answer written
    # and drained before the next frame is read
    # ------------------------------------------------------------------
    async def _serve_connection(
        self,
        session: Session,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while not session.closing:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                writer.write(self._frame_too_long())
                await writer.drain()
                break
            if not line:
                break  # EOF
            line = line.strip()
            if not line:
                continue
            try:
                request, started = self._decode(line)
            except ProtocolError as err:
                payload = self._undecodable(session, err)
            else:
                payload = await self._respond(session, request, started)
            writer.write(payload)
            await writer.drain()

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
        if op in ("insert", "update", "delete"):
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
    async def _node_exchange(
        self,
        node: NodeAddress,
        op: str,
        fields: dict[str, Any],
        context: Optional[TraceContext] = None,
    ) -> Response:
        """Exchange with one node: bounded same-node retries with
        jittered backoff, breaker bookkeeping, and lost-ack dedup.

        With a trace *context*, the exchange gets its own child span —
        ``router.exchange`` with the node's name — whose context crosses
        the wire on the request's ``trace`` field, so the node's span
        nests under this exchange.  A fully failed exchange records the
        transport error on that span: in a degraded scatter, the
        unreachable shard's hop is marked, not silently absent.

        Raises :class:`UpstreamError` when every attempt transport-failed.
        """
        if context is None:
            return await self._exchange_attempts(node, op, fields)
        exchange_context = context.child()
        fields = {**fields, "trace": exchange_context.to_wire()}
        started = time.perf_counter()
        error: Optional[str] = None
        try:
            return await self._exchange_attempts(node, op, fields)
        except UpstreamError as err:
            error = f"UpstreamError: {err}"
            raise
        finally:
            obs.record_remote_span(
                "router.exchange", started, time.perf_counter(),
                exchange_context, error=error, node=node.name, op=op,
            )

    async def _exchange_attempts(
        self, node: NodeAddress, op: str, fields: dict[str, Any]
    ) -> Response:
        health = self.health[node.name]
        pool = self.pools[node.name]
        if health.probing:
            self.counters.probes_sent += 1
        saw_transport_failure = False
        last_error: Optional[UpstreamError] = None
        for attempt in range(1, self.config.upstream_attempts + 1):
            try:
                response = await pool.request(op, **fields)
            except UpstreamError as err:
                saw_transport_failure = True
                last_error = err
                if health.record_failure():
                    self.counters.node_ejections += 1
                if attempt < self.config.upstream_attempts:
                    self.counters.upstream_retries += 1
                    delay = min(
                        self.config.retry_max_s,
                        self.config.retry_base_s * (2 ** (attempt - 1)),
                    )
                    await asyncio.sleep(delay * (0.5 + self._rng.random() * 0.5))
                continue
            if health.record_success():
                self.counters.node_restores += 1
            # any successful exchange drains the node's catch-up buffer
            # — a replica can miss writes without ever being ejected (a
            # transport blip on one fan-out), so replay cannot be tied
            # to breaker restores alone; stale_risk also covers a replay
            # another task had in flight while our response was being
            # computed (we wait on its lock below)
            stale_risk = (
                bool(self._catchup[node.name])
                or self._catchup_locks[node.name].locked()
            )
            replayed = await self._replay_catchup(node.name)
            if (replayed or stale_risk) and (
                op in ("query", "sql") or not response.ok
            ):
                # this response was computed before the catch-up landed,
                # so it can be stale in either direction: a read missing
                # the buffered writes, or a refusal (unknown_entity on a
                # delete whose insert was still buffered) contradicting
                # the cluster-wide truth.  Re-issue now that the node is
                # caught up.  On a re-failure a read falls back to its
                # pre-catch-up rows (usable, merely stale), but a stale
                # refusal must not stand — fail over instead.
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
        if len(buffer) >= self.config.catchup_limit:
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
                except UpstreamError:
                    # gone again mid-replay: keep the rest buffered; the
                    # next successful exchange brings us back here
                    self.health[node_name].record_failure()
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
        ``force=True``) after the final delta.  Writes in both sets
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
        try:
            ok = await self._run_resync(node_name)
        except (UpstreamError, Refused) as err:
            obs.event(
                "router.resync_failed", node=node_name, error=str(err),
            )
            ok = False
        finally:
            self._resyncing.discard(node_name)
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

    async def _run_resync(self, node_name: str) -> bool:
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
        })
        # 2. stream each peer's consistent copy, page by page
        for peer_name, peer_group in peer_shards.items():
            peer = self._node_address(peer_name)
            after_eid = -1
            while True:
                page = await self._resync_request(peer, "sync_snapshot", {
                    "n_shards": n_shards, "shards": peer_group,
                    "after_eid": after_eid,
                    "limit": _SYNC_PAGE_ENTITIES,
                })
                entities = page.get("entities", [])
                if entities:
                    await self._resync_request(target, "sync_delta", {
                        "entities": entities,
                    })
                    self.counters.sync_entities_streamed += len(entities)
                if page.get("done", True):
                    break
                after_eid = page.get("next_after", after_eid)
        # 3. final delta: ask the target to checkpoint so the resynced
        #    state survives an immediate crash
        await self._resync_request(target, "sync_delta", {
            "entities": [], "final": True,
        })
        # 4. drain the writes buffered since the resync began, then
        #    verify target and peers agree per shard group — retrying,
        #    because live traffic keeps moving the goalposts
        for attempt in range(1, _RESYNC_VERIFY_ATTEMPTS + 1):
            if attempt > 1:
                await asyncio.sleep(0.02)
            await self._replay_catchup(node_name, force=True)
            if self._catchup[node_name]:
                continue  # drain bounced (node busy); try again
            if await self._verify_resync(target, peer_shards, n_shards):
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
    ) -> bool:
        for peer_name, peer_group in peer_shards.items():
            peer = self._node_address(peer_name)
            fields = {
                "n_shards": n_shards, "shards": peer_group,
                "count_only": True,
            }
            ours, theirs = await asyncio.gather(
                self._resync_request(target, "sync_snapshot", fields),
                self._resync_request(peer, "sync_snapshot", fields),
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
                    node for node in self.placement.replicas(shard)
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
        self, node: NodeAddress, op: str, fields: dict[str, Any]
    ) -> dict[str, Any]:
        """One repair exchange: plain request + breaker bookkeeping, no
        catch-up replay (the resync task owns that ordering) and no
        dedup (sync ops are idempotent by construction)."""
        health = self.health[node.name]
        try:
            response = await self.pools[node.name].request(op, **fields)
        except UpstreamError:
            if health.record_failure():
                self.counters.node_ejections += 1
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
    async def _route_write(
        self, request: Request
    ) -> Answer:
        op = request.op
        eid = request.get("eid")
        if op == "insert" and eid is None:
            eid = self._next_eid
            self._next_eid += 1
        if not valid_entity_id(eid):
            raise Refused(
                protocol.REJECTED, "invalid_entity_id",
                f"entity id must be a non-negative integer below 2**70, "
                f"got {eid!r}",
            )
        shard = self.placement.shard_of(eid)
        replicas = self.placement.replicas(shard)
        fields = dict(request.fields)
        fields.pop("_trace_context", None)  # router-internal, not wire
        context = request_trace_context(request)
        fields["eid"] = eid
        self.counters.writes_routed += 1
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
        outcomes = await asyncio.gather(
            *(
                self._node_exchange(node, op, fields, context=context)
                for node in candidates
            ),
            return_exceptions=True,
        )
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
    async def _scatter(
        self, request: Request
    ) -> Answer:
        """Shard-scoped scatter-gather with per-shard replica failover.

        Every shard is assigned to its first available replica, shards
        sharing a node are grouped into *one* upstream request carrying
        a ``shard_filter`` (the node answers for exactly those shards —
        with replication, an unscoped read would double-count rows held
        as secondary copies).  Shards whose node failed are reassigned
        to their next replica in the following round; a shard that runs
        out of replicas is reported in ``unreachable_shards``.
        """
        self.counters.queries_scattered += 1
        base_fields = dict(request.fields)
        base_fields.pop("shard_filter", None)  # router-owned field
        base_fields.pop("_trace_context", None)  # router-internal
        context = request_trace_context(request)
        n_shards = self.placement.n_shards
        remaining: set[int] = set(self.placement.shards)
        tried: dict[int, set[str]] = {shard: set() for shard in remaining}
        gathered: list[Response] = []
        failed_over: set[int] = set()
        refusal: Optional[Response] = None
        while remaining and refusal is None:
            assignment: dict[NodeAddress, list[int]] = {}
            for shard in sorted(remaining):
                replicas = self.placement.replicas(shard)
                # diverged/resyncing replicas hold incomplete copies —
                # serving a scatter slice from one would silently drop
                # rows, so they are not even failover candidates
                untried = [
                    node for node in replicas
                    if node.name not in tried[shard]
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
                tried[shard].add(node.name)
                if node is not replicas[0]:
                    failed_over.add(shard)
                assignment.setdefault(node, []).append(shard)
            if not assignment:
                break
            outcomes = await asyncio.gather(
                *(
                    self._node_exchange(node, request.op, {
                        **base_fields,
                        "shard_filter": {
                            "n_shards": n_shards, "shards": shards,
                        },
                    }, context=context)
                    for node, shards in assignment.items()
                ),
                return_exceptions=True,
            )
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
                    break
                gathered.append(outcome)
                remaining.difference_update(shards)
        if refusal is not None:
            return refusal.status, dict(refusal.fields), refusal.error
        self.counters.failovers += len(failed_over - remaining)
        # the merge is synchronous, so a stack span is safe here; the
        # trace scope parents it under this request's router hop
        with obs.trace_scope(context), obs.span(
            "router.gather_merge", op=request.op, shards=n_shards,
            unreachable=len(remaining),
        ):
            return self._merge_scatter(request.op, gathered, sorted(remaining))

    def _merge_scatter(
        self,
        op: str,
        gathered: list[Response],
        unreachable: list[int],
    ) -> Answer:
        rows: list[Any] = []
        stats_sum: dict[str, int] = {}
        pruned_partitions = 0
        for response in gathered:
            rows.extend(response.get("rows", []))
            pruned_partitions += response.get("pruned_partitions", 0)
            for key, value in (response.get("stats") or {}).items():
                if isinstance(value, (int, float)):
                    stats_sum[key] = stats_sum.get(key, 0) + value
        merged: dict[str, Any] = {"rows": rows, "row_count": len(rows)}
        if op == "query":
            merged["stats"] = stats_sum
        else:
            merged["pruned_partitions"] = pruned_partitions
        merged["shards_total"] = self.placement.n_shards
        merged["shards_answered"] = self.placement.n_shards - len(unreachable)
        if not unreachable:
            self.counters.replies_complete += 1
            return protocol.OK, merged, None
        if len(unreachable) == self.placement.n_shards:
            self.counters.replies_unavailable += 1
            obs.event("router.scatter_unroutable", op=op)
            return protocol.NODE_UNAVAILABLE, {
                "shards_total": self.placement.n_shards,
                "shards_answered": 0,
            }, protocol.error_body(
                "no_reachable_replica",
                "no shard had a reachable replica; back off and retry",
            )
        # the partial-result contract: the rows we *did* gather, plus an
        # explicit account of what is missing
        merged["unreachable_shards"] = unreachable
        self.counters.replies_degraded += 1
        obs.event(
            "router.scatter_degraded", op=op, unreachable_shards=unreachable,
        )
        return protocol.DEGRADED, merged, protocol.error_body(
            "partial_result",
            f"{len(unreachable)} of {self.placement.n_shards} shards had no "
            f"reachable replica; rows are incomplete",
        )

    # ------------------------------------------------------------------
    # admin ops
    # ------------------------------------------------------------------
    async def _ask_every_node(
        self, op: str, fields: dict[str, Any], request: Request
    ) -> list[tuple[NodeAddress, Union[Response, UpstreamError]]]:
        """Send *op* to every node at once, under *request*'s trace; a
        node that cannot be reached answers with its :class:`UpstreamError`."""
        context = request_trace_context(request)

        async def ask(node: NodeAddress) -> Union[Response, UpstreamError]:
            try:
                return await self._node_exchange(node, op, fields, context=context)
            except UpstreamError as err:
                return err

        nodes = self.placement.nodes
        return list(zip(nodes, await asyncio.gather(*map(ask, nodes))))

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
