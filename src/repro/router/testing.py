"""In-process cluster harness: serving nodes + router, kill switches.

:class:`ClusterHarness` assembles the whole topology the chaos suite
exercises — *n* WAL-backed serving nodes, a placement map over them, and
one router in front, each tier on its own
:class:`~repro.server.testing.ServerThread` — and exposes the two verbs
chaos testing needs:

* :meth:`ClusterHarness.kill_node` — crash a node (RSTs on the wire,
  queued writes dropped, only the WAL survives);
* :meth:`ClusterHarness.restart_node` — bring it back on the *same*
  port with the *same* WAL, which the fresh server replays before
  binding; the router's breaker probes it back in and replays the
  catch-up buffer.

Every node serves a real :class:`~repro.table.partitioned.CinderellaTable`
with deliberately small partitions, so splits and merges keep firing
under chaos traffic — the paper's online adaptivity running *while*
nodes die.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.core.config import CinderellaConfig
from repro.router.placement import NodeAddress, PlacementMap
from repro.router.router import CinderellaRouter, RouterConfig
from repro.server.client import ServerClient
from repro.server.server import CinderellaServer, ServerConfig
from repro.server.testing import ServerThread
from repro.table.partitioned import CinderellaTable


def small_partition_table() -> CinderellaTable:
    """A table whose partitions split early — chaos traffic keeps the
    adaptive machinery (splits, merges) firing on every node."""
    return CinderellaTable(
        CinderellaConfig(
            max_partition_size=12.0, weight=0.3, use_synopsis_index=True
        )
    )


class ClusterHarness:
    """N WAL-backed serving nodes + placement + router, in one process."""

    def __init__(
        self,
        wal_dir: Union[str, Path],
        n_nodes: int = 3,
        n_shards: int = 0,
        replication_factor: int = 2,
        server_config: Optional[ServerConfig] = None,
        router_config: Optional[RouterConfig] = None,
        checkpointing: bool = False,
        archiving: bool = False,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"need at least one node, got {n_nodes}")
        self.wal_dir = Path(wal_dir)
        self.n_nodes = n_nodes
        self._n_shards = n_shards
        self._replication_factor = replication_factor
        self._server_config = server_config
        self._router_config = router_config
        #: checkpointing stays opt-in: several chaos assertions count on
        #: restart replaying the *full* WAL (wal_records_replayed > 0)
        self._checkpointing = checkpointing
        self._archiving = archiving
        self.nodes: dict[str, ServerThread] = {}
        self.addresses: dict[str, NodeAddress] = {}
        self.placement: Optional[PlacementMap] = None
        self.router: Optional[CinderellaRouter] = None
        self.router_thread: Optional[ServerThread] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _node_config(self, name: str, port: int = 0) -> ServerConfig:
        base = self._server_config
        if base is None:
            base = ServerConfig(maintenance_interval_s=0.05)
        from dataclasses import replace

        extra: dict[str, object] = {}
        if self._checkpointing:
            extra["snapshot_path"] = self.wal_dir / f"{name}.snapshot"
        if self._archiving:
            extra["snapshot_path"] = self.wal_dir / f"{name}.snapshot"
            extra["archive_dir"] = self.wal_dir / f"{name}-archive"
        return replace(
            base, name=name, port=port,
            wal_path=self.wal_dir / f"{name}.wal",
            **extra,
        )

    def start(self) -> "ClusterHarness":
        for index in range(self.n_nodes):
            name = f"node{index}"
            server = CinderellaServer(
                table=small_partition_table(),
                config=self._node_config(name),
            )
            thread = ServerThread(server=server).start()
            self.nodes[name] = thread
            host, port = thread.address
            self.addresses[name] = NodeAddress(name=name, host=host, port=port)
        self.placement = PlacementMap(
            [self.addresses[f"node{i}"] for i in range(self.n_nodes)],
            n_shards=self._n_shards,
            replication_factor=self._replication_factor,
        )
        self.router = CinderellaRouter(
            self.placement, config=self._router_config
        )
        self.router_thread = ServerThread(self.router).start()
        return self

    @property
    def router_address(self) -> tuple[str, int]:
        assert self.router_thread is not None
        return self.router_thread.address

    def client(self, check: bool = True, timeout: float = 30.0) -> ServerClient:
        """A blocking client connected to the router."""
        host, port = self.router_address
        return ServerClient(host, port, timeout=timeout, check=check)

    def node_client(self, name: str, check: bool = True) -> ServerClient:
        """A blocking client connected directly to one serving node."""
        address = self.addresses[name]
        return ServerClient(address.host, address.port, check=check)

    # ------------------------------------------------------------------
    # chaos verbs
    # ------------------------------------------------------------------
    def kill_node(self, name: str) -> None:
        """Crash *name*: RST every connection, drop unacked writes.
        The node's WAL stays on disk — that is the durability contract
        under test."""
        self.nodes[name].kill()

    def restart_node(self, name: str) -> None:
        """Bring a killed node back on its old port with its old WAL.

        The fresh server replays the journal before binding, so every
        write it acknowledged in its previous life is served again."""
        address = self.addresses[name]
        server = CinderellaServer(
            table=small_partition_table(),
            config=self._node_config(name, port=address.port),
        )
        thread = ServerThread(server=server).start()
        self.nodes[name] = thread

    def stop(self) -> None:
        if self.router_thread is not None:
            self.router_thread.stop()
            self.router_thread = None
        for thread in self.nodes.values():
            try:
                thread.stop()
            except TimeoutError:  # pragma: no cover - debugging aid
                pass
        self.nodes.clear()

    def __enter__(self) -> "ClusterHarness":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.stop()
