"""The online serving layer: Cinderella behind a TCP socket.

The paper's point is *online* partitioning — the catalog adapts while
modifications and queries keep arriving (Definition 2).  Everything
below this package is a single-threaded library; this package is the
concurrent front door that makes "online" literal:

* :mod:`repro.server.server` — an asyncio TCP server speaking the
  line-delimited JSON protocol of :mod:`repro.server.protocol`:
  per-connection sessions, lock-free snapshot-isolated reads (queries
  serve from the latest :class:`~repro.query.snapshot.TableSnapshot`,
  never blocking on writers), an adaptive write-admission window with
  explicit ``OVERLOADED`` shedding
  (:mod:`repro.server.admission` — queue-based load leveling), write
  batching group-committed through one :mod:`repro.txn` undo-log
  transaction (per-op savepoints) and one WAL fsync per batch, and
  cooperative background maintenance (merge / reorganize) running
  between batches;
* :mod:`repro.server.frontdoor` — the TCP shell the node shares with
  the router (:mod:`repro.router`): listener, sessions, framing,
  request accounting, the bounded drain;
* :mod:`repro.server.client` — the small blocking client used by the
  tests, the soak suite, and ``benchmarks/bench_server.py``;
* :mod:`repro.server.testing` — :class:`ServerThread`, an in-process
  harness for either tier, for tests and load generators.

Start one with ``python -m repro serve``; see ``docs/SERVER.md``.
"""

from repro.server.admission import AdaptiveAdmission
from repro.server.client import ServerClient, ServerError
from repro.server.protocol import (
    DEGRADED,
    MAX_LINE_BYTES,
    NODE_UNAVAILABLE,
    PARTIAL_STATUSES,
    RETRYABLE_STATUSES,
    ProtocolError,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.server.server import CinderellaServer, ServerConfig
from repro.server.testing import ServerThread

__all__ = [
    "AdaptiveAdmission",
    "CinderellaServer",
    "DEGRADED",
    "MAX_LINE_BYTES",
    "NODE_UNAVAILABLE",
    "PARTIAL_STATUSES",
    "ProtocolError",
    "RETRYABLE_STATUSES",
    "Request",
    "Response",
    "ServerClient",
    "ServerConfig",
    "ServerError",
    "ServerThread",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
]
