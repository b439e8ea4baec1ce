"""Observability overhead benchmark and CI gate.

Three measurements, one committed baseline:

* the original **mixed table workload** — a DBpedia-style load with
  splits, repeated cached queries, and a merge pass, i.e. every
  in-process hot path the :mod:`repro.obs` layer instruments — with
  observability *disabled* and *enabled* (tracing + metrics + events),
  comparing CPU times;
* the **server path** — a live :class:`CinderellaServer` over a real
  socket, driven through :class:`ServerClient` with a seeded read-mostly
  mix, comparing disabled against the *full* enabled configuration
  (tracing + metrics + **wire trace propagation**).  This is the path
  the cluster-observability work instruments most heavily: per-request
  spans, the op-labeled latency histogram, and context adoption all sit
  on it, and the same 10 % gate applies;
* **federation scrape latency** — wall-clock p50/p99 of one
  ``obs`` scatter-gather through the router of a live three-node
  cluster, i.e. what a fleet Prometheus endpoint pays per scrape.

Measuring a single-digit-percent effect on a shared machine needs a
deliberate protocol; three layers of noise control are stacked (the
machinery lives in ``benchmarks/conftest.py`` and is shared with the
server load generator):

* ``time.process_time`` + a ``gc.collect()`` before each run — CPU
  time ignores scheduler preemption, which alone exceeds the effect
  being measured in wall-clock time;
* **quiet-floor estimation**: machine interference (cache and
  bandwidth contention from co-tenants) only ever *adds* CPU time, so
  the quietest runs approach each mode's interference-free floor.  The
  floor is the mean of the ``FLOOR_K`` smallest of ``REPEATS`` runs —
  a raw minimum is an extreme order statistic and one lucky run swings
  it by several points — and the overhead is the ratio of the floors;
* **interleaving**: the modes alternate run by run, in alternating
  order within each pair, so a long quiet window is sampled by both
  modes and a burst cannot systematically land on one of them.

The claim under test is the layer's core contract:

* **enabled** tracing and metrics may slow the workload by at most
  ``MAX_ENABLED_OVERHEAD`` (the CI gate fails above 10 %);
* **disabled** instrumentation is noise: every call site is one global
  read plus an early return, micro-measured here in nanoseconds per
  call and bounded by ``MAX_DISABLED_NS_PER_CALL``;
* the **always-on tier** — one ``counters.x += 1`` on a counter set,
  which every hot path pays with observability on or off — is a plain
  attribute write, recorded as ``counter_write_ns`` and bounded by
  ``MAX_COUNTER_WRITE_NS``.

``python benchmarks/bench_observability.py --record`` rewrites the
committed baseline ``BENCH_observability.json`` at the repo root.  The
pytest gate (``PYTHONPATH=src python -m pytest
benchmarks/bench_observability.py``) re-measures and fails when the
enabled overhead exceeds the gate.  The workload is fully seeded.
"""

from __future__ import annotations

import json
import random
import tempfile
import time
from pathlib import Path

from conftest import interleaved_cpu_runs, percentile, quiet_floor

from repro import obs
from repro.core.config import CinderellaConfig
from repro.obs.counters import QueryPathCounters
from repro.query.cache import QueryResultCache
from repro.router.testing import ClusterHarness
from repro.server import CinderellaServer, ServerConfig, ServerThread
from repro.server.client import ServerClient
from repro.table.partitioned import CinderellaTable
from repro.workloads.dbpedia import generate_dbpedia_persons
from repro.workloads.querygen import (
    build_query_workload,
    representative_queries,
)

BASELINE_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_observability.json"
)

#: workload shape — identical for recording and gating
N_ENTITIES = 2_000
MAX_PARTITION_SIZE = 200.0
WEIGHT = 0.3
QUERY_ROUNDS = 3
N_QUERIES = 15
SEED = 42
#: interleaved run pairs per mode
REPEATS = 25
#: the quiet floor is the mean of this many smallest runs
FLOOR_K = 5

#: the CI gate: enabled observability may cost at most this fraction
#: (applies to the mixed table workload AND the server path alike)
MAX_ENABLED_OVERHEAD = 0.10
#: a disabled call site must stay in no-op territory
MAX_DISABLED_NS_PER_CALL = 2_000.0
#: a counter-set write must stay a plain attribute write (≈45 ns here).
#: The same loop at 18b70e7, when every write went through the registry
#: mirror's ``__setattr__`` hook, read ``COUNTER_WRITE_NS_BEFORE``
MAX_COUNTER_WRITE_NS = 150.0
COUNTER_WRITE_NS_BEFORE = 296.0

#: server-path workload shape.  The mix must be *steady-state
#: representative*: a read-only plan degenerates to response-cache hits
#: after one run (the serving tier memoizes repeated shapes by design)
#: and would measure the instrumentation against the cheapest request
#: the server can answer.  Instead every eighth request is an **update
#: to an existing entity** — table size stays constant run to run, but
#: each write batch invalidates the snapshot caches, so the queries in
#: between keep planning, pruning, and scanning, i.e. keep exercising
#: the spans on the query path.
#:
#: The table size matters for the same reason the mix does: the
#: instrumentation cost per request is a constant (recorded as
#: ``enabled_us_per_request``), so against a near-empty table the ratio
#: gate degenerates into measuring that constant against requests that
#: plan, scan, and serialize almost nothing.  1 200 entities is the
#: small end of the paper's workloads (queries return ~100 rows and
#: touch several partitions); the absolute per-request figure is
#: committed alongside the ratio so a workload change cannot silently
#: move the goalposts
SERVER_PRELOAD = 1_200
SERVER_OPS = 400
SERVER_WRITE_EVERY = 8
SERVER_ATTRIBUTE_SPACE = 12
SERVER_REPEATS = 15
SERVER_FLOOR_K = 4

#: federation scrape-latency sample count (three-node cluster)
FEDERATION_NODES = 3
FEDERATION_SCRAPES = 40


def _run_workload(dataset) -> None:
    """Inserts (with splits), repeated cached queries, one merge pass."""
    table = CinderellaTable(
        CinderellaConfig(
            max_partition_size=MAX_PARTITION_SIZE,
            weight=WEIGHT,
            use_synopsis_index=True,
        ),
        result_cache=QueryResultCache(),
    )
    for entity in dataset.entities:
        table.insert(entity.attributes, entity_id=entity.entity_id)
    masks = [
        entity.synopsis_mask(table.dictionary) for entity in dataset.entities
    ]
    specs = build_query_workload(masks, table.dictionary, max_triples=30)
    queries = [
        spec.query for spec in representative_queries(specs, per_bucket=2)
    ][:N_QUERIES]
    for _round in range(QUERY_ROUNDS):
        for query in queries:
            table.execute(query)
    table.merge_small_partitions(min_fill=0.5)


def _measure_disabled_call_ns() -> float:
    """Nanoseconds per disabled ``obs.span()`` + ``obs.inc()`` pair."""
    assert not obs.is_enabled()
    iterations = 200_000
    span = obs.span
    inc = obs.inc
    started = time.perf_counter()
    for _ in range(iterations):
        with span("bench.noop"):
            pass
        inc("bench_noop_total")
    elapsed = time.perf_counter() - started
    return elapsed / iterations * 1e9


def _measure_counter_write_ns() -> float:
    """Nanoseconds per ``counters.x += 1`` (loop included), best of 5."""
    assert not obs.is_enabled()
    counters = QueryPathCounters()
    iterations = 500_000
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(iterations):
            counters.cache_hits += 1
        best = min(best, time.perf_counter() - started)
    return best / iterations * 1e9


def _run_disabled(dataset) -> None:
    obs.disable()
    _run_workload(dataset)


def _run_enabled(dataset) -> None:
    obs.enable(slow_op_threshold_s=0.05)
    try:
        _run_workload(dataset)
    finally:
        obs.disable()


def _make_bench_server() -> CinderellaServer:
    table = CinderellaTable(
        CinderellaConfig(
            max_partition_size=256.0, weight=0.3, use_synopsis_index=True
        )
    )
    return CinderellaServer(table=table, config=ServerConfig())


def _server_plan() -> list[tuple]:
    """The seeded request plan, identical for both modes and all runs."""
    rng = random.Random(SEED)
    plan: list[tuple] = []
    for step in range(SERVER_OPS):
        if step % SERVER_WRITE_EVERY == 0:
            # rewrite an existing entity's payload attribute: the table
            # neither grows nor re-partitions, but the write batch
            # invalidates the query caches
            plan.append(("update", rng.randrange(SERVER_PRELOAD)))
        elif rng.random() < 0.5:
            plan.append(
                ("query", f"attr{rng.randrange(SERVER_ATTRIBUTE_SPACE)}")
            )
        else:
            first = rng.randrange(SERVER_ATTRIBUTE_SPACE)
            second = (
                first + 1 + rng.randrange(SERVER_ATTRIBUTE_SPACE - 1)
            ) % SERVER_ATTRIBUTE_SPACE
            plan.append(("query", f"attr{first}", f"attr{second}"))
    return plan


def _drive_server(client: ServerClient, plan: list[tuple]) -> None:
    for step in plan:
        if step[0] == "update":
            eid = step[1]
            client.update(eid, {f"attr{eid % SERVER_ATTRIBUTE_SPACE}": eid})
        else:
            client.request("query", attributes=list(step[1:]))


def run_server_benchmark() -> dict:
    """Disabled vs. fully-enabled (propagation on) over a live socket.

    The server runs in-process threads, so ``time.process_time`` charges
    both sides of the wire — client encode + trace stamping, server
    decode + span recording + histogram observes — while ignoring the
    socket waits a strict request/response client spends most of its
    wall-clock time on.
    """
    obs.disable()
    server = _make_bench_server()
    plan = _server_plan()
    with ServerThread(server=server) as harness:
        with ServerClient(*harness.address) as client:
            rng = random.Random(SEED)
            for eid in range(SERVER_PRELOAD):
                client.insert(
                    {f"attr{rng.randrange(SERVER_ATTRIBUTE_SPACE)}": eid},
                    eid=eid,
                )
            _drive_server(client, plan)  # warm-up: caches, both codecs

            def disabled_run() -> None:
                obs.disable()
                _drive_server(client, plan)

            def enabled_run() -> None:
                obs.enable(propagate=True, slow_op_threshold_s=0.05)
                try:
                    _drive_server(client, plan)
                finally:
                    obs.disable()

            disabled_runs, enabled_runs = interleaved_cpu_runs(
                disabled_run, enabled_run, SERVER_REPEATS
            )
    disabled_s = quiet_floor(disabled_runs, SERVER_FLOOR_K)
    enabled_s = quiet_floor(enabled_runs, SERVER_FLOOR_K)
    overhead = enabled_s / disabled_s - 1.0
    return {
        "preload": SERVER_PRELOAD,
        "ops": SERVER_OPS,
        "repeats": SERVER_REPEATS,
        "floor_k": SERVER_FLOOR_K,
        "cpu_seconds": {
            "disabled_floor": round(disabled_s, 4),
            "enabled_floor": round(enabled_s, 4),
            "disabled_runs": [round(s, 4) for s in disabled_runs],
            "enabled_runs": [round(s, 4) for s in enabled_runs],
        },
        "enabled_pct": round(overhead * 100, 2),
        # the workload-independent figure: what one traced request costs
        # in absolute terms (client stamp + encode, adopt, spans,
        # histogram, counter, remote-span record, both codec deltas)
        "enabled_us_per_request": round(
            (enabled_s - disabled_s) / SERVER_OPS * 1e6, 1
        ),
    }


def run_federation_benchmark() -> dict:
    """Wall-clock latency of one ``obs`` scatter-gather via the router."""
    with tempfile.TemporaryDirectory() as tmp:
        obs.enable(propagate=True)
        try:
            with ClusterHarness(
                Path(tmp), n_nodes=FEDERATION_NODES
            ) as harness:
                with harness.client() as client:
                    rng = random.Random(SEED)
                    for eid in range(60):
                        client.insert(
                            {f"attr{rng.randrange(4)}": eid}, eid=eid
                        )
                    client.request("obs")  # warm-up
                    latencies_ms: list[float] = []
                    for _ in range(FEDERATION_SCRAPES):
                        started = time.perf_counter()
                        response = client.request("obs")
                        latencies_ms.append(
                            (time.perf_counter() - started) * 1000
                        )
                        assert response.ok
                        assert "cluster" in response.fields
        finally:
            obs.disable()
    return {
        "nodes": FEDERATION_NODES,
        "scrapes": FEDERATION_SCRAPES,
        "scrape_p50_ms": round(percentile(latencies_ms, 50), 2),
        "scrape_p99_ms": round(percentile(latencies_ms, 99), 2),
    }


def run_benchmark() -> dict:
    """Measure disabled vs. enabled; returns the JSON-ready report."""
    dataset = generate_dbpedia_persons(n_entities=N_ENTITIES, seed=SEED)
    obs.disable()
    _run_workload(dataset)  # warm-up: imports, allocator, caches

    disabled_runs, enabled_runs = interleaved_cpu_runs(
        lambda: _run_disabled(dataset),
        lambda: _run_enabled(dataset),
        REPEATS,
    )
    disabled_s = quiet_floor(disabled_runs, FLOOR_K)
    enabled_s = quiet_floor(enabled_runs, FLOOR_K)
    overhead = enabled_s / disabled_s - 1.0
    disabled_ns = _measure_disabled_call_ns()
    return {
        "benchmark": "observability_overhead",
        "workload": {
            "entities": N_ENTITIES,
            "max_partition_size": MAX_PARTITION_SIZE,
            "weight": WEIGHT,
            "query_rounds": QUERY_ROUNDS,
            "queries": N_QUERIES,
            "seed": SEED,
            "repeats": REPEATS,
            "floor_k": FLOOR_K,
        },
        "cpu_seconds": {
            "disabled_floor": round(disabled_s, 4),
            "enabled_floor": round(enabled_s, 4),
            "disabled_runs": [round(s, 4) for s in disabled_runs],
            "enabled_runs": [round(s, 4) for s in enabled_runs],
        },
        "overhead": {
            "enabled_pct": round(overhead * 100, 2),
            "disabled_ns_per_callsite": round(disabled_ns, 1),
            "counter_write_ns": round(_measure_counter_write_ns(), 1),
            "counter_write_ns_before": COUNTER_WRITE_NS_BEFORE,
        },
        "server_path": run_server_benchmark(),
        "federation": run_federation_benchmark(),
    }


# the gate tests share one measurement — CI collects all of them in a
# single pytest invocation and must not pay for the workloads twice
_REPORT_CACHE: dict = {}


def _cached_report() -> dict:
    if "report" not in _REPORT_CACHE:
        _REPORT_CACHE["report"] = run_benchmark()
    return _REPORT_CACHE["report"]


def test_observability_overhead_gate():
    """CI gate: enabled ≤10 % slower; disabled call sites are no-ops."""
    report = _cached_report()
    overhead_pct = report["overhead"]["enabled_pct"]
    assert overhead_pct <= MAX_ENABLED_OVERHEAD * 100, (
        f"enabled observability costs {overhead_pct:.1f}% on the mixed "
        f"workload (gate: {MAX_ENABLED_OVERHEAD:.0%}). Reduce span "
        f"granularity on the hot paths before shipping."
    )
    disabled_ns = report["overhead"]["disabled_ns_per_callsite"]
    assert disabled_ns <= MAX_DISABLED_NS_PER_CALL, (
        f"a disabled instrumentation site costs {disabled_ns:.0f} ns "
        f"(bound: {MAX_DISABLED_NS_PER_CALL:.0f} ns) — the "
        f"zero-cost-when-disabled contract is broken"
    )
    write_ns = report["overhead"]["counter_write_ns"]
    assert write_ns <= MAX_COUNTER_WRITE_NS, (
        f"one counter-set write costs {write_ns:.0f} ns (bound: "
        f"{MAX_COUNTER_WRITE_NS:.0f} ns) — the always-on tier is no "
        f"longer a plain attribute write"
    )


def test_server_path_overhead_gate():
    """CI gate: full instrumentation (tracing + metrics + propagation)
    may slow the live server path by at most the same 10 %."""
    report = _cached_report()
    overhead_pct = report["server_path"]["enabled_pct"]
    assert overhead_pct <= MAX_ENABLED_OVERHEAD * 100, (
        f"enabled observability (with wire propagation) costs "
        f"{overhead_pct:.1f}% on the server path (gate: "
        f"{MAX_ENABLED_OVERHEAD:.0%}). The per-request span, histogram "
        f"observe, and context adoption are the suspects."
    )


def test_federation_scrape_is_interactive():
    """A fleet scrape must answer fast enough for a live dashboard."""
    report = _cached_report()
    assert report["federation"]["scrape_p99_ms"] < 1000.0, (
        "one obs scatter-gather took over a second on a three-node "
        "in-process cluster — the fleet endpoint would starve Prometheus"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record",
        action="store_true",
        help=f"rewrite the committed baseline at {BASELINE_PATH.name}",
    )
    args = parser.parse_args(argv)
    report = run_benchmark()
    print(json.dumps(report, indent=2))
    if args.record:
        BASELINE_PATH.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nbaseline recorded to {BASELINE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
