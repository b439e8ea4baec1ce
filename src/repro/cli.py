"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — partition the paper's Figure 1 product catalog and run a
  pruned query, narrating every step.
* ``dbpedia`` — generate the synthetic DBpedia person extract, load it
  through Cinderella, and print the partitioning statistics (optionally
  saving a snapshot).
* ``tpch`` — load TPC-H into a Cinderella universal table, verify the
  schema recovery, and optionally run one of the 22 queries.
* ``advise`` — recommend B and w for a generated data sample.
* ``adapt`` — run the closed adaptation loop on a scripted workload
  shift: a fine layout serves selective per-group queries (the
  controller blesses the baseline and quiesces), the mix shifts to
  broad scans, and the controller answers with one bounded
  reorganization to a coarser layout before quiescing again.
* ``inspect`` — print the partitioning statistics of a saved snapshot
  (a table snapshot or a node checkpoint).
* ``query-path`` — load DBpedia data with the inverted synopsis index
  and the query result cache enabled, run a repeated selective-query
  workload, and report the fast-path counters and speedup.
* ``verify-catalog`` — integrity-check a saved snapshot (table
  snapshot or node checkpoint): checksum, format, catalog invariants.
* ``obs`` — run a built-in mixed workload (inserts with splits,
  queries, maintenance, a WAL append) under the observability layer
  and report metrics, top spans, slow ops, and events — as a summary,
  Prometheus text, or JSON.  With ``--cluster
  HOST:PORT`` it instead scrapes a running router's ``obs`` verb and
  renders the federated cluster view (``--listen`` serves it as a
  fleet-wide Prometheus endpoint).
* ``top`` — live terminal dashboard over a running router: request
  rates and latency quantiles per node and verb, shed rate, replica
  lifecycle states, catch-up depth, and SLO burn-rate alerts.
* ``serve`` — run the online serving layer: a TCP server speaking the
  line-delimited JSON protocol of :mod:`repro.server`, with admission
  control, write batching, and cooperative background maintenance.
  Stops gracefully (drain, then exit) on Ctrl-C or SIGTERM.
* ``route`` — run the partition-aware routing tier of
  :mod:`repro.router` in front of running ``serve`` nodes: shard-hash
  write routing, scatter-gather reads with explicit partial results,
  and per-node circuit-breaker failover.
* ``backup`` — archive a node's WAL segment (and its checkpoint, when
  one exists) into a :mod:`repro.backup` archive.
* ``recover`` — point-in-time recovery: rebuild node state as of an
  exact WAL sequence from the archive and write it as a checkpoint a
  fresh node can start from.
* ``scrub`` — verify the checksums of every archived checkpoint and
  WAL segment at rest (and optionally a node's live snapshot).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.config import CinderellaConfig


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.query.query import AttributeQuery
    from repro.table.partitioned import CinderellaTable

    products = [
        {"name": "Canon PowerShot S120", "resolution": 12.1, "aperture": 2.0},
        {"name": "Sony SLT-A99", "resolution": 24, "aperture": 1.8},
        {"name": "WD4000FYYZ", "storage": "4TB", "rotation": 7200},
        {"name": "WD2003FYYS", "storage": "2TB", "rotation": 7200},
        {"name": "LG 60LA7408", "screen": 40, "tuner": "DVB-T/C/S"},
    ]
    table = CinderellaTable(CinderellaConfig(max_partition_size=2, weight=0.3))
    for product in products:
        outcome = table.insert(product)
        print(f"insert {product['name']!r} -> partition {outcome.partition_id}")
    print(f"\n{table.partition_count()} partitions formed")
    query = AttributeQuery(("aperture", "resolution"))
    print(f"\n{query.sql()}")
    result = table.execute(query)
    print(result.plan.describe())
    for row in result.rows:
        print(f"  {row}")
    return 0


def _cmd_dbpedia(args: argparse.Namespace) -> int:
    from repro.core.efficiency import summarize_catalog
    from repro.reporting.tables import format_kv_block
    from repro.table.partitioned import CinderellaTable
    from repro.workloads.dbpedia import generate_dbpedia_persons

    dataset = generate_dbpedia_persons(n_entities=args.entities, seed=args.seed)
    config = CinderellaConfig(
        max_partition_size=args.partition_size, weight=args.weight
    )
    table = CinderellaTable(config)
    for entity in dataset.entities:
        table.insert(entity.attributes, entity_id=entity.entity_id)
    summary = summarize_catalog(table.catalog)
    print(format_kv_block(
        f"Cinderella over {args.entities} DBpedia persons "
        f"(B={args.partition_size:g}, w={args.weight})",
        [
            ("partitions", summary.partition_count),
            ("splits", table.partitioner.split_count),
            ("median entities/partition", summary.entities_summary.median),
            ("median attributes/partition", summary.attributes_summary.median),
            ("median sparseness/partition", summary.sparseness_summary.median),
            ("dataset sparseness", dataset.sparseness()),
        ],
    ))
    if args.snapshot:
        from repro.storage.snapshot import save_table

        save_table(table, args.snapshot)
        print(f"snapshot written to {args.snapshot}")
    return 0


def _cmd_tpch(args: argparse.Namespace) -> int:
    from repro.workloads.tpch.databases import CinderellaTPCHDatabase
    from repro.workloads.tpch.dbgen import generate_tpch
    from repro.workloads.tpch.queries import run_query

    data = generate_tpch(scale_factor=args.scale_factor, seed=args.seed)
    print(f"TPC-H SF {args.scale_factor}: {data.total_rows()} rows")
    db = CinderellaTPCHDatabase(
        data, CinderellaConfig(max_partition_size=args.partition_size, weight=0.5)
    )
    print(f"{db.partition_count()} partitions; "
          f"schema recovered exactly: {db.schema_is_exact()}")
    if args.query is not None:
        rows = run_query(args.query, db)
        print(f"\nQ{args.query}: {len(rows)} rows")
        for row in rows[:10]:
            print(f"  {row}")
        if len(rows) > 10:
            print(f"  ... ({len(rows) - 10} more)")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.adapt.advisor import advise
    from repro.reporting.tables import format_table
    from repro.workloads.dbpedia import generate_dbpedia_persons

    dataset = generate_dbpedia_persons(n_entities=args.entities, seed=args.seed)
    dictionary = dataset.dictionary()
    masks = [entity.synopsis_mask(dictionary) for entity in dataset.entities]
    report = advise(masks)
    print(format_table(
        ["w", "B", "efficiency", "partitions", "score"],
        [
            [t.weight, f"{t.max_partition_size:g}", t.efficiency,
             t.partition_count, t.score]
            for t in report.trials
        ],
        title=f"Advisor trials over {report.sample_size} entities",
    ))
    recommended = report.recommended
    print(f"\nrecommended: B={recommended.max_partition_size:g} "
          f"w={recommended.weight}")
    print(f"rationale: {report.rationale}")
    return 0


def _cmd_adapt(args: argparse.Namespace) -> int:
    """Run the closed adaptation loop on a scripted workload shift.

    Loads a grouped dataset under a deliberately fine layout, drives a
    selective per-group query phase (the controller blesses it as the
    baseline and quiesces), then shifts to broad scans of the shared
    attribute — the shift the controller must detect, answer with one
    bounded reorganization to a coarser layout, and then quiesce again.
    """
    from repro.adapt import AdaptationConfig, AdaptationController
    from repro.query.query import AttributeQuery
    from repro.table.partitioned import CinderellaTable

    groups = max(1, args.groups)
    table = CinderellaTable(CinderellaConfig(
        max_partition_size=args.partition_size,
        weight=args.weight,
        use_synopsis_index=True,
    ))
    controller = AdaptationController(config=AdaptationConfig(
        min_observations=args.min_observations,
        cooldown_s=0.0,  # the demo is seconds long; rounds gate actions
        horizon_queries=args.horizon,
    ))
    controller.bind_table(table)

    for i in range(args.entities):
        group = i % groups
        attributes = {"common": i}
        for suffix in ("a", "b", "c"):
            attributes[f"g{group}_{suffix}"] = i
        table.insert(attributes, entity_id=i)
    initial_partitions = table.partition_count()
    print(f"loaded {len(table)} entities in {groups} groups under "
          f"B={args.partition_size:g} w={args.weight} "
          f"-> {initial_partitions} partitions")

    selective = [
        AttributeQuery((f"g{group}_{suffix}",), "any")
        for group in range(groups) for suffix in ("a", "b", "c")
    ]
    broad = [AttributeQuery(("common",), "any")] * len(selective)
    phases = [("A selective per-group", selective),
              ("B broad shared-attribute", broad)]
    round_no = 0
    for phase_name, queries in phases:
        print(f"\nphase {phase_name} queries")
        for _ in range(args.rounds):
            round_no += 1
            for query in queries:
                table.execute(query)
            decision = (controller.evaluate(table) if args.dry_run
                        else controller.maybe_adapt(table))
            line = (f"  round {round_no}: {decision.action} "
                    f"({decision.reason})  shift={decision.shift:.2f}  "
                    f"queries={decision.queries_observed}")
            if decision.plan is not None:
                line += (f"  win={decision.plan.win_fraction:.0%}  "
                         f"B={decision.plan.config.max_partition_size:g} "
                         f"w={decision.plan.config.weight}")
            if decision.acted:
                line += f"  partitions -> {table.partition_count()}"
            print(line)

    status = controller.status()
    calibration = status["calibration"]
    print(f"\nactions taken: {controller.actions_taken} "
          f"(partitions {initial_partitions} -> {table.partition_count()})")
    print(f"calibration: {calibration['samples']} samples, "
          f"{calibration['refits']} refits")
    oracle = table.execute_naive(AttributeQuery(("common",), "any"))
    pruned = table.execute(AttributeQuery(("common",), "any"))

    def _canon(rows):
        return sorted(tuple(sorted(row.items())) for row in rows)

    rows_match = _canon(pruned.rows) == _canon(oracle.rows)
    problems = table.check_consistency()
    for problem in problems:
        print(f"integrity problem: {problem}", file=sys.stderr)
    if not rows_match:
        print("integrity problem: pruned rows diverge from naive scan",
              file=sys.stderr)
    closed = args.dry_run or controller.actions_taken >= 1
    if not closed:
        print("loop did not close: no adaptation action taken",
              file=sys.stderr)
    return 0 if (closed and rows_match and not problems) else 1


def _load_snapshot_file(path: str):
    """Load a table snapshot or a node checkpoint, whichever *path* is.

    Returns ``(table, wal_seq)`` — ``wal_seq`` is ``None`` for a table
    snapshot — and raises :class:`SnapshotFormatError` for anything
    else, unreadable files included.
    """
    import json

    from repro.storage.snapshot import (
        NODE_CHECKPOINT_FORMAT,
        SnapshotFormatError,
        load_node_checkpoint,
        load_table,
    )

    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as error:
        raise SnapshotFormatError(f"cannot read {path}: {error}") from error
    snapshot_format = document.get("format") if isinstance(document, dict) else None
    if snapshot_format == NODE_CHECKPOINT_FORMAT:
        return load_node_checkpoint(path)
    if snapshot_format == "repro-cinderella-snapshot":
        return load_table(path), None
    raise SnapshotFormatError(
        f"{path} is not a repro snapshot (format {snapshot_format!r})"
    )


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.core.efficiency import summarize_catalog
    from repro.reporting.tables import format_kv_block
    from repro.storage.snapshot import SnapshotFormatError

    try:
        table, wal_seq = _load_snapshot_file(args.snapshot)
    except SnapshotFormatError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    summary = summarize_catalog(table.catalog)
    rows = [
        ("entities", summary.entity_count),
        ("partitions", summary.partition_count),
        ("B", f"{table.config.max_partition_size:g}"),
        ("w", table.config.weight),
        ("median entities/partition", summary.entities_summary.median),
        ("median attributes/partition", summary.attributes_summary.median),
    ]
    if wal_seq is not None:
        rows.append(("wal_seq", wal_seq))
    print(format_kv_block(f"Snapshot {args.snapshot}", rows))
    return 0


def _cmd_query_path(args: argparse.Namespace) -> int:
    """Demonstrate the read-side fast path on a DBpedia workload."""
    import time

    from repro.query.cache import QueryResultCache
    from repro.reporting.tables import format_kv_block
    from repro.table.partitioned import CinderellaTable
    from repro.workloads.dbpedia import generate_dbpedia_persons
    from repro.workloads.querygen import (
        build_query_workload,
        representative_queries,
    )

    dataset = generate_dbpedia_persons(n_entities=args.entities, seed=args.seed)
    config = CinderellaConfig(
        max_partition_size=args.partition_size,
        weight=args.weight,
        use_synopsis_index=True,
    )
    table = CinderellaTable(config, result_cache=QueryResultCache())
    for entity in dataset.entities:
        table.insert(entity.attributes, entity_id=entity.entity_id)

    masks = [
        entity.synopsis_mask(table.dictionary) for entity in dataset.entities
    ]
    specs = build_query_workload(masks, table.dictionary, max_triples=50)
    queries = [
        spec.query
        for spec in representative_queries(specs, per_bucket=2)
        if spec.selectivity < 0.5
    ][: args.queries]

    started = time.perf_counter()
    for _round in range(args.rounds):
        for query in queries:
            table.execute(query)
    fast_s = time.perf_counter() - started

    started = time.perf_counter()
    for _round in range(args.rounds):
        for query in queries:
            table.execute_naive(query)
    naive_s = time.perf_counter() - started

    counters = table.query_counters.as_dict()
    executed = args.rounds * len(queries)
    print(format_kv_block(
        f"Query fast path: {executed} queries ({args.rounds} rounds x "
        f"{len(queries)}) over {args.entities} entities",
        [
            ("partitions", table.partition_count()),
            ("queries executed", counters["queries_total"]),
            ("index resolutions", counters["index_resolutions"]),
            ("partitions pruned", counters["partitions_pruned"]),
            ("pruning ratio", f"{counters['pruning_ratio']:.3f}"),
            ("cache hits", counters["cache_hits"]),
            ("cache misses", counters["cache_misses"]),
            ("cache hit rate", f"{counters['cache_hit_rate']:.3f}"),
            ("cache stale drops", counters["cache_stale_drops"]),
            ("rows served from cache", counters["rows_served_from_cache"]),
            ("fast path", f"{executed / fast_s:.0f} queries/s"),
            ("naive full scan", f"{executed / naive_s:.0f} queries/s"),
            ("speedup", f"{naive_s / fast_s:.1f}x"),
        ],
    ))
    problems = table.check_consistency()
    for problem in problems:
        print(f"integrity problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _run_obs_workload(args: argparse.Namespace) -> None:
    """The built-in mixed workload ``repro obs`` instruments.

    Touches every instrumented in-process subsystem so the exposition
    covers their metric families: table inserts with splits and
    repeated queries (partitioner + query + cache), the table's
    transactional merge and its reorganization (maintenance + txn), and
    one fsynced write-ahead-log append (WAL).
    """
    from repro.query.cache import QueryResultCache
    from repro.storage.scratch import scratch_dir
    from repro.storage.wal import WriteAheadLog
    from repro.table.partitioned import CinderellaTable
    from repro.workloads.dbpedia import generate_dbpedia_persons
    from repro.workloads.querygen import (
        build_query_workload,
        representative_queries,
    )

    # table + query fast path ------------------------------------------
    dataset = generate_dbpedia_persons(n_entities=args.entities, seed=args.seed)
    table = CinderellaTable(
        CinderellaConfig(
            max_partition_size=args.partition_size,
            weight=args.weight,
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
    ][:10]
    for _round in range(2):
        for query in queries:
            table.execute(query)

    # maintenance on the table -----------------------------------------
    table.merge_small_partitions(min_fill=0.5)
    table.reorganize()

    # one durable write-ahead-log record -------------------------------
    with scratch_dir(prefix="repro-obs-") as tmp:
        with WriteAheadLog(tmp / "node.wal") as wal:
            wal.append("noop", {})
            wal.sync()


def _parse_address(address: str, error: Optional[str] = None) -> tuple[str, int]:
    """Parse a ``host:port`` argument (``--cluster``, ``top``, a ``route``
    node); exit with *error*, or the bad-address message, if it is not."""
    host, _, port_text = address.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not host or not 0 < port < 65536:
        raise SystemExit(
            error or f"error: bad address {address!r} (want host:port)"
        )
    return host, port


def _scrape_cluster_view(address: str, stale_after_s: float):
    """One federated scrape through a running router's ``obs`` verb."""
    from repro.obs.federation import FederatedView
    from repro.server.client import ServerClient

    host, port = _parse_address(address)
    client = ServerClient(host, port)
    try:
        document = client.request("obs").fields.get("cluster")
    finally:
        client.close()
    if not isinstance(document, dict):
        raise SystemExit(
            f"error: {address} answered the obs verb without a cluster "
            f"document (is it a router?)"
        )
    return FederatedView.from_json_obj(document, stale_after_s=stale_after_s)


def _format_cluster_summary(view, address: str) -> str:
    """Human summary of a federated view: sources, verbs, objectives."""
    from repro.obs.slo import DEFAULT_OBJECTIVES
    from repro.reporting.tables import format_table

    blocks: list[str] = []
    source_rows = []
    for source in view.sources:
        if source["unreachable"]:
            status = "UNREACHABLE"
        elif source["stale"]:
            status = "STALE"
        elif not source["enabled"]:
            status = "obs disabled"
        else:
            status = "up"
        source_rows.append([
            source["name"], source["tier"], status,
            "-" if source["age_s"] is None else f"{source['age_s']:.1f}s",
            source.get("error", ""),
        ])
    blocks.append(format_table(
        ["node", "tier", "status", "age", "error"], source_rows,
        title=f"Cluster observability via {address}",
    ))

    for family, title in (
        ("repro_server_request_seconds", "Node request latency by verb"),
        ("repro_router_request_seconds", "Router request latency by verb"),
    ):
        ops = sorted({
            sample["labels"].get("op")
            for sample in view.families.get(family, {}).get("samples", ())
            if sample["labels"].get("op")
        })
        rows = []
        for op in ops:
            merged = view.merged_histogram(family, op=op)
            if merged is None or not merged["count"]:
                continue
            p50 = view.quantile(family, 0.5, op=op)
            p99 = view.quantile(family, 0.99, op=op)
            rows.append([
                op, int(merged["count"]),
                f"{p50 * 1e3:.2f}" if p50 is not None else "-",
                f"{p99 * 1e3:.2f}" if p99 is not None else "-",
            ])
        if rows:
            blocks.append(format_table(
                ["verb", "requests", "p50 ms", "p99 ms"], rows, title=title,
            ))

    slo_rows = []
    for objective in DEFAULT_OBJECTIVES:
        good, total = objective.counts(view)
        if total <= 0:
            continue
        compliance = good / total
        slo_rows.append([
            objective.name, f"{objective.objective:.3f}",
            f"{compliance:.4f}",
            "MET" if compliance >= objective.objective else "VIOLATED",
        ])
    if slo_rows:
        blocks.append(format_table(
            ["objective", "target", "compliance", "status"], slo_rows,
            title="Service-level objectives (lifetime compliance)",
        ))
    if view.mixed_bucket_families:
        blocks.append(
            "note: sources disagree on bucket bounds for: "
            + ", ".join(sorted(view.mixed_bucket_families))
        )
    return "\n\n".join(blocks)


def _serve_cluster_prometheus(args: argparse.Namespace) -> int:
    """Serve the federated Prometheus exposition over HTTP.

    Every GET triggers a fresh scrape through the router, so the answer
    is always current; scrape failures surface as HTTP 503, never as a
    stale page.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    address = args.cluster

    class _Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            try:
                view = _scrape_cluster_view(address, args.stale_after)
                body = view.to_prometheus().encode()
                code = 200
            except (SystemExit, OSError) as err:
                body = f"# scrape of {address} failed: {err}\n".encode()
                code = 503
            self.send_response(code)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *_args: object) -> None:
            pass

    class _Server(ThreadingHTTPServer):
        # handle_request() returns once the handler *thread* is
        # dispatched; with daemon threads a bounded --max-requests run
        # would exit the process mid-response. Non-daemon threads make
        # server_close() join in-flight responses first.
        daemon_threads = False

    server = _Server(("127.0.0.1", args.listen), _Handler)
    host, port = server.server_address[:2]
    print(f"cluster Prometheus endpoint on http://{host}:{port}/metrics "
          f"(federating {address})", flush=True)
    try:
        if args.max_requests > 0:
            for _ in range(args.max_requests):
                server.handle_request()
        else:
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_obs_cluster(args: argparse.Namespace) -> int:
    """Scrape a running router and render the federated view."""
    import json

    if args.listen is not None:
        return _serve_cluster_prometheus(args)
    view = _scrape_cluster_view(args.cluster, args.stale_after)
    if args.format == "prometheus":
        print(view.to_prometheus(), end="")
    elif args.format == "json":
        print(json.dumps(view.to_json_obj(), indent=2))
    else:
        print(_format_cluster_summary(view, args.cluster))
    return 1 if view.unreachable else 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Run the built-in workload under observability and report it."""
    import json

    from repro import obs
    from repro.reporting.obs_summary import (
        format_run_summary,
        format_span_tree,
    )

    if args.cluster:
        return _cmd_obs_cluster(args)

    state = obs.enable(
        slow_op_threshold_s=args.slow_ms / 1e3,
        trace_jsonl_path=args.trace_jsonl,
    )
    try:
        _run_obs_workload(args)
    finally:
        obs.disable()

    if args.format == "prometheus":
        print(state.registry.to_prometheus(), end="")
    elif args.format == "json":
        document = state.registry.to_json_obj()
        if state.tracer is not None:
            document["top_spans"] = [
                {"name": name, "calls": count, "total_s": total}
                for name, count, total in state.tracer.top_spans(args.top)
            ]
            document["slow_ops"] = list(state.tracer.slow_ops)
        document["events"] = [
            event.to_dict() for event in state.events.events()
        ]
        print(json.dumps(document, indent=2))
    else:
        print(format_run_summary(
            state, top=args.top, traces=args.traces
        ))
        if args.traces == 0 and state.tracer is not None:
            split_trace = state.tracer.find_trace("partitioner.insert")
            if split_trace is not None:
                print("\nMost recent insert trace:")
                print(format_span_tree(split_trace))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live cluster dashboard over the router's obs + stats verbs.

    Each tick scrapes the federation once and differences the cumulative
    counters against the previous tick for rates; quantiles come from
    the per-node latency histograms.  ``--iterations`` bounds the run
    (CI smoke); the default runs until Ctrl-C.
    """
    import time as _time

    from repro.obs.counters import ServerCounters
    from repro.obs.federation import quantile_from_buckets
    from repro.obs.slo import SloMonitor
    from repro.reporting.tables import format_table
    from repro.server.client import ServerClient

    def server_metric(field: str) -> str:
        return ServerCounters.METRICS[field][0]

    host, port = _parse_address(args.router)
    monitor = SloMonitor()
    previous: dict[tuple[str, str], float] = {}
    previous_at: Optional[float] = None
    iteration = 0
    try:
        while args.iterations <= 0 or iteration < args.iterations:
            iteration += 1
            now = _time.monotonic()
            try:
                view = _scrape_cluster_view(args.router, args.stale_after)
                client = ServerClient(host, port)
                try:
                    stats = client.request("stats", heat=True).fields
                finally:
                    client.close()
            except (SystemExit, OSError) as err:
                print(f"scrape failed: {err}", file=sys.stderr)
                _time.sleep(args.interval)
                continue
            monitor.observe(view)
            statuses = monitor.evaluate()

            blocks: list[str] = []
            up = sum(1 for s in view.sources if not s["unreachable"])
            blocks.append(
                f"repro top — {args.router} — tick {iteration} — "
                f"{up}/{len(view.sources)} sources up"
                + (f", unreachable: {', '.join(view.unreachable)}"
                   if view.unreachable else "")
            )

            # per-node per-verb rates and latency quantiles ------------
            family = view.families.get("repro_server_request_seconds")
            rows = []
            current: dict[tuple[str, str], float] = {}
            elapsed = (
                now - previous_at if previous_at is not None else None
            )
            for sample in (family or {}).get("samples", ()):
                labels = sample["labels"]
                op, node = labels.get("op"), labels.get("node")
                if not op or not node or "buckets" not in sample:
                    continue
                count = float(sample.get("count", 0))
                current[(node, op)] = count
                if elapsed and elapsed > 0:
                    rps = (count - previous.get((node, op), 0.0)) / elapsed
                    rps_text = f"{max(0.0, rps):.1f}"
                else:
                    rps_text = "-"
                pairs = [
                    (float("inf") if le in ("+Inf", None) else float(le), c)
                    for le, c in sample["buckets"]
                ]
                p50 = quantile_from_buckets(pairs, 0.5)
                p99 = quantile_from_buckets(pairs, 0.99)
                rows.append([
                    node, op, int(count), rps_text,
                    f"{p50 * 1e3:.2f}" if p50 is not None else "-",
                    f"{p99 * 1e3:.2f}" if p99 is not None else "-",
                ])
            previous, previous_at = current, now
            if rows:
                rows.sort(key=lambda row: (row[0], row[1]))
                blocks.append(format_table(
                    ["node", "verb", "requests", "rps", "p50 ms", "p99 ms"],
                    rows, title="Requests by node and verb",
                ))

            # shed rate across the fleet -------------------------------
            shed = (
                view.counter_total(server_metric("writes_shed_overloaded"))
                + view.counter_total(server_metric("writes_shed_shutdown"))
            )
            handled = view.counter_total(server_metric("requests_total"))
            shed_rate = shed / handled if handled else 0.0
            blocks.append(
                f"writes shed: {int(shed)} "
                f"(shed rate {shed_rate:.4f} over {int(handled)} requests)"
            )

            # replica lifecycle + catch-up from the router's stats -----
            replicas = stats.get("replicas") or {}
            health = stats.get("health") or {}
            catchup = stats.get("catchup_buffered") or {}
            if replicas or health:
                names = sorted(set(replicas) | set(health))
                blocks.append(format_table(
                    ["node", "breaker", "replica", "catch-up depth"],
                    [
                        [
                            name,
                            (health.get(name) or {}).get("state", "-"),
                            (replicas.get(name) or {}).get("state", "-"),
                            catchup.get(name, 0),
                        ]
                        for name in names
                    ],
                    title="Replica health",
                ))

            # partition heat (serve nodes expose it when adapting) -----
            heat = stats.get("heat") or {}
            if heat:
                hottest = sorted(
                    heat.items(),
                    key=lambda kv: kv[1]["reads"] + kv[1]["writes"],
                    reverse=True,
                )[:args.heat_rows]
                blocks.append(format_table(
                    ["partition", "reads", "writes", "last version"],
                    [
                        [pid, h["reads"], h["writes"], h["last_version"]]
                        for pid, h in hottest
                    ],
                    title=f"Partition heat (top {len(hottest)} "
                          f"of {len(heat)})",
                ))

            # SLO burn-rate alerts -------------------------------------
            alert_rows = []
            for status in statuses:
                compliance = status.compliance
                if compliance is None:
                    continue
                if status.firing:
                    for alert in status.alerts:
                        alert_rows.append([
                            status.objective.name, alert["severity"],
                            f"{alert['long_burn']:.1f}x",
                            f"{alert['short_burn']:.1f}x",
                            f"{compliance:.4f}",
                        ])
                else:
                    alert_rows.append([
                        status.objective.name, "ok", "-", "-",
                        f"{compliance:.4f}",
                    ])
            if alert_rows:
                blocks.append(format_table(
                    ["objective", "alert", "long burn", "short burn",
                     "compliance"],
                    alert_rows, title="SLO burn rates",
                ))

            output = "\n\n".join(blocks)
            if not args.no_clear:
                print("\x1b[2J\x1b[H", end="")
            print(output, flush=True)
            if args.iterations <= 0 or iteration < args.iterations:
                _time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def _run_front_door(args: argparse.Namespace, door, details: str, summary) -> int:
    """Run *door* (a node or the router) until SIGINT/SIGTERM or a
    ``shutdown`` op, drain it, and return what *summary* makes of it.

    The banner's ``listening on HOST:PORT`` is what the benchmark
    launcher (``benchmarks/layers/procs.py``) parses.
    """
    import asyncio
    import signal

    from repro import obs as obs_runtime

    async def _run() -> int:
        host, port = await door.start()
        print(f"repro {door.TIER.events} listening on {host}:{port} "
              f"({details})", flush=True)
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stopping.set)
        stopped = asyncio.ensure_future(door.serve_until_stopped())
        interrupted = asyncio.ensure_future(stopping.wait())
        await asyncio.wait(
            (stopped, interrupted), return_when=asyncio.FIRST_COMPLETED
        )
        if not stopped.done():
            print("draining...", file=sys.stderr)
            await door.stop()
            await stopped
        interrupted.cancel()
        return summary(door)

    if args.obs:
        # propagate=True: accept and emit wire trace contexts so this
        # process's spans join cluster-wide traces
        obs_runtime.enable(propagate=True)
    try:
        return asyncio.run(_run())
    finally:
        if args.obs:
            obs_runtime.disable()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the serving layer until interrupted, then drain gracefully."""
    from repro.adapt.controller import AdaptationConfig
    from repro.server.server import CinderellaServer, ServerConfig

    adaptation = (
        AdaptationConfig(cooldown_s=args.adapt_cooldown)
        if args.adapt_every > 0 else None
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        name=args.name,
        max_pending=args.max_pending,
        batch_max=args.batch_max,
        maintenance_interval_s=args.maintenance_interval,
        merge_min_fill=args.merge_min_fill,
        reorganize_every=args.reorganize_every,
        adapt_every=args.adapt_every,
        adaptation=adaptation,
        wal_path=args.wal,
        snapshot_path=args.snapshot,
        checkpoint_every=args.checkpoint_every,
        archive_dir=args.archive_dir,
    )
    table_config = CinderellaConfig(
        max_partition_size=args.partition_size,
        weight=args.weight,
        use_synopsis_index=True,
    )

    def summary(server: CinderellaServer) -> int:
        snapshot = server._stats_snapshot()
        counters = snapshot["counters"]
        print(f"served {counters['requests_total']} requests "
              f"({counters['writes_applied']} writes applied, "
              f"{counters['queries_served']} queries, "
              f"shed rate {counters['shed_rate']:.4f}); "
              f"{snapshot['partitions']} partitions, "
              f"{snapshot['entities']} entities")
        problems = server.table.check_consistency()
        for problem in problems:
            print(f"integrity problem: {problem}", file=sys.stderr)
        return 1 if problems else 0

    return _run_front_door(
        args, CinderellaServer(config=config, table_config=table_config),
        f"B={args.partition_size:g}, w={args.weight}, "
        f"max_pending={args.max_pending}",
        summary,
    )


def _cmd_route(args: argparse.Namespace) -> int:
    """Run the routing tier in front of already-running serve nodes."""
    from repro.router.placement import NodeAddress, PlacementMap
    from repro.router.router import CinderellaRouter, RouterConfig

    nodes = []
    for index, spec in enumerate(args.nodes):
        name, _, address = spec.rpartition("=")
        host, port = _parse_address(
            address,
            f"error: bad node spec {spec!r} (want host:port or name=host:port)",
        )
        nodes.append(NodeAddress(name=name or f"node{index}", host=host, port=port))
    placement = PlacementMap(
        nodes,
        n_shards=args.shards,
        replication_factor=args.replication_factor,
    )
    config = RouterConfig(
        host=args.host,
        port=args.port,
        name=args.name,
        upstream_timeout_s=args.upstream_timeout,
        failure_threshold=args.failure_threshold,
    )

    def summary(router: CinderellaRouter) -> int:
        counters = router.counters.as_dict()
        print(f"routed {counters['requests_total']} requests "
              f"({counters['writes_routed']} writes, "
              f"{counters['queries_scattered']} scatters, "
              f"{counters['failovers']} failovers, "
              f"availability {counters['availability']:.4f})")
        return 0

    return _run_front_door(
        args, CinderellaRouter(placement, config=config),
        f"{len(nodes)} nodes, {placement.n_shards} shards, "
        f"rf={placement.replication_factor}",
        summary,
    )


def _cmd_verify_catalog(args: argparse.Namespace) -> int:
    """Offline integrity check of a table snapshot or node checkpoint."""
    from repro.storage.snapshot import SnapshotFormatError

    try:
        table, wal_seq = _load_snapshot_file(args.snapshot)
    except SnapshotFormatError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    problems = table.partitioner.check_invariants()
    kind = "table snapshot" if wal_seq is None else "node checkpoint"
    line = (f"{kind}: {table.partition_count()} partitions, "
            f"{table.catalog.entity_count} entities")
    if wal_seq is not None:
        line += f", wal_seq={wal_seq}"
    print(line)
    for problem in problems:
        print(f"invariant violation: {problem}", file=sys.stderr)
    print("catalog integrity: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def _cmd_backup(args: argparse.Namespace) -> int:
    """Archive a node's WAL (and checkpoint, when present) offline."""
    import json

    from repro.backup import BackupArchive
    from repro.storage.wal import WALFormatError, read_wal

    archive = BackupArchive(args.archive)
    try:
        basis_seq, records, torn = read_wal(args.wal)
    except (OSError, WALFormatError) as error:
        print(f"error: cannot read WAL {args.wal}: {error}", file=sys.stderr)
        return 1
    if torn:
        print(f"note: {args.wal} has a torn tail (ignored, as replay "
              f"would)", file=sys.stderr)
    segment_path = archive.archive_segment(basis_seq, records)
    if segment_path is None:
        print(f"WAL {args.wal} holds no records past its basis "
              f"(seq {basis_seq}); nothing to archive")
    else:
        print(f"archived segment [{records[0].seq}, {records[-1].seq}] "
              f"-> {segment_path}")
    if args.snapshot:
        try:
            with open(args.snapshot, encoding="utf-8") as handle:
                wal_seq = json.load(handle).get("wal_seq")
        except (OSError, ValueError) as error:
            print(f"error: cannot read snapshot {args.snapshot}: {error}",
                  file=sys.stderr)
            return 1
        if not isinstance(wal_seq, int) or isinstance(wal_seq, bool):
            print(f"error: {args.snapshot} is not a node checkpoint "
                  f"(no wal_seq)", file=sys.stderr)
            return 1
        checkpoint_path = archive.archive_checkpoint(args.snapshot, wal_seq)
        print(f"archived checkpoint wal_seq={wal_seq} -> {checkpoint_path}")
    print(f"archive now reaches seq {archive.last_archived_seq()}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Point-in-time recovery: rebuild node state as of --to-seq."""
    from repro.backup import BackupArchive, BackupError, restore_to_seq
    from repro.storage.snapshot import save_node_checkpoint
    from repro.storage.wal import WALFormatError

    archive = BackupArchive(args.archive)
    try:
        table, restored_seq = restore_to_seq(archive, to_seq=args.to_seq)
    except (BackupError, WALFormatError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    save_node_checkpoint(table, restored_seq, args.out)
    print(f"restored state as of seq {restored_seq}: "
          f"{table.catalog.entity_count} entities, "
          f"{table.partition_count()} partitions")
    print(f"checkpoint written to {args.out}")
    print(f"start the node with --wal <fresh or matching WAL> "
          f"--snapshot {args.out} to serve this state")
    problems = table.check_consistency()
    for problem in problems:
        print(f"integrity problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    """Verify every archived checkpoint and WAL segment at rest."""
    from repro.backup import BackupArchive
    from repro.storage.snapshot import SnapshotFormatError, load_node_checkpoint

    archive = BackupArchive(args.archive)
    report = archive.scrub()
    print(f"scrub of {report['root']}: "
          f"{report['checkpoints_verified']} checkpoints, "
          f"{report['segments_verified']} segments, "
          f"{report['records_verified']} records verified")
    problems = list(report["problems"])
    if args.snapshot:
        try:
            _table, wal_seq = load_node_checkpoint(args.snapshot)
            print(f"live snapshot {args.snapshot}: OK (wal_seq={wal_seq})")
        except (OSError, SnapshotFormatError) as error:
            problems.append(f"live snapshot {args.snapshot}: {error}")
    for problem in problems:
        print(f"scrub problem: {problem}", file=sys.stderr)
    print("backup integrity: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cinderella online partitioning — paper reproduction CLI",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("demo", help="partition the Figure 1 product catalog")

    dbpedia = commands.add_parser("dbpedia", help="run the DBpedia scenario")
    dbpedia.add_argument("--entities", type=int, default=10_000)
    dbpedia.add_argument("--partition-size", type=float, default=500.0)
    dbpedia.add_argument("--weight", type=float, default=0.2)
    dbpedia.add_argument("--seed", type=int, default=42)
    dbpedia.add_argument("--snapshot", help="save the loaded table here")

    tpch = commands.add_parser("tpch", help="run the TPC-H scenario")
    tpch.add_argument("--scale-factor", type=float, default=0.002)
    tpch.add_argument("--partition-size", type=float, default=500.0)
    tpch.add_argument("--seed", type=int, default=7)
    tpch.add_argument("--query", type=int, choices=range(1, 23),
                      metavar="1-22", help="also run this TPC-H query")

    advise = commands.add_parser("advise", help="recommend B and w")
    advise.add_argument("--entities", type=int, default=2_000)
    advise.add_argument("--seed", type=int, default=42)

    adapt = commands.add_parser(
        "adapt",
        help="run the closed adaptation loop on a scripted workload shift",
    )
    adapt.add_argument("--entities", type=int, default=900)
    adapt.add_argument("--groups", type=int, default=6,
                       help="disjoint attribute groups in the dataset")
    adapt.add_argument("--partition-size", type=float, default=30.0,
                       help="initial B (deliberately fine)")
    adapt.add_argument("--weight", type=float, default=0.3,
                       help="initial w")
    adapt.add_argument("--rounds", type=int, default=4,
                       help="query rounds per phase (one decision each)")
    adapt.add_argument("--min-observations", type=int, default=32,
                       help="controller traffic gate before any decision")
    adapt.add_argument("--horizon", type=float, default=500.0,
                       help="queries the action cost is amortized over")
    adapt.add_argument("--dry-run", action="store_true",
                       help="evaluate decisions without acting")

    inspect = commands.add_parser("inspect", help="inspect a snapshot file")
    inspect.add_argument("snapshot")

    query_path = commands.add_parser(
        "query-path",
        help="run the pruning-index + result-cache fast path demo",
    )
    query_path.add_argument("--entities", type=int, default=5_000)
    query_path.add_argument("--partition-size", type=float, default=500.0)
    query_path.add_argument("--weight", type=float, default=0.3)
    query_path.add_argument("--rounds", type=int, default=5)
    query_path.add_argument("--queries", type=int, default=20)
    query_path.add_argument("--seed", type=int, default=42)

    verify = commands.add_parser(
        "verify-catalog",
        help="integrity-check a table snapshot or node checkpoint",
    )
    verify.add_argument("snapshot")

    obs = commands.add_parser(
        "obs",
        help="run a mixed workload under observability and report it",
    )
    obs.add_argument(
        "--format", choices=("summary", "prometheus", "json"),
        default="summary", help="output format (default: summary)",
    )
    obs.add_argument("--entities", type=int, default=1_000)
    obs.add_argument("--partition-size", type=float, default=200.0)
    obs.add_argument("--weight", type=float, default=0.3)
    obs.add_argument("--seed", type=int, default=42)
    obs.add_argument("--top", type=int, default=10,
                     help="span names in the top-spans table")
    obs.add_argument("--traces", type=int, default=0,
                     help="also print this many recent span trees")
    obs.add_argument("--slow-ms", type=float, default=50.0,
                     help="slow-op log threshold in milliseconds")
    obs.add_argument("--trace-jsonl", metavar="PATH",
                     help="also export finished traces as JSON lines")
    obs.add_argument("--cluster", metavar="HOST:PORT",
                     help="instead of the built-in workload, scrape a "
                          "running router's obs verb and render the "
                          "federated cluster view")
    obs.add_argument("--listen", type=int, metavar="PORT",
                     help="with --cluster: serve the fleet Prometheus "
                          "exposition on this HTTP port (0 picks one)")
    obs.add_argument("--max-requests", type=int, default=0,
                     help="with --listen: exit after this many scrapes "
                          "(0: serve until Ctrl-C)")
    obs.add_argument("--stale-after", type=float, default=60.0,
                     help="with --cluster: mark documents older than "
                          "this many seconds as stale")

    top = commands.add_parser(
        "top",
        help="live cluster dashboard (rates, latency quantiles, "
             "replica health, SLO burn rates)",
    )
    top.add_argument("router", metavar="HOST:PORT",
                     help="address of a running route tier")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between scrapes")
    top.add_argument("--iterations", type=int, default=0,
                     help="stop after this many ticks (0: until Ctrl-C)")
    top.add_argument("--stale-after", type=float, default=60.0,
                     help="staleness threshold for scraped documents")
    top.add_argument("--no-clear", action="store_true",
                     help="append ticks instead of clearing the screen "
                          "(CI, logs)")
    top.add_argument("--heat-rows", type=int, default=10,
                     help="partitions shown in the heat table (when the "
                          "scraped node reports adaptation heat)")

    serve = commands.add_parser(
        "serve",
        help="run the online serving layer (TCP, line-delimited JSON)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7712,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--name", default="node",
                       help="node name reported in stats and metrics")
    serve.add_argument("--wal", metavar="PATH",
                       help="write-ahead log path: fsync acknowledged "
                            "writes and replay them on restart")
    serve.add_argument("--snapshot", metavar="PATH",
                       help="node checkpoint path: checkpoints snapshot "
                            "the table here and reset the WAL, bounding "
                            "restart replay")
    serve.add_argument("--checkpoint-every", type=int, default=0,
                       help="checkpoint after this many journaled writes "
                            "(0: only on 'maintain' with checkpoint:true)")
    serve.add_argument("--archive-dir", metavar="DIR",
                       help="backup archive root: archive WAL segments "
                            "and checkpoint copies for point-in-time "
                            "recovery")
    serve.add_argument("--partition-size", type=float, default=500.0)
    serve.add_argument("--weight", type=float, default=0.3)
    serve.add_argument("--max-pending", type=int, default=256,
                       help="write-queue depth before shedding")
    serve.add_argument("--batch-max", type=int, default=32,
                       help="max writes applied per group commit")
    serve.add_argument("--maintenance-interval", type=float, default=0.25,
                       help="seconds between background maintenance passes")
    serve.add_argument("--merge-min-fill", type=float, default=0.25,
                       help="fill threshold for background merges")
    serve.add_argument("--reorganize-every", type=int, default=0,
                       help="reorganize every Nth maintenance pass (0: never)")
    serve.add_argument("--adapt-every", type=int, default=0,
                       help="consult the adaptation controller every Nth "
                            "maintenance pass (0: disabled)")
    serve.add_argument("--adapt-cooldown", type=float, default=30.0,
                       help="seconds between adaptation actions")
    serve.add_argument("--obs", action="store_true",
                       help="enable the observability layer for the run")

    route = commands.add_parser(
        "route",
        help="run the routing tier in front of running serve nodes",
    )
    route.add_argument("nodes", nargs="+", metavar="NODE",
                       help="upstream node as host:port or name=host:port")
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument("--port", type=int, default=7711,
                       help="listen port (0 picks a free one)")
    route.add_argument("--name", default="router")
    route.add_argument("--shards", type=int, default=0,
                       help="shard count (0: 4x the node count)")
    route.add_argument("--replication-factor", type=int, default=2,
                       help="replicas per shard (capped at node count)")
    route.add_argument("--upstream-timeout", type=float, default=2.0,
                       help="per-exchange upstream timeout in seconds")
    route.add_argument("--failure-threshold", type=int, default=3,
                       help="consecutive failures before ejecting a node")
    route.add_argument("--obs", action="store_true",
                       help="enable the observability layer for the run")

    backup = commands.add_parser(
        "backup",
        help="archive a node's WAL (and checkpoint) for recovery",
    )
    backup.add_argument("--wal", required=True, metavar="PATH",
                        help="the node's write-ahead log to archive")
    backup.add_argument("--archive", required=True, metavar="DIR",
                        help="backup archive root")
    backup.add_argument("--snapshot", metavar="PATH",
                        help="also archive this node checkpoint")

    recover = commands.add_parser(
        "recover",
        help="point-in-time recovery from a backup archive",
    )
    recover.add_argument("--archive", required=True, metavar="DIR",
                         help="backup archive root")
    recover.add_argument("--to-seq", type=int, default=None, metavar="SEQ",
                         help="restore state as of this WAL sequence "
                              "(default: the newest archived)")
    recover.add_argument("--out", required=True, metavar="PATH",
                         help="write the restored node checkpoint here")

    scrub = commands.add_parser(
        "scrub",
        help="verify checksums of archived checkpoints and WAL segments",
    )
    scrub.add_argument("--archive", required=True, metavar="DIR",
                       help="backup archive root")
    scrub.add_argument("--snapshot", metavar="PATH",
                       help="also verify this live node checkpoint")

    return parser


_HANDLERS = {
    "demo": _cmd_demo,
    "dbpedia": _cmd_dbpedia,
    "tpch": _cmd_tpch,
    "advise": _cmd_advise,
    "adapt": _cmd_adapt,
    "inspect": _cmd_inspect,
    "query-path": _cmd_query_path,
    "verify-catalog": _cmd_verify_catalog,
    "obs": _cmd_obs,
    "top": _cmd_top,
    "serve": _cmd_serve,
    "route": _cmd_route,
    "backup": _cmd_backup,
    "recover": _cmd_recover,
    "scrub": _cmd_scrub,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)
