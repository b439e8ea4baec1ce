"""The four workloads and their end-to-end (untraced) runs.

A run is: generate inputs from the seed, set the program up (several
times — ``setup_s`` is the median), drive the op streams for the
measured interval, read the program's own counters, then verify every
acknowledged write against the benchmark's model, crash the program,
bring it back, and verify again.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TypeVar

from repro.core.config import CinderellaConfig
from repro.core.efficiency import catalog_efficiency
from repro.query.cache import QueryResultCache
from repro.router.placement import NodeAddress, PlacementMap
from repro.server.client import ServerClient
from repro.server.protocol import encode_request
from repro.storage.entity import Entity
from repro.storage.snapshot import load_table, save_table
from repro.table.partitioned import CinderellaTable

import loadgen
import procs
from calibrate import Scale, Speed, to_reference
from stats import percentile
from streams import (
    DELETE, INSERT, QUERY, UPDATE,
    Inputs, Mix, Model, Stream,
    build_inputs, make_streams, row_multiset, streams_sha256,
)

T = TypeVar("T")

#: closed loop: one generator process, this many threads = TCP connections
CONNECTIONS = 2
#: requests each connection keeps in flight
WINDOW = 8
#: the tail percentile reported beside each median: the highest that
#: keeps some tens of samples beyond it on the smallest op class of any
#: workload (about a thousand ingest reads or serve-read updates a run)
TAIL = 95

#: the measured interval is cut into segments this long, and the
#: machine's speed is sampled in the pause before and after each one
SEGMENT_S = 0.5
#: the embedded workload pauses itself: a speed sample every this long
EMBEDDED_SEGMENT_S = 0.1
#: the samples of a segment in which the hypervisor withheld the cores
#: for more than this share of the time are left out of the latency
#: percentiles (a frozen VM adds its freeze to every request in flight:
#: they time the hypervisor); the segment's ops and its time, less the
#: stolen part, still count towards throughput
STOLEN_LIMIT = 0.1
#: a networked run is invalid when the generator itself used more CPU
#: than this share of one core — its numbers would be the generator's
GENERATOR_CPU_LIMIT = 0.5
#: the embedded oracle compares every query shape with the benchmark's
#: model, and every this-many-th also with the program's own naive scan
#: (a full deserialising scan per shape: a tenth of a second each)
NAIVE_EVERY = 4
#: merge threshold of the embedded workload's maintenance calls
MERGE_MIN_FILL = 0.25

_EMBEDDED_LAUNCH = (
    "from repro.core.config import CinderellaConfig;"
    "from repro.query.cache import QueryResultCache;"
    "from repro.table.partitioned import CinderellaTable;"
    "CinderellaTable(CinderellaConfig(max_partition_size={size}, weight={weight},"
    " use_synopsis_index=True), result_cache=QueryResultCache())"
)


@dataclass(frozen=True)
class Workload:
    name: str
    mix: Mix
    partition_size: float
    #: serve processes (0 = embedded, in this process, no sockets)
    nodes: int
    router: bool
    replication_factor: int
    #: entities loaded during set-up, before the clock starts
    preload: int
    #: ops a run executes per second of ``--seconds``: the work is fixed,
    #: so two commits are timed on the same ops, and sized so that the
    #: seed commit needs about 0.8 × ``--seconds`` for it in this sandbox
    ops_per_second: int
    #: set-ups per run (``setup_s`` is their median; the cheaper one
    #: is, the more of them it takes to steady it)
    setups: int
    #: embedded only: ``merge_small_partitions`` every this many ops
    merge_every: int = 0


#: why each workload exists is recorded in ``BENCHMARK.json`` and README.md
WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="ingest",
            mix=Mix(query=0.125, insert=0.875, update=0.0, delete=0.0, shapes="hot"),
            partition_size=200.0, nodes=1, router=False, replication_factor=1,
            preload=0, ops_per_second=500, setups=9,
        ),
        Workload(
            name="serve-read",
            mix=Mix(query=0.95, insert=0.0, update=0.05, delete=0.0, shapes="hot"),
            partition_size=500.0, nodes=1, router=False, replication_factor=1,
            preload=8_000, ops_per_second=1_150, setups=3,
        ),
        Workload(
            name="routed-mixed",
            mix=Mix(query=0.5, insert=0.2, update=0.2, delete=0.1, shapes="hot"),
            partition_size=500.0, nodes=3, router=True, replication_factor=2,
            preload=3_000, ops_per_second=190, setups=3,
        ),
        Workload(
            name="embedded-churn",
            mix=Mix(
                query=2_500 / 32_500, insert=20_000 / 32_500,
                update=5_000 / 32_500, delete=5_000 / 32_500, shapes="wide",
            ),
            partition_size=200.0, nodes=0, router=False, replication_factor=1,
            preload=0, ops_per_second=1_000, setups=9,
            merge_every=2_000,
        ),
    )
}


@dataclass
class Metric:
    value: float
    unit: str
    #: timing samples behind the value, where it is an order statistic
    samples: Optional[int] = None


@dataclass
class RunResult:
    workload: str
    seed: int
    sha256: str = ""
    metrics: dict[str, Metric] = field(default_factory=dict)
    #: layer counts read from the program's public surfaces
    counts: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: why the numbers must not be used (generator-bound, a process died,
    #: something leaked) or why the outputs are wrong
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def stream_length(workload: Workload, seconds: float) -> int:
    """Ops a run of ``--seconds`` *seconds* executes."""
    return max(int(workload.ops_per_second * seconds), 64 * CONNECTIONS)


def cutoff(seconds: float) -> float:
    """Seconds after which a run stops although ops are left: a program
    much slower than the streams were sized for is cut short."""
    return 1.25 * seconds + 2.0


def prepare(
    workload: Workload, seed: int, n_ops: int
) -> tuple[Inputs, list[Stream]]:
    """Inputs and op streams of one run (a function of the arguments only)."""
    inserts = int(n_ops * workload.mix.insert) + 64
    inputs = build_inputs(workload.preload + inserts, seed)
    connections = CONNECTIONS if workload.nodes else 1
    streams = make_streams(
        workload.name, seed, workload.mix, inputs,
        workload.preload, n_ops, connections,
    )
    return inputs, streams


def preload_lines(inputs: Inputs, count: int) -> list[bytes]:
    return [
        encode_request(
            INSERT, entity.entity_id, eid=entity.entity_id,
            attributes=entity.attributes,
        )
        for entity in inputs.entities[:count]
    ]


def placement_of(workload: Workload, ports: Sequence[int]) -> PlacementMap:
    """The shard → replica-set map the route process derives from the
    same node list (a lone node is one shard)."""
    nodes = [
        NodeAddress(f"node{index}", "127.0.0.1", port)
        for index, port in enumerate(ports)
    ]
    return PlacementMap(
        nodes, n_shards=0 if workload.router else 1,
        replication_factor=workload.replication_factor,
    )


def launch(
    workload: Workload, lines: Sequence[bytes], obs: bool = False
) -> procs.Program:
    """Start the workload's topology and preload it; the caller owns
    (and must close) the returned program.

    Behind a router each node is handed its replicas' share of the
    preload directly.  A bulk load through the router at the preload's
    concurrency makes its pool (2 idle connections a node) dial a new
    upstream connection for almost every write — some 16,000 a set-up —
    and the ``TIME_WAIT`` sockets of a few runs in a row exhaust the
    loopback port range: runs slowed down and one in twenty saw upstream
    connects fail.  The state the nodes end up in is the same.
    """
    program = procs.Program(
        workload.partition_size, nodes=workload.nodes, router=workload.router,
        replication_factor=workload.replication_factor, obs=obs,
    ).__enter__()
    try:
        placement = placement_of(workload, program.node_ports)
        for node in placement.nodes if lines else ():
            loadgen.preload((node.host, node.port), [
                line for eid, line in enumerate(lines)
                if node in placement.replicas_of_eid(eid)
            ])
        with ServerClient(*program.address) as client:
            client.ping()
    except BaseException:
        program.close()
        raise
    return program


@dataclass
class Timings:
    """What the clock said about one measured interval, before scaling.

    ``segments`` are ``(active seconds, speed factor, stolen seconds)``;
    ``samples`` are ``(segment, is_read, latency in seconds)``; ``busy``
    is the share of the active time the hypervisor let the program have
    that was CPU work of the program (the part a slower machine
    stretches); ``cpu`` the program's CPU seconds.
    """

    segments: list[tuple[float, float, float]]
    samples: list[tuple[int, bool, float]]
    busy: float
    cpu: float

    def at_reference(self) -> list[float]:
        """Each segment's active seconds at reference machine speed."""
        return [
            to_reference(seconds, factor, self.busy, stolen)
            for seconds, factor, stolen in self.segments
        ]

    def ratio(self) -> float:
        """Seconds at reference speed per second measured, overall."""
        return sum(self.at_reference()) / sum(s[0] for s in self.segments)


def time_metrics(timings: Timings) -> dict[str, Metric]:
    """The time-based end-to-end metrics, at reference machine speed.

    Every segment's seconds — its active time and the latency of every
    op completed in it — are scaled by the speed factor and the stolen
    time sampled around that segment (:func:`calibrate.to_reference`);
    throughput is ops over the scaled active time, percentiles are
    nearest-rank over all scaled samples of the class.
    """
    ops = len(timings.samples)
    scaled_active = timings.at_reference()
    scale = [
        scaled / seconds if seconds else 1.0
        for scaled, (seconds, _factor, _stolen) in zip(scaled_active, timings.segments)
    ]
    metrics = {"ops_per_s": Metric(ops / sum(scaled_active), "1/s", ops)}
    quiet = [
        stolen <= STOLEN_LIMIT * seconds
        for seconds, _factor, stolen in timings.segments
    ]
    if not any(quiet):  # stolen from throughout: there is nothing else
        quiet = [True] * len(quiet)
    for label, wanted in (("read", True), ("write", False)):
        scaled = sorted(
            latency * scale[segment]
            for segment, is_read, latency in timings.samples
            if is_read == wanted and quiet[segment]
        )
        for q in (50, TAIL):
            metrics[f"{label}_p{q}_ms"] = Metric(
                percentile(scaled, q) * 1e3, "ms", len(scaled)
            )
    # CPU seconds exclude stolen time already, and stretch with the
    # machine whole
    active = sum(s[0] for s in timings.segments)
    factor = sum(seconds * factor for seconds, factor, _ in timings.segments) / active
    metrics["cpu_ms_per_op"] = Metric(timings.cpu / factor / ops * 1e3, "ms")
    return metrics


def user_bytes(lines: Sequence[bytes], streams: Sequence[Stream], done: Sequence[int]) -> int:
    """Bytes of the write requests the program acknowledged."""
    total = sum(len(line) for line in lines)
    for stream, completed in zip(streams, done):
        total += sum(
            len(stream.payloads[i]) for i in range(completed)
            if stream.ops[i][0] != QUERY
        )
    return total


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def build_model(
    inputs: Inputs, workload: Workload, streams: Sequence[Stream],
    done: Sequence[int], failed: Sequence[Sequence[int]],
) -> Model:
    """The state the acknowledged writes add up to."""
    model = Model(inputs.entities[:workload.preload])
    for stream, completed, bad in zip(streams, done, failed):
        refused = set(bad)
        for position in range(completed):
            if position not in refused:
                model.apply(stream.ops[position])
    return model


def check_queries(client: ServerClient, shapes, model: Model) -> list[str]:
    """Every shape's rows against a naive scan of the model."""
    problems = []
    for shape in shapes:
        response = client.request("query", attributes=list(shape.attributes))
        rows = response.get("rows")
        if not response.ok or not isinstance(rows, list):
            problems.append(f"query {shape.attributes} answered {response.status}")
        elif row_multiset(shape, rows) != model.expected_rows(shape):
            problems.append(f"query {shape.attributes} returned wrong rows")
    return problems


def check_replicas(program: procs.Program, workload: Workload, model: Model) -> list[str]:
    """Entity count + id digest of every shard on every replica that
    holds it, against the model (and therefore against each other)."""
    placement = placement_of(workload, program.node_ports)
    problems = []
    clients = {
        node.name: ServerClient(node.host, node.port, check=False)
        for node in placement.nodes
    }
    try:
        for shard in placement.shards:
            expected = model.count_and_digest(placement.n_shards, (shard,))
            for node in placement.replicas(shard):
                response = clients[node.name].request(
                    "sync_snapshot", n_shards=placement.n_shards,
                    shards=[shard], count_only=True,
                )
                found = (response.get("count"), response.get("digest"))
                if found != expected:
                    problems.append(
                        f"shard {shard} on {node.name}: {found}, model {expected}"
                    )
    finally:
        for client in clients.values():
            client.close()
    return problems


# ----------------------------------------------------------------------
# networked run
# ----------------------------------------------------------------------
def at_reference(action: Callable[[], T], cores: Sequence[int]) -> tuple[T, float]:
    """Run *action* between two speed samples taken on *cores* (where
    its work is done): its result, and the seconds it took at reference
    machine speed."""
    with Scale(cores) as scale:
        value = action()
    return value, scale.seconds * scale.ratio


def run_networked(
    workload: Workload, seed: int, seconds: float, once: bool = False
) -> RunResult:
    result = RunResult(workload.name, seed)
    inputs, streams = prepare(workload, seed, stream_length(workload, seconds))
    result.sha256 = streams_sha256(streams)
    shapes = inputs.shapes(workload.mix.shapes)
    lines = preload_lines(inputs, workload.preload)
    cores, _ = procs.split_cores(workload.nodes + workload.router)

    # half of the set-ups before the run and half after it: the machine's
    # speed drifts over seconds, and two moments sample it better than one
    setups = 1 if once else workload.setups
    setup_times = []
    program = None
    for _ in range((setups + 1) // 2):
        if program is not None:
            program.close()
        program, taken = at_reference(lambda: launch(workload, lines), cores)
        setup_times.append(taken)
    assert program is not None
    try:
        driven = drive(program, workload, streams, shapes, WINDOW, cutoff(seconds))
        conns = driven.conns
        done = [len(conn.latencies) for conn in conns]

        metrics = result.metrics
        metrics.update(time_metrics(driven.timings))
        metrics["peak_rss_mb"] = Metric(program.peak_rss_mb(), "MB")
        metrics["stored_bytes_per_user_byte"] = Metric(
            program.wal_bytes() / user_bytes(lines, streams, done), "B/B"
        )
        result.counts.update(driven.counts)
        generator_share = driven.counts["gen.cpu_busy_share"].value
        if generator_share > GENERATOR_CPU_LIMIT:
            result.problems.append(
                f"generator used {generator_share:.2f} of a core"
                f" (limit {GENERATOR_CPU_LIMIT}): the run measured the generator"
            )

        # quiesced: every sent request has been answered
        model = build_model(inputs, workload, streams, done, [c.failed for c in conns])
        result.attempted = sum(done)
        result.failed = sum(len(conn.failed) for conn in conns)
        with ServerClient(*program.address, check=False) as client:
            mismatches = check_queries(client, shapes, model)
        mismatches += check_replicas(program, workload, model)

        # crash node 0, bring it back on its WAL, and look again
        def restart_node() -> int:
            program.crash_and_restart(0)
            with ServerClient(*program.node_address(0), check=False) as client:
                client.ping()
                return client.stats()["counters"]["wal_records_replayed"]

        replayed, restart = at_reference(restart_node, cores)
        result.counts["recovery.restart_s"] = Metric(restart, "s")
        result.counts["recovery.records_replayed"] = Metric(replayed, "count")
        result.counts["recovery.replay_records_per_s"] = Metric(replayed / restart, "1/s")
        mismatches += check_replicas(program, workload, model)
        if not workload.router:
            with ServerClient(*program.node_address(0), check=False) as client:
                mismatches += check_queries(client, shapes, model)
        result.attempted += 2 * len(shapes) if not workload.router else len(shapes)
        result.failed += len(mismatches)
        result.problems.extend(mismatches[:5])
    finally:
        program.close()
    result.problems.extend(program.leaked())
    while len(setup_times) < setups:
        program, taken = at_reference(lambda: launch(workload, lines), cores)
        program.close()
        setup_times.append(taken)
    result.metrics["setup_s"] = Metric(
        statistics.median(setup_times), "s", len(setup_times)
    )
    return result


@dataclass
class Driven:
    """What driving a program measured, from both sides of the socket."""

    conns: list[loadgen.ConnResult]
    timings: Timings
    counts: dict[str, Metric]


def drive(
    program: procs.Program, workload: Workload, streams: Sequence[Stream],
    shapes, window: int, cutoff_s: Optional[float] = None,
    limit: Optional[int] = None,
) -> Driven:
    """Run the closed loop against *program* until the streams (or
    *limit* ops of each) are answered or *cutoff_s* is reached, and read,
    around it, the program's own counters and the CPU each side used."""
    speed = Speed(program.cores)
    totals = read_totals(program, workload)
    generator_cpu = time.process_time()
    program_cpu = program.cpu_seconds()
    router_cpu = program.router_cpu_seconds()
    conns = loadgen.run_closed_loop(
        program.address, streams, shapes, window, SEGMENT_S,
        cutoff_s=cutoff_s, limit=limit, on_pause=speed.sample,
    )
    program_cpu = program.cpu_seconds() - program_cpu
    router_cpu = program.router_cpu_seconds() - router_cpu
    generator_cpu = time.process_time() - generator_cpu
    for conn in conns:
        if conn.error is not None:
            raise procs.ProgramError(f"connection failed: {conn.error!r}")
    if program.dead():
        raise procs.ProgramError(f"processes died under load: {program.dead()}")

    # a segment is active from its first send to its last response, on
    # any connection (the pauses between segments are not in it)
    spans = [
        (min(conn.segments[k][0] for conn in conns),
         max(conn.segments[k][1] for conn in conns))
        for k in range(len(conns[0].segments))
    ]
    elapsed = sum(end - start for start, end in spans)
    stolen = [speed.stolen_between(start, end) for start, end in spans]
    ops = sum(len(conn.latencies) for conn in conns)
    processes = len(program.processes())
    timings = Timings(
        segments=[
            (end - start, speed.factor(start, end), taken)
            for (start, end), taken in zip(spans, stolen)
        ],
        samples=[
            (k, stream.ops[position][0] == QUERY, conn.latencies[position])
            for stream, conn in zip(streams, conns)
            for k, (_start, _end, first, after) in enumerate(conn.segments)
            for position in range(first, after)
        ],
        busy=min(
            program_cpu
            / ((elapsed - sum(stolen)) * min(processes, len(program.cores))),
            1.0,
        ),
        cpu=program_cpu,
    )
    counts = program_counts(totals, read_totals(program, workload), conns, ops)
    counts["server.cpu_busy_share"] = Metric(
        (program_cpu - router_cpu) / elapsed / workload.nodes, "share"
    )
    if workload.router:
        counts["router.cpu_busy_share"] = Metric(router_cpu / elapsed, "share")
    # sampling the speed is the generator's own work, not load it offered
    counts["gen.cpu_busy_share"] = Metric(
        max(generator_cpu - speed.spent, 0.0) / elapsed, "share"
    )
    counts["gen.speed_factor"] = Metric(statistics.fmean(speed.factors), "ratio")
    counts["gen.stolen_share"] = Metric(sum(stolen) / elapsed, "share")
    return Driven(conns, timings, counts)


def read_totals(program: procs.Program, workload: Workload) -> dict[str, float]:
    """The ``stats`` verb of every process, summed over the nodes (the
    router's own counters are prefixed ``router.``)."""
    totals: dict[str, float] = {"admission_window": 0}
    for index in range(workload.nodes):
        with ServerClient(*program.node_address(index)) as client:
            stats = client.stats()
        flat = {
            **stats["counters"], "wal_syncs": stats["wal"]["syncs"],
            "partitions": stats["partitions"], "splits": stats["split_count"],
        }
        for name, value in flat.items():
            if isinstance(value, (int, float)):
                totals[name] = totals.get(name, 0) + value
        totals["admission_window"] = max(
            totals["admission_window"], stats["admission"]["window"]
        )
    if workload.router:
        with ServerClient(*program.address) as client:
            stats = client.stats()
        pools = stats["pools"].values()
        totals["router.exchanges"] = sum(pool["exchanges"] for pool in pools)
        totals["router.dials"] = sum(pool["dials"] for pool in pools)
        totals["router.requests"] = stats["counters"]["requests_total"]
        totals["router.degraded"] = stats["counters"]["replies_degraded"]
    return totals


def program_counts(
    before: dict[str, float], after: dict[str, float],
    conns: Sequence[loadgen.ConnResult], ops: int,
) -> dict[str, Metric]:
    """Layer counts of the measured interval: what the program's own
    counters moved by between two :func:`read_totals` (gauges as read
    at the end)."""
    moved = {name: after[name] - before.get(name, 0) for name in after}
    writes = max(moved["writes_applied"], 1)
    shed = moved["writes_shed_overloaded"]
    counts = {
        "server.batch_size_mean":
            Metric(writes / max(moved["batches_flushed"], 1), "count"),
        "server.shed_share": Metric(shed / (writes + shed), "share"),
        "server.admission_window": Metric(after["admission_window"], "count"),
        "wal.syncs_per_write": Metric(moved["wal_syncs"] / writes, "count"),
        "snapshot.response_cache_hit_share": Metric(
            moved["snapshot_response_cache_hits"] / max(moved["snapshot_reads"], 1),
            "share",
        ),
        "maintenance.partitions_merged": Metric(moved["partitions_merged"], "count"),
        "core.partitions": Metric(after["partitions"], "count"),
        "core.splits": Metric(moved["splits"], "count"),
        "codec.response_bytes_per_op":
            Metric(sum(conn.response_bytes for conn in conns) / ops, "B"),
    }
    if "router.requests" in after:
        routed = max(moved["router.requests"], 1)
        counts["router.exchanges_per_op"] = Metric(
            moved["router.exchanges"] / routed, "count"
        )
        counts["router.dials"] = Metric(moved["router.dials"], "count")
        counts["router.degraded_share"] = Metric(
            moved["router.degraded"] / routed, "share"
        )
    return counts


# ----------------------------------------------------------------------
# embedded run
# ----------------------------------------------------------------------
def table_config(workload: Workload) -> CinderellaConfig:
    return CinderellaConfig(
        max_partition_size=workload.partition_size, weight=procs.WEIGHT,
        use_synopsis_index=True,
    )


def new_table(workload: Workload, preloaded: Sequence[Entity] = ()) -> CinderellaTable:
    """The embedded workload's table, holding *preloaded* entities."""
    table = CinderellaTable(table_config(workload), result_cache=QueryResultCache())
    for entity in preloaded:
        table.insert(entity.attributes, entity_id=entity.entity_id)
    return table


def apply_write(table: CinderellaTable, kind: str, key: int, attributes):
    """One write op of a stream, through the embedded API."""
    if kind == INSERT:
        return table.insert(attributes, entity_id=key)
    if kind == UPDATE:
        return table.update(key, attributes)
    return table.delete(key)


def run_embedded(
    workload: Workload, seed: int, seconds: float, cores: Sequence[int],
    once: bool = False,
) -> RunResult:
    """The in-process run; the caller has pinned this process to *cores*."""
    result = RunResult(workload.name, seed)
    inputs, (stream,) = prepare(workload, seed, stream_length(workload, seconds))
    result.sha256 = streams_sha256([stream])
    shapes = inputs.shapes(workload.mix.shapes)
    code = _EMBEDDED_LAUNCH.format(size=workload.partition_size, weight=procs.WEIGHT)
    setups = 1 if once else workload.setups
    setup_times = [
        at_reference(lambda: procs.launch_embedded(code), cores)[1]
        for _ in range((setups + 1) // 2)
    ]

    table = new_table(workload)
    speed = Speed(cores)
    samples: list[tuple[int, bool, float]] = []
    #: (started, ended, seconds inside ops) of each segment
    spans: list[tuple[float, float, float]] = []
    wrong: list[int] = []
    merges: list[float] = []
    merged = moves = reads = rows = entities_read = pages_read = hits = lookups = 0
    clock = time.perf_counter
    speed.sample()
    cpu = time.process_time()
    segment_started = clock()
    deadline = segment_started + cutoff(seconds)
    active = 0.0
    for position, (kind, key, attributes) in enumerate(stream.ops):
        op_started = clock()
        if op_started >= deadline:
            break
        if op_started - segment_started >= EMBEDDED_SEGMENT_S:
            spans.append((segment_started, op_started, active))
            speed.sample()
            segment_started = op_started = clock()
            active = 0.0
        if kind == QUERY:
            outcome = table.execute(shapes[key])
            stats = outcome.stats
            reads += 1
            rows += stats.rows_returned
            entities_read += stats.entities_read
            pages_read += stats.pages_read
            hits += stats.cache_hits
            lookups += stats.cache_hits + stats.cache_misses
        else:
            outcome = apply_write(table, kind, key, attributes)
            if outcome.splits:
                moves += len(outcome.moves)
        if workload.merge_every and (position + 1) % workload.merge_every == 0:
            # a foreground stall: the op that triggers maintenance waits for it
            merge_started = clock()
            merged += table.merge_small_partitions(MERGE_MIN_FILL).merge_count
            merges.append(clock() - merge_started)
        latency = clock() - op_started
        active += latency
        samples.append((len(spans), kind == QUERY, latency))
        if kind == QUERY and reads % loadgen.SAMPLE_EVERY == 1:
            naive = table.execute_naive(shapes[key])
            if row_multiset(shapes[key], outcome.rows) != row_multiset(shapes[key], naive.rows):
                wrong.append(position)
    spans.append((segment_started, clock(), active))
    cpu = time.process_time() - cpu - speed.spent
    speed.sample()
    ops = len(samples)

    metrics = result.metrics
    # in process nothing waits: heap files are in memory, so all of an
    # op's time is CPU work
    timings = Timings(
        segments=[
            (active, speed.factor(start, end),
             speed.stolen_between(start, end) * active / (end - start))
            for start, end, active in spans
        ],
        samples=samples, busy=1.0, cpu=cpu,
    )
    metrics.update(time_metrics(timings))
    metrics["peak_rss_mb"] = Metric(procs.peak_rss_mb(os.getpid()), "MB")
    acked_bytes = user_bytes((), [stream], [ops])

    partitioner = table.partitioner
    rated = sum(1 for op in stream.ops[:ops] if op[0] in (INSERT, UPDATE))
    wide_masks = [shape.synopsis_mask(table.dictionary) for shape in inputs.wide]
    counts = result.counts
    counts["gen.speed_factor"] = Metric(statistics.fmean(speed.factors), "ratio")
    counts["gen.stolen_share"] = Metric(
        sum(stolen for _s, _f, stolen in timings.segments)
        / sum(seconds for seconds, _f, _s in timings.segments), "share"
    )
    counts["core.efficiency"] = Metric(
        catalog_efficiency(table.catalog, wide_masks), "share"
    )
    counts["core.ratings_per_insert"] = Metric(
        partitioner.ratings_computed / max(rated, 1), "count"
    )
    counts["core.splits"] = Metric(partitioner.split_count, "count")
    counts["core.moves_per_split"] = Metric(
        moves / max(partitioner.split_count, 1), "count"
    )
    counts["core.partitions"] = Metric(len(table.catalog), "count")
    counts["table.rows_per_query"] = Metric(rows / max(reads, 1), "count")
    counts["table.entities_read_per_row"] = Metric(entities_read / max(rows, 1), "count")
    counts["storage.pages_read_per_query"] = Metric(pages_read / max(reads, 1), "count")
    counts["storage.bytes_per_user_byte"] = Metric(
        table.io.bytes_written / acked_bytes, "B/B"
    )
    counts["query.cache_hit_share"] = Metric(hits / max(lookups, 1), "share")
    counts["maintenance.partitions_merged"] = Metric(merged, "count")
    counts["maintenance.merge_ms"] = Metric(
        statistics.fmean(merges) * 1e3 if merges else 0.0, "ms", len(merges)
    )
    model = build_model(inputs, workload, [stream], [ops], [wrong])
    problems = table.check_consistency() + table.partitioner.check_invariants()
    for index, shape in enumerate(shapes):
        found = row_multiset(shape, table.execute(shape).rows)
        if found != model.expected_rows(shape):
            problems.append(f"execute != model on {shape.attributes}")
        elif index % NAIVE_EVERY == 0 and found != row_multiset(
            shape, table.execute_naive(shape).rows
        ):
            problems.append(f"execute != execute_naive on {shape.attributes}")

    # the embedded counterpart of WAL bytes per user byte: what the heap
    # files hold per byte of the requests that wrote the live entities
    live_bytes: dict[int, int] = {}
    for (kind, key, _attributes), line in zip(stream.ops[:ops], stream.payloads):
        if kind == DELETE:
            del live_bytes[key]
        elif kind != QUERY:
            live_bytes[key] = len(line)
    metrics["stored_bytes_per_user_byte"] = Metric(
        table.data_bytes() / sum(live_bytes.values()), "B/B"
    )

    # the embedded counterpart of crash + restart: snapshot file → table
    # → first answer
    with procs.scratch_dir() as scratch:
        path = os.path.join(scratch, "table.snapshot")
        save_table(table, path)
        def restore():
            table = load_table(path)
            return table, table.execute(shapes[0])

        (restored, first), restart = at_reference(restore, cores)
    if row_multiset(shapes[0], first.rows) != model.expected_rows(shapes[0]):
        problems.append("restored table answers differently")
    if len(restored) != len(model.rows):
        problems.append(f"restored {len(restored)} entities, model {len(model.rows)}")
    counts["recovery.restart_s"] = Metric(restart, "s")
    counts["recovery.records_replayed"] = Metric(len(restored), "count")
    counts["recovery.replay_records_per_s"] = Metric(len(restored) / restart, "1/s")

    # the other half of the set-ups (see run_networked)
    while len(setup_times) < setups:
        setup_times.append(at_reference(lambda: procs.launch_embedded(code), cores)[1])
    metrics["setup_s"] = Metric(statistics.median(setup_times), "s", len(setup_times))

    result.attempted = ops + len(shapes) + 2
    result.failed = len(wrong) + len(problems)
    result.problems.extend(problems[:5])
    return result


def run_untraced(
    workload: Workload, seed: int, seconds: float, once: bool = False
) -> RunResult:
    if workload.nodes:
        return run_networked(workload, seed, seconds, once)
    # in process: the program is this one process, on a core of its own
    # like any other, so that the speed and the stolen time sampled
    # there are the ones the work saw
    own = os.sched_getaffinity(0)
    cores, _ = procs.split_cores(1)
    os.sched_setaffinity(0, cores)
    try:
        return run_embedded(workload, seed, seconds, cores, once)
    finally:
        os.sched_setaffinity(0, own)
