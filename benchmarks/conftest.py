"""Shared fixtures for the paper-reproduction benchmark harness.

Every benchmark regenerates one figure or table of the evaluation section
(see DESIGN.md's per-experiment index) and prints the same rows/series the
paper reports, plus assertions on the qualitative shape (who wins, where
the crossovers fall).

Scaling
-------
The paper ran 100 000 DBpedia entities and TPC-H SF 0.5 on PostgreSQL; a
pure-Python run of that size takes tens of minutes, so the default harness
scale is 1/5 of the paper's with all size limits scaled alike (ratios,
orderings, and crossovers are scale-free — asserted by the benches).  Set
``REPRO_SCALE=paper`` for the full-size run.

Loads are expensive and shared: the ``cinderella_loads`` fixture caches
one physical table load per ``(B, w)`` configuration per session, together
with the per-insert measurements Figure 8 needs.
"""

from __future__ import annotations

import gc
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import pytest

from repro.core.config import CinderellaConfig
from repro.cost.model import CostModel
from repro.table.partitioned import CinderellaTable, unpartitioned_table
from repro.workloads.dbpedia import generate_dbpedia_persons, validate_distribution
from repro.workloads.querygen import (
    QuerySpec,
    build_query_workload,
    representative_queries,
)

try:
    from hypothesis import settings as _hypothesis_settings
except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass
else:
    # same deterministic profile as tests/conftest.py: benches that draw
    # examples (or shrink failures) must replay identically run to run
    _hypothesis_settings.register_profile(
        "repro-deterministic", derandomize=True, deadline=None
    )
    _hypothesis_settings.load_profile("repro-deterministic")

PAPER_SCALE = os.environ.get("REPRO_SCALE", "small") == "paper"

#: number of DBpedia person entities (paper: 100 000)
N_ENTITIES = 100_000 if PAPER_SCALE else 20_000
#: partition size limits of Figures 5 and 8 (paper: 500 / 5 000 / 50 000)
B_VALUES = (500, 5_000, 50_000) if PAPER_SCALE else (100, 1_000, 10_000)
#: the middle limit, used by Figures 6 and 7 (paper: 5 000)
B_DEFAULT = B_VALUES[1]
#: weights of Figure 6
W_VALUES = (0.2, 0.5, 0.8)
#: weight sweep of Figure 7
W_SWEEP = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
#: TPC-H scale factor of Table I (paper: 0.5)
TPCH_SF = 0.05 if PAPER_SCALE else 0.005
#: TPC-H partition size limits of Table I (paper: 500 / 2 000 / 10 000)
TPCH_B_VALUES = (500, 2_000, 10_000) if PAPER_SCALE else (200, 800, 4_000)
#: page size; small pages keep partitions multi-page at harness scale
PAGE_SIZE = 8192 if PAPER_SCALE else 1024

DATASET_SEED = 42
#: seed for benchmark-local RNGs (query sampling, workload traces)
WORKLOAD_SEED = 42


@dataclass
class LoadedCinderella:
    """One Cinderella-partitioned load plus its per-insert measurements."""

    config: CinderellaConfig
    table: CinderellaTable
    #: simulated per-insert times (cost model, ms) — Figure 8's histogram
    insert_sim_ms: list[float] = field(default_factory=list)
    #: wall-clock per-insert times (ms), Figure 8 in measured time
    insert_wall_ms: list[float] = field(default_factory=list)
    #: per insert: whether it triggered at least one split
    insert_split: list[bool] = field(default_factory=list)
    load_wall_s: float = 0.0

    @property
    def split_inserts(self) -> int:
        """Inserts that triggered at least one split."""
        return sum(self.insert_split)


@pytest.fixture(scope="session")
def dbpedia():
    """The DBpedia person data set (validated against Figure 4)."""
    dataset = generate_dbpedia_persons(n_entities=N_ENTITIES, seed=DATASET_SEED)
    violations = validate_distribution(dataset)
    assert violations == [], violations
    return dataset


@pytest.fixture(scope="session")
def query_workload(dbpedia) -> list[QuerySpec]:
    """The paper's representative selective-query workload."""
    dictionary = dbpedia.dictionary()
    masks = [entity.synopsis_mask(dictionary) for entity in dbpedia.entities]
    specs = build_query_workload(masks, dictionary, max_triples=200)
    return representative_queries(specs, bucket_width=0.05, per_bucket=3)


@pytest.fixture(scope="session")
def universal_table(dbpedia) -> CinderellaTable:
    """The unpartitioned baseline: the one-partition layout."""
    table = unpartitioned_table(page_size=PAGE_SIZE)
    for entity in dbpedia.entities:
        table.insert(entity.attributes, entity_id=entity.entity_id)
    return table


@pytest.fixture(scope="session")
def cost_model() -> CostModel:
    return CostModel()


@pytest.fixture(scope="session")
def cinderella_loads(dbpedia):
    """Factory caching one measured physical load per (B, w) setting."""
    cache: dict[tuple[float, float], LoadedCinderella] = {}
    model = CostModel()

    def load(max_partition_size: float, weight: float) -> LoadedCinderella:
        key = (max_partition_size, weight)
        if key in cache:
            return cache[key]
        config = CinderellaConfig(
            max_partition_size=max_partition_size, weight=weight
        )
        table = CinderellaTable(config, page_size=PAGE_SIZE)
        loaded = LoadedCinderella(config=config, table=table)
        partitioner = table.partitioner
        started_load = time.perf_counter()
        for entity in dbpedia.entities:
            ratings_before = partitioner.ratings_computed
            io_before = table.io.snapshot()
            started = time.perf_counter()
            outcome = table.insert(entity.attributes, entity_id=entity.entity_id)
            loaded.insert_wall_ms.append((time.perf_counter() - started) * 1000)
            io_delta = table.io.delta_since(io_before)
            relocations = sum(1 for m in outcome.moves if m.from_pid is not None)
            loaded.insert_sim_ms.append(
                model.insert_time_ms(
                    ratings_computed=partitioner.ratings_computed - ratings_before,
                    records_moved=relocations,
                    bytes_moved=io_delta.bytes_read,
                    partitions_created=len(outcome.created_partitions),
                )
            )
            loaded.insert_split.append(outcome.splits > 0)
        loaded.load_wall_s = time.perf_counter() - started_load
        cache[key] = loaded
        return loaded

    return load


# ---------------------------------------------------------------------------
# shared timing protocol: quiet-floor estimation over interleaved runs
#
# Measuring small effects on a shared machine needs noise control, and
# several benches (observability overhead, the server load generator)
# need the same three pieces: CPU-timed runs with a ``gc.collect()``
# beforehand, A/B interleaving so a noisy window cannot systematically
# land on one mode, and the *quiet floor* — machine interference only
# ever adds time, so the mean of the K smallest of N runs approaches
# the interference-free floor (a raw minimum is an extreme order
# statistic; one lucky run swings it).
# ---------------------------------------------------------------------------

def timed_cpu_run(fn: Callable[[], None]) -> float:
    """One CPU-timed run of ``fn`` (collects garbage first, not charged)."""
    gc.collect()
    started = time.process_time()
    fn()
    return time.process_time() - started


def interleaved_cpu_runs(
    run_a: Callable[[], None],
    run_b: Callable[[], None],
    repeats: int,
) -> tuple[list[float], list[float]]:
    """CPU-time two workloads ``repeats`` times each, interleaved.

    The modes alternate run by run, in alternating order within each
    pair, so a long quiet window is sampled by both modes and a noise
    burst cannot systematically land on one of them.
    """
    a_runs: list[float] = []
    b_runs: list[float] = []
    for repeat in range(repeats):
        if repeat % 2 == 0:
            a_runs.append(timed_cpu_run(run_a))
            b_runs.append(timed_cpu_run(run_b))
        else:
            b_runs.append(timed_cpu_run(run_b))
            a_runs.append(timed_cpu_run(run_a))
    return a_runs, b_runs


def quiet_floor(runs: Sequence[float], floor_k: int = 5) -> float:
    """The mean of the ``floor_k`` smallest runs — the quiet-floor estimate."""
    if not runs:
        raise ValueError("quiet_floor needs at least one run")
    k = min(floor_k, len(runs))
    return sum(sorted(runs)[:k]) / k


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of unsorted values."""
    if not values:
        raise ValueError("percentile needs at least one value")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def average_query_times_by_selectivity(
    table,
    workload: list[QuerySpec],
    model: CostModel,
    bucket_width: float = 0.1,
) -> list[tuple[float, float]]:
    """(bucket centre, average simulated ms) series — a Figure 5/6 curve."""
    buckets: dict[int, list[float]] = {}
    for spec in workload:
        stats = table.execute(spec.query).stats
        buckets.setdefault(int(spec.selectivity / bucket_width), []).append(
            model.query_time_ms(stats)
        )
    return [
        ((index + 0.5) * bucket_width, sum(times) / len(times))
        for index, times in sorted(buckets.items())
    ]
