"""Figure 8 — insert execution time for different partition size limits B
(paper: weight 0.5; B = 500 / 5 000 / 50 000).

Prints the per-insert time histogram (simulated cost-model milliseconds,
log-scale buckets) per size limit, plus the split counts, and the same
inserts in measured wall-clock microseconds — ordinary and splitting
inserts apart.  Nothing is asserted on the wall-clock values: they depend
on the machine, the simulated ones do not.

Paper findings this bench reproduces and asserts:

* the majority of inserts complete in a narrow low band; a small fraction
  (the splitting inserts) takes considerably longer;
* a lower partition size limit means slightly more expensive ordinary
  inserts (bigger partition catalog to scan);
* the number of splits *decreases* as B grows (paper: 448 / 100 / 0),
  while each split gets more expensive (more entities to move).
"""

from itertools import compress

from repro.core.efficiency import percentile
from repro.reporting.histogram import LogHistogram, render_histogram
from repro.reporting.tables import format_table

from conftest import B_VALUES


def test_fig8_insert_time_distribution(benchmark, cinderella_loads, dbpedia):
    weight = 0.5
    loads = {b: cinderella_loads(b, weight) for b in B_VALUES}

    print()
    rows = []
    for b, loaded in loads.items():
        times = loaded.insert_sim_ms
        ordered = sorted(times)
        rows.append(
            [
                f"B={b}",
                len(loaded.table.catalog),
                loaded.table.partitioner.split_count,
                loaded.split_inserts,
                percentile(ordered, 50),
                percentile(ordered, 99),
                ordered[-1],
            ]
        )
    print(
        format_table(
            [
                "limit",
                "partitions",
                "splits",
                "inserts w/ split",
                "median ms",
                "p99 ms",
                "max ms",
            ],
            rows,
            title="Figure 8: insert execution time (w = 0.5, simulated ms)",
        )
    )
    print()
    wall_rows = []
    for b, loaded in loads.items():
        for kind, splitting in (("ordinary", False), ("splitting", True)):
            picked = [split is splitting for split in loaded.insert_split]
            sim = sorted(compress(loaded.insert_sim_ms, picked))
            wall = sorted(ms * 1000 for ms in compress(loaded.insert_wall_ms, picked))
            if not wall:
                wall_rows.append([f"B={b}", kind, 0] + ["-"] * 6)
                continue
            wall_rows.append(
                [
                    f"B={b}",
                    kind,
                    len(wall),
                    percentile(sim, 50),
                    percentile(sim, 99),
                    sim[-1],
                    percentile(wall, 50),
                    percentile(wall, 99),
                    wall[-1],
                ]
            )
    print(
        format_table(
            [
                "limit",
                "inserts",
                "count",
                "median ms (sim)",
                "p99 ms (sim)",
                "max ms (sim)",
                "median us (wall)",
                "p99 us (wall)",
                "max us (wall)",
            ],
            wall_rows,
            title="Figure 8: simulated ms beside measured wall-clock us per insert",
        )
    )
    for b, loaded in loads.items():
        histogram = LogHistogram(low=0.1, high=100_000.0, buckets_per_decade=2)
        histogram.add_all(loaded.insert_sim_ms)
        print()
        print(f"B={b}: per-insert time distribution")
        print(render_histogram(histogram.buckets()))

    # benchmark kernel: a single ordinary insert on the middle config
    table = loads[B_VALUES[1]].table
    probe = dict(dbpedia.entities[0].attributes)
    next_eid = [10_000_000]

    def one_insert():
        table.insert(probe, entity_id=next_eid[0])
        table.delete(next_eid[0])
        next_eid[0] += 1

    benchmark(one_insert)

    small, medium, large = (loads[b] for b in B_VALUES)
    # split counts decrease with growing B (paper: 448 / 100 / 0)
    splits = [loads[b].table.partitioner.split_count for b in B_VALUES]
    assert splits[0] > splits[1] >= splits[2]
    assert splits[0] >= 10 * max(1, splits[2])

    for b, loaded in loads.items():
        ordered = sorted(loaded.insert_sim_ms)
        median = percentile(ordered, 50)
        # the bulk of inserts sits in a narrow band: p90 within 4x median
        assert percentile(ordered, 90) < 4 * median, f"B={b}"
        if loaded.split_inserts:
            # splitting inserts are far above the median band
            assert ordered[-1] > 5 * median, f"B={b}"

    # ordinary inserts cost more under a smaller limit (larger catalog):
    assert percentile(sorted(small.insert_sim_ms), 50) >= percentile(
        sorted(large.insert_sim_ms), 50
    )

    # each split is more expensive under a larger limit (more entities
    # moved per split) — compare the priciest insert where both split
    if small.split_inserts and medium.split_inserts:
        assert max(medium.insert_sim_ms) > max(small.insert_sim_ms)
