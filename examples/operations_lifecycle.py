"""Day-2 operations — advisor, churn, maintenance, and snapshots.

A lifecycle walkthrough of running Cinderella in production, using the
extensions built on top of the paper:

1. **advise** — pick B and w for the data before enabling partitioning;
2. **load & churn** — online inserts, then a heavy deletion wave;
3. **maintain** — merge the under-filled fragments the paper's
   delete routine leaves behind;
4. **persist** — snapshot the table and restore it bit-exact.

Run with::

    python examples/operations_lifecycle.py
"""

import tempfile
from pathlib import Path

from repro import CinderellaTable
from repro.adapt import advise
from repro.core import summarize_catalog
from repro.reporting import format_kv_block, format_table
from repro.storage.snapshot import load_table, save_table
from repro.workloads import generate_dbpedia_persons


def main() -> None:
    dataset = generate_dbpedia_persons(n_entities=4000, seed=3)
    dictionary = dataset.dictionary()
    masks = [entity.synopsis_mask(dictionary) for entity in dataset.entities]

    # 1. advisor: pick B and w from a sample
    report = advise(masks, sample_limit=1500)
    print(format_table(
        ["w", "B", "efficiency", "partitions", "score"],
        [[t.weight, f"{t.max_partition_size:g}", t.efficiency,
          t.partition_count, t.score] for t in report.trials[:5]],
        title="1. Advisor (top 5 trials)",
    ))
    config = report.recommended
    print(f"   -> B = {config.max_partition_size:g}, w = {config.weight}\n")

    # 2. load and churn
    table = CinderellaTable(config)
    for entity in dataset.entities:
        table.insert(entity.attributes, entity_id=entity.entity_id)
    loaded = summarize_catalog(table.catalog)
    for entity in dataset.entities:
        if entity.entity_id % 10 < 7:  # 70 % of the data ages out
            table.delete(entity.entity_id)
    churned = summarize_catalog(table.catalog)

    # 3. maintenance: merge the fragments
    merge_report = table.merge_small_partitions(min_fill=0.4)
    maintained = summarize_catalog(table.catalog)
    assert table.check_consistency() == []
    print(format_table(
        ["state", "entities", "partitions", "median fill"],
        [
            ["loaded", loaded.entity_count, loaded.partition_count,
             loaded.entities_summary.median],
            ["after 70 % deletes", churned.entity_count,
             churned.partition_count, churned.entities_summary.median],
            [f"after merge ({merge_report.merge_count} merges)",
             maintained.entity_count, maintained.partition_count,
             maintained.entities_summary.median],
        ],
        title="2./3. Churn and maintenance",
    ))

    # 4. snapshot round-trip
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        save_table(table, path)
        restored = load_table(path)
        print()
        print(format_kv_block(
            "4. Snapshot round-trip",
            [
                ("file size", f"{path.stat().st_size / 1024:.0f} KiB"),
                ("entities restored", len(restored)),
                ("partitions restored", restored.partition_count()),
                ("consistency check", restored.check_consistency() == []),
            ],
        ))


if __name__ == "__main__":
    main()
