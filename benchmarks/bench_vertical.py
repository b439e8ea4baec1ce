"""Vertical hidden-schema comparator bench — Section VI, quantified.

The paper argues the hidden-schema technique [18] is the closest related
work but "not directly applicable": it partitions vertically, offline,
and needs a good ``k``.  This bench runs the technique on the DBpedia
data and compares the resulting vertical layout against Cinderella's
horizontal layout on the same query workload, at instantiated-cell
granularity (the unit on which both layouts are measurable).

What the numbers show:

* vertical fragments excel when queries reference *few attributes of
  wide entities* (they never ship unreferenced columns);
* horizontal partitions excel at *entity retrieval* (a vertical layout
  must touch every fragment overlapping the entity's attributes — and
  reassembling whole entities means reading essentially everything);
* the hidden-schema clustering is highly sensitive to its ``k`` — the
  exact objection the paper raises.
"""

from repro.baselines.vertical import fragment_cells, hidden_schema_fragments
from repro.core.config import CinderellaConfig
from repro.core.efficiency import catalog_cells, cell_efficiency
from repro.core.partitioner import CinderellaPartitioner
from repro.reporting.tables import format_table

from conftest import N_ENTITIES


def test_vertical_vs_horizontal(benchmark, dbpedia, query_workload):
    dictionary = dbpedia.dictionary()
    sample = dbpedia.entities[: min(N_ENTITIES, 10_000)]
    masks = [entity.synopsis_mask(dictionary) for entity in sample]
    n_attributes = len(dictionary)
    queries = [spec.query.synopsis_mask(dictionary) for spec in query_workload]

    cinderella = CinderellaPartitioner(
        CinderellaConfig(max_partition_size=500, weight=0.2)
    )
    for eid, mask in enumerate(masks):
        cinderella.insert(eid, mask)
    horizontal = cell_efficiency(masks, catalog_cells(cinderella.catalog), queries)

    rows = []
    fragment_counts = {}
    vertical_scores = {}
    for k in (1, 2, 3, 5, 10):
        fragments = hidden_schema_fragments(
            masks, n_attributes, k_neighbors=k, min_jaccard=0.05
        )
        score = cell_efficiency(masks, fragment_cells(fragments, masks), queries)
        fragment_counts[k] = len(fragments)
        vertical_scores[k] = score
        rows.append([f"hidden schema k={k}", len(fragments), score])
    rows.append(["cinderella horizontal", len(cinderella.catalog), horizontal])
    print()
    print(format_table(
        ["layout", "fragments/partitions", "cell-level EFFICIENCY"],
        rows,
        title=f"Vertical [18] vs horizontal Cinderella "
              f"({len(sample)} entities, {len(queries)} queries)",
    ))

    # the entity-retrieval case: fetch whole entities relevant to a query
    # (the universal-table access pattern the paper's queries embody) —
    # a vertical layout must then read every overlapping fragment per
    # referenced attribute AND the remaining fragments to reassemble rows
    print(
        "\nNote: scores above charge the vertical layout only for the "
        "fragments a query references; reassembling whole entities "
        "(SELECT *) would force it to read all fragments."
    )

    # benchmark kernel: one clustering run
    benchmark.pedantic(
        lambda: hidden_schema_fragments(
            masks, n_attributes, k_neighbors=3, min_jaccard=0.05
        ),
        rounds=1,
        iterations=1,
    )

    # k sensitivity: fragment counts swing with k (the paper's "requires
    # additional knowledge to provide a reasonably good k")
    assert fragment_counts[1] > fragment_counts[10]
    # an ill-chosen k collapses the layout towards one wide table
    assert min(fragment_counts.values()) <= 5
    # Cinderella is competitive with the best vertical k on this workload
    best_vertical = max(vertical_scores.values())
    assert horizontal > 0.5 * best_vertical
