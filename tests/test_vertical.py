"""Tests for the hidden-schema vertical partitioning comparator."""

import pytest

from repro.baselines.vertical import (
    attribute_jaccard,
    fragment_cells,
    hidden_schema_fragments,
    masks_to_matrix,
)
from repro.core.config import CinderellaConfig
from repro.core.efficiency import catalog_cells, cell_efficiency
from repro.core.partitioner import CinderellaPartitioner


class TestMatrixHelpers:
    def test_masks_to_matrix(self):
        matrix = masks_to_matrix([0b101, 0b010], 3)
        assert matrix.tolist() == [[True, False, True], [False, True, False]]

    def test_attribute_jaccard_values(self):
        # a and b always co-occur; c never appears with them
        matrix = masks_to_matrix([0b011, 0b011, 0b100], 3)
        jaccard = attribute_jaccard(matrix)
        assert jaccard[0, 1] == pytest.approx(1.0)
        assert jaccard[0, 2] == pytest.approx(0.0)
        assert jaccard[0, 0] == 1.0

    def test_partial_overlap(self):
        matrix = masks_to_matrix([0b01, 0b11, 0b10], 2)
        jaccard = attribute_jaccard(matrix)
        assert jaccard[0, 1] == pytest.approx(1 / 3)

    def test_empty_attribute(self):
        matrix = masks_to_matrix([0b01], 2)
        jaccard = attribute_jaccard(matrix)
        assert jaccard[0, 1] == 0.0
        assert jaccard[1, 1] == 1.0


def two_family_masks(n: int = 60) -> list[int]:
    """Attributes 0-2 co-occur; attributes 3-5 co-occur; never mixed."""
    return [0b000111 if i % 2 else 0b111000 for i in range(n)]


def vertical_efficiency(masks, query_masks, k_neighbors=2):
    fragments = hidden_schema_fragments(masks, 6, k_neighbors=k_neighbors)
    return cell_efficiency(masks, fragment_cells(fragments, masks), query_masks)


class TestHiddenSchemaPartitioner:
    def test_finds_the_two_hidden_schemas(self):
        fragments = hidden_schema_fragments(two_family_masks(), 6, k_neighbors=2)
        attribute_sets = sorted(
            tuple(sorted(f.attribute_ids)) for f in fragments
        )
        assert attribute_sets == [(0, 1, 2), (3, 4, 5)]

    def test_min_jaccard_prevents_chaining(self):
        # one noisy entity carrying attributes of both families
        masks = two_family_masks() + [0b111111]
        fragments = hidden_schema_fragments(masks, 6, k_neighbors=2, min_jaccard=0.2)
        assert len(fragments) == 2

    def test_zero_threshold_chains_everything(self):
        masks = two_family_masks() + [0b111111]
        fragments = hidden_schema_fragments(masks, 6, k_neighbors=5, min_jaccard=0.0)
        assert len(fragments) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            hidden_schema_fragments(two_family_masks(), 6, k_neighbors=0)
        with pytest.raises(ValueError):
            hidden_schema_fragments(two_family_masks(), 6, min_jaccard=2.0)


class TestCellEfficiency:
    def test_perfect_vertical_layout(self):
        masks = two_family_masks()
        # query references all of family 0's attributes: the fragment read
        # contains exactly the relevant cells
        assert vertical_efficiency(masks, [0b000111]) == pytest.approx(1.0)

    def test_partial_query_reads_whole_fragment(self):
        masks = two_family_masks()
        # querying one of the three attributes still reads the fragment
        assert vertical_efficiency(masks, [0b000001]) == pytest.approx(1 / 3)

    def test_fragment_volumes(self):
        masks = two_family_masks(10)
        fragments = hidden_schema_fragments(masks, 6, k_neighbors=2)
        volumes = [cells for _mask, cells in fragment_cells(fragments, masks)]
        assert sorted(volumes) == [15.0, 15.0]

    def test_horizontal_counterpart_on_clean_data(self):
        masks = two_family_masks()
        cinderella = CinderellaPartitioner(
            CinderellaConfig(max_partition_size=50, weight=0.3)
        )
        for eid, mask in enumerate(masks):
            cinderella.insert(eid, mask)
        units = catalog_cells(cinderella.catalog)
        # horizontal partitions are signature-pure here: single-attribute
        # queries read whole 3-attribute-wide rows -> 1/3 cell efficiency
        value = cell_efficiency(masks, units, [0b000001])
        assert value == pytest.approx(1 / 3)
        # full-family queries are perfect
        assert cell_efficiency(masks, units, [0b000111]) == pytest.approx(1.0)

    def test_vacuous_workload(self):
        assert vertical_efficiency(two_family_masks(), [1 << 40]) == 1.0
