"""Tests for the Figure 7 statistics (percentiles, summaries) and the
Figure 8 log histograms."""

import pytest

from repro.core.config import CinderellaConfig
from repro.core.partitioner import CinderellaPartitioner
from repro.core.efficiency import (
    DistributionSummary,
    percentile,
    summarize_catalog,
)
from repro.reporting.histogram import LogHistogram, render_histogram


class TestPercentile:
    def test_median_odd(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_extremes(self):
        assert percentile([5, 1, 9][0:3], 0) == 5  # already-sorted contract
        assert percentile([1, 5, 9], 0) == 1
        assert percentile([1, 5, 9], 100) == 9

    def test_single_value(self):
        assert percentile([7], 33) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestDistributionSummary:
    def test_five_numbers(self):
        s = DistributionSummary.of([4, 1, 3, 2, 5])
        assert (s.minimum, s.median, s.maximum) == (1, 3, 5)
        assert s.p25 == 2 and s.p75 == 4
        assert s.mean == 3
        assert s.row() == (1, 2, 3, 4, 5, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DistributionSummary.of([])


class TestSummarizeCatalog:
    def test_collects_figure7_metrics(self):
        p = CinderellaPartitioner(CinderellaConfig(max_partition_size=10, weight=0.4))
        for eid in range(6):
            p.insert(eid, 0b0011 if eid % 2 else 0b1100)
        summary = summarize_catalog(p.catalog)
        assert summary.partition_count == 2
        assert summary.entity_count == 6
        assert sorted(summary.entities_per_partition) == [3, 3]
        assert all(a == 2 for a in summary.attributes_per_partition)
        assert all(s == 0.0 for s in summary.sparseness_per_partition)

    def test_empty_catalog_rejected(self):
        p = CinderellaPartitioner()
        with pytest.raises(ValueError):
            summarize_catalog(p.catalog)


class TestLogHistogram:
    def test_buckets_by_decade(self):
        h = LogHistogram(low=0.1, high=1000.0, buckets_per_decade=1)
        h.add_all([0.5, 5.0, 5.5, 50.0, 500.0])
        counts = [b.count for b in h.buckets()]
        assert counts == [1, 2, 1, 1]

    def test_underflow_overflow(self):
        h = LogHistogram(low=1.0, high=10.0)
        h.add(0.5)
        h.add(100.0)
        assert h.underflow == 1 and h.overflow == 1
        assert h.samples == 2

    def test_trims_empty_tails(self):
        h = LogHistogram(low=0.01, high=10_000.0, buckets_per_decade=1)
        h.add(5.0)
        buckets = h.buckets()
        assert len(buckets) == 1 and buckets[0].count == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            LogHistogram(low=0)
        with pytest.raises(ValueError):
            LogHistogram(buckets_per_decade=0)

    def test_render(self):
        h = LogHistogram(low=0.1, high=100.0, buckets_per_decade=1)
        h.add_all([1.5, 2.0, 20.0])
        text = render_histogram(h.buckets())
        assert "#" in text
        assert render_histogram([]) == "(no samples)"

