"""Tests for the B/w parameter advisor."""

import pytest

from repro.adapt import advise
from repro.workloads.dbpedia import generate_dbpedia_persons


@pytest.fixture(scope="module")
def masks():
    dataset = generate_dbpedia_persons(1500, seed=21)
    dictionary = dataset.dictionary()
    return [entity.synopsis_mask(dictionary) for entity in dataset.entities]


class TestAdvise:
    def test_recommends_a_valid_config(self, masks):
        report = advise(masks)
        config = report.recommended
        assert 0.0 <= config.weight <= 1.0
        assert config.max_partition_size >= 2
        assert report.sample_size == len(masks)
        assert report.rationale

    def test_trials_cover_the_grid(self, masks):
        report = advise(masks, weights=(0.2, 0.4), size_fractions=(0.05, 0.25))
        assert len(report.trials) == 4
        assert {t.weight for t in report.trials} == {0.2, 0.4}

    def test_trials_sorted_by_score(self, masks):
        report = advise(masks)
        scores = [t.score for t in report.trials]
        assert scores == sorted(scores, reverse=True)
        assert report.best_trial() == report.trials[0]

    def test_recommended_weight_in_paper_band(self, masks):
        """On DBpedia-like data the paper finds 0.2-0.5 reasonable."""
        report = advise(masks)
        assert 0.1 <= report.recommended.weight <= 0.5

    def test_respects_sample_limit(self, masks):
        report = advise(masks, sample_limit=200)
        assert report.sample_size == 200

    def test_workload_aware_advice(self, masks):
        # a workload of two rare probes vs the attribute-agnostic default
        report = advise(masks, query_masks=[1 << 40, 1 << 60])
        assert report.trials  # runs without error and scores something

    def test_scales_recommendation_to_full_data_size(self, masks):
        report = advise(masks, sample_limit=500, size_fractions=(0.1,))
        # B recommended for the FULL data set, not the sample
        assert report.recommended.max_partition_size == pytest.approx(
            0.1 * len(masks), rel=0.01
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            advise([])
        with pytest.raises(ValueError):
            advise([1], weights=())
