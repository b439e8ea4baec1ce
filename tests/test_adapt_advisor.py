"""Tests of the online cost-based advisor (the predict/decide stages)
and of the offline B/w parameter advisor it absorbed."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapt import advise
from repro.adapt.advisor import (
    AdaptationReport,
    LayoutSketch,
    advise_adaptation,
    predicted_workload_ms,
)
from repro.core.config import CinderellaConfig
from repro.core.partitioner import CinderellaPartitioner
from repro.cost.model import CostModel
from repro.workloads.dbpedia import generate_dbpedia_persons


def replay_sketch(masks, config):
    """The live layout a mask sequence produces under a config."""
    partitioner = CinderellaPartitioner(config)
    for eid, mask in enumerate(masks):
        partitioner.insert(eid, mask)
    return LayoutSketch.from_catalog(partitioner.catalog)


def grouped_masks(groups=6, per_group=40):
    """Disjoint group masks plus one attribute shared by everyone."""
    common = 1
    masks = []
    for i in range(groups * per_group):
        group = i % groups
        masks.append(common | (0b111 << (1 + 3 * group)))
    return masks


class TestPredictedWorkloadMs:
    def test_empty_inputs_cost_nothing(self):
        model = CostModel()
        assert predicted_workload_ms(
            LayoutSketch(()), {0b1: 1.0}, model) == 0.0
        sketch = LayoutSketch(((0b1, 10, 10.0),))
        assert predicted_workload_ms(sketch, {}, model) == 0.0
        assert predicted_workload_ms(sketch, {0b1: 0.0}, model) == 0.0

    def test_pruning_prices_only_overlapping_partitions(self):
        model = CostModel()
        split = LayoutSketch(((0b01, 50, 50.0), (0b10, 50, 50.0)))
        merged = LayoutSketch(((0b11, 100, 100.0),))
        selective = {0b01: 1.0}
        # the split layout prunes the irrelevant half; the merged one
        # reads everything
        assert (predicted_workload_ms(split, selective, model)
                < predicted_workload_ms(merged, selective, model))

    def test_broad_queries_pay_per_branch(self):
        model = CostModel()
        fine = LayoutSketch(tuple((0b1, 5, 5.0) for _ in range(20)))
        coarse = LayoutSketch(tuple((0b1, 50, 50.0) for _ in range(2)))
        broad = {0b1: 1.0}
        # same rows everywhere: the fine layout pays 20 union branches
        # and 20 page ceilings, the coarse one pays 2
        assert (predicted_workload_ms(coarse, broad, model)
                < predicted_workload_ms(fine, broad, model))

    def test_weights_scale_linearly(self):
        model = CostModel()
        sketch = LayoutSketch(((0b1, 10, 10.0),))
        once = predicted_workload_ms(sketch, {0b1: 1.0}, model)
        thrice = predicted_workload_ms(sketch, {0b1: 3.0}, model)
        assert thrice == pytest.approx(3.0 * once)

    def test_scale_multiplies_sampled_entity_counts(self):
        model = CostModel()
        sampled = LayoutSketch(((0b1, 10, 10.0),), scale=10.0)
        full = LayoutSketch(((0b1, 100, 100.0),))
        profile = {0b1: 1.0}
        assert predicted_workload_ms(
            sampled, profile, model
        ) == pytest.approx(predicted_workload_ms(full, profile, model))


class TestAdviseAdaptation:
    def test_empty_profile_keeps(self):
        masks = grouped_masks()
        current = replay_sketch(
            masks, CinderellaConfig(max_partition_size=30.0, weight=0.3)
        )
        report = advise_adaptation(masks, current, {})
        assert report.best.kind == "keep"
        assert report.evaluated == 0

    def test_broad_shift_on_fine_layout_recommends_coarser(self):
        """The validated demo scenario: fine layout, broad scans."""
        masks = grouped_masks()
        config = CinderellaConfig(max_partition_size=30.0, weight=0.3)
        current = replay_sketch(masks, config)
        assert current.partition_count > 6  # finer than one-per-group
        report = advise_adaptation(
            masks, current, {1: 64.0}, current_config=config,
            horizon_queries=500.0,
        )
        best = report.best
        assert best.kind == "reorganize"
        assert best.partitions_after < current.partition_count
        assert best.predicted_win_ms > 0.0
        assert best.win_fraction > 0.0
        assert best.config is not None

    def test_selective_workload_on_matching_layout_keeps(self):
        """A per-group layout already prunes per-group queries."""
        masks = grouped_masks()
        config = CinderellaConfig(max_partition_size=300.0, weight=0.3)
        current = replay_sketch(masks, config)
        profile = {0b111 << (1 + 3 * g): 10.0 for g in range(6)}
        report = advise_adaptation(
            masks, current, profile, current_config=config,
            horizon_queries=500.0,
        )
        assert report.best.kind == "keep"

    def test_plans_ranked_by_win_and_keep_is_last(self):
        masks = grouped_masks()
        config = CinderellaConfig(max_partition_size=30.0, weight=0.3)
        current = replay_sketch(masks, config)
        report = advise_adaptation(
            masks, current, {1: 64.0}, current_config=config,
            horizon_queries=500.0,
        )
        wins = [plan.predicted_win_ms for plan in report.plans[:-1]]
        assert wins == sorted(wins, reverse=True)
        assert all(win > 0.0 for win in wins)
        assert report.plans[-1].kind == "keep"

    def test_short_horizon_suppresses_expensive_actions(self):
        """Amortized over one query, a full reorganization (which moves
        every entity and recreates every partition) cannot pay off; only
        the cheap merge candidate may still clear its cost."""
        masks = grouped_masks()
        config = CinderellaConfig(max_partition_size=30.0, weight=0.3)
        current = replay_sketch(masks, config)
        report = advise_adaptation(
            masks, current, {1: 64.0}, current_config=config,
            horizon_queries=1.0,
        )
        assert report.best.kind != "reorganize"
        assert all(plan.kind != "reorganize" for plan in report.plans)

    def test_current_config_is_skipped_as_a_candidate(self):
        masks = grouped_masks()
        total = len(masks)
        config = CinderellaConfig(
            max_partition_size=round(0.05 * total), weight=0.3
        )
        current = replay_sketch(masks, config)
        report = advise_adaptation(
            masks, current, {1: 4.0}, current_config=config,
            weights=(0.3,), size_fractions=(0.05,),
            merge_min_fill=0.0,  # no merge candidate either
        )
        assert report.evaluated == 0  # the only grid point is the no-op

    def test_report_as_dict_round_trips_to_json_types(self):
        import json

        masks = grouped_masks(groups=3, per_group=20)
        config = CinderellaConfig(max_partition_size=20.0, weight=0.3)
        current = replay_sketch(masks, config)
        report = advise_adaptation(
            masks, current, {1: 32.0}, current_config=config
        )
        assert isinstance(report, AdaptationReport)
        document = json.loads(json.dumps(report.as_dict()))
        assert document["best"]["kind"] in ("keep", "reorganize", "merge")
        assert document["evaluated"] >= 0


# strategy: entities drawn from a handful of overlapping mask families,
# profiles over single-attribute and combined probes
entity_masks_strategy = st.lists(
    st.sampled_from([0b0001, 0b0011, 0b0110, 0b1100, 0b1111, 0b1010]),
    min_size=8, max_size=120,
)
profile_strategy = st.dictionaries(
    st.sampled_from([0b0001, 0b0010, 0b0100, 0b1000, 0b0101, 0b1111]),
    st.floats(min_value=0.1, max_value=64.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=5,
)


class TestRecommendationContract:
    """The pinned property: the advisor never recommends a predicted loss."""

    @settings(max_examples=25, deadline=None)
    @given(
        entity_masks_strategy,
        profile_strategy,
        st.sampled_from([4.0, 10.0, 30.0]),
        st.sampled_from([1.0, 50.0, 2_000.0]),
    )
    def test_best_is_keep_or_a_strict_predicted_win(
        self, masks, profile, max_size, horizon
    ):
        config = CinderellaConfig(max_partition_size=max_size, weight=0.3)
        current = replay_sketch(masks, config)
        report = advise_adaptation(
            masks, current, profile, current_config=config,
            horizon_queries=horizon,
        )
        best = report.best
        if best.kind == "keep":
            assert best.predicted_win_ms == 0.0
        else:
            # a recommended plan is strictly cheaper than staying put,
            # with the physical action cost already amortized in
            assert best.predicted_win_ms > 0.0
            assert best.predicted_plan_ms < best.predicted_current_ms
            assert best.win_fraction > 0.0
        # and this holds for every ranked plan, not just the winner
        for plan in report.plans:
            if plan.kind != "keep":
                assert plan.predicted_plan_ms < plan.predicted_current_ms


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
