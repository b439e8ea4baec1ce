"""Tests for the Cinderella rating (Section IV formulas)."""


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog.partition import Partition
from repro.core.rating import (
    best_rated,
    entity_heterogeneity_score,
    global_rating,
    homogeneity_score,
    local_rating,
    partition_heterogeneity_score,
    rate,
)

masks = st.integers(min_value=0, max_value=2**60 - 1)
sizes = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_subnormal=False
)
weights = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestScoreFormulas:
    def test_homogeneity(self):
        # h+ = (SIZE(p) + SIZE(e)) * |e ∧ p|
        assert homogeneity_score(10.0, 1.0, 3) == 33.0

    def test_entity_heterogeneity(self):
        # he- = SIZE(e) * |¬e ∧ p|
        assert entity_heterogeneity_score(2.0, 4) == 8.0

    def test_partition_heterogeneity(self):
        # hp- = SIZE(p) * |e ∧ ¬p|
        assert partition_heterogeneity_score(10.0, 2) == 20.0

    def test_local_rating_balances_evidence(self):
        # r' = w*h+ - (1-w)(he- + hp-)
        assert local_rating(0.5, 30.0, 4.0, 6.0) == 0.5 * 30 - 0.5 * 10

    def test_local_rating_weight_zero_is_pure_negative(self):
        assert local_rating(0.0, 100.0, 1.0, 0.0) == -1.0

    def test_local_rating_weight_one_ignores_heterogeneity(self):
        assert local_rating(1.0, 5.0, 100.0, 100.0) == 5.0

    def test_global_rating_normalizes(self):
        assert global_rating(10.0, 4.0, 1.0, 2) == 10.0 / 10.0

    def test_global_rating_zero_denominator_is_zero(self):
        assert global_rating(0.0, 0.0, 0.0, 0) == 0.0


class TestWorkedExample:
    """Hand-computed example: entity {a,b,c} against partition {a,b,d,e}."""

    E_MASK = 0b00111  # a, b, c
    P_MASK = 0b11011  # a, b, d, e

    def test_breakdown(self):
        breakdown = rate(self.E_MASK, self.P_MASK, 1.0, 10.0, 0.5)
        # |e ∧ p| = 2 (a, b); |¬e ∧ p| = 2 (d, e); |e ∧ ¬p| = 1 (c)
        assert breakdown.homogeneity == (10 + 1) * 2
        assert breakdown.entity_heterogeneity == 1 * 2
        assert breakdown.partition_heterogeneity == 10 * 1
        assert breakdown.local == 0.5 * 22 - 0.5 * 12
        # |e ∨ p| = 5
        assert breakdown.global_ == pytest.approx(5.0 / (11 * 5))


def partition_of(pid: int, mask: int, size: float) -> Partition:
    """A catalog entry with one member of the given synopsis and size."""
    partition = Partition(pid)
    partition.add(pid, mask, size)
    return partition


class TestBestRatedEquivalence:
    """The one fast rating loop against the reference formula."""

    @given(masks, masks, sizes, sizes, weights)
    def test_matches_reference(self, e_mask, p_mask, size_e, size_p, weight):
        reference = rate(e_mask, p_mask, size_e, size_p, weight).global_
        best, rating, rated = best_rated(
            e_mask, size_e, [partition_of(0, p_mask, size_p)], weight
        )
        assert (best.pid, rated) == (0, 1)
        assert rating == pytest.approx(reference, rel=1e-9, abs=1e-9)

    @given(masks, masks, sizes, sizes, weights)
    def test_unnormalized_matches_reference_local(
        self, e_mask, p_mask, size_e, size_p, weight
    ):
        reference = rate(e_mask, p_mask, size_e, size_p, weight).local
        _best, rating, _rated = best_rated(
            e_mask, size_e, [partition_of(0, p_mask, size_p)], weight,
            normalize=False,
        )
        assert rating == pytest.approx(reference, rel=1e-9, abs=1e-6)

    @given(masks, st.lists(st.tuples(masks, sizes), min_size=1, max_size=8),
           sizes, weights)
    def test_picks_the_first_reference_maximum(
        self, e_mask, specs, size_e, weight
    ):
        partitions = [
            partition_of(pid, mask, size) for pid, (mask, size) in enumerate(specs)
        ]
        best, rating, rated = best_rated(e_mask, size_e, partitions, weight)
        assert rated == len(partitions)
        reference = [
            rate(e_mask, p.mask, size_e, p.total_size, weight).global_
            for p in partitions
        ]
        assert rating == pytest.approx(max(reference), rel=1e-9, abs=1e-9)
        assert rating == pytest.approx(reference[best.pid], rel=1e-9, abs=1e-9)

    def test_an_exact_tie_goes_to_the_first_partition_in_order(self):
        twins = [partition_of(pid, 0b0110, 5.0) for pid in (7, 3, 9)]
        best, rating, rated = best_rated(0b0111, 1.0, twins, 0.5)
        assert best is twins[0] and rated == 3
        assert rating == rate(0b0111, 0b0110, 1.0, 5.0, 0.5).global_

    def test_first_fit_stops_at_the_first_accepted_partition(self):
        partitions = [
            partition_of(0, 0b1100_0000, 1.0),  # disjoint: rates negative
            partition_of(1, 0b0000_0011, 1.0),  # a fit, though not the best
            partition_of(2, 0b0000_0111, 1.0),  # the best fit
        ]
        best, rating, rated = best_rated(
            0b0000_0111, 1.0, partitions, 0.5, first_fit=True
        )
        assert (best.pid, rated) == (1, 2)
        assert rating >= 0.0
        best, _rating, rated = best_rated(0b0000_0111, 1.0, partitions, 0.5)
        assert (best.pid, rated) == (2, 3)

    def test_first_fit_keeps_scanning_past_negative_ratings(self):
        partitions = [partition_of(pid, 1 << (pid + 8), 1.0) for pid in range(3)]
        best, rating, rated = best_rated(0b1, 1.0, partitions, 0.5, first_fit=True)
        assert rated == 3 and rating < 0.0
        assert best is partitions[0]

    def test_nothing_to_rate(self):
        assert best_rated(0b1, 1.0, [], 0.5) == (None, -float("inf"), 0)


class TestRatingProperties:
    @given(masks, sizes, sizes, weights)
    def test_identical_synopses_rate_non_negative(self, mask, size_e, size_p, weight):
        breakdown = rate(mask, mask, size_e, size_p, weight)
        assert breakdown.global_ >= 0.0

    @given(masks, masks, sizes, sizes)
    def test_weight_zero_negative_iff_any_heterogeneity(
        self, e_mask, p_mask, size_e, size_p
    ):
        breakdown = rate(e_mask, p_mask, size_e, size_p, 0.0)
        heterogeneity = (
            breakdown.entity_heterogeneity + breakdown.partition_heterogeneity
        )
        if heterogeneity > 0:
            assert breakdown.global_ < 0.0
        else:
            assert breakdown.global_ == 0.0

    @given(masks, masks, weights)
    def test_global_rating_bounded(self, e_mask, p_mask, weight):
        """|r| is bounded: numerator terms are each ≤ (SIZE sum)·|e∨p|."""
        value = rate(e_mask, p_mask, 1.0, 7.0, weight).global_
        assert -1.0 <= value <= 1.0

    def test_disjoint_synopses_rate_negative(self):
        assert rate(0b11, 0b1100, 1.0, 5.0, 0.5).global_ < 0.0

    def test_empty_entity_against_empty_partition_is_perfect(self):
        assert rate(0, 0, 1.0, 3.0, 0.5).global_ == 0.0

    def test_higher_weight_never_lowers_rating(self):
        low = rate(0b111, 0b110, 1.0, 5.0, 0.2).global_
        high = rate(0b111, 0b110, 1.0, 5.0, 0.8).global_
        assert high >= low
