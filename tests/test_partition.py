"""Tests for partition catalog entries (exact synopses, sizes, starters)."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.catalog.partition import Partition, iter_attribute_ids

masks = st.integers(min_value=0, max_value=2**50 - 1)
#: first entity id of the bulk members (their bits lie above the masks')
CROWD_EID = 10_000


class TestIterAttributeIds:
    def test_yields_set_bits(self):
        assert list(iter_attribute_ids(0b1011)) == [0, 1, 3]

    def test_zero_mask(self):
        assert list(iter_attribute_ids(0)) == []

    @given(masks)
    def test_matches_bit_count(self, mask):
        ids = list(iter_attribute_ids(mask))
        assert len(ids) == mask.bit_count()
        assert all(mask >> i & 1 for i in ids)


class TestMembership:
    def test_add_updates_synopsis_and_size(self):
        p = Partition(0)
        p.add(1, 0b011, 1.0)
        p.add(2, 0b110, 1.0)
        assert p.mask == 0b111
        assert p.attr_count == 3
        assert p.total_size == 2.0
        assert len(p) == 2
        assert 1 in p and 3 not in p

    def test_add_returns_new_bits(self):
        p = Partition(0)
        assert p.add(1, 0b011, 1.0) == 0b011
        assert p.add(2, 0b010, 1.0) == 0  # nothing new
        assert p.add(3, 0b110, 1.0) == 0b100

    def test_duplicate_add_rejected(self):
        p = Partition(0)
        p.add(1, 0b1, 1.0)
        with pytest.raises(ValueError):
            p.add(1, 0b1, 1.0)

    def test_members_iteration(self):
        p = Partition(0)
        p.add(5, 0b1, 2.0)
        assert list(p.members()) == [(5, 0b1, 2.0)]
        assert p.member(5) == (0b1, 2.0)
        assert p.entity_ids() == (5,)


class TestExactSynopsisShrinking:
    def test_remove_clears_last_instance_bits(self):
        p = Partition(0)
        p.add(1, 0b011, 1.0)
        p.add(2, 0b010, 1.0)
        mask, size, removed = p.remove(1)
        assert (mask, size) == (0b011, 1.0)
        assert removed == 0b001  # bit 0 had its only instance removed
        assert p.mask == 0b010
        assert p.attr_count == 1

    def test_remove_keeps_shared_bits(self):
        p = Partition(0)
        p.add(1, 0b01, 1.0)
        p.add(2, 0b01, 1.0)
        _, _, removed = p.remove(1)
        assert removed == 0
        assert p.mask == 0b01

    def test_remove_repairs_starters(self):
        p = Partition(0)
        p.add(1, 0b001, 1.0)
        p.add(2, 0b110, 1.0)
        assert p.starters.is_starter(1)
        p.remove(1)
        assert not p.starters.is_starter(1)
        assert p.starters.eid_a == 2

    def test_remove_without_repair_leaves_starters(self):
        p = Partition(0)
        p.add(1, 0b001, 1.0)
        p.add(2, 0b110, 1.0)
        p.remove(1, repair_starters=False)
        assert p.starters.is_starter(1)  # caller promised to discard p

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("toggle", "update")),
                st.integers(0, 50) | st.integers(CROWD_EID, CROWD_EID + 1_999),
                masks,
            ),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from((0, 2_000)),
    )
    @example(  # an attribute only one member holds departs with it...
        [("toggle", 1, 0b011), ("toggle", 2, 0b010), ("toggle", 1, 0)], 0
    )
    @example(  # ...and through an in-place update that drops it
        [("toggle", 1, 0b011), ("toggle", 2, 0b010), ("update", 1, 0b110)], 0
    )
    def test_synopsis_always_union_of_members(self, entries, crowd):
        """Adds, removes and in-place updates keep the synopsis the exact
        union of the members' masks, and report exactly the bits that
        appeared or vanished — also for an attribute held by one member
        only, and in a partition of *crowd* extra members (each with one
        attribute of its own beside two shared ones)."""
        p = Partition(0)
        live: dict[int, tuple[int, float]] = {}
        for i in range(crowd):
            mask = 1 << 50 | 1 << (51 + i % 3) | 1 << (60 + i)
            p.add(CROWD_EID + i, mask, 1.0)
            live[CROWD_EID + i] = (mask, 1.0)
        for kind, eid, mask in entries:
            before = p.mask
            added = removed = 0
            if eid not in live:
                added = p.add(eid, mask, 1.0)
                live[eid] = (mask, 1.0)
            elif kind == "toggle":
                _mask, _size, removed = p.remove(eid)
                del live[eid]
            else:
                added, removed = p.update_member(eid, mask, 2.0)
                live[eid] = (mask, 2.0)
            union = 0
            for member_mask, _size in live.values():
                union |= member_mask
            assert p.mask == union
            assert p.attr_count == union.bit_count()
            assert (added, removed) == (union & ~before, before & ~union)
            assert p.total_size == pytest.approx(
                sum(size for _mask, size in live.values())
            )


class TestUpdateMember:
    def test_update_changes_synopsis_both_ways(self):
        p = Partition(0)
        p.add(1, 0b011, 1.0)
        p.add(2, 0b010, 1.0)
        added, removed = p.update_member(1, 0b110, 2.0)
        assert added == 0b100
        assert removed == 0b001
        assert p.mask == 0b110
        assert p.total_size == 3.0

    def test_update_refreshes_starter_mask(self):
        p = Partition(0)
        p.add(1, 0b01, 1.0)
        p.add(2, 0b10, 1.0)
        p.update_member(1, 0b11, 1.0)
        assert p.starters.mask_a == 0b11 or p.starters.mask_b == 0b11


class TestSparseness:
    def test_perfectly_dense_partition(self):
        p = Partition(0)
        p.add(1, 0b11, 1.0)
        p.add(2, 0b11, 1.0)
        assert p.sparseness() == 0.0

    def test_half_sparse_partition(self):
        p = Partition(0)
        p.add(1, 0b01, 1.0)
        p.add(2, 0b10, 1.0)
        # grid: 2 entities x 2 attributes, 2 of 4 cells filled
        assert p.sparseness() == pytest.approx(0.5)

    def test_empty_partition_is_dense_by_definition(self):
        assert Partition(0).sparseness() == 0.0

    def test_attributeless_partition_is_dense(self):
        p = Partition(0)
        p.add(1, 0, 1.0)
        assert p.sparseness() == 0.0
