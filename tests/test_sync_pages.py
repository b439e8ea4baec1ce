"""Resync pages in O(page): ``sync_snapshot`` served from eid-ordered memos.

A resync copies a shard group page by page (``sync_snapshot`` with
``after_eid``/``limit``), then compares a count and digest
(``count_only``).  A node serves each page from per-partition-state
memos of its records by ascending entity id — shared, like the chunk
memos, by every snapshot that holds the state — merged by eid, so a page
decodes only the entities it returns.

* :class:`TestPagesMatchTheReference` — pages and digests are identical
  to the sort-everything reference, across scopes, cursors and limits,
  through updates, deletes and splits.
* :class:`TestPageCost` — a page of a 20k-entity scope decodes
  O(limit + partitions) records; an unchanged partition state keeps its
  memo across snapshots.
"""

import random
import zlib

import pytest

from repro.core.config import CinderellaConfig
from repro.query import snapshot as snapshot_module
from repro.query.snapshot import ShardScope
from repro.router.testing import small_partition_table
from repro.server.server import CinderellaServer
from repro.storage.snapshot import _encode_value
from repro.table.partitioned import CinderellaTable

from tests.conftest import WORKLOAD_SEED

collect = CinderellaServer._collect_sync_page


def reference_page(snapshot, after_eid, limit, count_only):
    """The sync page as it was served before the memos: every entity in
    scope decoded, every id sorted, per page."""
    attributes_of = dict(snapshot.entities())
    eids = sorted(attributes_of)
    if count_only:
        digest = zlib.crc32(",".join(map(str, eids)).encode())
        return {
            "count": len(eids),
            "digest": f"{digest:08x}",
            "version_clock": snapshot.version_clock,
        }
    page = [eid for eid in eids if eid > after_eid][:limit]
    return {
        "entities": [
            {
                "eid": eid,
                "attributes": {
                    name: _encode_value(value)
                    for name, value in attributes_of[eid].items()
                },
            }
            for eid in page
        ],
        "next_after": page[-1] if page else after_eid,
        "done": not page or page[-1] == eids[-1],
        "count": len(eids),
    }


def _table(entities: int, rng: random.Random, table=None):
    table = small_partition_table() if table is None else table
    order = list(range(entities))
    rng.shuffle(order)  # heap order is not eid order
    for eid in order:
        table.insert(
            {"common": eid % 7, f"attr{eid % 5}": f"v{eid}", "raw": b"\x00"},
            entity_id=3 * eid,
        )
    return table


class TestPagesMatchTheReference:
    @pytest.mark.parametrize("scope", [
        None,
        ShardScope(4, frozenset({1, 3})),
        ShardScope(12, frozenset({0, 5, 11})),
        ShardScope(5, frozenset()),
    ])
    def test_pages_and_digest_through_changes(self, scope):
        rng = random.Random(WORKLOAD_SEED)
        table = _table(400, rng)
        for round_ in range(3):
            snapshot = table.snapshot().scoped(scope)
            for limit in (1, 7, 200, 1000):
                after = -1
                while True:
                    page = collect(snapshot, after, limit, False)
                    assert page == reference_page(snapshot, after, limit, False)
                    if page["done"]:
                        break
                    after = page["next_after"]
            for after in (-1, 0, 5, 599, 10**9):
                assert collect(snapshot, after, 50, False) == reference_page(
                    snapshot, after, 50, False
                )
            assert collect(snapshot, -1, 200, True) == reference_page(
                snapshot, -1, 200, True
            )
            # move on: updates (in place and moving), deletes, inserts
            live = [eid for eid, _ in table.snapshot().entities()]
            for eid in rng.sample(live, 40):
                table.update(eid, {"common": round_, "other": eid})
            for eid in rng.sample(live, 30):
                if eid in table._rids:
                    table.delete(eid)
            for i in range(25):
                table.insert(
                    {"common": 1, "late": i}, entity_id=10_000 + 50 * round_ + i
                )


class TestPageCost:
    def test_a_page_decodes_o_of_limit_plus_partitions(self, monkeypatch):
        table = _table(20_000, random.Random(WORKLOAD_SEED), CinderellaTable(
            CinderellaConfig(max_partition_size=500.0, use_synopsis_index=True)
        ))
        snapshot = table.snapshot()
        assert snapshot.partition_count > 50
        decodes = []
        real = snapshot_module.deserialize_record
        monkeypatch.setattr(
            snapshot_module, "deserialize_record",
            lambda data, dictionary: decodes.append(1) or real(data, dictionary),
        )
        scope = ShardScope(2, frozenset({0, 1}))
        page = collect(snapshot.scoped(scope), 3 * 9_000, 200, False)
        assert len(page["entities"]) == 200
        assert page["count"] == 20_000 and not page["done"]
        assert len(decodes) <= 200 + snapshot.partition_count
        # the count/digest decodes nothing at all
        decodes.clear()
        counted = collect(snapshot.scoped(scope), -1, 200, True)
        assert counted["count"] == 20_000 and decodes == []

    def test_unchanged_states_keep_their_memo_across_snapshots(self):
        table = _table(300, random.Random(WORKLOAD_SEED))
        scope = ShardScope(4, frozenset({2}))
        before = table.snapshot()
        collect(before.scoped(scope), -1, 50, False)
        table.insert({"common": 1, "late": 1}, entity_id=99_999)
        after = table.snapshot()
        assert after is not before
        before_pids = {view.pid for view in before.views}
        shared = [
            view for view in after.views
            if view.pid in before_pids
            and view._state is before.view_of(view.pid)._state
        ]
        assert shared  # the insert touched one partition, not all
        for view in shared:
            assert scope in view._state.by_eid  # built once, reused
