"""Tests for pages, heap files, the buffer pool, and I/O accounting."""

import operator

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.iostats import IOStats
from repro.storage.page import Page, PageFullError


class TestPage:
    def test_insert_and_read(self):
        page = Page(128)
        slot = page.insert(b"hello", 0)
        assert page.read(slot) == b"hello"
        assert len(page) == 1

    def test_capacity_enforced(self):
        page = Page(32)
        page.insert(b"x" * 20, 0)
        assert not page.fits(b"y" * 20)
        with pytest.raises(PageFullError):
            page.insert(b"y" * 20, 0)

    def test_delete_tombstones_and_reuses_slot(self):
        page = Page(128)
        slot_a = page.insert(b"aaa", 0)
        page.insert(b"bbb", 0)
        assert page.delete(slot_a) == b"aaa"
        with pytest.raises(KeyError):
            page.read(slot_a)
        assert page.insert(b"ccc", 0) == slot_a  # tombstone reused
        assert len(page) == 2

    def test_replace_in_place(self):
        page = Page(128)
        slot = page.insert(b"aaa", 0)
        page.replace(slot, b"bbbbbb", 0)
        assert page.read(slot) == b"bbbbbb"

    def test_replace_overflow_rejected(self):
        page = Page(32)
        slot = page.insert(b"aaaa", 0)
        with pytest.raises(PageFullError):
            page.replace(slot, b"b" * 100, 0)

    def test_records_iterates_live_only(self):
        page = Page(128)
        a = page.insert(b"a", 0)
        page.insert(b"b", 0)
        page.delete(a)
        assert [record for _slot, record in page.records()] == [b"b"]

    def test_free_bytes_accounting(self):
        page = Page(100)
        before = page.free_bytes
        page.insert(b"12345", 0)
        assert before - page.free_bytes == 5 + 8  # payload + slot overhead

    def test_tiny_page_size_rejected(self):
        with pytest.raises(ValueError):
            Page(4)


class TestHeapFile:
    def test_insert_read_delete(self):
        heap = HeapFile(page_size=64)
        rid = heap.insert(b"record-1", 0)
        assert heap.read(rid) == b"record-1"
        heap.delete(rid)
        assert len(heap) == 0

    def test_spills_to_new_pages(self):
        heap = HeapFile(page_size=64)
        for i in range(20):
            heap.insert(b"x" * 30, 0)
        assert heap.page_count > 1
        assert len(heap) == 20

    def test_scan_returns_everything(self):
        heap = HeapFile(page_size=64)
        payloads = {bytes([65 + i]) * 10 for i in range(10)}
        for payload in payloads:
            heap.insert(payload, 0)
        scanned = {record for _rid, record in heap.scan()}
        assert scanned == payloads

    def test_oversized_record_rejected(self):
        heap = HeapFile(page_size=64)
        with pytest.raises(PageFullError):
            heap.insert(b"z" * 100, 0)

    def test_replace_relocates_when_needed(self):
        heap = HeapFile(page_size=64)
        rid = heap.insert(b"a" * 40, 0)
        heap.insert(b"b" * 10, 0)
        new_rid = heap.replace(rid, b"c" * 45, 0)
        assert heap.read(new_rid) == b"c" * 45
        assert len(heap) == 2

    def test_relocating_replace_counts_a_delete_and_hints_its_page(self):
        io = IOStats()
        heap = HeapFile(page_size=64, io=io)
        rid = heap.insert(b"a" * 20, 0)
        heap.insert(b"b" * 20, 0)
        heap.insert(b"t" * 10, 0)  # opens page 1, the tail
        moved = heap.replace(rid, b"c" * 30, 0)  # outgrows page 0
        assert moved.page == 1
        assert io.records_deleted == 1
        # the tail is too full now: the next small record takes the
        # room the relocation left on page 0
        assert heap.insert(b"s" * 10, 0).page == 0

    def test_page_views_change_with_every_mutation_kind(self):
        """A page's view is one object until the page changes — by an
        insert, an in-place or relocating replace, or a delete — and the
        other pages keep theirs."""
        heap = HeapFile(page_size=64)

        def contents(views):
            return [[stored.data for stored in view.records] for view in views]

        a = heap.insert(b"a" * 20, 0)
        b = heap.insert(b"b" * 20, 0)
        c = heap.insert(b"c" * 20, 0)  # page 1
        first = heap.page_views()
        assert contents(first) == [[b"a" * 20, b"b" * 20], [b"c" * 20]]
        assert all(map(operator.is_, heap.page_views(), first))
        heap.replace(a, b"A" * 20, 0)  # in place
        views = heap.page_views()
        assert views[0] is not first[0] and views[1] is first[1]
        assert contents(views) == [[b"A" * 20, b"b" * 20], [b"c" * 20]]
        heap.delete(c)  # page 1 holds nothing: it has no view
        (only,) = heap.page_views()
        assert only is views[0]
        moved = heap.replace(b, b"B" * 40, 0)  # relocates: a delete, an insert
        assert moved.page == 1
        views = heap.page_views()
        assert views[0] is not only
        assert contents(views) == [[b"A" * 20], [b"B" * 40]]
        heap.free()
        assert heap.page_views() == ()

    def test_page_views_read_pages_like_scan(self):
        io = IOStats()
        heap = HeapFile(page_size=64, io=io)
        rids = [heap.insert(bytes([65 + i]) * 20, 0) for i in range(5)]
        heap.delete(rids[2])
        before = io.snapshot()
        views = heap.page_views()
        # a publish's read, not a query's: page_views charges nothing
        assert io.delta_since(before) == IOStats()
        assert [stored.data for view in views for stored in view.records] == [
            record for _rid, record in heap.scan()
        ]
        assert [len(view.records) for view in views] == [2, 1, 1]
        heap.delete(rids[3])
        before = io.snapshot()
        assert [len(view.records) for view in heap.page_views()] == [2, 1]
        assert io.delta_since(before) == IOStats()

    def test_take_and_place_move_the_stored_record_itself(self):
        """A move hands the stored object on, charged like a read and a
        delete on the source and an insert on the target."""
        moved_io, copied_io = IOStats(), IOStats()
        for io in (moved_io, copied_io):
            source = HeapFile(page_size=64, io=io)
            target = HeapFile(page_size=64, io=io)
            rid = source.insert(b"r" * 20, 0)
            stored = source._pages[0].stored(rid.slot)
            if io is moved_io:
                taken = source.take(rid)
                assert taken is stored
                new_rid = target.place(taken)
                assert target._pages[0].stored(new_rid.slot) is stored
            else:
                record = source.read(rid)
                source.delete(rid)
                new_rid = target.insert(record, 0)
            assert len(source) == 0 and target.read(new_rid) == b"r" * 20
        assert moved_io == copied_io

    def test_charge_scan_charges_what_a_scan_charges(self):
        """Pages with live records, their bytes and records, through the
        buffer pool in scan order — and an emptied page not at all."""
        heaps = []
        for _ in range(2):
            pool = BufferPool(3)
            heap = HeapFile(page_size=64, io=IOStats(), buffer_pool=pool)
            rids = [heap.insert(bytes([65 + i]) * 20, 0) for i in range(7)]
            heap.delete(rids[2])
            heap.delete(rids[3])  # page 1 is empty now
            heaps.append((heap, pool))
        (scanned, scanned_pool), (charged, charged_pool) = heaps
        for _ in range(2):
            list(scanned.scan())
            charged.charge_scan()
        assert charged.io == scanned.io
        assert charged.io.records_read == 2 * 5 and charged.io.buffer_hits > 0
        assert (charged_pool.hits, charged_pool.misses) == (
            scanned_pool.hits, scanned_pool.misses
        )

    def test_deleted_space_is_reused(self):
        heap = HeapFile(page_size=64)
        rids = [heap.insert(b"x" * 30, 0) for _ in range(10)]
        pages_before = heap.page_count
        for rid in rids[:5]:
            heap.delete(rid)
        for _ in range(5):
            heap.insert(b"y" * 30, 0)
        assert heap.page_count == pages_before

    def test_free_resets_everything(self):
        heap = HeapFile(page_size=64)
        heap.insert(b"abc", 0)
        heap.free()
        assert len(heap) == 0
        assert heap.page_count == 0

    def test_data_bytes_tracks_live_payload(self):
        heap = HeapFile(page_size=128)
        rid = heap.insert(b"x" * 10, 0)
        heap.insert(b"y" * 20, 0)
        assert heap.data_bytes() == 10 + 20 + 2 * 8
        heap.delete(rid)
        assert heap.data_bytes() == 20 + 8


class TestIOAccounting:
    def test_scan_charges_pages_and_bytes(self):
        io = IOStats()
        heap = HeapFile(page_size=64, io=io)
        for _ in range(10):
            heap.insert(b"r" * 20, 0)
        list(heap.scan())
        assert io.pages_read == heap.page_count
        assert io.records_read == 10
        assert io.bytes_read > 0

    def test_writes_counted(self):
        io = IOStats()
        heap = HeapFile(page_size=64, io=io)
        heap.insert(b"abcde", 0)
        assert io.records_written == 1
        assert io.bytes_written == 5

    def test_snapshot_and_delta(self):
        io = IOStats()
        heap = HeapFile(page_size=64, io=io)
        heap.insert(b"x" * 10, 0)
        before = io.snapshot()
        list(heap.scan())
        delta = io.delta_since(before)
        assert delta.records_written == 0
        assert delta.records_read == 1
        assert delta.pages_read == 1

    def test_merge_and_reset(self):
        a = IOStats(pages_read=2, bytes_read=100)
        b = IOStats(pages_read=3, bytes_read=50, records_read=7)
        a.merge(b)
        assert (a.pages_read, a.bytes_read, a.records_read) == (5, 150, 7)
        a.reset()
        assert a.pages_read == 0


class TestBufferPool:
    def test_disabled_pool_always_misses(self):
        pool = BufferPool(0)
        assert not pool.access(1, 0)
        assert not pool.access(1, 0)
        assert pool.misses == 2 and pool.hits == 0

    def test_hit_on_second_access(self):
        pool = BufferPool(4)
        assert not pool.access(1, 0)
        assert pool.access(1, 0)
        assert pool.hit_rate == 0.5

    def test_lru_eviction(self):
        pool = BufferPool(2)
        pool.access(1, 0)
        pool.access(1, 1)
        pool.access(1, 2)  # evicts (1, 0)
        assert pool.evictions == 1
        assert not pool.access(1, 0)  # miss again

    def test_recency_updated_on_hit(self):
        pool = BufferPool(2)
        pool.access(1, 0)
        pool.access(1, 1)
        pool.access(1, 0)  # refresh
        pool.access(1, 2)  # evicts (1, 1), not (1, 0)
        assert pool.access(1, 0)

    def test_invalidate_file(self):
        pool = BufferPool(4)
        pool.access(1, 0)
        pool.access(2, 0)
        pool.invalidate_file(1)
        assert not pool.access(1, 0)
        assert pool.access(2, 0)

    def test_heap_scans_use_pool(self):
        io = IOStats()
        pool = BufferPool(16)
        heap = HeapFile(page_size=64, io=io, buffer_pool=pool)
        for _ in range(5):
            heap.insert(b"x" * 20, 0)
        list(heap.scan())  # cold
        cold_reads = io.pages_read
        list(heap.scan())  # warm
        assert io.pages_read == cold_reads  # all hits
        assert io.buffer_hits > 0
