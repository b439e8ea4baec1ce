"""Cinderella — the online horizontal partitioner (Algorithm 1).

This module implements the complete modification interface of Section III:

* :meth:`CinderellaPartitioner.insert` — Algorithm 1.  Scan the partition
  catalog for the best-rated partition; open a new partition when the best
  rating is negative; maintain the split-starter pair; split full
  partitions seeded by the starters, re-inserting the remaining entities
  restricted to the two new partitions (split cascades included).
* :meth:`CinderellaPartitioner.delete` — remove the entity, drop the
  partition when it becomes empty, leave the partitioning otherwise
  unchanged.
* :meth:`CinderellaPartitioner.update` — re-run the insert rating without
  inserting; move the entity only when a different partition wins,
  otherwise update it in place.

Two notes on fidelity to the published pseudocode:

1.  Algorithm 1's split branch (lines 26–33) drains the *current* members
    of the overfull partition into the two new partitions but never states
    where the triggering entity ``e`` itself lands (it was not yet added at
    line 31).  The only consistent reading — and the one that matches the
    prose "the remaining entities are assigned to the new partitions using
    the insert procedure itself" — is that ``e`` participates in the split
    like the drained entities do: if the starter maintenance of lines 15–24
    made ``e`` a starter it seeds one of the new partitions, otherwise it is
    re-inserted restricted to them.  We implement exactly that.
2.  The restricted recursive insert of line 32 can itself create a new
    partition (line 9–13 under restriction) or split one of the two new
    partitions (a cascade).  The restriction set is therefore maintained as
    a *live* list: partitions created during the drain join it, and a split
    target is replaced by its own split results.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterable, Optional, Protocol, Sequence

from repro.catalog.catalog import PartitionCatalog
from repro.catalog.partition import Partition
from repro.catalog.synopsis_index import SynopsisIndex
from repro.core.config import CinderellaConfig
from repro.core.outcomes import ModificationOutcome, Move
from repro.core.rating import best_rated
from repro.core.sizes import SizeModel
from repro.obs import runtime as obs

#: the insert span itself feeds the latency histogram — one clock, one
#: span, zero extra timing calls on the hottest path in the system
obs.bind_span_histogram(
    "partitioner.insert",
    "repro_insert_latency_seconds",
    "Latency of one insert, split cascades included",
)


class Partitioner(Protocol):
    """The online contract every compared horizontal partitioner meets.

    A partitioner owns a :class:`PartitionCatalog` and changes it only
    through the three modification routines of Section III, each
    reporting what moved in a :class:`ModificationOutcome`.  Cinderella,
    its workload-based mode and the hash and round-robin baselines all
    satisfy it; offline comparators are plain functions returning a
    catalog instead.
    """

    @property
    def catalog(self) -> PartitionCatalog: ...

    def insert(
        self, eid: int, mask: int, payload_bytes: int = 0
    ) -> ModificationOutcome: ...

    def update(
        self, eid: int, mask: int, payload_bytes: int = 0
    ) -> ModificationOutcome: ...

    def delete(self, eid: int) -> ModificationOutcome: ...


class CinderellaPartitioner:
    """Online partitioner for one universal table.

    The partitioner is purely logical: it consumes entity ids and synopsis
    masks and maintains the partition catalog.  Physical record placement
    is the table layer's job, driven by the returned
    :class:`~repro.core.outcomes.ModificationOutcome`.

    >>> from repro.catalog.dictionary import AttributeDictionary
    >>> d = AttributeDictionary()
    >>> p = CinderellaPartitioner(CinderellaConfig(max_partition_size=2, weight=0.5))
    >>> camera = d.encode(["name", "resolution", "aperture"])
    >>> disk = d.encode(["name", "storage", "rotation"])
    >>> p.insert(1, camera).partition_id == p.insert(2, disk).partition_id
    False
    """

    def __init__(
        self,
        config: Optional[CinderellaConfig] = None,
        catalog: Optional[PartitionCatalog] = None,
    ) -> None:
        self.config = config if config is not None else CinderellaConfig()
        if catalog is None:
            index = SynopsisIndex() if self.config.use_synopsis_index else None
            catalog = PartitionCatalog(index=index)
        self.catalog = catalog
        #: cumulative number of splits performed (Figure 8 reports these)
        self.split_count = 0
        #: cumulative number of partition ratings computed (scan effort)
        self.ratings_computed = 0
        #: step-boundary hook: when set, it is called with a label at every
        #: multi-step mutation boundary (split creation, starter moves,
        #: drain re-inserts, merge moves and drops, reorganize replays and
        #: swap) — the one injection point the fault-injection matrix
        #: uses to crash operations mid-flight.
        self.crash_hook: Optional[Callable[[str], None]] = None

    @property
    def size_model(self) -> SizeModel:
        """The configured size model (the baselines hold theirs directly)."""
        return self.config.size_model

    def _step(self, label: str) -> None:
        """Announce one step boundary to the installed hook, if any."""
        if self.crash_hook is not None:
            self.crash_hook(label)

    # ------------------------------------------------------------------
    # public modification interface
    # ------------------------------------------------------------------
    def insert(
        self, eid: int, mask: int, payload_bytes: int = 0
    ) -> ModificationOutcome:
        """Insert a new entity (Algorithm 1, ``INSERTENTITY``)."""
        if self.catalog.has_entity(eid):
            raise ValueError(f"entity {eid} already exists; use update()")
        size = self.config.size_model.entity_size(mask, payload_bytes)
        outcome = ModificationOutcome(entity_id=eid)
        # trace_stages=False: the non-split fast path records rating and
        # placement as attributes on this one span instead of two child
        # spans — tracing every stage of a ~50µs operation would alone
        # cost more than the benchmark's overhead budget.  Split cascades
        # re-enable stage spans (rare, and exactly the traces worth
        # reading in detail).  The latency histogram is span-timed (see
        # the bind_span_histogram call above) and its _count doubles as
        # the insert counter; a separate *_total would cost another
        # registry write on the hottest path for an already-exposed
        # number.
        span = obs.span("partitioner.insert")
        if span.is_recording:
            ratings_before = self.ratings_computed
            with span:
                final_pid = self._insert(
                    eid, mask, size, None, None, outcome, trace_stages=False
                )
                span.attributes = {
                    "eid": eid,
                    "partition_id": final_pid,
                    "splits": outcome.splits,
                    "ratings": self.ratings_computed - ratings_before,
                }
        elif obs.is_enabled():
            # metrics-only mode (enable(trace=False)): no span to borrow
            # a clock from, so time the insert explicitly
            start = perf_counter()
            final_pid = self._insert(
                eid, mask, size, None, None, outcome, trace_stages=False
            )
            obs.observe(
                "repro_insert_latency_seconds",
                perf_counter() - start,
                help_text="Latency of one insert, split cascades included",
            )
        else:
            final_pid = self._insert(
                eid, mask, size, None, None, outcome, trace_stages=False
            )
        outcome.partition_id = final_pid
        return outcome

    def delete(self, eid: int) -> ModificationOutcome:
        """Delete an entity; the partitioning itself remains unchanged.

        Empty partitions are dropped, per Section III.
        """
        with obs.span("partitioner.delete", eid=eid):
            pid, _mask, _size = self.catalog.remove_entity(eid)
            self._step("delete:removed")
            outcome = ModificationOutcome(entity_id=eid, partition_id=None)
            if self.catalog.get(pid).is_empty():
                self.catalog.drop_partition(pid)
                outcome.dropped_partitions.append(pid)
        obs.inc(
            "repro_partitioner_deletes_total",
            help_text="Entities deleted from the catalog",
        )
        return outcome

    def update(
        self, eid: int, mask: int, payload_bytes: int = 0
    ) -> ModificationOutcome:
        """Update an entity's attribute set.

        Runs the insert rating "without actually inserting" (Section III):
        when the entity's current partition still rates best, the entity is
        updated in place; otherwise it is removed and re-inserted through
        the normal insert routine (which may create or split partitions).
        """
        with obs.span("partitioner.update", eid=eid) as span:
            outcome = self._update(eid, mask, payload_bytes, span)
        obs.inc(
            "repro_partitioner_updates_total",
            help_text="Entity attribute-set updates",
        )
        return outcome

    def _update(
        self, eid: int, mask: int, payload_bytes: int, span
    ) -> ModificationOutcome:
        current_pid = self.catalog.partition_of(eid)
        current = self.catalog.get(current_pid)
        _, old_size = current.member(eid)
        size = self.config.size_model.entity_size(mask, payload_bytes)
        best, best_rating = self._find_best(mask, size, None)
        fits_in_place = current.total_size - old_size + size <= (
            self.config.max_partition_size
        ) or len(current) == 1
        stays = (
            best is not None
            and best.pid == current_pid
            and best_rating >= 0.0
            and fits_in_place
        )
        outcome = ModificationOutcome(entity_id=eid)
        if stays:
            self.catalog.update_entity(eid, mask, size)
            outcome.partition_id = current_pid
            outcome.in_place = True
            if span.is_recording:
                span.set("in_place", True)
            return outcome
        if span.is_recording:
            span.set("in_place", False)
        old_pid, _old_mask, _old_size = self.catalog.remove_entity(eid)
        self._step("update:removed")
        source_empty = self.catalog.get(old_pid).is_empty()
        if source_empty:
            self.catalog.drop_partition(old_pid)
            outcome.dropped_partitions.append(old_pid)
        final_pid = self._insert(eid, mask, size, None, old_pid, outcome)
        outcome.partition_id = final_pid
        return outcome

    def load(
        self, entities: Iterable[tuple[int, int]]
    ) -> list[ModificationOutcome]:
        """Bulk-insert ``(entity_id, mask)`` pairs; returns all outcomes."""
        return [self.insert(eid, mask) for eid, mask in entities]

    # ------------------------------------------------------------------
    # Algorithm 1 internals
    # ------------------------------------------------------------------
    def _find_best(
        self,
        mask: int,
        size: float,
        restricted: Optional[Sequence[Partition]],
        trace_stages: bool = True,
    ) -> tuple[Optional[Partition], float]:
        """Scan the catalog (lines 3–7) and return the best-rated partition.

        ``restricted`` limits the scan to an explicit partition list during
        splits (line 32).  Returns ``(None, -inf)`` when there is nothing to
        rate.  With ``selection='first'`` (ablation) the scan stops at the
        first non-negatively rated partition.  ``trace_stages=False``
        suppresses the per-call span: top-level inserts and split drains
        run at span-per-operation granularity, not span-per-stage — see
        ``benchmarks/bench_observability.py`` and docs/OBSERVABILITY.md.
        """
        config = self.config
        candidates = (
            self.catalog.candidates(mask, config.weight)
            if restricted is None else restricted
        )
        with (
            obs.span("partitioner.rate") if trace_stages else obs.NOOP_SPAN
        ) as span:
            best, best_rating, rated = best_rated(
                mask, size, candidates, config.weight,
                normalize=config.normalize_rating,
                first_fit=config.selection == "first",
            )
            self.ratings_computed += rated
            if span.is_recording:
                span.set("ratings", rated)
                span.set("restricted", restricted is not None)
        return best, best_rating

    def _insert(
        self,
        eid: int,
        mask: int,
        size: float,
        restricted: Optional[list[Partition]],
        from_pid: Optional[int],
        outcome: ModificationOutcome,
        trace_stages: bool = True,
    ) -> int:
        """The full ``INSERTENTITY`` routine; returns the entity's final pid.

        ``restricted`` is the live restriction list during a split drain
        (``None`` for top-level inserts).  ``from_pid`` records where the
        entity physically comes from, for the outcome's move list.
        ``trace_stages=False`` (top-level inserts, split drain loops)
        skips the per-stage rate/place spans; split spans themselves
        always trace so cascades stay visible, and a split's triggering
        entity re-inserts with full stage spans.
        """
        best, best_rating = self._find_best(mask, size, restricted, trace_stages)

        # lines 9-13: best rating negative (or no partition at all)
        if best is None or best_rating < 0.0:
            partition = self.catalog.create_partition()
            outcome.created_partitions.append(partition.pid)
            if restricted is not None:
                restricted.append(partition)
            # add() observes starters: the entity becomes split starter A
            self.catalog.add_entity(partition.pid, eid, mask, size)
            outcome.moves.append(Move(eid, from_pid, partition.pid))
            self._step("insert:new-partition")
            obs.event("partitioner.new_partition", pid=partition.pid, eid=eid)
            return partition.pid

        # lines 15-24: starter maintenance happens *before* the capacity
        # check, so the incoming entity can seed a split of `best`.
        self.catalog.observe_starters(best.pid, eid, mask)

        # lines 26-33: split when the partition cannot take the entity
        if best.total_size + size > self.config.max_partition_size:
            return self._split(best, eid, mask, size, restricted, from_pid, outcome)

        # line 36: the normal case (starters were already maintained above)
        with (
            obs.span("partitioner.place", pid=best.pid)
            if trace_stages
            else obs.NOOP_SPAN
        ):
            self.catalog.add_entity(
                best.pid, eid, mask, size, observe_starters=False
            )
            if self.config.exact_starters:
                # ablation: pay the quadratic cost Algorithm 1's heuristic
                # avoids
                best.starters.rebuild_exact(
                    (m_eid, m_mask) for m_eid, m_mask, _s in best.members()
                )
            outcome.moves.append(Move(eid, from_pid, best.pid))
            self._step("insert:place")
        return best.pid

    def _split(
        self,
        source: Partition,
        eid: int,
        mask: int,
        size: float,
        restricted: Optional[list[Partition]],
        from_pid: Optional[int],
        outcome: ModificationOutcome,
    ) -> int:
        """Split *source* (Algorithm 1, lines 26–33); return the new
        entity's final partition id.

        Cascading splits recurse through :meth:`_insert`, so their
        ``partitioner.split`` spans nest under this one.
        """
        with obs.span(
            "partitioner.split", source_pid=source.pid, members=len(source)
        ) as span:
            final_pid = self._split_impl(
                source, eid, mask, size, restricted, from_pid, outcome
            )
            if span.is_recording:
                span.set("final_pid", final_pid)
        obs.inc(
            "repro_partitioner_splits_total",
            help_text="Partition splits performed, cascades counted singly",
        )
        return final_pid

    def _split_impl(
        self,
        source: Partition,
        eid: int,
        mask: int,
        size: float,
        restricted: Optional[list[Partition]],
        from_pid: Optional[int],
        outcome: ModificationOutcome,
    ) -> int:
        self.split_count += 1
        outcome.splits += 1
        starters = source.starters
        # Both starters exist: a partition can only be full after at least
        # one entity was added at creation (starter A) and a second entity
        # was rated into it (observe set starter B) — including `eid` itself,
        # observed by the caller just before this split.
        starter_specs = (
            (starters.eid_a, starters.mask_a),
            (starters.eid_b, starters.mask_b),
        )
        assert starter_specs[0][0] is not None and starter_specs[1][0] is not None

        partition_a = self.catalog.create_partition()
        partition_b = self.catalog.create_partition()
        outcome.created_partitions.extend((partition_a.pid, partition_b.pid))
        self._step("split:create-targets")

        # lines 29-30: move each starter into its own new partition
        for (starter_eid, starter_mask), target in zip(
            starter_specs, (partition_a, partition_b)
        ):
            if starter_eid == eid:
                starter_size = size
                starter_from = from_pid
            else:
                _, _, starter_size = self.catalog.remove_entity(
                    starter_eid, repair_starters=False
                )
                starter_from = source.pid
            self.catalog.add_entity(
                target.pid, starter_eid, starter_mask, starter_size
            )
            outcome.moves.append(Move(starter_eid, starter_from, target.pid))
            self._step("split:starter-moved")

        # live restriction list for the drain (line 32): cascades and
        # negative-rating re-inserts extend/replace entries in here.
        targets: list[Partition] = [partition_a, partition_b]

        # lines 31-33: re-insert the remaining entities of the source,
        # detached from it in one pass.
        # trace_stages=False: one span per drained member would swamp the
        # split trace and the tracing budget; the split span's ``members``
        # attribute already says how many re-inserts happened.
        for drain_eid, drain_mask, drain_size in self.catalog.drain(source.pid):
            self._insert(
                drain_eid, drain_mask, drain_size, targets, source.pid,
                outcome, trace_stages=False,
            )

        # the triggering entity, unless it already seeded a new partition;
        # in the starter case a cascade during the drain may have moved it
        # again, so its final home comes from the catalog, not partition_a/b.
        if eid == starter_specs[0][0] or eid == starter_specs[1][0]:
            final_pid = self.catalog.partition_of(eid)
        else:
            final_pid = self._insert(eid, mask, size, targets, from_pid, outcome)

        # retire the drained source partition
        assert source.is_empty(), "split must drain the source partition"
        self.catalog.drop_partition(source.pid)
        outcome.dropped_partitions.append(source.pid)
        self._step("split:source-dropped")

        # a split of a restricted-target partition replaces it with its
        # results in the caller's live restriction list
        if restricted is not None and source in restricted:
            restricted.remove(source)
            for target in targets:
                if target not in restricted:
                    restricted.append(target)
        if final_pid is None:  # pragma: no cover - defensive
            raise AssertionError("split did not place the triggering entity")
        return final_pid

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> list[str]:
        """Catalog invariants plus the capacity bound ``SIZE(p) ≤ B``.

        A partition may exceed the bound only when a *single* entity is
        larger than ``B`` (possible under non-uniform size models); such a
        partition necessarily has exactly one member.
        """
        problems = self.catalog.check_invariants()
        limit = self.config.max_partition_size
        for partition in self.catalog:
            if partition.total_size > limit and len(partition) > 1:
                problems.append(
                    f"partition {partition.pid} over capacity: "
                    f"{partition.total_size} > {limit} with {len(partition)} entities"
                )
        return problems
