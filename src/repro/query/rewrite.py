"""Query rewriting: universal-table queries become UNION ALL plans.

The paper's prototype "uses the meta data to rewrite incoming queries to a
UNION ALL over all partitions that contain the set of requested
attributes".  :func:`rewrite` performs the same step against our partition
catalog: it prunes, then emits a :class:`UnionAllPlan` whose branches are
the surviving partitions.  The plan is a plain description — executable by
the table layer, printable for humans, and inspectable by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

from repro.obs import runtime as obs
from repro.query.pruning import clause_masks, prune, surviving_pids_from_index
from repro.query.query import AttributeQuery

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.catalog import PartitionCatalog
    from repro.catalog.dictionary import AttributeDictionary


@dataclass(frozen=True)
class UnionAllPlan:
    """A pruned UNION ALL over partition scans.

    Attributes:
        query: the original attribute query.
        branch_pids: partitions that must be scanned (the UNION branches).
        pruned_pids: partitions eliminated by synopsis pruning.
    """

    query: AttributeQuery
    branch_pids: tuple[int, ...]
    pruned_pids: tuple[int, ...]

    @property
    def partitions_total(self) -> int:
        return len(self.branch_pids) + len(self.pruned_pids)

    @property
    def pruning_ratio(self) -> float:
        """Fraction of partitions eliminated before touching data."""
        total = self.partitions_total
        return len(self.pruned_pids) / total if total else 0.0

    def describe(self) -> str:
        """Human-readable plan, in the prototype's UNION ALL shape."""
        if not self.branch_pids:
            return f"-- all {self.partitions_total} partitions pruned: empty result"
        branches = "\nUNION ALL\n".join(
            self.query.sql(f"partition_{pid}") for pid in self.branch_pids
        )
        return (
            f"-- {len(self.pruned_pids)} of {self.partitions_total} "
            f"partitions pruned\n{branches}"
        )


def prune_catalog(
    masks: Sequence[int], catalog: "PartitionCatalog", use_index: bool = True
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(branch pids, pruned pids)`` of *catalog* for clause masks.

    With ``use_index`` (and a catalog that carries a
    :class:`~repro.catalog.synopsis_index.SynopsisIndex`) the survivors
    come from the posting lists, otherwise from testing every catalog
    entry.  Both are in ascending pid order, so the plan — and the row
    order of its execution — does not depend on the strategy.
    """
    if use_index and catalog.index is not None and masks:
        with obs.span("query.index_prune"):
            survivors = surviving_pids_from_index(catalog.index, masks)
            pids = sorted(catalog.partition_ids())
            return (
                tuple(pid for pid in pids if pid in survivors),
                tuple(pid for pid in pids if pid not in survivors),
            )
    with obs.span("query.catalog_prune"):
        surviving, pruned = prune(
            ((partition.pid, partition.mask) for partition in catalog), masks
        )
    return tuple(sorted(surviving)), tuple(sorted(pruned))


def rewrite(
    query: AttributeQuery,
    catalog: "PartitionCatalog",
    dictionary: "AttributeDictionary",
    use_index: bool = True,
) -> UnionAllPlan:
    """Prune the catalog and build the UNION ALL plan for *query*
    (see :func:`prune_catalog` for ``use_index``)."""
    with obs.span("query.rewrite") as span:
        branch_pids, pruned_pids = prune_catalog(
            clause_masks(query, dictionary), catalog, use_index
        )
        plan = UnionAllPlan(
            query=query, branch_pids=branch_pids, pruned_pids=pruned_pids
        )
        if span.is_recording:
            span.set("branches", len(plan.branch_pids))
            span.set("pruned", len(plan.pruned_pids))
    return plan
