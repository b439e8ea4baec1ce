"""Partition pruning — the whole point of the partitioning (Section II).

"Based on the synopses, queries can easily prune partitions that contain
only entities irrelevant to the query, i.e., partitions for which
``|p ∧ q| = 0`` holds."

This module is the only home of that rule.  Every read path — attribute
queries, the MVCC snapshot's plan and SQL on every table layout — states
its query as **clause masks**: attribute bitmasks that must each overlap
a partition's synopsis mask for it to survive.  An ``any`` query (the
paper's OR form) is one clause; an ``all`` query is one clause per
attribute, since a qualifying entity — and so its partition's synopsis —
has every one; a SQL WHERE clause compiles to such a conjunction.  A
clause with no attribute known to the dictionary has mask ``0`` and
prunes everything: no entity instantiates an attribute nobody ever had.

Pruning is *sound*: a partition synopsis is the union of its members'
attribute sets, so a clause that misses it misses every member.  It is
not *complete*: a survivor may still hold irrelevant entities — the
residue Definition 1's efficiency measures.

:func:`prune` tests every ``(key, mask)`` pair (the paper's metadata
scan).  :func:`surviving_records` applies it per entity, to the synopsis
each stored record carries — exact there, since a record's mask is its
own attribute set: overlapping every clause is what
:meth:`~repro.query.query.AttributeQuery.matches` decides, for ``any``
and ``all`` alike.  :func:`surviving_pids_from_index` resolves the same
survivors as :func:`prune` from the
:class:`~repro.catalog.synopsis_index.SynopsisIndex` posting lists
without touching non-overlapping partitions (tests pin the two equal).
It must not consult the index's list of empty-synopsis partitions:
``SynopsisIndex.candidate_pids(0)`` answers the insert
question ("where could an attribute-less *entity* go?"), while a clause
mask of ``0`` unions no posting list and so keeps nothing.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TYPE_CHECKING, TypeVar

from repro.catalog.partition import iter_attribute_ids
from repro.query.query import AttributeQuery

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.dictionary import AttributeDictionary
    from repro.catalog.synopsis_index import SynopsisIndex
    from repro.storage.record import StoredRecord

Key = TypeVar("Key")


def clause_masks(
    query: AttributeQuery, dictionary: "AttributeDictionary"
) -> list[int]:
    """The attribute query as clause masks (see the module docstring)."""
    if query.mode == "any":
        return [dictionary.encode_known(query.attributes)]
    return [dictionary.encode_known((name,)) for name in query.attributes]


def prune(
    entries: Iterable[tuple[Key, int]], masks: Sequence[int]
) -> tuple[list[Key], list[Key]]:
    """Split ``(key, mask)`` pairs into ``(surviving, pruned)`` keys.

    A pair survives when its mask overlaps every clause mask; order is
    kept within both lists.  No clause at all keeps everything.
    """
    surviving: list[Key] = []
    pruned: list[Key] = []
    for key, mask in entries:
        for clause in masks:
            if not mask & clause:
                pruned.append(key)
                break
        else:
            surviving.append(key)
    return surviving, pruned


def surviving_records(
    records: Iterable["StoredRecord"], masks: Sequence[int]
) -> list["StoredRecord"]:
    """The stored records whose entity synopsis (``record.mask``) meets
    every clause mask — :func:`prune`'s survivors, in order."""
    if len(masks) == 1:
        clause = masks[0]
        return [record for record in records if record.mask & clause]
    surviving, _pruned = prune(
        ((record, record.mask) for record in records), masks
    )
    return surviving


def surviving_pids_from_index(
    index: "SynopsisIndex", masks: Sequence[int]
) -> set[int]:
    """The partition ids :func:`prune` keeps, from the posting lists.

    Needs at least one clause: with none, every partition survives, and
    the index has no posting list of all partitions.
    """
    candidates = sorted(
        (
            set().union(*(
                index.partitions_with_attribute(attr_id)
                for attr_id in iter_attribute_ids(mask)
            ))
            for mask in masks
        ),
        key=len,
    )
    survivors = candidates[0]
    for candidate in candidates[1:]:
        if not survivors:
            break
        survivors &= candidate
    return survivors
