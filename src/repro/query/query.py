"""Attribute queries over the universal table.

The paper's synthetic workload (Section V-B) consists of queries of the
form::

    SELECT a₁, a₂, ... FROM universalTable
    WHERE a₁ IS NOT NULL OR a₂ IS NOT NULL ...

which return exactly the entities that instantiate at least one of the
referenced attributes.  :class:`AttributeQuery` models these, plus the
``all`` conjunction variant needed by the schema-emulating views of the
TPC-H experiment (an entity belongs to an emulated table only when it
instantiates *all* of the table's discriminating columns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Literal, Mapping, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.dictionary import AttributeDictionary


@dataclass(frozen=True)
class AttributeQuery:
    """A query referencing a fixed set of attributes.

    Attributes:
        attributes: the referenced attribute names (``a₁, a₂, …``); also
            the projection list.
        mode: ``"any"`` (the paper's OR form — entity qualifies when it
            instantiates at least one attribute) or ``"all"`` (entity must
            instantiate every attribute).
    """

    attributes: tuple[str, ...]
    mode: Literal["any", "all"] = "any"

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError("a query must reference at least one attribute")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError(f"duplicate attributes in query: {self.attributes}")
        if self.mode not in ("any", "all"):
            raise ValueError(f"mode must be 'any' or 'all', got {self.mode!r}")

    def synopsis_mask(self, dictionary: "AttributeDictionary") -> int:
        """The query synopsis ``q`` as a bitmask over *dictionary*.

        Attributes unknown to the dictionary are dropped: no entity can
        instantiate them, so they never contribute to relevance.  Pruning
        states the query as clause masks instead
        (:func:`repro.query.pruning.clause_masks`).
        """
        return dictionary.encode_known(self.attributes)

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        """Does an entity with these attribute values qualify?"""
        if self.mode == "any":
            return any(name in attributes for name in self.attributes)
        return all(name in attributes for name in self.attributes)

    def project(self, attributes: Mapping[str, Any]) -> dict[str, Any]:
        """Project an entity's values to the query's attribute list."""
        return {name: attributes.get(name) for name in self.attributes}

    def sql(self, table_name: str = "universalTable") -> str:
        """Render the paper's SQL form of the query (for logs and docs)."""
        connective = " OR " if self.mode == "any" else " AND "
        predicate = connective.join(f"{a} IS NOT NULL" for a in self.attributes)
        columns = ", ".join(self.attributes)
        return f"SELECT {columns} FROM {table_name} WHERE {predicate}"
