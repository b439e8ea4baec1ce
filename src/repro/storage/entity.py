"""Entities of a universal table.

An entity is a bag of ``attribute → value`` pairs — one row of the sparse
universal table of Figure 1.  Entities do not share a schema: a camera has
``aperture``, a hard disk has ``rotation``, both have ``name`` and
``weight``.  The entity's *synopsis* is the set of attributes it
instantiates; values never influence partitioning, only presence does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.dictionary import AttributeDictionary


@dataclass(frozen=True)
class Entity:
    """One irregularly structured entity: an id and its attribute values.

    Attribute values may be ``None`` only to *explicitly* represent SQL
    NULL in an instantiated attribute; an attribute the entity does not
    have is simply absent from the mapping (and from the synopsis).
    """

    entity_id: int
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in self.attributes:
            if not isinstance(name, str) or not name:
                raise ValueError(
                    f"attribute names must be non-empty strings, got {name!r}"
                )

    def attribute_names(self) -> tuple[str, ...]:
        """The entity synopsis as attribute names."""
        return tuple(self.attributes)

    def synopsis_mask(self, dictionary: "AttributeDictionary") -> int:
        """The entity synopsis as a bitmask, interning unseen attributes."""
        return dictionary.encode(self.attributes)
