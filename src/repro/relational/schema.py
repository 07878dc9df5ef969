"""Relation and database schemas (Sec. 2.1 of the paper).

A relation schema ``R(A1, ..., An)`` has the *type*
``{R.A1, ..., R.An}``: every attribute is qualified by the relation
name, so two distinct relation schemas always have disjoint types --
the property Def. 2.2 relies on to define joins and unions through
renamings instead of positional matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from ..errors import SchemaError, UnknownRelationError
from .tuples import qualify


@dataclass(frozen=True)
class RelationSchema:
    """Schema of a stored relation.

    Parameters
    ----------
    name:
        Relation name, e.g. ``"A"``.
    attributes:
        Unqualified attribute names in declaration order.
    key:
        Optional name of the key attribute.  The paper's
        CompatibleFinder (Sec. 3.1, step 2a) assumes a key identifies
        each tuple; our :class:`~repro.relational.database.Database`
        enforces uniqueness on it and mints the tuple ids ``R:<key>``
        from it.
    """

    name: str
    attributes: tuple[str, ...]
    key: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("relation name must be non-empty")
        if "." in self.name:
            raise SchemaError(
                f"relation name {self.name!r} must not contain '.'"
            )
        if not self.attributes:
            raise SchemaError(
                f"relation {self.name!r} must have at least one attribute"
            )
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(
                f"relation {self.name!r} has duplicate attributes"
            )
        for attribute in self.attributes:
            if "." in attribute:
                raise SchemaError(
                    f"attribute {attribute!r} of relation {self.name!r} "
                    "must be unqualified"
                )
        if self.key is not None and self.key not in self.attributes:
            raise SchemaError(
                f"key {self.key!r} is not an attribute of {self.name!r}"
            )
        # computed once: every tuple entering an instance is checked
        # against it (not a field, so equality and hashing ignore it)
        object.__setattr__(
            self,
            "_type",
            frozenset(qualify(self.name, a) for a in self.attributes),
        )

    @property
    def type(self) -> frozenset[str]:
        """The qualified type ``{R.A1, ..., R.An}`` of the relation."""
        return self._type

    def qualified(self, attribute: str) -> str:
        """Qualify *attribute* with this relation's name.

        Raises :class:`SchemaError` when the attribute does not belong
        to the schema.
        """
        if attribute not in self.attributes:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}"
            )
        return qualify(self.name, attribute)

    def renamed(self, alias: str) -> "RelationSchema":
        """Return this schema under a different name (query alias)."""
        return RelationSchema(alias, self.attributes, self.key)


@dataclass(frozen=True)
class DatabaseSchema:
    """A database schema ``S = {R1, ..., Rn}`` (Sec. 2.1)."""

    relations: tuple[RelationSchema, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise SchemaError("database schema has duplicate relation names")

    @classmethod
    def of(cls, *relations: RelationSchema) -> "DatabaseSchema":
        """Build a schema from the given relation schemas."""
        return cls(tuple(relations))

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self.relations)

    def __contains__(self, name: str) -> bool:
        return any(r.name == name for r in self.relations)

    def relation(self, name: str) -> RelationSchema:
        """Return the schema of relation *name*.

        Raises :class:`UnknownRelationError` when absent.
        """
        for relation in self.relations:
            if relation.name == name:
                return relation
        raise UnknownRelationError(
            f"relation {name!r} is not part of the database schema"
        )

    def names(self) -> tuple[str, ...]:
        """Relation names in declaration order."""
        return tuple(r.name for r in self.relations)

    def with_relation(self, relation: RelationSchema) -> "DatabaseSchema":
        """Return a copy of this schema extended with *relation*."""
        return DatabaseSchema(self.relations + (relation,))


def alias_schema(
    aliases: Mapping[str, str], database: DatabaseSchema
) -> DatabaseSchema:
    """Build the input schema ``S_Q`` of a query over *database*.

    *aliases* is the mapping ``eta_Q`` of Def. 2.3 from query-local
    relation names (aliases) to stored relation names; the result
    contains one relation schema per alias, each a renamed copy of the
    underlying relation.  Self-joins are expressed by mapping two
    aliases to the same stored relation.
    """
    renamed: list[RelationSchema] = []
    for alias, target in aliases.items():
        renamed.append(database.relation(target).renamed(alias))
    return DatabaseSchema(tuple(renamed))


def check_disjoint(left: Iterable[str], right: Iterable[str]) -> None:
    """Raise :class:`SchemaError` when the two name sets intersect.

    Used to enforce the ``S1 inter S2 = empty`` requirement of
    Def. 2.2 for joins and unions.
    """
    overlap = set(left) & set(right)
    if overlap:
        raise SchemaError(
            f"input schemas must be disjoint; shared aliases: "
            f"{sorted(overlap)}"
        )
