"""Tuples with qualified attributes, identities, and lineage.

This module implements the data model of Sec. 2.1 of the paper: a tuple
is a list of attribute/value pairs ``(A1:v1, ..., An:vn)``, where each
attribute is *qualified* by the relation alias it stems from (e.g.
``"A.name"``) or is a fresh unqualified attribute introduced by a
renaming or an aggregation (e.g. ``"aid"``, ``"ap"``).

On top of the paper's model, every tuple carries the bookkeeping needed
for provenance:

* ``tid`` -- the identifier of a *base* tuple (``None`` for derived
  tuples produced by operators);
* ``lineage`` -- the set of base-tuple identifiers this tuple derives
  from, in the sense of Cui & Widom's data lineage (the paper's Sec. 2.3
  builds directly on that notion);
* ``parents`` -- the direct predecessor tuples with respect to the
  manipulation that produced this tuple.  ``parents`` is what makes a
  derived tuple a *successor* (Def. 2.9) of its inputs.

A tuple is identified by its lineage, as the paper identifies them: it
writes the three outputs of its running example's ``Q2`` as
``t4 t7 t2``, ``t4 t8 t1``, ``t5 t9 t3``.  Two derivations of the same
values from different base data are distinct objects of study for
why-not provenance.  So a tuple hashes by its lineage alone (a
frozenset, which caches its hash) and compares equal on
``(values, lineage)``: a projection keeps its parent's lineage and hash
but not its values, so the two stay unequal.  No two outputs of one
query node share a lineage (``tests/test_lineage_key_properties.py``),
so within a node's output the hash is a key.  Tuples without lineage
all share one hash.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from ..errors import SchemaError

#: Values stored in tuples.  ``None`` represents SQL NULL.
Value = Any


def qualify(alias: str, attribute: str) -> str:
    """Return the qualified attribute name ``alias.attribute``."""
    return f"{alias}.{attribute}"


def is_qualified(attribute: str) -> bool:
    """Return True when *attribute* is of the form ``alias.name``."""
    return "." in attribute


def split_qualified(attribute: str) -> tuple[str, str]:
    """Split ``"A.name"`` into ``("A", "name")``.

    Raises :class:`SchemaError` when the attribute is unqualified.
    """
    alias, sep, name = attribute.partition(".")
    if not sep or not alias or not name:
        raise SchemaError(f"attribute {attribute!r} is not qualified")
    return alias, name


def alias_of(attribute: str) -> str | None:
    """Return the qualifying alias of *attribute*, or ``None``."""
    if not is_qualified(attribute):
        return None
    return split_qualified(attribute)[0]


def unqualified_name(attribute: str) -> str:
    """Return the attribute name without its qualifying alias."""
    if not is_qualified(attribute):
        return attribute
    return split_qualified(attribute)[1]


class Tuple:
    """An immutable tuple of attribute/value pairs with provenance.

    Parameters
    ----------
    values:
        Mapping from (qualified or renamed) attribute names to values.
    tid:
        Identifier of a base tuple.  Derived tuples pass ``None``.
    lineage:
        Base-tuple identifiers this tuple derives from.  Defaults to
        ``{tid}`` for base tuples and to the union of the parents'
        lineage for derived tuples.
    parents:
        Direct predecessor tuples w.r.t. the producing manipulation.
    """

    __slots__ = ("_values", "_tid", "_lineage", "_parents")

    def __init__(
        self,
        values: Mapping[str, Value],
        tid: str | None = None,
        lineage: Iterable[str] | None = None,
        parents: Iterable["Tuple"] = (),
    ):
        if not values:
            raise SchemaError("a tuple must have at least one attribute")
        self._values: dict[str, Value] = dict(values)
        self._tid = tid
        self._parents: tuple[Tuple, ...] = tuple(parents)
        if lineage is not None:
            self._lineage = frozenset(lineage)
        elif tid is not None:
            self._lineage = frozenset((tid,))
        elif self._parents:
            merged: set[str] = set()
            for parent in self._parents:
                merged |= parent.lineage
            self._lineage = frozenset(merged)
        else:
            self._lineage = frozenset()

    @classmethod
    def _adopt(
        cls,
        values: dict[str, Value],
        lineage: frozenset[str],
        parents: tuple["Tuple", ...] = (),
        tid: str | None = None,
    ) -> "Tuple":
        """Build a tuple that takes ownership of *values*, uncopied.

        For the operators only: *values* must be a non-empty dict that
        nobody mutates afterwards.  Tuples never mutate theirs, so a
        derived tuple may share its parent's dict.
        """
        t = cls.__new__(cls)
        t._values = values
        t._tid = tid
        t._lineage = lineage
        t._parents = parents
        return t

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def tid(self) -> str | None:
        """Base-tuple identifier, or ``None`` for derived tuples."""
        return self._tid

    @property
    def lineage(self) -> frozenset[str]:
        """Base-tuple identifiers this tuple derives from."""
        return self._lineage

    @property
    def parents(self) -> tuple["Tuple", ...]:
        """Direct predecessors w.r.t. the producing manipulation."""
        return self._parents

    @property
    def values(self) -> Mapping[str, Value]:
        """Read-only view of the attribute/value mapping."""
        return dict(self._values)

    @property
    def type(self) -> frozenset[str]:
        """The type of the tuple: its set of attribute names (Sec 2.1)."""
        return frozenset(self._values)

    def has_type(self, attributes: frozenset[str]) -> bool:
        """True when this tuple's type equals *attributes* (no copy)."""
        return self._values.keys() == attributes

    def is_base(self) -> bool:
        """Return True when this is a base (stored) tuple."""
        return self._tid is not None

    # ------------------------------------------------------------------
    # Mapping-style access
    # ------------------------------------------------------------------
    def __getitem__(self, attribute: str) -> Value:
        try:
            return self._values[attribute]
        except KeyError:
            raise SchemaError(
                f"tuple of type {sorted(self._values)} has no "
                f"attribute {attribute!r}"
            ) from None

    def get(self, attribute: str, default: Value = None) -> Value:
        """Return the value of *attribute*, or *default*."""
        return self._values.get(attribute, default)

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> Iterable[tuple[str, Value]]:
        """Iterate over (attribute, value) pairs."""
        return self._values.items()

    # ------------------------------------------------------------------
    # Derivation helpers used by the operators
    # ------------------------------------------------------------------
    def project(self, attributes: Iterable[str]) -> "Tuple":
        """Return a derived tuple restricted to *attributes*.

        The result records this tuple as its single parent and inherits
        its lineage.
        """
        kept = {attr: self[attr] for attr in attributes}
        if not kept:
            raise SchemaError("a tuple must have at least one attribute")
        return Tuple._adopt(kept, self._lineage, (self,))

    def derive(self) -> "Tuple":
        """Return a derived tuple with the same values and lineage.

        The result records this tuple as its single parent -- what a
        selection outputs for each tuple it keeps.  It shares this
        tuple's value dict.
        """
        return Tuple._adopt(self._values, self._lineage, (self,))

    def merge(self, other: "Tuple") -> "Tuple":
        """Return the join of this tuple with *other*.

        Both tuples become parents; attribute sets must be disjoint
        (qualified schemas always are, Def. 2.2).
        """
        overlap = self.type & other.type
        if overlap:
            raise SchemaError(
                f"cannot merge tuples sharing attributes {sorted(overlap)}"
            )
        combined = dict(self._values)
        combined.update(other._values)
        return Tuple(
            combined,
            lineage=self._lineage | other._lineage,
            parents=(self, other),
        )

    def rename_attributes(self, mapping: Mapping[str, str]) -> "Tuple":
        """Return a derived tuple with attributes renamed via *mapping*.

        Attributes absent from *mapping* keep their name.  This is the
        tuple-level application of a renaming ``nu`` (Def. 2.1).
        """
        renamed = {
            mapping.get(attr, attr): value
            for attr, value in self._values.items()
        }
        if len(renamed) != len(self._values):
            raise SchemaError(
                f"renaming {dict(mapping)!r} collapses attributes of "
                f"tuple {self!r}"
            )
        return Tuple(renamed, lineage=self._lineage, parents=(self,))

    def with_parents(self, parents: Iterable["Tuple"]) -> "Tuple":
        """Return a copy of this tuple with the given direct parents."""
        return Tuple(
            self._values,
            tid=self._tid,
            lineage=self._lineage,
            parents=parents,
        )

    # ------------------------------------------------------------------
    # Identity, ordering, display
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        return (
            self._values == other._values
            and self._lineage == other._lineage
        )

    def __hash__(self) -> int:
        return hash(self._lineage)

    def how_provenance(self) -> str:
        """Render the lineage as a how-provenance style string.

        The paper writes the output tuples of its running example as
        ``t4 |><| t7 |><| t2``; we render ``t2*t4*t7`` (sorted for
        determinism).
        """
        if self._tid is not None:
            return self._tid
        return "*".join(sorted(self._lineage))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{attr}:{value!r}" for attr, value in sorted(self._values.items())
        )
        tag = self._tid if self._tid is not None else self.how_provenance()
        return f"Tuple[{tag}]({pairs})"


def base_tuple(alias: str, tid: str, **attributes: Value) -> Tuple:
    """Convenience constructor for a base tuple of relation *alias*.

    Attribute names given as keywords are qualified with *alias*::

        >>> t = base_tuple("A", "t4", name="Homer", dob=-800)
        >>> t["A.name"]
        'Homer'
    """
    values = {qualify(alias, name): value for name, value in attributes.items()}
    return Tuple(values, tid=tid)
