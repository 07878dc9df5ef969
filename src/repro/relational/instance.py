"""Relation and database instances (Sec. 2.1 of the paper).

A database instance ``I`` over a schema ``S`` assigns to each relation
``R`` in ``S`` a set of tuples over ``type(R)``.  For a query
``(Q, eta_Q)`` (Def. 2.3), the *query input instance* ``I_Q`` assigns to
each alias ``S`` of the query's input schema a copy of ``I | eta_Q(S)``
re-qualified with the alias -- this is what makes self-joins sound: the
two copies of a self-joined relation carry distinct qualified attributes
*and distinct tuple identifiers*, so lineage can tell them apart (the
fix for the baseline's Crime6/Crime7 failure discussed in Sec. 4.2).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Iterator, KeysView, Mapping, Protocol

from ..errors import SchemaError, UnknownRelationError
from .schema import DatabaseSchema, RelationSchema
from .tuples import Tuple, Value, qualify

#: process-wide serial numbers for instances (never reused, unlike id())
_INSTANCE_SERIALS = itertools.count(1)


class RelationInstance:
    """An ordered collection of tuples over one relation schema.

    Equality lookups (:meth:`lookup`) are served by per-attribute hash
    indexes, numeric ranges (:meth:`range_scan`) by per-attribute
    sorted column indexes; both are built on first use and dropped by
    every :meth:`add`.
    """

    def __init__(self, schema: RelationSchema, tuples: Iterable[Tuple] = ()):
        self.schema = schema
        self._tuples: list[Tuple] = []
        self._by_tid: dict[str, Tuple] = {}
        #: qualified attribute -> value -> matching tuples, in order
        self._indexes: dict[str, dict[Value, tuple[Tuple, ...]]] = {}
        #: qualified attribute -> (sorted numeric values, their positions)
        self._ordered: dict[str, tuple[list[Value], list[int]]] = {}
        for t in tuples:
            self.add(t)

    def add(self, t: Tuple) -> None:
        """Append *t*, validating its type against the schema."""
        if not t.has_type(self.schema.type):
            raise SchemaError(
                f"tuple of type {sorted(t.type)} does not match relation "
                f"{self.schema.name!r} of type {sorted(self.schema.type)}"
            )
        if t.tid is None:
            raise SchemaError("stored tuples must carry a tuple id")
        if t.tid in self._by_tid:
            raise SchemaError(
                f"duplicate tuple id {t.tid!r} in relation "
                f"{self.schema.name!r}"
            )
        self._tuples.append(t)
        self._by_tid[t.tid] = t
        if self._indexes:
            self._indexes = {}
        if self._ordered:
            self._ordered = {}

    def lookup(self, attribute: str, value: Value) -> tuple[Tuple, ...]:
        """The tuples whose qualified *attribute* equals *value*.

        Served by a hash index on *attribute*, so values are matched by
        Python ``==`` (``5`` finds ``5.0``, ``1`` finds ``True``).  The
        result keeps the relation's order.  The index is built complete
        before it is published, so threads sharing this instance never
        see a half-built one; pure reads leave every version unchanged.
        """
        index = self._indexes.get(attribute)
        if index is None:
            if attribute not in self.schema.type:
                raise SchemaError(
                    f"relation {self.schema.name!r} has no attribute "
                    f"{attribute!r} to look up"
                )
            buckets: dict[Value, list[Tuple]] = {}
            for t in self._tuples:
                buckets.setdefault(t[attribute], []).append(t)
            index = {v: tuple(ts) for v, ts in buckets.items()}
            self._indexes[attribute] = index
        return index.get(value, ())

    def range_scan(
        self,
        attribute: str,
        lower: Value,
        lower_strict: bool,
        upper: Value,
        upper_strict: bool,
    ) -> list[Tuple]:
        """The tuples whose numeric *attribute* lies between the bounds.

        A bound of ``None`` is open; a strict bound excludes its value.
        Only values a numeric constant can be compared with count:
        ints and floats, not bools, NULLs, NaNs or strings (the
        domains of :func:`~repro.relational.conditions.compare_values`).
        Served by bisecting a sorted column index; the result keeps
        the relation's order.  The index is built complete before it
        is published, as :meth:`lookup`'s are.
        """
        ordered = self._ordered.get(attribute)
        if ordered is None:
            if attribute not in self.schema.type:
                raise SchemaError(
                    f"relation {self.schema.name!r} has no attribute "
                    f"{attribute!r} to scan"
                )
            pairs = sorted(
                (value, position)
                for position, value in enumerate(
                    t[attribute] for t in self._tuples
                )
                if isinstance(value, (int, float))
                and not isinstance(value, bool)
                and value == value  # NaN compares false with everything
            )
            ordered = ([v for v, _ in pairs], [p for _, p in pairs])
            self._ordered[attribute] = ordered
        values, positions = ordered
        lo = 0
        if lower is not None:
            lo = (bisect_right if lower_strict else bisect_left)(
                values, lower
            )
        hi = len(values)
        if upper is not None:
            hi = (bisect_left if upper_strict else bisect_right)(
                values, upper
            )
        tuples = self._tuples
        return [tuples[p] for p in sorted(positions[lo:hi])]

    @property
    def tuples(self) -> tuple[Tuple, ...]:
        """The stored tuples, in insertion order."""
        return tuple(self._tuples)

    @property
    def tids(self) -> KeysView[str]:
        """The identifiers of the stored tuples (a live, set-like view)."""
        return self._by_tid.keys()

    def by_tid(self, tid: str) -> Tuple:
        """Return the tuple with identifier *tid*."""
        try:
            return self._by_tid[tid]
        except KeyError:
            raise UnknownRelationError(
                f"no tuple {tid!r} in relation {self.schema.name!r}"
            ) from None

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, t: Tuple) -> bool:
        return t in self._by_tid.values() if t.tid is None else (
            self._by_tid.get(t.tid) == t
        )

    def requalified(self, alias: str) -> "RelationInstance":
        """Return a copy of this instance under query alias *alias*.

        Attributes are re-qualified from ``R.x`` to ``alias.x`` and
        tuple ids from ``R:k`` to ``alias:k`` so that two aliases of the
        same relation yield disjoint lineage domains.
        """
        if alias == self.schema.name:
            return self
        return requalify(self.schema, self._tuples, alias)

    def __repr__(self) -> str:
        return (
            f"RelationInstance({self.schema.name!r}, "
            f"{len(self._tuples)} tuples)"
        )


class RelationSource(Protocol):
    """Stored tuples of one relation: a relation instance or a table."""

    schema: RelationSchema

    def __iter__(self) -> Iterator[Tuple]: ...


def requalify(
    schema: RelationSchema, tuples: Iterable[Tuple], alias: str
) -> RelationInstance:
    """Copy the stored *tuples* of relation *schema* under *alias*.

    The one renaming routine behind :meth:`RelationInstance.requalified`
    and :func:`build_input_instance`.  *tuples* must already have
    ``schema``'s type and distinct tids.  Under the relation's own name
    the result shares the tuple objects.  Under another alias each
    tuple is rebuilt with attributes ``R.x -> alias.x`` and tid
    ``R:k -> alias:k``.  The attribute mapping is a bijection onto the
    renamed type, so the copies skip the type check; the tids are
    still checked, because retagging is not injective (``A:1`` and
    ``1`` both become ``alias:1``).
    """
    if alias == schema.name:
        copy = RelationInstance(schema)
        copy._tuples.extend(tuples)
        copy._by_tid.update((t.tid, t) for t in copy._tuples)
        return copy
    copy = RelationInstance(schema.renamed(alias))
    tuples_out = copy._tuples
    by_tid = copy._by_tid
    mapping = {
        qualify(schema.name, a): qualify(alias, a) for a in schema.attributes
    }
    prefix = f"{schema.name}:"
    cut = len(prefix)
    for t in tuples:
        old = t.tid
        tid = f"{alias}:{old[cut:] if old.startswith(prefix) else old}"
        if tid in by_tid:
            raise SchemaError(
                f"duplicate tuple id {tid!r} in relation {alias!r}"
            )
        values = {mapping[attr]: value for attr, value in t.items()}
        renamed = Tuple._adopt(values, frozenset((tid,)), tid=tid)
        tuples_out.append(renamed)
        by_tid[tid] = renamed
    return copy


class DatabaseInstance:
    """A database instance: one :class:`RelationInstance` per relation.

    Viewed either as a mapping from relation names to instances or,
    "for the sake of presentation" as the paper puts it, as one big set
    of tuples of possibly different types (:meth:`all_tuples`).
    """

    def __init__(self, schema: DatabaseSchema):
        self.schema = schema
        self._relations: dict[str, RelationInstance] = {
            r.name: RelationInstance(r) for r in schema
        }
        self._serial = next(_INSTANCE_SERIALS)
        self._version = 0
        self._adopted_key: tuple | None = None
        self._adopted_at_version = 0

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every :meth:`add`."""
        return self._version

    def adopt_key(self, key: tuple) -> None:
        """Declare this instance a snapshot identified by *key*.

        Snapshots of the same source at the same source version share
        one key, letting the evaluation cache serve repeated
        derivations (e.g. two engines over one stored database) from a
        single evaluation.  Mutating the snapshot afterwards reverts it
        to its private identity (see :attr:`data_key`).
        """
        self._adopted_key = key
        self._adopted_at_version = self._version

    @property
    def data_key(self) -> tuple:
        """Identity + version key for evaluation caching.

        A pristine snapshot answers with its adopted (shared) key; an
        instance mutated after adoption -- or never adopted -- answers
        with its own never-reused serial plus version, so divergent
        contents can never collide in the cache.
        """
        if (
            self._adopted_key is not None
            and self._version == self._adopted_at_version
        ):
            return self._adopted_key
        return ("inst", self._serial, self._version)

    def relation(self, name: str) -> RelationInstance:
        """Return the instance of relation *name*."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(
                f"relation {name!r} is not part of the instance"
            ) from None

    def __getitem__(self, name: str) -> RelationInstance:
        return self.relation(name)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def relation_names(self) -> tuple[str, ...]:
        """Relation names in schema order."""
        return self.schema.names()

    def add(self, relation_name: str, t: Tuple) -> None:
        """Insert *t* into relation *relation_name*."""
        self.relation(relation_name).add(t)
        self._version += 1

    def insert_values(self, relation_name: str, tid: str, **attrs) -> Tuple:
        """Build and insert a base tuple from keyword attribute values.

        Attribute names are qualified with the relation name; the tid is
        stored verbatim.  Returns the inserted tuple.
        """
        relation = self.relation(relation_name)
        values = {
            relation.schema.qualified(name): value
            for name, value in attrs.items()
        }
        t = Tuple(values, tid=tid)
        relation.add(t)
        self._version += 1
        return t

    def all_tuples(self) -> tuple[Tuple, ...]:
        """All tuples of the instance (the paper's set-of-tuples view)."""
        result: list[Tuple] = []
        for name in self.relation_names():
            result.extend(self._relations[name].tuples)
        return tuple(result)

    def tuple_by_tid(self, tid: str) -> Tuple:
        """Locate a tuple by its id, searching all relations.

        A tid ``R:k`` is looked up in relation ``R`` first; any other
        tid (e.g. a verbatim ``t4``) is searched for everywhere.
        """
        alias, sep, _ = tid.partition(":")
        if sep and alias in self._relations:
            return self._relations[alias].by_tid(tid)
        for relation in self._relations.values():
            try:
                return relation.by_tid(tid)
            except UnknownRelationError:
                continue
        raise UnknownRelationError(f"no tuple {tid!r} in any relation")

    def size(self) -> int:
        """Total number of stored tuples."""
        return sum(len(r) for r in self._relations.values())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{len(self._relations[name])}"
            for name in self.relation_names()
        )
        return f"DatabaseInstance({parts})"


def build_input_instance(
    relation: Callable[[str], RelationSource],
    aliases: Mapping[str, str],
    data_key: tuple,
) -> DatabaseInstance:
    """Build the input instance ``I_Q`` of a query (Def. 2.3).

    For each alias ``S`` with ``eta_Q(S) = R``, the result contains the
    tuples of ``relation(R)`` re-qualified (attributes and tuple ids)
    with ``S`` by :func:`requalify` -- one copy per alias, of the named
    relations only.  The result adopts the key ``("iq", data_key,
    sorted aliases)``, so two builds from one source version share
    cached evaluations.
    """
    relations = []
    for alias, target in aliases.items():
        source = relation(target)
        relations.append(requalify(source.schema, source, alias))
    result = DatabaseInstance(
        DatabaseSchema(tuple(r.schema for r in relations))
    )
    result._relations = {r.schema.name: r for r in relations}
    result.adopt_key(("iq", data_key, tuple(sorted(aliases.items()))))
    return result


def query_input_instance(
    database: DatabaseInstance, aliases: Mapping[str, str]
) -> DatabaseInstance:
    """Build ``I_Q`` from a database instance (Def. 2.3).

    For each alias ``S`` with ``eta_Q(S) = R``, the result contains
    ``I | R`` re-qualified (attributes and tuple ids) with ``S``.
    """
    return build_input_instance(
        database.relation, aliases, database.data_key
    )
