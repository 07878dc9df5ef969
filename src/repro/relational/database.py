"""A small in-memory database engine.

This module is the library's substitute for the PostgreSQL 9.2 instance
backing the paper's experiments.  It provides exactly the services the
algorithms need from a store:

* table creation with key constraints (the paper's CompatibleFinder
  "assumes that each table has a key attribute to uniquely identify a
  tuple", Sec. 3.1 footnote 2);
* inserts that mint stable tuple identifiers ``Table:key``;
* derivation of query input instances for ``(Q, eta_Q)`` pairs.

:meth:`Database.input_instance` builds ``I_Q`` straight from the
aliased tables: one renamed copy per alias (an alias equal to its table
name shares the stored rows) and nothing of the tables the query does
not name.  It goes through the same renaming routine as
:func:`~repro.relational.instance.query_input_instance` over a full
:meth:`Database.instance` snapshot, and yields an equal instance under
the same data key.

CompatibleFinder's ``SELECT <key> FROM R WHERE ...`` lookups are served
by the hash indexes of the derived query input instance
(:meth:`~repro.relational.instance.RelationInstance.lookup`), never by
the live tables, so an engine always answers over its own snapshot.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from ..errors import IntegrityError, SchemaError, UnknownRelationError
from .instance import DatabaseInstance, build_input_instance
from .schema import DatabaseSchema, RelationSchema
from .tuples import Tuple, Value, qualify


class Table:
    """One stored table: schema + rows.

    Every ``insert`` bumps a monotonic version counter so cached
    evaluation results derived from this table can be invalidated; the
    owning :class:`Database` is notified through ``_on_mutate``.
    """

    def __init__(self, schema: RelationSchema):
        self.schema = schema
        #: tid -> row, in insertion order
        self._rows: dict[str, Tuple] = {}
        self._auto_id = itertools.count(1)
        self._version = 0
        self._on_mutate = None

    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumped by insert)."""
        return self._version

    def _bump(self) -> None:
        self._version += 1
        if self._on_mutate is not None:
            self._on_mutate()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, **attrs: Value) -> Tuple:
        """Insert a row given unqualified attribute values.

        The tuple id is ``Table:<key-value>`` when the schema declares a
        key (enforcing uniqueness), otherwise ``Table:<n>`` with a
        monotone counter.
        """
        unknown = set(attrs) - set(self.schema.attributes)
        if unknown:
            raise SchemaError(
                f"table {self.schema.name!r} has no attributes "
                f"{sorted(unknown)}"
            )
        values = {
            qualify(self.schema.name, name): attrs.get(name)
            for name in self.schema.attributes
        }
        if self.schema.key is not None:
            key_value = attrs.get(self.schema.key)
            if key_value is None:
                raise IntegrityError(
                    f"key {self.schema.key!r} of table "
                    f"{self.schema.name!r} must not be NULL"
                )
            tid = f"{self.schema.name}:{key_value}"
            if tid in self._rows:
                raise IntegrityError(
                    f"duplicate key {key_value!r} in table "
                    f"{self.schema.name!r}"
                )
        else:
            tid = f"{self.schema.name}:{next(self._auto_id)}"
        row = Tuple(values, tid=tid)
        self._rows[tid] = row
        self._bump()
        return row

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    @property
    def rows(self) -> tuple[Tuple, ...]:
        return tuple(self._rows.values())

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._rows.values())

    def __len__(self) -> int:
        return len(self._rows)

    def by_tid(self, tid: str) -> Tuple:
        try:
            return self._rows[tid]
        except KeyError:
            raise UnknownRelationError(
                f"no row {tid!r} in table {self.schema.name!r}"
            ) from None


#: process-wide serial numbers for databases; unlike ``id()`` these are
#: never reused after garbage collection, so they are safe cache keys
_DB_SERIALS = itertools.count(1)


class Database:
    """A named collection of tables with derived instance views."""

    def __init__(self, name: str = "db"):
        self.name = name
        self._tables: dict[str, Table] = {}
        self._serial = next(_DB_SERIALS)
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter over all DDL/DML mutations."""
        return self._version

    @property
    def data_key(self) -> tuple:
        """Identity + version key for evaluation caching.

        Built from a never-reused serial number and the mutation
        counter: equal keys guarantee identical stored contents (for
        the life of the process), and any ``insert`` / ``create_table``
        produces a fresh key.
        """
        return ("db", self._serial, self._version)

    def _bump(self) -> None:
        self._version += 1

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        attributes: Sequence[str],
        key: str | None = None,
    ) -> Table:
        """Create a table; returns it for chained inserts."""
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists")
        table = Table(RelationSchema(name, tuple(attributes), key))
        table._on_mutate = self._bump
        self._tables[name] = table
        self._bump()
        return table

    def insert(self, table_name: str, **attrs: Value) -> Tuple:
        """Insert a row into *table_name*."""
        return self.table(table_name).insert(**attrs)

    def insert_rows(
        self, table_name: str, rows: Iterable[Mapping[str, Value]]
    ) -> list[Tuple]:
        """Bulk insert; returns the inserted tuples."""
        table = self.table(table_name)
        return [table.insert(**dict(row)) for row in rows]

    # ------------------------------------------------------------------
    # Catalog access
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownRelationError(
                f"no table {name!r} in database {self.name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    @property
    def schema(self) -> DatabaseSchema:
        """The database schema over all tables."""
        return DatabaseSchema(
            tuple(t.schema for t in self._tables.values())
        )

    def size(self) -> int:
        """Total number of stored rows."""
        return sum(len(t) for t in self._tables.values())

    # ------------------------------------------------------------------
    # Instance views
    # ------------------------------------------------------------------
    def instance(self) -> DatabaseInstance:
        """The full database as a :class:`DatabaseInstance`.

        The snapshot inherits this database's :attr:`data_key`, so two
        snapshots taken at the same version share cached evaluations.
        """
        result = DatabaseInstance(self.schema)
        for name, table in self._tables.items():
            for row in table.rows:
                result.add(name, row)
        result.adopt_key(self.data_key)
        return result

    def input_instance(
        self, aliases: Mapping[str, str]
    ) -> DatabaseInstance:
        """The query input instance ``I_Q`` for ``eta_Q`` (Def. 2.3).

        Equal, data key included, to
        ``query_input_instance(self.instance(), aliases)`` but built
        from the aliased tables only (see the module docstring).
        """
        return build_input_instance(self.table, aliases, self.data_key)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{len(table)}" for name, table in self._tables.items()
        )
        return f"Database({self.name!r}; {parts})"
