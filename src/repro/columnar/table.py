"""Columnar storage: interned dictionaries, bitmaps, and batches.

The columnar engine stores a relation as one array per attribute plus
an interned-value :class:`Dictionary` per column (distinct values get
small integer codes; predicates are then decided once per *distinct*
value instead of once per row).  Selection vectors are
:class:`Bitmap` bitsets over row positions, combined with integer
bitwise operations.

Losslessness is non-negotiable: the row engine distinguishes ``5``
from ``5.0`` and ``True`` from ``1`` inside value dictionaries even
though Python hashes them equal, so the interner keys codes by
``(value.__class__, value)`` and decoding always returns the exact
original object.

A :class:`ColumnarTable` wraps one stored relation of a query input
instance.  Tables -- and the join hash indexes built on them -- are
memoized per ``(instance.data_key, alias)`` in a small LRU, so a query
served repeatedly from the evaluation cache scans and hashes each
stored relation once, not once per evaluation (the "hash tables built
once per cache entry" of the design).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Iterable, Iterator, Sequence

from ..errors import EvaluationError, UnknownRelationError
from ..relational.conditions import join_key
from ..relational.instance import DatabaseInstance, RelationInstance
from ..relational.tuples import Tuple, Value


class Dictionary:
    """An interned-value dictionary for one column.

    Codes are dense ints in insertion order.  The intern key is
    ``(value.__class__, value)`` so values that compare (and hash)
    equal across domains -- ``5`` / ``5.0`` / ``True`` / ``1`` --
    keep distinct codes and decode back to the exact original value.
    """

    __slots__ = ("_codes", "_values")

    def __init__(self) -> None:
        self._codes: dict[tuple[type, Value], int] = {}
        #: code -> original value (the decode table)
        self._values: list[Value] = []

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> Sequence[Value]:
        """The decode table: distinct values in first-seen order."""
        return self._values

    def encode(self, value: Value) -> int:
        """Intern *value*, returning its (possibly fresh) code."""
        key = (value.__class__, value)
        code = self._codes.get(key)
        if code is None:
            code = len(self._values)
            self._codes[key] = code
            self._values.append(value)
        return code

    def encode_many(self, values: Iterable[Value]) -> list[int]:
        """Intern a whole column at once."""
        codes = self._codes
        table = self._values
        out: list[int] = []
        for value in values:
            key = (value.__class__, value)
            code = codes.get(key)
            if code is None:
                code = len(table)
                codes[key] = code
                table.append(value)
            out.append(code)
        return out

    def decode(self, code: int) -> Value:
        """The exact original value interned under *code*."""
        return self._values[code]


class Bitmap:
    """A selection vector: an immutable bitset over row positions.

    Backed by one Python big integer, so AND/OR/NOT over a whole batch
    are single interpreter operations regardless of row count.
    """

    __slots__ = ("nbits", "mask")

    def __init__(self, nbits: int, mask: int = 0):
        self.nbits = nbits
        self.mask = mask & ((1 << nbits) - 1) if nbits else 0

    @classmethod
    def from_bools(cls, bools: Sequence[bool]) -> "Bitmap":
        if not bools:
            return cls(0, 0)
        # C-level pack: truthiness indexes into "01", int() parses base 2
        bits = "".join(map("01".__getitem__, map(bool, reversed(bools))))
        return cls(len(bools), int(bits, 2))

    @classmethod
    def ones(cls, nbits: int) -> "Bitmap":
        return cls(nbits, (1 << nbits) - 1)

    @classmethod
    def zeros(cls, nbits: int) -> "Bitmap":
        return cls(nbits, 0)

    def __and__(self, other: "Bitmap") -> "Bitmap":
        return Bitmap(self.nbits, self.mask & other.mask)

    def __or__(self, other: "Bitmap") -> "Bitmap":
        return Bitmap(self.nbits, self.mask | other.mask)

    def invert(self) -> "Bitmap":
        return Bitmap(self.nbits, ~self.mask)

    def count(self) -> int:
        return self.mask.bit_count()

    def get(self, index: int) -> bool:
        return bool((self.mask >> index) & 1)

    def indexes(self) -> Iterator[int]:
        """Row positions of the set bits, ascending."""
        mask = self.mask
        while mask:
            lsb = mask & -mask
            yield lsb.bit_length() - 1
            mask ^= lsb

    def indexes_in(self, start: int, stop: int) -> list[int]:
        """Set-bit positions within ``[start, stop)``, ascending."""
        width = stop - start
        mask = (self.mask >> start) & ((1 << width) - 1)
        out: list[int] = []
        while mask:
            lsb = mask & -mask
            out.append(start + lsb.bit_length() - 1)
            mask ^= lsb
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self.nbits == other.nbits and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.nbits, self.mask))

    def __repr__(self) -> str:
        return f"Bitmap({self.nbits} bits, {self.count()} set)"


class Gather:
    """A lazily gathered column: ``source column at these row indexes``.

    The late-materialization backbone: operators describe their output
    columns as gathers over their inputs and only a consumer that
    actually reads a column (a downstream predicate, the row-view
    conversion, a join key) pays for materializing it.  A multi-join
    tree whose top projection keeps three attributes gathers three
    columns, not thirty.  Materialization is transitive (a gather over
    a gather chases the chain) and happens at most once -- the owning
    :class:`Batch` replaces the gather with the realized list.
    """

    __slots__ = ("batch", "attr", "indices", "codes")

    def __init__(
        self,
        batch: "Batch",
        attr: str,
        indices: list[int] | None,
        codes: bool = False,
    ):
        self.batch = batch
        self.attr = attr
        #: ``None`` = identity gather: the whole source column is the
        #: output (a full-keep projection/selection); the realized
        #: list is shared by reference -- columns are immutable.
        self.indices = indices
        #: gather the column's dictionary codes instead of its values
        self.codes = codes

    def materialize(self) -> list:
        if self.codes:
            source = self.batch.encoded(self.attr)[0]
        else:
            source = self.batch.column(self.attr)
        if self.indices is None:
            return source
        return list(map(source.__getitem__, self.indices))


class Batch:
    """One operator's columnar output (possibly lazily gathered).

    Attributes
    ----------
    attrs:
        Output attribute names in canonical (construction) order --
        the order the row engine's value dicts would carry.
    columns:
        One column per attribute, parallel to row positions: either a
        realized value list or a pending :class:`Gather`.  Always read
        through :meth:`column`, which materializes in place.
    lineage:
        Per-row base-tuple lineage (``frozenset`` of tids), shared by
        reference with input rows wherever the operator passes rows
        through unchanged.
    parents:
        The parent model used for lossless row conversion:
        ``None`` (leaf), ``("rows", [ri])`` (select/project/
        difference: one parent row in child 0), ``("tagged",
        [(slot, i)])`` (union), ``("pairs", [(li, ri)])`` (join),
        ``("groups", [[ri]])`` (aggregate).
    source:
        For leaf batches only: the stored row :class:`Tuple` objects,
        in row order (conversion returns these verbatim).
    codes:
        Optional dictionary encoding per attribute,
        ``attr -> (codes, Dictionary)`` with the code list itself
        possibly a pending :class:`Gather`; read through
        :meth:`encoded`.  Preserved through selection and projection
        so chained predicates stay code-driven.
    """

    __slots__ = (
        "attrs",
        "columns",
        "lineage",
        "parents",
        "source",
        "codes",
        "_indexes",
    )

    def __init__(
        self,
        attrs: Sequence[str],
        columns: dict[str, list],
        lineage: list[frozenset],
        parents: Any = None,
        source: list[Tuple] | None = None,
        codes: dict[str, tuple[list[int], Dictionary]] | None = None,
    ):
        self.attrs = tuple(attrs)
        self.columns = columns
        self.lineage = lineage
        self.parents = parents
        self.source = source
        self.codes = codes or {}
        #: memoized join hash indexes, keyed by the key-attribute tuple
        self._indexes: dict[tuple[str, ...], dict] = {}

    @property
    def nrows(self) -> int:
        return len(self.lineage)

    def column(self, attr: str) -> list:
        """The realized values of one column (materializing lazily)."""
        col = self.columns[attr]
        if isinstance(col, Gather):
            col = col.materialize()
            self.columns[attr] = col
        return col

    def encoded(self, attr: str) -> tuple[list[int], Dictionary] | None:
        """Dictionary codes of one column, if encoded (lazy-realized)."""
        entry = self.codes.get(attr)
        if entry is None:
            return None
        code_list, dictionary = entry
        if isinstance(code_list, Gather):
            code_list = code_list.materialize()
            entry = (code_list, dictionary)
            self.codes[attr] = entry
        return entry

    def join_index(
        self, key_attrs: tuple[str, ...]
    ) -> dict[tuple, list[int]]:
        """Hash index ``key values -> row positions`` (memoized).

        Values are keyed by :func:`~repro.relational.conditions.join_key`,
        so ``True`` never matches ``1``.  Rows with a NULL in any key
        attribute are excluded (SQL: NULL never joins).  The empty key
        indexes every row under ``()`` (cross product).  Memoized on
        the batch, so a leaf batch held by the table cache builds its
        index once per cache entry, not once per evaluation.
        """
        cached = self._indexes.get(key_attrs)
        if cached is not None:
            return cached
        index: dict[tuple, list[int]] = {}
        if key_attrs:
            key_columns = [self.column(a) for a in key_attrs]
            for row in range(self.nrows):
                key = tuple(col[row] for col in key_columns)
                if None in key:
                    continue
                index.setdefault(tuple(map(join_key, key)), []).append(row)
        else:
            index[()] = list(range(self.nrows))
        self._indexes[key_attrs] = index
        return index

    def scalar_join_index(self, key_attr: str) -> dict:
        """Single-attribute hash index ``join_key(value) -> rows``.

        The scalar twin of :meth:`join_index` (same keys, NULL
        exclusion and memoization) without the per-row one-tuple
        wrapping -- the common single-key join probes with one key.
        """
        memo_key = ("scalar", key_attr)
        cached = self._indexes.get(memo_key)
        if cached is not None:
            return cached
        index: dict = {}
        encoded = self.encoded(key_attr)
        if encoded is not None:
            # code-driven build: per-row work is one int-indexed list
            # append, values are hashed once per *distinct* value
            code_list, dictionary = encoded
            values = dictionary.values
            by_code: dict[int, list[int]] = {}
            setdefault = by_code.setdefault
            for row, code in enumerate(code_list):
                setdefault(code, []).append(row)
            for code, rows in by_code.items():
                value = values[code]
                if value is None:
                    continue
                key = join_key(value)
                prior = index.get(key)
                if prior is None:
                    index[key] = rows
                else:
                    # distinct codes with one key (5 vs 5.0): merge
                    # back into row order, as a value-keyed build would
                    index[key] = sorted(prior + rows)
        else:
            setdefault = index.setdefault
            for row, value in enumerate(self.column(key_attr)):
                if value is None:
                    continue
                setdefault(join_key(value), []).append(row)
        self._indexes[memo_key] = index
        return index

    def row_values(self, row: int) -> dict[str, Value]:
        """The value dict of one row, in canonical attribute order."""
        return {attr: self.column(attr)[row] for attr in self.attrs}

    def __repr__(self) -> str:
        return (
            f"Batch({self.nrows} rows x {len(self.attrs)} cols: "
            f"{list(self.attrs)!r})"
        )


class ColumnarTable:
    """Columnar view of one stored relation of a query input instance.

    Columns are dictionary-encoded; the wrapped :class:`Batch` keeps
    the stored row tuples (``source``) so conversion back to the row
    world is a list copy, not a rebuild.
    """

    __slots__ = ("alias", "batch")

    def __init__(self, relation: RelationInstance, alias: str):
        self.alias = alias
        schema = relation.schema
        attrs = tuple(schema.qualified(a) for a in schema.attributes)
        source = list(relation)
        columns: dict[str, list] = {}
        codes: dict[str, tuple[list[int], Dictionary]] = {}
        for attr in attrs:
            raw = [t[attr] for t in source]
            dictionary = Dictionary()
            codes[attr] = (dictionary.encode_many(raw), dictionary)
            columns[attr] = raw
        self.batch = Batch(
            attrs,
            columns,
            [t.lineage for t in source],
            parents=None,
            source=source,
            codes=codes,
        )

    @property
    def nrows(self) -> int:
        return self.batch.nrows


#: LRU of columnar tables keyed by ``(instance.data_key, alias)``.
#: ``data_key`` already encodes identity + version, so a mutated
#: instance can never be served a stale table.
_TABLE_CACHE: OrderedDict[tuple, ColumnarTable] = OrderedDict()
_TABLE_CACHE_MAX = 128
_TABLE_CACHE_LOCK = threading.Lock()


def columnar_table(
    instance: DatabaseInstance, alias: str
) -> ColumnarTable:
    """The (cached) columnar view of ``instance | alias``.

    Raises :class:`~repro.errors.EvaluationError` with the row
    engine's exact message when the alias is unknown, so both engines
    fail identically.
    """
    key = (instance.data_key, alias)
    with _TABLE_CACHE_LOCK:
        table = _TABLE_CACHE.get(key)
        if table is not None:
            _TABLE_CACHE.move_to_end(key)
            return table
    try:
        relation = instance.relation(alias)
    except UnknownRelationError as exc:
        raise EvaluationError(
            f"query reads alias {alias!r} but the "
            "input instance has no such relation"
        ) from exc
    table = ColumnarTable(relation, alias)
    with _TABLE_CACHE_LOCK:
        _TABLE_CACHE[key] = table
        while len(_TABLE_CACHE) > _TABLE_CACHE_MAX:
            _TABLE_CACHE.popitem(last=False)
    return table


def clear_table_cache() -> None:
    """Drop all memoized columnar tables (test isolation hook)."""
    with _TABLE_CACHE_LOCK:
        _TABLE_CACHE.clear()
