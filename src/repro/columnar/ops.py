"""Batch-at-a-time operators for the full query algebra.

Each operator consumes child :class:`~repro.columnar.table.Batch`\\ es
and produces one output batch, processing rows in chunks of
:data:`BATCH_ROWS`.  Per chunk it emits one ``operator`` span (tagged
``batch_index`` / ``batch_size`` on top of the row engine's tags) and
charges the ambient execution budget, such that the *totals* -- rows
produced, comparisons charged -- are exactly those of the row engine's
per-tuple loops.  The gate's deterministic work counters therefore
stay byte-identical across engines; only the granularity at which a
budget can interrupt an operator moves from per-row to per-batch.

Semantic contracts mirrored from ``repro.relational.algebra`` exactly:

* output attribute order follows the row engine's value-dict
  construction order (including its last-wins behaviour under a
  collapsing renaming);
* no duplicate elimination: no two outputs of a node share a lineage,
  so every derivation is emitted as it is found;
* join and difference keys match only values that compare ``=``
  (:func:`~repro.relational.conditions.join_key`);
* NULL never joins, NULL-keyed probe rows are skipped without a
  comparison tick, and the left value wins on a shared join attribute;
* aggregation over an empty ungrouped input yields one row.
"""

from __future__ import annotations

from operator import or_ as _union_sets
from typing import Iterator, Sequence

from ..errors import EvaluationError
from ..relational.aggregates import _IMPLEMENTATIONS
from ..relational.algebra import (
    Aggregate,
    Difference,
    Join,
    Project,
    Query,
    RelationLeaf,
    Select,
    Union,
    query_fingerprint,
)
from ..relational.conditions import (
    And,
    Attr,
    Comparison,
    Condition,
    Const,
    FalseCondition,
    Or,
    TrueCondition,
    compare_values,
    join_key,
)
from .table import Batch, Bitmap, Dictionary, Gather

#: Rows per processing chunk (one span + one budget tick per chunk).
BATCH_ROWS = 1024


def iter_chunks(
    n: int, size: int = BATCH_ROWS
) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` chunk bounds; one empty chunk for n=0.

    The empty chunk keeps span/tick parity with the row engine, which
    emits one operator span and one ``tick_rows(0)`` even for an empty
    node.
    """
    if n <= 0:
        yield (0, 0)
        return
    for start in range(0, n, size):
        yield (start, min(start + size, n))


class NodeObserver:
    """Per-node span/budget emitter shared by all operators.

    Wraps the ambient tracer and execution context so operator code
    stays free of None checks, and tags every chunk span with the
    row-engine tags (``op``, ``fingerprint``, ``postorder``) plus the
    batch tags (``eval``, ``batch_index``, ``batch_size``, ``phase``).
    """

    __slots__ = (
        "tracer",
        "context",
        "node",
        "postorder",
        "serial",
        "fingerprint",
        "batches",
    )

    def __init__(self, tracer, context, node: Query, postorder: int, serial: int):
        self.tracer = tracer
        self.context = context
        self.node = node
        self.postorder = postorder
        self.serial = serial
        self.fingerprint = (
            query_fingerprint(node)[:12] if tracer is not None else ""
        )
        self.batches = 0

    def start_chunk(self, rows_in: int, phase: str):
        self.batches += 1
        if self.tracer is None:
            return None
        return self.tracer.start_span(
            self.node.name or self.node.op,
            category="operator",
            op=self.node.op,
            fingerprint=self.fingerprint,
            postorder=self.postorder,
            eval=self.serial,
            batch_index=self.batches - 1,
            batch_size=rows_in,
            phase=phase,
        )

    def end_chunk(self, span, rows_in: int, rows_out: int) -> None:
        if span is not None:
            span.set_tag("rows_in", rows_in)
            span.set_tag("rows_out", rows_out)
            self.tracer.end_span(span)

    def abort_chunk(self, span) -> None:
        """Close a chunk span on an exception path (no rows_out tag)."""
        if span is not None:
            self.tracer.end_span(span)

    def tick_comparisons(self, n: int) -> None:
        if n and self.context is not None:
            self.context.tick_comparisons(n)

    def tick_rows(self, n: int) -> None:
        if self.context is not None:
            self.context.tick_rows(n)


# ---------------------------------------------------------------------------
# Selection vectors
# ---------------------------------------------------------------------------
def _equality_bools(column: Sequence, constant) -> list[bool]:
    """Vectorized ``compare_values(v, '=', constant)`` over a column."""
    if constant is None:
        return [False] * len(column)
    if isinstance(constant, bool):
        return [isinstance(v, bool) and v == constant for v in column]
    if isinstance(constant, (int, float)):
        return [
            isinstance(v, (int, float))
            and not isinstance(v, bool)
            and v == constant
            for v in column
        ]
    kind = type(constant)
    return [type(v) is kind and v == constant for v in column]


def _comparison_bitmap(cond: Comparison, batch: Batch) -> Bitmap:
    n = batch.nrows
    left, op, right = cond.left, cond.op, cond.right
    if isinstance(left, Const) and isinstance(right, Const):
        verdict = compare_values(left.value, op, right.value)
        return Bitmap.ones(n) if verdict else Bitmap.zeros(n)
    if isinstance(left, Attr) and isinstance(right, Attr):
        col_l = batch.column(left.name)
        col_r = batch.column(right.name)
        return Bitmap.from_bools(
            [compare_values(col_l[i], op, col_r[i]) for i in range(n)]
        )
    # one attribute, one constant (either orientation)
    if isinstance(left, Attr):
        attr, constant, attr_on_left = left.name, right.value, True
    else:
        attr, constant, attr_on_left = right.name, left.value, False
    encoded = batch.encoded(attr)
    if encoded is not None:
        # dictionary-encoded column: decide once per distinct value
        codes, dictionary = encoded
        if attr_on_left:
            by_code = [
                compare_values(v, op, constant) for v in dictionary.values
            ]
        else:
            by_code = [
                compare_values(constant, op, v) for v in dictionary.values
            ]
        return Bitmap.from_bools([by_code[c] for c in codes])
    column = batch.column(attr)
    if op == "=":
        # symmetric, so orientation does not matter
        return Bitmap.from_bools(_equality_bools(column, constant))
    if attr_on_left:
        bools = [compare_values(v, op, constant) for v in column]
    else:
        bools = [compare_values(constant, op, v) for v in column]
    return Bitmap.from_bools(bools)


def condition_bitmap(cond: Condition, batch: Batch) -> Bitmap:
    """Evaluate a selection condition into a :class:`Bitmap`."""
    n = batch.nrows
    if isinstance(cond, TrueCondition):
        return Bitmap.ones(n)
    if isinstance(cond, FalseCondition):
        return Bitmap.zeros(n)
    if isinstance(cond, And):
        mask = Bitmap.ones(n)
        for part in cond.parts:
            mask = mask & condition_bitmap(part, batch)
        return mask
    if isinstance(cond, Or):
        mask = Bitmap.zeros(n)
        for part in cond.parts:
            mask = mask | condition_bitmap(part, batch)
        return mask
    if isinstance(cond, Comparison):
        return _comparison_bitmap(cond, batch)
    raise EvaluationError(
        f"cannot evaluate condition {cond!r} columnar"
    )


# ---------------------------------------------------------------------------
# Renaming layouts
# ---------------------------------------------------------------------------
def _rename_layout(
    attrs: Sequence[str], mapping: dict[str, str]
) -> tuple[tuple[str, ...], dict[str, str]]:
    """Output attribute order + source attr per output attr.

    Mirrors the row engine's ``{mapping.get(a, a): value}`` dict
    comprehension exactly: first occurrence fixes the position, the
    last occurrence fixes the source (relevant only under a collapsing
    renaming).
    """
    order: list[str] = []
    source: dict[str, str] = {}
    for attr in attrs:
        new = mapping.get(attr, attr)
        if new not in source:
            order.append(new)
        source[new] = attr
    return tuple(order), source


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------
def apply_leaf(
    node: RelationLeaf, batch: Batch, obs: NodeObserver
) -> Batch:
    """Scan: the stored relation *is* the output."""
    for start, stop in iter_chunks(batch.nrows):
        span = obs.start_chunk(stop - start, "scan")
        try:
            obs.end_chunk(span, stop - start, stop - start)
        except BaseException:
            obs.abort_chunk(span)
            raise
        obs.tick_rows(stop - start)
    return batch


#: cap on per-leaf memoized selection artifacts (distinct predicates)
_SELECT_MEMO_MAX = 64


def apply_select(
    node: Select, child: Batch, obs: NodeObserver
) -> Batch:
    n = child.nrows
    # A selection over a table-cached leaf is fully determined by
    # (stored data, node fingerprint): decide the predicate once per
    # cache entry and replay only the spans/ticks on later
    # evaluations.  The shared output batch then also keeps its own
    # memoized join indexes across evaluations.
    memo_key = None
    memo = None
    if child.source is not None:
        memo_key = ("select", query_fingerprint(node))
        memo = child._indexes.get(memo_key)
    if memo is not None:
        chunk_counts, out = memo
    else:
        bitmap = condition_bitmap(node.condition, child)
        kept: list[int] = []
        chunk_counts = []
        for start, stop in iter_chunks(n):
            chunk_counts.append(len(bitmap.indexes_in(start, stop)))
        kept = list(bitmap.indexes())
        out = Batch(
            child.attrs,
            {attr: Gather(child, attr, kept) for attr in child.attrs},
            [child.lineage[i] for i in kept],
            parents=("rows", kept),
            codes={
                attr: (
                    Gather(child, attr, kept, codes=True),
                    dictionary,
                )
                for attr, (_, dictionary) in child.codes.items()
            },
        )
        if memo_key is not None and len(child._indexes) < _SELECT_MEMO_MAX:
            child._indexes[memo_key] = (chunk_counts, out)
    for (start, stop), produced in zip(iter_chunks(n), chunk_counts):
        span = obs.start_chunk(stop - start, "filter")
        try:
            obs.tick_comparisons(stop - start)
            obs.end_chunk(span, stop - start, produced)
        except BaseException:
            obs.abort_chunk(span)
            raise
        obs.tick_rows(produced)
    return out


def apply_project(
    node: Project, child: Batch, obs: NodeObserver
) -> Batch:
    attrs = node.attributes
    n = child.nrows
    for start, stop in iter_chunks(n):
        span = obs.start_chunk(stop - start, "project")
        try:
            obs.end_chunk(span, stop - start, stop - start)
        except BaseException:
            obs.abort_chunk(span)
            raise
        obs.tick_rows(stop - start)
    # identity gathers: the output shares the child's columns
    return Batch(
        attrs,
        {attr: Gather(child, attr, None) for attr in attrs},
        child.lineage,
        parents=("rows", range(n)),
        codes={
            attr: (Gather(child, attr, None, codes=True), dictionary)
            for attr, (_, dictionary) in child.codes.items()
            if attr in attrs
        },
    )


def _join_layout(
    node: Join, left: Batch, right: Batch
) -> tuple[tuple[str, ...], list[tuple[str, str]]]:
    """Output attrs + per-attr ``(side, source attr)`` for a join.

    Mirrors the row engine: left attributes first (last-wins within
    the left under a collapsing renaming), then right attributes whose
    renamed name is not already taken (the shared join attribute keeps
    the left value).
    """
    left_map = node.renaming.left_mapping(node.left.target_type)
    right_map = node.renaming.right_mapping(node.right.target_type)
    left_order, left_src = _rename_layout(left.attrs, left_map)
    order = list(left_order)
    sources: dict[str, tuple[str, str]] = {
        attr: ("l", src) for attr, src in left_src.items()
    }
    for attr in right.attrs:
        new = right_map.get(attr, attr)
        if new in left_src:
            continue  # shared join attribute, equal value
        if new not in sources:
            order.append(new)
        sources[new] = ("r", attr)
    return tuple(order), [sources[a] for a in order]


def apply_join(
    node: Join, left: Batch, right: Batch, obs: NodeObserver
) -> Batch:
    left_keys = tuple(t.left for t in node.renaming)
    right_keys = tuple(t.right for t in node.renaming)
    out_attrs, layout = _join_layout(node, left, right)

    # Build phase: the hash index over the right input.  Memoized on
    # the right batch (built once per cache entry for stored
    # relations); the row engine's per-build comparison ticks are
    # charged either way so the work counters stay engine-independent.
    for start, stop in iter_chunks(right.nrows):
        span = obs.start_chunk(stop - start, "build")
        try:
            obs.tick_comparisons(stop - start)
            obs.end_chunk(span, stop - start, 0)
        except BaseException:
            obs.abort_chunk(span)
            raise

    probe = _probe_plan(left, right, left_keys, right_keys)
    left_lineage, right_lineage = left.lineage, right.lineage
    li_kept: list[int] = []
    ri_kept: list[int] = []
    out_lineage: list[frozenset] = []

    for start, stop in iter_chunks(left.nrows):
        span = obs.start_chunk(stop - start, "probe")
        try:
            li_list, ri_list, comparisons = probe(start, stop)
            obs.tick_comparisons(comparisons)
            produced = len(li_list)
            out_lineage.extend(
                map(
                    _union_sets,
                    map(left_lineage.__getitem__, li_list),
                    map(right_lineage.__getitem__, ri_list),
                )
            )
            li_kept.extend(li_list)
            ri_kept.extend(ri_list)
            obs.end_chunk(span, stop - start, produced)
        except BaseException:
            obs.abort_chunk(span)
            raise
        obs.tick_rows(produced)
    columns = {}
    codes = {}
    for attr, (side, src) in zip(out_attrs, layout):
        source, taken = (
            (left, li_kept) if side == "l" else (right, ri_kept)
        )
        columns[attr] = Gather(source, src, taken)
        entry = source.codes.get(src)
        if entry is not None:
            # keep dictionary encodings flowing through the join so
            # upstream predicates and probes stay code-driven
            codes[attr] = (
                Gather(source, src, taken, codes=True),
                entry[1],
            )
    return Batch(
        out_attrs,
        columns,
        out_lineage,
        parents=("pairs", list(zip(li_kept, ri_kept))),
        codes=codes,
    )


def _probe_plan(
    left: Batch,
    right: Batch,
    left_keys: tuple[str, ...],
    right_keys: tuple[str, ...],
):
    """Compile the fastest probe for this key shape.

    Returns ``probe(start, stop) -> (li_list, ri_list, comparisons)``
    over the left batch.  Semantics are the row engine's exactly: a
    NULL-keyed probe row is skipped without a comparison tick, a miss
    ticks 1, a hit ticks ``1 + len(matches)``.  Three strategies, best
    first:

    * **dictionary-driven** (single key, left column has codes): the
      index lookup and NULL check are decided once per *distinct* key
      value, the per-row work is one code-array load;
    * **scalar** (single key, no codes): probe with the value's join key
      against a scalar index -- no one-tuple allocation per row;
    * **tuple** (compound or empty key): the general path, identical
      to the row engine's key construction.
    """
    if len(left_keys) == 1:
        index = right.scalar_join_index(right_keys[0])
        encoded = left.encoded(left_keys[0])
        if encoded is not None:
            codes, dictionary = encoded
            # None sentinel = NULL skip; () = miss (ticks 1, no rows)
            by_code = [
                None if value is None else index.get(join_key(value), ())
                for value in dictionary.values
            ]

            def probe_codes(start: int, stop: int):
                li_list: list[int] = []
                ri_list: list[int] = []
                li_append, ri_append = li_list.append, ri_list.append
                comparisons = 0
                for li in range(start, stop):
                    matches = by_code[codes[li]]
                    if matches is None:
                        continue
                    n = len(matches)
                    comparisons += 1 + n
                    if n == 1:
                        li_append(li)
                        ri_append(matches[0])
                    elif n:
                        li_list.extend([li] * n)
                        ri_list.extend(matches)
                return li_list, ri_list, comparisons

            return probe_codes
        column = left.column(left_keys[0])

        def probe_scalar(start: int, stop: int):
            li_list: list[int] = []
            ri_list: list[int] = []
            li_append, ri_append = li_list.append, ri_list.append
            comparisons = 0
            get = index.get
            for li in range(start, stop):
                value = column[li]
                if value is None:
                    continue  # SQL: NULL never joins (no probe tick)
                matches = get(join_key(value))
                if matches is None:
                    comparisons += 1
                    continue
                n = len(matches)
                comparisons += 1 + n
                if n == 1:
                    li_append(li)
                    ri_append(matches[0])
                else:
                    li_list.extend([li] * n)
                    ri_list.extend(matches)
            return li_list, ri_list, comparisons

        return probe_scalar

    index = right.join_index(right_keys)
    left_key_cols = [left.column(a) for a in left_keys]

    def probe_tuple(start: int, stop: int):
        li_list: list[int] = []
        ri_list: list[int] = []
        comparisons = 0
        get = index.get
        for li in range(start, stop):
            key = tuple(col[li] for col in left_key_cols)
            if None in key:
                continue  # SQL: NULL never joins (no probe tick)
            matches = get(tuple(map(join_key, key)))
            if matches is None:
                comparisons += 1
                continue
            comparisons += 1 + len(matches)
            li_list.extend([li] * len(matches))
            ri_list.extend(matches)
        return li_list, ri_list, comparisons

    return probe_tuple


def _branch_layout(
    node: "Union | Difference", left: Batch, right: Batch
) -> tuple[tuple[str, ...], list, list]:
    """Shared union/difference layout: canonical attrs (the left
    branch's renamed order) plus both branches' source columns
    permuted into that order."""
    left_map = node.renaming.left_mapping(node.left.target_type)
    right_map = node.renaming.right_mapping(node.right.target_type)
    out_attrs, left_src = _rename_layout(left.attrs, left_map)
    _, right_src = _rename_layout(right.attrs, right_map)
    left_cols = [left.column(left_src[a]) for a in out_attrs]
    right_cols = [right.column(right_src[a]) for a in out_attrs]
    return out_attrs, left_cols, right_cols


def apply_union(
    node: Union, left: Batch, right: Batch, obs: NodeObserver
) -> Batch:
    out_attrs, left_cols, right_cols = _branch_layout(node, left, right)
    out_columns: list[list] = [[] for _ in out_attrs]
    out_lineage: list[frozenset] = []
    tagged: list[tuple[int, int]] = []

    for slot, (cols, batch) in enumerate(
        ((left_cols, left), (right_cols, right))
    ):
        for start, stop in iter_chunks(batch.nrows):
            span = obs.start_chunk(stop - start, "union")
            try:
                obs.tick_comparisons(stop - start)
                for acc, col in zip(out_columns, cols):
                    acc.extend(col[start:stop])
                out_lineage.extend(batch.lineage[start:stop])
                tagged.extend((slot, i) for i in range(start, stop))
                obs.end_chunk(span, stop - start, stop - start)
            except BaseException:
                obs.abort_chunk(span)
                raise
            obs.tick_rows(stop - start)
    return Batch(
        out_attrs,
        dict(zip(out_attrs, out_columns)),
        out_lineage,
        parents=("tagged", tagged),
    )


def apply_difference(
    node: Difference, left: Batch, right: Batch, obs: NodeObserver
) -> Batch:
    out_attrs, left_cols, right_cols = _branch_layout(node, left, right)

    blocked: set[tuple] = set()
    right_rows = list(zip(*right_cols)) if right.nrows else []
    for start, stop in iter_chunks(right.nrows):
        span = obs.start_chunk(stop - start, "block")
        try:
            obs.tick_comparisons(stop - start)
            blocked.update(
                tuple(map(join_key, row)) for row in right_rows[start:stop]
            )
            obs.end_chunk(span, stop - start, 0)
        except BaseException:
            obs.abort_chunk(span)
            raise

    left_rows = list(zip(*left_cols)) if left.nrows else []
    lineage = left.lineage
    out_columns: list[list] = [[] for _ in out_attrs]
    out_lineage: list[frozenset] = []
    kept: list[int] = []
    for start, stop in iter_chunks(left.nrows):
        span = obs.start_chunk(stop - start, "filter")
        try:
            obs.tick_comparisons(stop - start)
            produced = 0
            for i in range(start, stop):
                if tuple(map(join_key, left_rows[i])) in blocked:
                    continue
                for acc, col in zip(out_columns, left_cols):
                    acc.append(col[i])
                out_lineage.append(lineage[i])
                kept.append(i)
                produced += 1
            obs.end_chunk(span, stop - start, produced)
        except BaseException:
            obs.abort_chunk(span)
            raise
        obs.tick_rows(produced)
    return Batch(
        out_attrs,
        dict(zip(out_attrs, out_columns)),
        out_lineage,
        parents=("rows", kept),
    )


def apply_aggregate(
    node: Aggregate, child: Batch, obs: NodeObserver
) -> Batch:
    group_by = node.group_by
    key_cols = [child.column(a) for a in group_by]
    n = child.nrows

    groups: dict[tuple, int] = {}
    order: list[tuple] = []
    members: list[list[int]] = []
    for start, stop in iter_chunks(n):
        span = obs.start_chunk(stop - start, "group")
        try:
            obs.tick_comparisons(stop - start)
            for i in range(start, stop):
                key = tuple(join_key(col[i]) for col in key_cols)
                slot = groups.get(key)
                if slot is None:
                    slot = len(order)
                    groups[key] = slot
                    order.append(key)
                    members.append([])
                members[slot].append(i)
            obs.end_chunk(span, stop - start, 0)
        except BaseException:
            obs.abort_chunk(span)
            raise
    if not group_by and not order:
        # SQL: ungrouped aggregation over the empty input still yields
        # one row (count = 0, other aggregates NULL)
        groups[()] = 0
        order.append(())
        members.append([])

    out_attrs = tuple(group_by) + tuple(c.alias for c in node.calls)
    # a group's output values are its first member's raw values
    columns: dict[str, list] = {
        attr: [col[group[0]] for group in members]
        for attr, col in zip(group_by, key_cols)
    }
    lineage = child.lineage
    for call in node.calls:
        source = child.column(call.attribute)
        impl = _IMPLEMENTATIONS[call.function]
        columns[call.alias] = [
            impl([source[i] for i in group]) for group in members
        ]
    out_lineage: list[frozenset] = []
    for group in members:
        merged: set[str] = set()
        for i in group:
            merged |= lineage[i]
        out_lineage.append(frozenset(merged))

    total = len(order)
    emitted = 0
    for start, stop in iter_chunks(total):
        span = obs.start_chunk(0, "emit")
        try:
            obs.end_chunk(span, 0, stop - start)
        except BaseException:
            obs.abort_chunk(span)
            raise
        obs.tick_rows(stop - start)
        emitted += stop - start
    assert emitted == total
    return Batch(
        out_attrs,
        columns,
        out_lineage,
        parents=("groups", members),
    )
