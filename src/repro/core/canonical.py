"""Canonical query trees (Sec. 3.1, step 2b of the paper).

NedExplain fixes one canonical tree per query, chosen by two rationales:

1. *Favour selections over joins as answers*: selections are pushed
   down as far as the visibility frontier allows, so a too-strict
   filter is blamed before the join above it.
2. *Maximise the subqueries for which the aggregation condition can be
   checked*: joins are ordered so that the **breakpoint subquery** ``V``
   -- the smallest join subtree exposing all grouped and aggregated
   attributes without cross products -- sits as low as possible; all
   selections of an aggregate query are placed above ``V`` (exactly as
   the running example places ``sigma_{A.dob>800BC}`` above ``Q2``).

The **visibility frontier** is ``{V}`` plus every leaf outside ``V``
(for queries without aggregation it degenerates to all leaves).

Queries enter canonicalization as declarative :class:`SPJASpec` /
:class:`UnionSpec` objects (what a SQL parse produces); the output is a
:class:`CanonicalQuery` bundling the tree, the breakpoint, the frontier
and the ``m``-labels of its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..errors import QueryError
from ..relational.aggregates import AggregateCall
from ..relational.algebra import (
    Aggregate,
    Join,
    Project,
    Query,
    RelationLeaf,
    Select,
    Union,
    assign_labels,
)
from ..relational.conditions import Condition
from ..relational.renaming import Renaming
from ..relational.schema import DatabaseSchema
from ..relational.tuples import alias_of


@dataclass(frozen=True)
class JoinPair:
    """One equi-join pair ``left = right -> new`` (qualified attrs)."""

    left: str
    right: str
    new: str | None = None

    def new_name(self) -> str:
        from ..relational.tuples import unqualified_name

        return self.new if self.new is not None else unqualified_name(self.left)


@dataclass
class SPJASpec:
    """Declarative form of one SPJA block (one SQL SELECT).

    Parameters
    ----------
    aliases:
        Ordered mapping alias -> stored table name (``eta_Q``).
    joins:
        Equi-join pairs in the order they were written.
    selections:
        Selection conditions (attributes leaf-qualified, or named after
        a join's introduced attribute).
    projection:
        Output attributes, or ``None`` for "everything".
    group_by / aggregates:
        Aggregation block ``alpha_{G,F}``; both empty means no
        aggregation.
    """

    aliases: dict[str, str]
    joins: list[JoinPair] = field(default_factory=list)
    selections: list[Condition] = field(default_factory=list)
    projection: tuple[str, ...] | None = None
    group_by: tuple[str, ...] = ()
    aggregates: tuple[AggregateCall, ...] = ()

    @property
    def has_aggregation(self) -> bool:
        return bool(self.group_by or self.aggregates)


@dataclass
class UnionSpec:
    """A union of two canonicalizable blocks (Def. 2.2, item 4)."""

    left: "SPJASpec | UnionSpec"
    right: "SPJASpec | UnionSpec"
    renaming: Renaming = field(default_factory=Renaming)


QuerySpec = SPJASpec | UnionSpec


@dataclass
class CanonicalQuery:
    """A canonicalized query, ready for NedExplain.

    Attributes
    ----------
    root:
        The canonical query tree ``T``.
    breakpoints:
        The breakpoint subqueries ``V`` (one per SPJA block with
        aggregation; empty for pure SPJ queries, where every leaf is a
        breakpoint).
    frontier:
        The visibility frontier: breakpoints plus leaves outside them.
    labels:
        label -> node for all nodes (leaves keep their alias; internal
        nodes are ``m0..mk`` in TabQ order).
    aliases:
        alias -> stored table mapping over all leaves.
    """

    root: Query
    breakpoints: tuple[Query, ...]
    frontier: tuple[Query, ...]
    labels: dict[str, Query]
    aliases: dict[str, str]

    @property
    def breakpoint(self) -> Query | None:
        """The single breakpoint of a non-union aggregate query."""
        if len(self.breakpoints) == 1:
            return self.breakpoints[0]
        return None

    def node(self, label: str) -> Query:
        try:
            return self.labels[label]
        except KeyError:
            raise QueryError(f"no node labelled {label!r}") from None

    def label_of(self, node: Query) -> str:
        for label, candidate in self.labels.items():
            if candidate is node:
                return label
        raise QueryError("node does not belong to this canonical query")

    def aggregate_nodes(self) -> tuple[Aggregate, ...]:
        return tuple(
            n for n in self.root.postorder() if isinstance(n, Aggregate)
        )

    def pretty(self) -> str:
        """Tree rendering with breakpoints marked by a bullet."""
        marks = {id(v) for v in self.breakpoints}

        def walk(node: Query, indent: int) -> list[str]:
            pad = "  " * indent
            bullet = "* " if id(node) in marks else ""
            tag = f"{node.name}: " if node.name else ""
            lines = [f"{pad}{bullet}{tag}{node.describe()}"]
            for child in node.children:
                lines.extend(walk(child, indent + 1))
            return lines

        return "\n".join(walk(self.root, 0))


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------
def canonicalize(
    spec: QuerySpec, schema: DatabaseSchema, label_prefix: str = "m"
) -> CanonicalQuery:
    """Build the canonical tree for *spec* over *schema*."""
    root, breakpoints = _build(spec, schema)
    labels = assign_labels(root, prefix=label_prefix)
    frontier = _frontier(root, breakpoints)
    aliases = _collect_aliases(spec)
    return CanonicalQuery(
        root=root,
        breakpoints=tuple(breakpoints),
        frontier=frontier,
        labels=labels,
        aliases=aliases,
    )


def _collect_aliases(spec: QuerySpec) -> dict[str, str]:
    if isinstance(spec, SPJASpec):
        return dict(spec.aliases)
    out = _collect_aliases(spec.left)
    out.update(_collect_aliases(spec.right))
    return out


def _build(
    spec: QuerySpec, schema: DatabaseSchema
) -> tuple[Query, list[Query]]:
    if isinstance(spec, UnionSpec):
        left, left_bps = _build(spec.left, schema)
        right, right_bps = _build(spec.right, schema)
        return Union(left, right, spec.renaming), left_bps + right_bps
    return _build_spja(spec, schema)


class _TreeState:
    """Tracks the partially built join tree and attribute renamings."""

    def __init__(self) -> None:
        #: leaf-qualified attribute -> its current (possibly renamed)
        #: name at the top of the tree built so far
        self.current_name: dict[str, str] = {}

    def register_leaf(self, leaf: RelationLeaf) -> None:
        for attr in leaf.target_type:
            self.current_name[attr] = attr

    def apply_renaming(self, renaming: Renaming) -> None:
        for attr, name in list(self.current_name.items()):
            self.current_name[attr] = renaming.apply_to_attribute(name)

    def rewrite(self, attribute: str) -> str:
        """Map a leaf-qualified (or already-renamed) attr to its
        current name."""
        if attribute in self.current_name:
            return self.current_name[attribute]
        return attribute

    def rewrite_condition(self, condition: Condition) -> Condition:
        mapping = {
            attr: self.rewrite(attr) for attr in condition.attributes()
        }
        return condition.rename_attributes(mapping)


def _build_spja(
    spec: SPJASpec, schema: DatabaseSchema
) -> tuple[Query, list[Query]]:
    if not spec.aliases:
        raise QueryError("an SPJA block needs at least one relation")
    leaves = {
        alias: RelationLeaf(schema.relation(table).renamed(alias))
        for alias, table in spec.aliases.items()
    }

    needed_aliases = _needed_aliases(spec)
    order = _join_order(spec, needed_aliases)

    state = _TreeState()
    pending = list(spec.selections)
    placed: set[int] = set()

    def try_place_selections(node: Query, allow: bool) -> Query:
        """Attach every pending selection whose attributes are visible."""
        if not allow:
            return node
        for position, condition in enumerate(pending):
            if position in placed:
                continue
            rewritten = state.rewrite_condition(condition)
            if rewritten.attributes() <= node.target_type:
                node = Select(node, rewritten)
                placed.add(position)
        return node

    # For aggregate queries, selections may only sit above the
    # visibility frontier: above leaves outside V, or above V itself.
    aggregated = spec.has_aggregation

    current: Query | None = None
    used: list[str] = []
    breakpoint_node: Query | None = None
    consumed_pairs: set[int] = set()

    for alias in order:
        leaf: Query = leaves[alias]
        state.register_leaf(leaves[alias])
        if current is None:
            current = try_place_selections(leaf, allow=not aggregated)
            used.append(alias)
        else:
            pairs = [
                (position, pair)
                for position, pair in enumerate(spec.joins)
                if position not in consumed_pairs
                and _connects(pair, used, alias)
            ]
            triples = []
            for position, pair in pairs:
                consumed_pairs.add(position)
                left_attr, right_attr = _orient(pair, used, alias)
                triples.append(
                    (
                        state.rewrite(left_attr),
                        right_attr,
                        pair.new_name(),
                    )
                )
            renaming = Renaming.of(*triples)
            # Selections on the incoming leaf (outside V) may sit below
            # the join when the query has no aggregation, or when the
            # leaf is not part of V (IQ \ IV leaves are breakpoints).
            leaf_is_outside_v = breakpoint_node is not None
            right: Query = try_place_selections(
                leaf, allow=not aggregated or leaf_is_outside_v
            )
            current = Join(current, right, renaming)
            state.apply_renaming(renaming)
            used.append(alias)
            if breakpoint_node is None and needed_aliases <= set(used):
                if aggregated:
                    breakpoint_node = current
            current = try_place_selections(
                current,
                allow=not aggregated or breakpoint_node is not None,
            )

    assert current is not None
    # Residual join pairs over already-used aliases become selections.
    for position, pair in enumerate(spec.joins):
        if position in consumed_pairs:
            continue
        from ..relational.conditions import attr_attr_cmp

        condition = attr_attr_cmp(
            state.rewrite(pair.left), "=", state.rewrite(pair.right)
        )
        current = Select(current, condition)

    if aggregated and breakpoint_node is None:
        # single-relation aggregate query (or no qualified needed
        # attributes): the whole join-free tree is the breakpoint
        breakpoint_node = current
    current = try_place_selections(current, allow=True)
    unplaced = [
        pending[position]
        for position in range(len(pending))
        if position not in placed
    ]
    if unplaced:
        raise QueryError(
            f"could not place selections {unplaced!r}: attributes never "
            "become visible"
        )

    if aggregated:
        group = tuple(state.rewrite(a) for a in spec.group_by)
        calls = tuple(
            AggregateCall(c.function, state.rewrite(c.attribute), c.alias)
            for c in spec.aggregates
        )
        current = Aggregate(current, group, calls)

    if spec.projection is not None:
        attrs = tuple(state.rewrite(a) for a in spec.projection)
        if frozenset(attrs) != current.target_type:
            current = Project(current, attrs)

    breakpoints = [breakpoint_node] if breakpoint_node is not None else []
    return current, breakpoints


def _needed_aliases(spec: SPJASpec) -> set[str]:
    """Aliases of ``G union {A1..An}`` (what V must cover)."""
    if not spec.has_aggregation:
        return set()
    needed: set[str] = set()
    attrs = list(spec.group_by) + [c.attribute for c in spec.aggregates]
    for attr in attrs:
        alias = alias_of(attr)
        if alias is not None and alias in spec.aliases:
            needed.add(alias)
        else:
            # attribute introduced by a join: both origins are needed
            for pair in spec.joins:
                if pair.new_name() == attr:
                    for origin in (pair.left, pair.right):
                        origin_alias = alias_of(origin)
                        if origin_alias is not None:
                            needed.add(origin_alias)
    return needed


def _join_graph(spec: SPJASpec) -> dict[str, set[str]]:
    graph: dict[str, set[str]] = {alias: set() for alias in spec.aliases}
    for pair in spec.joins:
        a, b = alias_of(pair.left), alias_of(pair.right)
        if a is None or b is None:
            raise QueryError(
                f"join pair {pair!r} must use qualified attributes"
            )
        if a not in graph or b not in graph:
            raise QueryError(
                f"join pair {pair!r} references unknown aliases"
            )
        graph[a].add(b)
        graph[b].add(a)
    return graph


def _join_order(spec: SPJASpec, needed: set[str]) -> list[str]:
    """Left-deep join order realizing a minimal breakpoint subtree.

    Without aggregation the order follows the query as written.  With
    aggregation, we grow the tree from a needed alias, at each step
    preferring the connected alias that lies on a shortest path to a
    still-uncovered needed alias -- this keeps ``V`` (the point where
    all needed aliases are covered) as small as possible.  Cross
    products are appended last, only for disconnected aliases.
    """
    all_aliases = list(spec.aliases)
    if len(all_aliases) == 1:
        return all_aliases
    graph = _join_graph(spec)

    if not needed:
        # follow the query as written, but only ever add an alias that
        # is connected to the tree built so far (deferring join pairs
        # whose endpoints are both still missing)
        first = alias_of(spec.joins[0].left) if spec.joins else all_aliases[0]
        order = [first]  # type: ignore[list-item]
        covered = set(order)
        while len(order) < len(all_aliases):
            next_alias = None
            for pair in spec.joins:
                a, b = alias_of(pair.left), alias_of(pair.right)
                if a in covered and b not in covered:
                    next_alias = b
                    break
                if b in covered and a not in covered:
                    next_alias = a
                    break
            if next_alias is None:
                next_alias = next(
                    alias for alias in all_aliases if alias not in covered
                )
            order.append(next_alias)
            covered.add(next_alias)
        return order

    start = next(a for a in all_aliases if a in needed)
    order = [start]
    covered = {start}
    remaining_needed = set(needed) - covered
    while len(order) < len(all_aliases):
        candidates = [
            a
            for a in all_aliases
            if a not in covered
            and any(n in covered for n in graph[a])
        ]
        if not candidates:
            # disconnected: cross products, spec order
            candidates = [a for a in all_aliases if a not in covered]
            order.append(candidates[0])
            covered.add(candidates[0])
            remaining_needed.discard(candidates[0])
            continue
        if remaining_needed:
            best = min(
                candidates,
                key=lambda a: (
                    _distance_to_any(graph, a, remaining_needed),
                    all_aliases.index(a),
                ),
            )
        else:
            best = min(candidates, key=all_aliases.index)
        order.append(best)
        covered.add(best)
        remaining_needed.discard(best)
    return order


def _distance_to_any(
    graph: Mapping[str, set[str]], start: str, targets: set[str]
) -> int:
    if start in targets:
        return 0
    seen = {start}
    frontier = [start]
    distance = 0
    while frontier:
        distance += 1
        nxt: list[str] = []
        for node in frontier:
            for neighbour in graph[node]:
                if neighbour in targets:
                    return distance
                if neighbour not in seen:
                    seen.add(neighbour)
                    nxt.append(neighbour)
        frontier = nxt
    return 10**6  # unreachable: effectively infinite


def _connects(pair: JoinPair, used: Sequence[str], incoming: str) -> bool:
    a, b = alias_of(pair.left), alias_of(pair.right)
    return (a in used and b == incoming) or (b in used and a == incoming)


def _orient(
    pair: JoinPair, used: Sequence[str], incoming: str
) -> tuple[str, str]:
    """Return (attr-on-built-tree, attr-on-incoming-leaf)."""
    if alias_of(pair.left) in used:
        return pair.left, pair.right
    return pair.right, pair.left


def _frontier(
    root: Query, breakpoints: Iterable[Query]
) -> tuple[Query, ...]:
    breakpoints = list(breakpoints)
    if not breakpoints:
        return tuple(root.leaves())
    under: set[int] = set()
    for bp in breakpoints:
        for node in bp.postorder():
            under.add(id(node))
    outside_leaves = [
        leaf for leaf in root.leaves() if id(leaf) not in under
    ]
    return tuple(breakpoints) + tuple(outside_leaves)


def canonical_from_tree(
    root: Query,
    aliases: Mapping[str, str] | None = None,
    label_prefix: str = "m",
) -> CanonicalQuery:
    """Wrap a hand-built algebra tree as a :class:`CanonicalQuery`.

    For trees constructed directly from :mod:`repro.relational.algebra`
    nodes (extensions such as :class:`~repro.relational.algebra.Difference`
    queries, or deliberately non-canonical variants for ablations).
    Breakpoints are recovered per aggregation node as the smallest
    subquery exposing its grouped and aggregated attributes; no
    selection re-placement is performed -- the tree is taken as is.
    """
    from ..relational.algebra import (
        Aggregate,
        validate_tree,
    )

    validate_tree(root)
    labels = assign_labels(root, prefix=label_prefix)
    breakpoints: list[Query] = []
    for node in root.postorder():
        if isinstance(node, Aggregate):
            covering = _covering_by_aliases(node.child, node)
            if covering is not None:
                breakpoints.append(covering)
    if aliases is None:
        aliases = {leaf.alias: leaf.alias for leaf in root.leaves()}
    return CanonicalQuery(
        root=root,
        breakpoints=tuple(breakpoints),
        frontier=_frontier(root, breakpoints),
        labels=labels,
        aliases=dict(aliases),
    )


def _covering_by_aliases(subtree: Query, aggregate) -> Query | None:
    """Smallest node of *subtree* whose aliases cover the aggregate's
    needed attributes (renaming-insensitive coverage)."""
    needed_aliases = {
        alias_of(attr)
        for attr in aggregate.needed_attributes
        if alias_of(attr) is not None
    }
    best: Query | None = None
    if not needed_aliases <= set(subtree.input_aliases):
        return subtree
    best = subtree
    changed = True
    while changed:
        changed = False
        for child in best.children:
            if needed_aliases <= set(child.input_aliases):
                best = child
                changed = True
                break
    return best


def is_at_or_above_breakpoint(
    node: Query, canonical: CanonicalQuery
) -> bool:
    """True when *node* contains some breakpoint ``V`` (V subquery of m).

    Nodes strictly *inside* V (and leaves outside it) are "below" the
    frontier; the aggregation-condition check of Alg. 3 applies only at
    or above it.
    """
    return any(bp.is_subquery_of(node) for bp in canonical.breakpoints)
