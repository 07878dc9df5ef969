"""The primary global structure ``TabQ`` (Sec. 3.1, step 2c).

``TabQ`` stores, per subquery ``m`` of the canonical tree:

* ``Input``  -- the input tuple set (outputs of the direct children;
  the stored relation for leaves);
* ``Output`` -- the output tuple set, filled during the bottom-up pass;
* ``Compatibles`` -- compatible tuples in the input: the direct
  compatible tuples at leaves, their valid successors upstream;
* ``Level``  -- the depth of ``m`` (root = 0);
* ``Parent`` -- the parent subquery;
* ``Op``     -- the root operator of ``m`` (``"relation schema"`` for
  leaves).

Entries are ordered by decreasing level, left-to-right within a level
-- the processing order of Alg. 1.  The secondary global structures
(EmptyOutputMan, Non-PickyMan, PickyMan) live here too.

What depends on the canonical tree alone -- the order, each entry's
level and parent, and the aggregation each node's Def. 2.12 check
reads -- is a :class:`TabQPlan`, computed once per engine.  ``Input``
and ``Output`` are read-only views of the cached evaluation (or of the
instance, at leaves), never copies: ``Output`` is the cached list
itself, and ``Input`` is concatenated from the per-child lists only
when it is read.  Only ``Compatibles`` and ``blocked`` are the
question's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from ..errors import EvaluationError
from ..relational.algebra import Aggregate, Query, RelationLeaf, tabq_order
from ..relational.instance import DatabaseInstance
from ..relational.tuples import Tuple
from .compatibility import CompatibilitySets

if TYPE_CHECKING:
    from .canonical import CanonicalQuery


@dataclass(frozen=True, eq=False)
class TabQPlan:
    """The columns of ``TabQ`` fixed by the canonical tree.

    Built once per engine (:meth:`build`) and shared, read-only, by
    every question and worker thread.
    """

    root: Query
    #: subqueries in TabQ order (decreasing level, left to right)
    nodes: tuple[Query, ...]
    #: level of each node, by position
    levels: tuple[int, ...]
    #: position of each node's parent (``None`` for the root)
    parents: tuple[int | None, ...]
    #: id(node) -> the aggregation whose Def. 2.12 condition is checked
    #: at that node (nodes strictly above its breakpoint V, in its
    #: union branch); nodes without one are absent
    aggregates: Mapping[int, Aggregate]

    @classmethod
    def build(cls, canonical: CanonicalQuery) -> "TabQPlan":
        root = canonical.root
        levels: dict[int, int] = {}
        parents: dict[int, Query] = {}

        def walk(node: Query, level: int) -> None:
            levels[id(node)] = level
            for child in node.children:
                parents[id(child)] = node
                walk(child, level + 1)

        walk(root, 0)
        nodes = tuple(tabq_order(root))
        position = {id(node): i for i, node in enumerate(nodes)}
        parent_positions = tuple(
            position[id(parents[id(n)])] if id(n) in parents else None
            for n in nodes
        )
        breakpoints = [
            (aggregate, _breakpoint_of(canonical, aggregate))
            for aggregate in canonical.aggregate_nodes()
        ]
        aggregates = {}
        for node in nodes:
            aggregate = _relevant_aggregate(node, breakpoints)
            if aggregate is not None:
                aggregates[id(node)] = aggregate
        return cls(
            root=root,
            nodes=nodes,
            levels=tuple(levels[id(n)] for n in nodes),
            parents=parent_positions,
            aggregates=aggregates,
        )


def _breakpoint_of(
    canonical: CanonicalQuery, aggregate: Aggregate
) -> Query | None:
    for candidate in canonical.breakpoints:
        if candidate.is_subquery_of(aggregate):
            return candidate
    return None


def _relevant_aggregate(
    node: Query, breakpoints: list[tuple[Aggregate, Query | None]]
) -> Aggregate | None:
    """The aggregation whose breakpoint V is a *proper* subquery of
    *node*, if the two belong to the same union branch."""
    for aggregate, breakpoint in breakpoints:
        if breakpoint is None or breakpoint is node:
            continue
        if not breakpoint.is_subquery_of(node):
            continue
        if node.is_subquery_of(aggregate) or aggregate.is_subquery_of(node):
            return aggregate
    return None


@dataclass
class TabEntry:
    """One row of ``TabQ`` (cf. Table 1 of the paper)."""

    node: Query
    level: int
    parent: "TabEntry | None" = None
    #: the input, one tuple sequence per child (the stored relation at
    #: a leaf); read-only views, see :attr:`input`
    inputs: Sequence[Sequence[Tuple]] = ()
    #: the output: at a shared evaluation, the cached list itself
    output: Sequence[Tuple] | None = None
    compatibles: list[Tuple] = field(default_factory=list)
    #: compatible inputs without valid successor (filled by Alg. 3)
    blocked: tuple[Tuple, ...] = ()

    @property
    def input(self) -> list[Tuple]:
        """``m.Input``: the children's outputs concatenated (the stored
        relation at a leaf), built on each read."""
        return [t for part in self.inputs for t in part]

    @property
    def op(self) -> str:
        return self.node.op

    @property
    def label(self) -> str:
        return self.node.name or self.node.describe()

    @property
    def is_leaf(self) -> bool:
        return isinstance(self.node, RelationLeaf)

    def add_compatibles(self, tuples: Iterable[Tuple]) -> None:
        """Append the *tuples* not compatible yet, in order."""
        self.compatibles[:] = dict.fromkeys([*self.compatibles, *tuples])

    def __repr__(self) -> str:
        size = "?" if self.output is None else len(self.output)
        return (
            f"TabEntry({self.label}, level={self.level}, "
            f"in={len(self.input)}, out={size}, "
            f"compat={len(self.compatibles)})"
        )


class TabQ:
    """The ordered table of subqueries plus the secondary structures."""

    def __init__(
        self,
        plan: TabQPlan,
        instance: DatabaseInstance,
        compat: CompatibilitySets,
    ):
        self.plan = plan
        self.root = plan.root
        self._entries = [
            TabEntry(node=node, level=level)
            for node, level in zip(plan.nodes, plan.levels)
        ]
        self._by_node = {id(e.node): e for e in self._entries}
        for entry, parent in zip(self._entries, plan.parents):
            if parent is not None:
                entry.parent = self._entries[parent]

        # Initialization (Sec. 3.1, 2c): leaves get their stored
        # relation as input and Dir|Ri as compatibles (distinct tuples
        # of I_Q, so no duplicate check is needed).
        for entry in self._entries:
            if entry.is_leaf:
                alias = entry.node.alias
                entry.inputs = (instance.relation(alias),)
                entry.compatibles = list(compat.direct.get(alias, ()))

        # Secondary global structures.
        self.empty_output_man: list[TabEntry] = []
        self.non_picky_man: list[TabEntry] = []
        self.picky_man: list[tuple[TabEntry, tuple[Tuple, ...]]] = []

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> TabEntry:
        return self._entries[index]

    def __iter__(self) -> Iterator[TabEntry]:
        return iter(self._entries)

    def entry(self, node: Query) -> TabEntry:
        try:
            return self._by_node[id(node)]
        except KeyError:
            raise EvaluationError(
                f"node {node!r} is not part of this TabQ"
            ) from None

    def position(self, entry: TabEntry) -> int:
        for index, candidate in enumerate(self._entries):
            if candidate is entry:
                return index
        raise EvaluationError("entry is not part of this TabQ")

    def mark_non_picky(self, entry: TabEntry) -> None:
        if entry not in self.non_picky_man:
            self.non_picky_man.append(entry)

    def mark_picky(
        self, entry: TabEntry, blocked: tuple[Tuple, ...]
    ) -> None:
        entry.blocked = blocked
        self.picky_man.append((entry, blocked))

    def mark_empty(self, entry: TabEntry) -> None:
        if entry not in self.empty_output_man:
            self.empty_output_man.append(entry)

    # ------------------------------------------------------------------
    # Display (the paper's Tables 1 / 2)
    # ------------------------------------------------------------------
    def dump(self) -> str:
        """Render the table like Table 2 of the paper."""
        lines = [
            f"{'m':<8}{'lvl':<5}{'op':<16}{'in':<6}{'out':<6}"
            f"{'compat':<8}{'blocked'}"
        ]
        for entry in self._entries:
            out_size = "-" if entry.output is None else str(len(entry.output))
            lines.append(
                f"{entry.label:<8}{entry.level:<5}{entry.op:<16}"
                f"{len(entry.input):<6}{out_size:<6}"
                f"{len(entry.compatibles):<8}{len(entry.blocked)}"
            )
        return "\n".join(lines)
