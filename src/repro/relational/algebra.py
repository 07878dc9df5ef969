"""Query algebra of Def. 2.2: unions of SPJA queries as explicit trees.

A query is a tree whose leaves are relation aliases (``[R]``) and whose
internal nodes are the operators

* ``Join(left, right, nu)``   -- ``[Q1] |><|_nu [Q2]``
* ``Project(child, W)``       -- ``pi_W [Q1]``
* ``Select(child, C)``        -- ``sigma_C [Q1]``
* ``Aggregate(child, G, F)``  -- ``alpha_{G,F} [Q1]``
* ``Union(left, right, nu)``  -- ``[Q1] U_nu [Q2]``

Every node doubles as the *manipulation* ``m_Q`` of Sec. 2.3: its
:meth:`Query.apply` method evaluates the operator on explicit input
tuple lists, producing output tuples whose ``parents`` are their direct
predecessors and whose ``lineage`` is the union of the parents' --
exactly the successor/lineage structure Defs. 2.9-2.11 trace.

Nodes validate themselves on construction (disjoint input schemas,
well-typed projections/renamings/aggregations), so an ill-formed tree
fails fast instead of mis-evaluating.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from ..errors import QueryError, SchemaError
from ..robustness.budget import current_context
from .aggregates import AggregateCall, check_distinct_aliases
from .conditions import (
    And,
    Attr,
    Comparison,
    Condition,
    Const,
    FalseCondition,
    Or,
    TrueCondition,
    Var,
    join_key,
)
from .renaming import Renaming
from .schema import RelationSchema, check_disjoint
from .tuples import Tuple, Value


def _tick_comparisons(n: int) -> None:
    """Charge *n* tuple comparisons to the ambient execution budget.

    Raises :class:`~repro.errors.BudgetExceededError` when the limit is
    crossed -- this is what contains a runaway operator *mid-loop*
    instead of only between operators.
    """
    if n:
        context = current_context()
        if context is not None:
            context.tick_comparisons(n)


def _join_key(t: Tuple, attributes: tuple[str, ...]) -> tuple | None:
    """Hash-join key of *t* over *attributes*, or ``None`` when one of
    them is NULL (SQL: NULL never joins)."""
    key = []
    for attribute in attributes:
        value = t[attribute]
        if value is None:
            return None
        key.append(join_key(value))
    return tuple(key)


class Query:
    """Abstract base of all query-tree nodes.

    Attributes
    ----------
    name:
        Optional display label (the paper's ``m_Qi`` / ``m0 .. mk``);
        assigned during canonicalization / TabQ construction.
    """

    #: Operator tag; leaves use ``"relation schema"`` as in Alg. 1.
    op: str = "?"

    def __init__(self) -> None:
        self.name: str | None = None
        self._target_type: frozenset[str] | None = None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def children(self) -> tuple["Query", ...]:
        """Direct child subqueries."""
        raise NotImplementedError

    @property
    def target_type(self) -> frozenset[str]:
        """The target type (output attributes) of the query."""
        if self._target_type is None:
            self._target_type = self._compute_target_type()
        return self._target_type

    def _compute_target_type(self) -> frozenset[str]:
        raise NotImplementedError

    @property
    def input_aliases(self) -> frozenset[str]:
        """The input schema ``S_Q`` as a set of relation aliases."""
        out: set[str] = set()
        for leaf in self.leaves():
            out.add(leaf.alias)
        return frozenset(out)

    def leaves(self) -> tuple["RelationLeaf", ...]:
        """All relation leaves, left to right."""
        if isinstance(self, RelationLeaf):
            return (self,)
        result: list[RelationLeaf] = []
        for child in self.children:
            result.extend(child.leaves())
        return tuple(result)

    def postorder(self) -> Iterator["Query"]:
        """Yield all nodes bottom-up, children before parents."""
        for child in self.children:
            yield from child.postorder()
        yield self

    def subqueries(self) -> tuple["Query", ...]:
        """All subqueries of this query, including itself."""
        return tuple(self.postorder())

    def is_subquery_of(self, other: "Query") -> bool:
        """True when this node occurs in *other*'s tree (or is it)."""
        return any(node is self for node in other.postorder())

    def contains(self, other: "Query") -> bool:
        """True when *other* occurs in this tree (or is this node)."""
        return other.is_subquery_of(self)

    def parent_of(self, node: "Query") -> "Query | None":
        """Return the parent of *node* within this tree, if any."""
        for candidate in self.postorder():
            for child in candidate.children:
                if child is node:
                    return candidate
        return None

    def depth_of(self, node: "Query") -> int:
        """Depth of *node* in this tree (the root having level 0)."""

        def walk(current: Query, depth: int) -> int | None:
            if current is node:
                return depth
            for child in current.children:
                found = walk(child, depth + 1)
                if found is not None:
                    return found
            return None

        depth = walk(self, 0)
        if depth is None:
            raise QueryError("node is not part of this query tree")
        return depth

    # ------------------------------------------------------------------
    # Evaluation (the manipulation m_Q of Sec. 2.3)
    # ------------------------------------------------------------------
    def apply(self, inputs: Sequence[Sequence[Tuple]]) -> list[Tuple]:
        """Evaluate this single operator on explicit child outputs.

        ``inputs`` holds one tuple list per child (leaves receive their
        stored relation instance as single input).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line operator description (used in answers/reports)."""
        raise NotImplementedError

    def pretty(self, indent: int = 0) -> str:
        """Multi-line, indented rendering of the whole tree."""
        pad = "  " * indent
        tag = f"{self.name}: " if self.name else ""
        lines = [f"{pad}{tag}{self.describe()}"]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        tag = f"{self.name}: " if self.name else ""
        return f"<{tag}{self.describe()}>"


class RelationLeaf(Query):
    """A leaf ``[R]``: a relation alias with its (aliased) schema."""

    op = "relation schema"

    def __init__(self, schema: RelationSchema):
        super().__init__()
        self.schema = schema
        self.name = schema.name

    @property
    def alias(self) -> str:
        """The relation alias this leaf reads."""
        return self.schema.name

    @property
    def children(self) -> tuple[Query, ...]:
        return ()

    def _compute_target_type(self) -> frozenset[str]:
        return self.schema.type

    def apply(self, inputs: Sequence[Sequence[Tuple]]) -> list[Tuple]:
        if len(inputs) != 1:
            raise QueryError("a relation leaf takes exactly one input")
        return list(inputs[0])

    def describe(self) -> str:
        return f"[{self.alias}]"


class Select(Query):
    """A selection ``sigma_C [Q1]``."""

    op = "sigma"

    def __init__(self, child: Query, condition: Condition):
        super().__init__()
        if condition.variables():
            raise QueryError(
                "selection conditions must not contain variables"
            )
        unknown = condition.attributes() - child.target_type
        if unknown:
            raise QueryError(
                f"selection references attributes {sorted(unknown)} "
                "outside the child's target type"
            )
        self.child = child
        self.condition = condition

    @property
    def children(self) -> tuple[Query, ...]:
        return (self.child,)

    def _compute_target_type(self) -> frozenset[str]:
        return self.child.target_type

    def apply(self, inputs: Sequence[Sequence[Tuple]]) -> list[Tuple]:
        (child_tuples,) = inputs
        _tick_comparisons(len(child_tuples))
        out = []
        for t in child_tuples:
            if self.condition.evaluate(t):
                out.append(t.derive())
        return out

    def describe(self) -> str:
        return f"sigma[{self.condition!r}]"


class Project(Query):
    """A projection ``pi_W [Q1]``."""

    op = "pi"

    def __init__(self, child: Query, attributes: Iterable[str]):
        super().__init__()
        attrs = tuple(attributes)
        if not attrs:
            raise QueryError("projection must keep at least one attribute")
        if len(set(attrs)) != len(attrs):
            raise QueryError(f"projection has duplicate attributes {attrs}")
        unknown = set(attrs) - child.target_type
        if unknown:
            raise QueryError(
                f"projection references attributes {sorted(unknown)} "
                "outside the child's target type"
            )
        self.child = child
        self.attributes = attrs

    @property
    def children(self) -> tuple[Query, ...]:
        return (self.child,)

    def _compute_target_type(self) -> frozenset[str]:
        return frozenset(self.attributes)

    def apply(self, inputs: Sequence[Sequence[Tuple]]) -> list[Tuple]:
        (child_tuples,) = inputs
        return [t.project(self.attributes) for t in child_tuples]

    def describe(self) -> str:
        return f"pi[{', '.join(self.attributes)}]"


class Join(Query):
    """An equi-join ``[Q1] |><|_nu [Q2]`` via a renaming (Def. 2.2).

    The renaming pairs ``(A1, A2) -> Anew`` act as join conditions; the
    output exposes the shared value under ``Anew`` and maps every other
    attribute through ``nu`` (which is the identity for them).  An empty
    renaming yields the cross product.
    """

    op = "join"

    def __init__(self, left: Query, right: Query, renaming: Renaming):
        super().__init__()
        check_disjoint(left.input_aliases, right.input_aliases)
        overlap = left.target_type & right.target_type
        if overlap:
            raise QueryError(
                f"joined subqueries share target attributes "
                f"{sorted(overlap)}; rename first"
            )
        renaming.validate_against(left.target_type, right.target_type)
        self.left = left
        self.right = right
        self.renaming = renaming

    @property
    def children(self) -> tuple[Query, ...]:
        return (self.left, self.right)

    def _compute_target_type(self) -> frozenset[str]:
        return self.renaming.apply_to_type(
            self.left.target_type
        ) | self.renaming.apply_to_type(self.right.target_type)

    def apply(self, inputs: Sequence[Sequence[Tuple]]) -> list[Tuple]:
        left_tuples, right_tuples = inputs
        left_keys = tuple(t.left for t in self.renaming)
        right_keys = tuple(t.right for t in self.renaming)
        left_map = self.renaming.left_mapping(self.left.target_type)

        # Hash join on the renaming pairs (cross product when empty).
        # A right tuple contributes its values minus the join
        # attributes, which the left side already holds under their
        # new names; that rest is computed once, not per match.
        index: dict[tuple, list[tuple[Tuple, dict[str, Value]]]] = {}
        _tick_comparisons(len(right_tuples))
        for rt in right_tuples:
            key = _join_key(rt, right_keys)
            if key is None:
                continue
            rest = {a: v for a, v in rt.items() if a not in right_keys}
            index.setdefault(key, []).append((rt, rest))

        out: list[Tuple] = []
        for lt in left_tuples:
            key = _join_key(lt, left_keys)
            if key is None:
                continue
            matches = index.get(key, ())
            # per-probe tick: bounds a runaway (e.g. accidental cross)
            # join inside this very loop, not only after it returns
            _tick_comparisons(1 + len(matches))
            if not matches:
                continue
            left_values = {left_map.get(a, a): v for a, v in lt.items()}
            for rt, rest in matches:
                out.append(
                    Tuple._adopt(
                        {**left_values, **rest},
                        lt.lineage | rt.lineage,
                        (lt, rt),
                    )
                )
        return out

    def describe(self) -> str:
        if not self.renaming.triples:
            return "join[cross]"
        conds = ", ".join(
            f"{t.left}={t.right}->{t.new}" for t in self.renaming
        )
        return f"join[{conds}]"


class Aggregate(Query):
    """An aggregation ``alpha_{G,F} [Q1]`` (Def. 2.2, item 3)."""

    op = "alpha"

    def __init__(
        self,
        child: Query,
        group_by: Iterable[str],
        calls: Sequence[AggregateCall],
    ):
        super().__init__()
        group = tuple(group_by)
        if len(set(group)) != len(group):
            raise QueryError(f"duplicate grouping attributes {group}")
        unknown = set(group) - child.target_type
        if unknown:
            raise QueryError(
                f"grouping references attributes {sorted(unknown)} "
                "outside the child's target type"
            )
        calls = tuple(calls)
        if not calls and not group:
            raise QueryError("aggregation needs grouping or aggregates")
        check_distinct_aliases(calls)
        for call in calls:
            if call.attribute not in child.target_type:
                raise QueryError(
                    f"aggregate input {call.attribute!r} is outside the "
                    "child's target type"
                )
            if call.alias in child.target_type or call.alias in group:
                raise QueryError(
                    f"aggregate output {call.alias!r} clashes with an "
                    "existing attribute"
                )
        self.child = child
        self.group_by = group
        self.calls = calls

    @property
    def children(self) -> tuple[Query, ...]:
        return (self.child,)

    @property
    def aggregated_attributes(self) -> frozenset[str]:
        """The fresh attributes ``Agg = {A'1, ..., A'n}``."""
        return frozenset(call.alias for call in self.calls)

    @property
    def needed_attributes(self) -> frozenset[str]:
        """``G union {A1, ..., An}``: what the breakpoint V must expose."""
        return frozenset(self.group_by) | frozenset(
            call.attribute for call in self.calls
        )

    def _compute_target_type(self) -> frozenset[str]:
        return frozenset(self.group_by) | self.aggregated_attributes

    def apply(self, inputs: Sequence[Sequence[Tuple]]) -> list[Tuple]:
        (child_tuples,) = inputs
        return self.aggregate_tuples(child_tuples)

    def aggregate_tuples(self, tuples: Sequence[Tuple]) -> list[Tuple]:
        """Group and aggregate an explicit tuple list.

        Exposed separately because NedExplain re-applies the aggregation
        to intermediate compatible-tuple sets when checking
        ``tc.cond_alpha`` (Def. 2.12, second part).
        """
        _tick_comparisons(len(tuples))
        # keyed like join values, so True and 1 form two groups
        groups: dict[tuple[Value, ...], list[Tuple]] = {}
        order: list[tuple[Value, ...]] = []
        for t in tuples:
            key = tuple(join_key(t[a]) for a in self.group_by)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(t)
        if not self.group_by and not tuples:
            # SQL: aggregation without GROUP BY over the empty input
            # still yields one row (count = 0, other aggregates NULL).
            groups[()] = []
            order.append(())
        out: list[Tuple] = []
        for key in order:
            group = groups[key]
            values: dict[str, Value] = {
                a: group[0][a] for a in self.group_by
            }
            for call in self.calls:
                values[call.alias] = call.compute(group)
            lineage: set[str] = set()
            for member in group:
                lineage |= member.lineage
            out.append(
                Tuple._adopt(values, frozenset(lineage), tuple(group))
            )
        return out

    def describe(self) -> str:
        calls = ", ".join(repr(c) for c in self.calls)
        return f"alpha[group={list(self.group_by)}; {calls}]"


class Union(Query):
    """A union ``[Q1] U_nu [Q2]`` (Def. 2.2, item 4)."""

    op = "union"

    def __init__(self, left: Query, right: Query, renaming: Renaming):
        super().__init__()
        check_disjoint(left.input_aliases, right.input_aliases)
        renaming.validate_against(left.target_type, right.target_type)
        left_renamed = renaming.apply_to_type(left.target_type)
        right_renamed = renaming.apply_to_type(right.target_type)
        if left_renamed != right_renamed:
            raise QueryError(
                "union branches have incompatible renamed types: "
                f"{sorted(left_renamed)} vs {sorted(right_renamed)}"
            )
        self.left = left
        self.right = right
        self.renaming = renaming

    @property
    def children(self) -> tuple[Query, ...]:
        return (self.left, self.right)

    def _compute_target_type(self) -> frozenset[str]:
        return self.renaming.apply_to_type(self.left.target_type)

    def apply(self, inputs: Sequence[Sequence[Tuple]]) -> list[Tuple]:
        left_tuples, right_tuples = inputs
        _tick_comparisons(len(left_tuples) + len(right_tuples))
        left_map = self.renaming.left_mapping(self.left.target_type)
        right_map = self.renaming.right_mapping(self.right.target_type)
        out: list[Tuple] = []
        for t in left_tuples:
            values = {
                left_map.get(attr, attr): value for attr, value in t.items()
            }
            out.append(Tuple._adopt(values, t.lineage, (t,)))
        for t in right_tuples:
            values = {
                right_map.get(attr, attr): value for attr, value in t.items()
            }
            out.append(Tuple._adopt(values, t.lineage, (t,)))
        return out

    def describe(self) -> str:
        return "union"


class Difference(Query):
    """A set difference ``[Q1] -_nu [Q2]`` (extension).

    Set difference is the operator the paper explicitly defers to
    future work (Sec. 5): answering why-not questions over it requires
    tracing data that must reach the result *and* data that must not.
    The substrate supports it fully -- evaluation, lineage, and target
    typing mirror :class:`Union` -- and NedExplain handles it as an
    extension (see ``repro.core.difference_notes`` in the docs): an
    output tuple succeeds a left-input tuple; a left tuple whose value
    appears on the right has no successor, making the difference node
    picky for it.
    """

    op = "difference"

    def __init__(self, left: Query, right: Query, renaming: Renaming):
        super().__init__()
        check_disjoint(left.input_aliases, right.input_aliases)
        renaming.validate_against(left.target_type, right.target_type)
        left_renamed = renaming.apply_to_type(left.target_type)
        right_renamed = renaming.apply_to_type(right.target_type)
        if left_renamed != right_renamed:
            raise QueryError(
                "difference branches have incompatible renamed types: "
                f"{sorted(left_renamed)} vs {sorted(right_renamed)}"
            )
        self.left = left
        self.right = right
        self.renaming = renaming

    @property
    def children(self) -> tuple[Query, ...]:
        return (self.left, self.right)

    def _compute_target_type(self) -> frozenset[str]:
        return self.renaming.apply_to_type(self.left.target_type)

    def apply(self, inputs: Sequence[Sequence[Tuple]]) -> list[Tuple]:
        left_tuples, right_tuples = inputs
        _tick_comparisons(len(left_tuples) + len(right_tuples))
        left_map = self.renaming.left_mapping(self.left.target_type)
        right_map = self.renaming.right_mapping(self.right.target_type)
        blocked_values: set[frozenset] = set()
        for t in right_tuples:
            blocked_values.add(
                frozenset(
                    (right_map.get(attr, attr), join_key(value))
                    for attr, value in t.items()
                )
            )
        out: list[Tuple] = []
        for t in left_tuples:
            values = {
                left_map.get(attr, attr): value for attr, value in t.items()
            }
            key = frozenset(
                (attr, join_key(value)) for attr, value in values.items()
            )
            if key in blocked_values:
                continue
            out.append(Tuple._adopt(values, t.lineage, (t,)))
        return out

    def describe(self) -> str:
        return "difference"


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------
def assign_labels(root: Query, prefix: str = "m") -> dict[str, Query]:
    """Label internal nodes ``m0 .. mk`` in evaluation (TabQ) order.

    Nodes are visited by decreasing depth and left-to-right within one
    depth -- the storage order of the paper's TabQ -- so ``m0`` is the
    deepest, leftmost internal node, matching Fig. 4's labelling.
    Leaves keep their alias as label.  Returns a label -> node map.
    """
    ordered = tabq_order(root)
    labels: dict[str, Query] = {}
    counter = itertools.count()
    for node in ordered:
        if isinstance(node, RelationLeaf):
            node.name = node.alias
        else:
            node.name = f"{prefix}{next(counter)}"
        labels[node.name] = node
    return labels


def tabq_order(root: Query) -> list[Query]:
    """Nodes sorted by decreasing depth, then left-to-right (Sec. 3.1).

    This is the processing order of Alg. 1: deepest subqueries first,
    the root last.
    """
    positioned: list[tuple[int, int, Query]] = []

    def walk(node: Query, depth: int) -> None:
        # left-to-right order within a level follows discovery order
        positioned.append((depth, len(positioned), node))
        for child in node.children:
            walk(child, depth + 1)

    walk(root, 0)
    # Stable sort: by decreasing depth; ties keep pre-order (which is
    # left-to-right within one level).
    positioned.sort(key=lambda item: (-item[0], item[1]))
    return [node for _, _, node in positioned]


def find_node(root: Query, name: str) -> Query:
    """Return the node labelled *name* in *root*'s tree."""
    for node in root.postorder():
        if node.name == name:
            return node
    raise QueryError(f"no node labelled {name!r} in the query tree")


def validate_tree(root: Query) -> None:
    """Run structural sanity checks over a whole tree.

    Checks alias disjointness globally (Def. 2.2 requires the input
    schemas of binary operators to be disjoint, which implies each alias
    occurs in exactly one leaf).
    """
    aliases = [leaf.alias for leaf in root.leaves()]
    if len(set(aliases)) != len(aliases):
        duplicated = sorted(
            a for a in set(aliases) if aliases.count(a) > 1
        )
        raise SchemaError(
            f"aliases {duplicated} occur in more than one leaf; "
            "self-joins need distinct aliases"
        )


def target_condition_attributes(condition: Condition) -> frozenset[str]:
    """Attributes a selection condition needs from its input."""
    return condition.attributes()


# ---------------------------------------------------------------------------
# Structural fingerprints (shared-evaluation cache keys)
# ---------------------------------------------------------------------------
def _term_tokens(term: Attr | Const | Var) -> tuple:
    if isinstance(term, Attr):
        return ("attr", term.name)
    if isinstance(term, Const):
        # repr distinguishes 5 / 5.0 / '5' so value domains never collide
        return ("const", type(term.value).__name__, repr(term.value))
    if isinstance(term, Var):
        return ("var", term.name)
    raise QueryError(f"cannot fingerprint condition term {term!r}")


def condition_tokens(condition: Condition) -> tuple:
    """Canonical token structure of a condition (fingerprint input)."""
    if isinstance(condition, TrueCondition):
        return ("true",)
    if isinstance(condition, FalseCondition):
        return ("false",)
    if isinstance(condition, Comparison):
        return (
            "cmp",
            _term_tokens(condition.left),
            condition.op,
            _term_tokens(condition.right),
        )
    if isinstance(condition, And):
        return ("and",) + tuple(condition_tokens(p) for p in condition.parts)
    if isinstance(condition, Or):
        return ("or",) + tuple(condition_tokens(p) for p in condition.parts)
    raise QueryError(f"cannot fingerprint condition {condition!r}")


def _renaming_tokens(renaming: Renaming) -> tuple:
    return tuple((t.left, t.right, t.new) for t in renaming.triples)


def structure_tokens(node: Query) -> tuple:
    """Recursive canonical token structure of a query tree.

    Two trees produce equal tokens iff they are structurally equal:
    same operators in the same positions with the same conditions,
    attributes, renamings, aggregation calls, and leaf schemas.  Node
    *labels* (``name``) are deliberately excluded -- they are display
    metadata assigned during canonicalization, not query structure.
    """
    if isinstance(node, RelationLeaf):
        return (
            "relation",
            node.alias,
            tuple(node.schema.attributes),
            node.schema.key,
        )
    if isinstance(node, Select):
        return (
            "sigma",
            condition_tokens(node.condition),
            structure_tokens(node.child),
        )
    if isinstance(node, Project):
        return ("pi", node.attributes, structure_tokens(node.child))
    if isinstance(node, Join):
        return (
            "join",
            _renaming_tokens(node.renaming),
            structure_tokens(node.left),
            structure_tokens(node.right),
        )
    if isinstance(node, Aggregate):
        return (
            "alpha",
            node.group_by,
            tuple(
                (c.function, c.attribute, c.alias) for c in node.calls
            ),
            structure_tokens(node.child),
        )
    if isinstance(node, Union):
        return (
            "union",
            _renaming_tokens(node.renaming),
            structure_tokens(node.left),
            structure_tokens(node.right),
        )
    if isinstance(node, Difference):
        return (
            "difference",
            _renaming_tokens(node.renaming),
            structure_tokens(node.left),
            structure_tokens(node.right),
        )
    raise QueryError(f"cannot fingerprint query node {node!r}")


def query_fingerprint(
    root: Query, aliases: Mapping[str, str] | None = None
) -> str:
    """Stable structural hash of ``(Q, eta_Q)``.

    The fingerprint covers every operator, condition, projection,
    renaming, and aggregation call of the tree plus the leaf schemas
    and the alias mapping ``eta_Q``; any structural perturbation yields
    a different digest.  Structurally equal trees -- even distinct
    objects built from the same spec -- share one fingerprint, which is
    what lets the evaluation cache serve many why-not questions from a
    single evaluation.
    """
    payload = repr(
        (
            structure_tokens(root),
            tuple(sorted((aliases or {}).items())),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def alias_mapping_of(root: Query) -> dict[str, RelationSchema]:
    """Map alias -> aliased relation schema for all leaves."""
    return {leaf.alias: leaf.schema for leaf in root.leaves()}


def subtree_covering(root: Query, attributes: frozenset[str]) -> Query | None:
    """Smallest subquery of *root* whose target type covers *attributes*.

    Used to locate the breakpoint subquery ``V`` (Sec. 3.1, step 2b):
    the subquery closest to the leaves exposing all grouped and
    aggregated attributes.  Returns ``None`` when even *root* does not
    cover them.
    """
    if not attributes <= root.target_type:
        return None
    best: Query = root
    changed = True
    while changed:
        changed = False
        for child in best.children:
            if attributes <= child.target_type:
                best = child
                changed = True
                break
    return best
