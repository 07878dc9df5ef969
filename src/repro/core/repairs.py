"""Modification-based explanations derived from why-not answers.

The paper's conclusion notes that its query-based explanations "could
further be used to obtain modification-based explanations" (in the
spirit of ConQueR [20] and top-k why-not [10]).  This module implements
that step for picky *selections*: given a NedExplain run, it proposes
the smallest relaxation of each blamed selection condition that lets
the blocked compatible tuples through, and can verify the proposal by
re-running the query with the patched condition.

For the introductory example, the picky ``sigma_{A.dob > 800BC}`` is
relaxed to ``A.dob >= 800BC`` -- exactly the modification Sec. 1
mentions.

Only selections are repaired: the paper argues selections are what a
developer inspects and changes first (the first canonicalization
rationale, Sec. 3.1-2b); joins usually encode intent.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import WhyNotQuestionError
from ..relational.algebra import (
    Aggregate,
    Difference,
    Join,
    Project,
    Query,
    RelationLeaf,
    Select,
    Union,
)
from ..relational.conditions import (
    And,
    Attr,
    Comparison,
    Condition,
    Const,
    Or,
    TrueCondition,
    compare_values,
)
from ..relational.evaluator import evaluate
from ..relational.tuples import Tuple
from .canonical import CanonicalQuery, canonical_from_tree
from .nedexplain import NedExplain
from .answers import NedExplainReport


@dataclass(frozen=True)
class RepairSuggestion:
    """One proposed selection relaxation."""

    #: the picky selection node
    subquery: Query
    original: Condition
    suggested: Condition
    #: compatible tuples that the relaxation lets through
    unblocks: tuple[str, ...]
    #: filled by :func:`verify_repair`
    verified: bool | None = None

    @property
    def subquery_label(self) -> str:
        return self.subquery.name or self.subquery.describe()

    def __repr__(self) -> str:
        status = ""
        if self.verified is not None:
            status = " [verified]" if self.verified else " [NOT verified]"
        return (
            f"at {self.subquery_label}: replace ({self.original!r}) "
            f"by ({self.suggested!r}), unblocking "
            f"{len(self.unblocks)} tuple(s){status}"
        )


def suggest_repairs(
    engine: NedExplain, report: NedExplainReport
) -> list[RepairSuggestion]:
    """Propose selection relaxations for the blocked tuples of a run.

    Must be called right after ``engine.explain(...)`` produced
    *report* (the engine's TabQ snapshots carry the blocked tuples and
    their attribute values at each picky selection's input).
    """
    if not engine.last_tabqs:
        raise WhyNotQuestionError(
            "suggest_repairs needs the engine's last explain() state"
        )
    suggestions: list[RepairSuggestion] = []
    seen_nodes: set[int] = set()
    for answer, tabq in zip(
        [a for a in report.answers if not a.no_compatible_data],
        engine.last_tabqs,
    ):
        for node in answer.condensed:
            if not isinstance(node, Select) or id(node) in seen_nodes:
                continue
            seen_nodes.add(id(node))
            entry = tabq.entry(node)
            blocked = list(entry.blocked)
            if not blocked:
                continue
            relaxed = relax_condition(node.condition, blocked)
            if relaxed is None or relaxed == node.condition:
                continue
            suggestions.append(
                RepairSuggestion(
                    subquery=node,
                    original=node.condition,
                    suggested=relaxed,
                    unblocks=tuple(
                        t.how_provenance() for t in blocked
                    ),
                )
            )
    return suggestions


# ---------------------------------------------------------------------------
# Condition relaxation
# ---------------------------------------------------------------------------
def relax_condition(
    condition: Condition, blocked: list[Tuple]
) -> Condition | None:
    """Minimal relaxation letting every blocked tuple pass.

    Works conjunct by conjunct: conjuncts the blocked tuples already
    satisfy stay untouched; the failing ones are widened.  Returns
    ``None`` when some conjunct cannot be relaxed (attribute-attribute
    comparisons, non-orderable values).
    """
    relaxed_parts: list[Condition] = []
    for conjunct in condition.conjuncts():
        if all(conjunct.evaluate(t) for t in blocked):
            relaxed_parts.append(conjunct)
            continue
        widened = _relax_comparison(conjunct, blocked)
        if widened is None:
            return None
        relaxed_parts.append(widened)
    return And.of(*relaxed_parts)


def _relax_comparison(
    conjunct: Condition, blocked: list[Tuple]
) -> Condition | None:
    if not isinstance(conjunct, Comparison):
        return None
    if not isinstance(conjunct.left, Attr) or not isinstance(
        conjunct.right, Const
    ):
        return None
    attribute = conjunct.left.name
    bound = conjunct.right.value
    values = [t[attribute] for t in blocked if attribute in t]
    if any(v is None for v in values):
        return None

    op = conjunct.op
    if op in (">", ">="):
        lowest = min(values)
        if compare_values(lowest, "=", bound) and op == ">":
            # the paper's introductory fix: > 800BC  ->  >= 800BC
            return Comparison(Attr(attribute), ">=", Const(bound))
        return Comparison(Attr(attribute), ">=", Const(lowest))
    if op in ("<", "<="):
        highest = max(values)
        if compare_values(highest, "=", bound) and op == "<":
            return Comparison(Attr(attribute), "<=", Const(bound))
        return Comparison(Attr(attribute), "<=", Const(highest))
    if op == "=":
        alternatives = sorted({v for v in values}, key=repr)
        return Or.of(
            conjunct,
            *(
                Comparison(Attr(attribute), "=", Const(v))
                for v in alternatives
            ),
        )
    if op == "!=":
        # the only way a != blocks is value == bound: drop the conjunct
        return TrueCondition()
    return None


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------
def apply_repair(
    canonical: CanonicalQuery, suggestion: RepairSuggestion
) -> CanonicalQuery:
    """Rebuild the canonical query with the suggested condition."""
    new_root = _rebuild(canonical.root, suggestion)
    return canonical_from_tree(new_root, canonical.aliases)


def _rebuild(node: Query, suggestion: RepairSuggestion) -> Query:
    if node is suggestion.subquery:
        assert isinstance(node, Select)
        return Select(_rebuild(node.child, suggestion),
                      suggestion.suggested)
    if isinstance(node, RelationLeaf):
        return RelationLeaf(node.schema)
    if isinstance(node, Select):
        return Select(_rebuild(node.child, suggestion), node.condition)
    if isinstance(node, Project):
        return Project(_rebuild(node.child, suggestion), node.attributes)
    if isinstance(node, Aggregate):
        return Aggregate(
            _rebuild(node.child, suggestion), node.group_by, node.calls
        )
    if isinstance(node, Join):
        return Join(
            _rebuild(node.left, suggestion),
            _rebuild(node.right, suggestion),
            node.renaming,
        )
    if isinstance(node, Union):
        return Union(
            _rebuild(node.left, suggestion),
            _rebuild(node.right, suggestion),
            node.renaming,
        )
    if isinstance(node, Difference):
        return Difference(
            _rebuild(node.left, suggestion),
            _rebuild(node.right, suggestion),
            node.renaming,
        )
    raise WhyNotQuestionError(f"cannot rebuild node {node!r}")


def verify_repair(
    engine: NedExplain,
    suggestion: RepairSuggestion,
) -> RepairSuggestion:
    """Check that the repair lets the blocked data reach the result.

    Re-evaluates the patched query and verifies that every previously
    blocked derivation now has a successor in the final result.
    Returns a copy of the suggestion with ``verified`` filled in.
    """
    patched = apply_repair(engine.canonical, suggestion)
    result = evaluate(patched.root, engine.instance)
    surviving_lineages = [t.lineage for t in result.result]
    blocked_lineages = _blocked_lineages(engine, suggestion)
    ok = all(
        any(blocked <= alive for alive in surviving_lineages)
        for blocked in blocked_lineages
    )
    return RepairSuggestion(
        subquery=suggestion.subquery,
        original=suggestion.original,
        suggested=suggestion.suggested,
        unblocks=suggestion.unblocks,
        verified=ok,
    )


def _blocked_lineages(
    engine: NedExplain, suggestion: RepairSuggestion
) -> list[frozenset[str]]:
    lineages: list[frozenset[str]] = []
    for tabq in engine.last_tabqs:
        try:
            entry = tabq.entry(suggestion.subquery)
        except Exception:  # noqa: BLE001 - node absent from this tc's TabQ
            continue
        for t in entry.blocked:
            lineages.append(t.lineage)
    return lineages
