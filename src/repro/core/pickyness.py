"""Declarative pickyness (Defs. 2.9-2.11) -- the specification oracle.

NedExplain computes picky subqueries incrementally (Alg. 1-3).  This
module implements the *definitions* directly over a full
:class:`~repro.relational.evaluator.EvaluationResult`: transitive
successors (Def. 2.9), valid successors ``VS(Q, I, D, t)``
(Notation 2.1), picky manipulations (Def. 2.10) and picky queries
(Def. 2.11).

It exists so the test suite can check the algorithm against the
paper's formal semantics -- including Property 2.1 (at most one picky
subquery per compatible tuple).
"""

from __future__ import annotations

from ..relational.algebra import Query, RelationLeaf
from ..relational.evaluator import EvaluationResult
from ..relational.tuples import Tuple


def transitive_predecessors(t: Tuple) -> set[Tuple]:
    """All tuples reachable through ``parents`` chains, incl. *t*."""
    seen: set[Tuple] = set()
    stack = [t]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(current.parents)
    return seen


def is_successor_wrt_query(t: Tuple, source: Tuple) -> bool:
    """Def. 2.9: *t* is a successor of *source* w.r.t. the query that
    produced it (composition of per-manipulation successor steps)."""
    return source in transitive_predecessors(t)


def valid_successors(
    node: Query,
    result: EvaluationResult,
    valid_tids: frozenset[str],
    source: Tuple,
) -> list[Tuple]:
    """``VS(Q, I, D, t)``: valid successors of *source* in the output
    of subquery *node* (Notation 2.1).

    A successor is valid when its full lineage lies within the tuple
    set ``D`` (given as base-tuple ids *valid_tids*).
    """
    out: list[Tuple] = []
    for candidate in result.output(node):
        if candidate == source or is_successor_wrt_query(candidate, source):
            if candidate.lineage <= valid_tids:
                out.append(candidate)
    return out


def is_picky_manipulation(
    node: Query,
    result: EvaluationResult,
    valid_tids: frozenset[str],
    source: Tuple,
) -> bool:
    """Def. 2.10: *node*'s manipulation has no valid successor of
    *source* in its output (for *source* in its input)."""
    inputs = result.flat_input(node)
    if source not in inputs:
        return False
    for candidate in result.output(node):
        if candidate.lineage <= valid_tids and (
            source in candidate.parents
            or (not candidate.parents and candidate == source)
        ):
            return False
    return True


def is_picky_query(
    node: Query,
    result: EvaluationResult,
    valid_tids: frozenset[str],
    source: Tuple,
) -> bool:
    """Def. 2.11: *node* is picky w.r.t. ``D`` and *source*.

    (1) the trace of *source* is still alive just below *node* (some
    valid successor exists in a child's output, or the source itself
    sits in the node's input for leaves/base relations), and (2) the
    top-level operator of *node* kills every such survivor.
    """
    if isinstance(node, RelationLeaf):
        # a leaf copies its input; it can never be picky
        return False
    alive_below: list[Tuple] = []
    for child in node.children:
        for candidate in result.output(child):
            is_alive = candidate == source or is_successor_wrt_query(
                candidate, source
            )
            if is_alive and candidate.lineage <= valid_tids:
                alive_below.append(candidate)
    if not alive_below:
        return False
    return not valid_successors(node, result, valid_tids, source)


def picky_subqueries(
    root: Query,
    result: EvaluationResult,
    valid_tids: frozenset[str],
    source: Tuple,
) -> list[Query]:
    """All subqueries picky for *source* (Property 2.1 says <= 1)."""
    return [
        node
        for node in root.postorder()
        if is_picky_query(node, result, valid_tids, source)
    ]


def trace_path(
    root: Query,
    result: EvaluationResult,
    valid_tids: frozenset[str],
    source: Tuple,
) -> list[tuple[Query, int]]:
    """Diagnostic: per subquery, how many valid successors survive.

    Useful in examples and debugging sessions to visualise where a
    compatible tuple's trace thins out and dies.
    """
    out: list[tuple[Query, int]] = []
    for node in root.postorder():
        out.append(
            (node, len(valid_successors(node, result, valid_tids, source)))
        )
    return out
