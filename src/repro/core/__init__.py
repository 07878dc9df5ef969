"""NedExplain core: query-based why-not provenance (the paper's
contribution).

Typical usage::

    from repro.core import (
        SPJASpec, JoinPair, canonicalize, NedExplain, parse_predicate,
    )

    spec = SPJASpec(
        aliases={"A": "A", "AB": "AB", "B": "B"},
        joins=[JoinPair("A.aid", "AB.aid"), JoinPair("AB.bid", "B.bid")],
        selections=[attr_cmp("A.dob", ">", -800)],
        group_by=("A.name",),
        aggregates=(AggregateCall("avg", "B.price", "ap"),),
    )
    canonical = canonicalize(spec, database.schema)
    report = NedExplain(canonical, database=database).explain(
        "((A.name: Homer, ap: $x1), $x1 > 25)"
    )
    print(report.summary())
"""

from .answers import (
    DetailedEntry,
    NedExplainReport,
    WhyNotAnswer,
)
from .canonical import (
    CanonicalQuery,
    JoinPair,
    QuerySpec,
    SPJASpec,
    UnionSpec,
    canonical_from_tree,
    canonicalize,
    is_at_or_above_breakpoint,
)
from .compatibility import (
    CompatibilitySets,
    CompatibleFinder,
    tuple_matches_ctuple,
)
from .nedexplain import PHASES, NedExplain, NedExplainConfig
from .pickyness import (
    is_picky_manipulation,
    is_picky_query,
    is_successor_wrt_query,
    picky_subqueries,
    trace_path,
    transitive_predecessors,
    valid_successors,
)
from .successors import SuccessorStep, find_successors
from .tabq import TabEntry, TabQ
from .unrename import unrename_ctuple, unrename_predicate
from .whynot_question import (
    CTuple,
    Predicate,
    ctuple_with_condition,
    parse_predicate,
    why_not,
)

__all__ = [
    "CanonicalQuery",
    "CompatibilitySets",
    "CompatibleFinder",
    "CTuple",
    "DetailedEntry",
    "JoinPair",
    "NedExplain",
    "NedExplainConfig",
    "NedExplainReport",
    "PHASES",
    "Predicate",
    "QuerySpec",
    "SPJASpec",
    "SuccessorStep",
    "TabEntry",
    "TabQ",
    "UnionSpec",
    "WhyNotAnswer",
    "canonical_from_tree",
    "canonicalize",
    "ctuple_with_condition",
    "find_successors",
    "is_at_or_above_breakpoint",
    "is_picky_manipulation",
    "is_picky_query",
    "is_successor_wrt_query",
    "parse_predicate",
    "picky_subqueries",
    "trace_path",
    "transitive_predecessors",
    "tuple_matches_ctuple",
    "unrename_ctuple",
    "unrename_predicate",
    "valid_successors",
    "why_not",
]
