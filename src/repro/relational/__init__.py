"""Relational substrate: data model, algebra, evaluation, storage.

This subpackage implements everything the paper assumes from the
relational world (Sec. 2.1): tuples with qualified attributes, schemas
and instances, the SPJA+union query algebra of Def. 2.2, renamings,
lineage-tracing evaluation, an in-memory database engine, and a SQL
frontend for the supported query class.
"""

from .aggregates import AGGREGATE_FUNCTIONS, AggregateCall
from .algebra import (
    Aggregate,
    Difference,
    Join,
    Project,
    Query,
    RelationLeaf,
    Select,
    Union,
    assign_labels,
    find_node,
    subtree_covering,
    tabq_order,
    validate_tree,
)
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
    attr_attr_cmp,
    attr_cmp,
    compare_values,
    is_satisfiable,
    var_cmp,
    var_var_cmp,
)
from .algebra import condition_tokens, query_fingerprint, structure_tokens
from .database import Database, Table
from .evalcache import CacheStats, EvaluationCache
from .evaluator import (
    EvaluationResult,
    evaluate,
    evaluate_query,
    resolve_aliases,
)
from .instance import (
    DatabaseInstance,
    RelationInstance,
    query_input_instance,
)
from .lineage import (
    base_lineage,
    direct_lineage,
    descends_from,
    format_output,
    how_provenance,
    is_successor,
    lineage_within,
    successors_in,
)
from .renaming import RenameTriple, Renaming, natural_renaming
from .schema import DatabaseSchema, RelationSchema, alias_schema
from .tuples import (
    Tuple,
    Value,
    alias_of,
    base_tuple,
    is_qualified,
    qualify,
    split_qualified,
    unqualified_name,
)

__all__ = [
    "AGGREGATE_FUNCTIONS",
    "AggregateCall",
    "Aggregate",
    "And",
    "Attr",
    "CacheStats",
    "Comparison",
    "Condition",
    "Const",
    "Database",
    "DatabaseInstance",
    "DatabaseSchema",
    "Difference",
    "EvaluationCache",
    "EvaluationResult",
    "FalseCondition",
    "Join",
    "Or",
    "Project",
    "Query",
    "RelationInstance",
    "RelationLeaf",
    "RelationSchema",
    "RenameTriple",
    "Renaming",
    "Select",
    "Table",
    "TrueCondition",
    "Tuple",
    "Union",
    "Value",
    "Var",
    "alias_of",
    "alias_schema",
    "assign_labels",
    "attr_attr_cmp",
    "attr_cmp",
    "base_lineage",
    "base_tuple",
    "compare_values",
    "condition_tokens",
    "descends_from",
    "direct_lineage",
    "evaluate",
    "evaluate_query",
    "find_node",
    "format_output",
    "how_provenance",
    "is_qualified",
    "is_satisfiable",
    "is_successor",
    "lineage_within",
    "natural_renaming",
    "qualify",
    "query_fingerprint",
    "query_input_instance",
    "resolve_aliases",
    "split_qualified",
    "structure_tokens",
    "subtree_covering",
    "successors_in",
    "tabq_order",
    "unqualified_name",
    "validate_tree",
    "var_cmp",
    "var_var_cmp",
]
