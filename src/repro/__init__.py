"""repro -- NedExplain: query-based why-not provenance.

A complete, self-contained reproduction of *"Query-Based Why-Not
Provenance with NedExplain"* (Bidoit, Herschel, Tzompanaki, EDBT 2014):

* :mod:`repro.relational` -- relational substrate (data model, SPJA
  algebra, lineage-tracing evaluator, in-memory database, SQL frontend);
* :mod:`repro.core` -- the NedExplain algorithm and its formal
  framework (c-tuples, compatibility, canonical trees, picky
  subqueries, detailed/condensed/secondary answers);
* :mod:`repro.baseline` -- the Why-Not algorithm of Chapman & Jagadish
  (SIGMOD 2009), the paper's comparison baseline, reproduced with its
  documented shortcomings;
* :mod:`repro.workloads` -- the crime / imdb / gov evaluation
  databases, queries Q1-Q12 and use cases of Tables 3-4;
* :mod:`repro.bench` -- the harness regenerating Table 5 and
  Figures 5-6, plus the machine-readable ``BENCH_*.json`` artifacts;
* :mod:`repro.obs` -- zero-dependency tracing and metrics
  (span trees over the Fig. 5 phases, operator cardinalities, cache
  and budget counters) with JSON-lines / Chrome-trace exporters.

Quick start::

    from repro import Database, SPJASpec, JoinPair, canonicalize, NedExplain

    db = Database()
    ...  # create tables, insert rows
    canonical = canonicalize(spec, db.schema)
    report = NedExplain(canonical, database=db).explain(
        "(P.name: Hank, C.type: 'Car theft')"
    )
    print(report.summary())
"""

from . import baseline, bench, core, obs, relational, robustness, workloads
from .core import (
    CanonicalQuery,
    CTuple,
    JoinPair,
    NedExplain,
    NedExplainConfig,
    NedExplainReport,
    Predicate,
    SPJASpec,
    UnionSpec,
    canonical_from_tree,
    canonicalize,
    parse_predicate,
    why_not,
)
from .core.repairs import suggest_repairs, verify_repair
from .errors import (
    BudgetExceededError,
    ConfigurationError,
    ReproError,
)
from .obs import (
    ManualClock,
    MetricsRegistry,
    Tracer,
    current_tracer,
    render_trace,
    tracing,
    use_clock,
    write_chrome_trace,
    write_trace_jsonl,
)
from .robustness import (
    BatchJournal,
    Budget,
    CancellationToken,
    ExecutionContext,
    FailureInfo,
    FaultPlan,
    ParallelExecutor,
    QuestionOutcome,
    ReplayedOutcome,
    execution_context,
)
from .relational import (
    AggregateCall,
    CacheStats,
    Database,
    DatabaseInstance,
    EvaluationCache,
    Renaming,
    Tuple,
    attr_attr_cmp,
    attr_cmp,
    evaluate_query,
    query_fingerprint,
)
from .relational.csv_io import load_database, save_database
from .relational.sql import sql_to_canonical


def explain_sql(
    database: Database,
    sql: str,
    why_not_question: str,
    config: NedExplainConfig | None = None,
) -> NedExplainReport:
    """One-call convenience API: SQL in, why-not answers out.

    >>> report = explain_sql(db, "SELECT ...", "(A.name: Homer)")
    >>> print(report.summary())
    """
    canonical = sql_to_canonical(sql, database.schema)
    engine = NedExplain(canonical, database=database, config=config)
    return engine.explain(why_not_question)


__version__ = "1.0.0"

__all__ = [
    "AggregateCall",
    "BatchJournal",
    "Budget",
    "BudgetExceededError",
    "CacheStats",
    "CancellationToken",
    "CanonicalQuery",
    "ConfigurationError",
    "CTuple",
    "Database",
    "DatabaseInstance",
    "EvaluationCache",
    "ExecutionContext",
    "FailureInfo",
    "FaultPlan",
    "JoinPair",
    "ManualClock",
    "MetricsRegistry",
    "NedExplain",
    "NedExplainConfig",
    "NedExplainReport",
    "ParallelExecutor",
    "Predicate",
    "QuestionOutcome",
    "Renaming",
    "ReplayedOutcome",
    "ReproError",
    "SPJASpec",
    "Tracer",
    "Tuple",
    "UnionSpec",
    "attr_attr_cmp",
    "attr_cmp",
    "baseline",
    "bench",
    "canonical_from_tree",
    "canonicalize",
    "core",
    "current_tracer",
    "evaluate_query",
    "execution_context",
    "explain_sql",
    "load_database",
    "obs",
    "parse_predicate",
    "query_fingerprint",
    "relational",
    "render_trace",
    "robustness",
    "save_database",
    "sql_to_canonical",
    "suggest_repairs",
    "tracing",
    "use_clock",
    "verify_repair",
    "why_not",
    "workloads",
    "write_chrome_trace",
    "write_trace_jsonl",
]
