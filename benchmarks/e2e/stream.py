"""Seeded why-not question streams built from the paper's Table 4.

Every question is one of the 19 Table 4 predicates used as a template.
Each qualified equality constant (``Alias.attr: v``) is redrawn from
that column of the database; unqualified attributes and ``$x``
conditions keep the paper's values, and about a quarter of the
questions keep the paper's constants unchanged.

The stream is a sequence of *rounds*.  A round is a seeded permutation
of the templates, so every complete round holds each template exactly
once.  The timed loops stop only at a round boundary: the template mix
of a run, and with it the position of every latency percentile inside
the per-template clusters, is then the same on every seed and on both
sides of a comparison.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass

from repro import ReproError, parse_predicate
from repro.relational.conditions import Var
from repro.relational.sql.formatter import format_spec
from repro.workloads.usecases import DATABASES, QUERIES, USE_CASES

#: share of questions that keep the paper's constants unchanged
KEEP_PAPER_SHARE = 0.25

#: queries whose SQL survives ``format_spec`` -> ``sql_to_canonical``
#: (the gap for the others is pinned by ``tests/test_sql_roundtrip.py``
#: beside this file); only these can be sent to the HTTP service
SERVICE_QUERIES = ("Q1", "Q2", "Q4", "Q6", "Q8", "Q9")

_WITH_CONDITION = re.compile(r"^\(\(.*\),\s*(?P<cond>.*)\)$")


@dataclass(frozen=True)
class Question:
    """One why-not question: the template it came from, its query
    (a Table 3 name) and the predicate text."""

    use_case: str
    query: str
    predicate: str

    @property
    def database(self) -> str:
        return QUERIES[self.query][0]


def build_databases(scale: int, names=None) -> dict:
    """The evaluation databases at *scale* (all three by default)."""
    return {
        name: DATABASES[name](scale=scale)
        for name in (names or DATABASES)
    }


@functools.cache
def query_sql(query: str) -> str:
    """SQL text of a Table 3 query (what the service receives)."""
    return format_spec(QUERIES[query][1]())


def render_value(value) -> str:
    if isinstance(value, Var):
        return f"${value.name}"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def render_predicate(entries, condition: str | None) -> str:
    """Paper notation for a single c-tuple: ``(a: v, ...)`` or
    ``((a: v, ...), cond)``."""
    pairs = ", ".join(f"{attr}: {render_value(v)}" for attr, v in entries)
    if condition:
        return f"(({pairs}), {condition})"
    return f"({pairs})"


def _survives_parsing(value) -> bool:
    """True when *value* renders into predicate text that parses back
    to the same value and type, in both c-tuple forms."""
    for text in (
        render_predicate([("A.a", value)], None),
        render_predicate([("A.a", value), ("b", Var("x"))], "$x > 1"),
    ):
        try:
            (ctuple,) = parse_predicate(text)
        except ReproError:
            return False
        parsed = ctuple.entry("A.a")
        if parsed != value or type(parsed) is not type(value):
            return False
    return True


class ConstantPool:
    """Distinct, parse-safe values of each ``table.attribute`` column."""

    def __init__(self, databases: dict):
        self.databases = databases
        self._pools: dict[tuple[str, str, str], list] = {}

    def values(self, database: str, table: str, attribute: str) -> list:
        key = (database, table, attribute)
        pool = self._pools.get(key)
        if pool is None:
            column = f"{table}.{attribute}"
            distinct = {
                row[column]
                for row in self.databases[database].table(table).rows
                if row[column] is not None
            }
            # sorted by repr: set order of strings changes with hash
            # randomization, and the stream must not
            pool = sorted(
                (v for v in distinct if _survives_parsing(v)), key=repr
            )
            self._pools[key] = pool
        return pool


class Template:
    """A Table 4 predicate split into its redrawable parts."""

    def __init__(self, use_case):
        self.use_case = use_case.name
        self.query = use_case.query
        self.database = use_case.database
        self.paper = use_case.predicate
        match = _WITH_CONDITION.match(use_case.predicate)
        self.condition = match.group("cond") if match else None
        (ctuple,) = parse_predicate(use_case.predicate)
        self.entries = list(ctuple.entries())
        spec = QUERIES[use_case.query][1]()
        self.aliases = dict(_spec_aliases(spec))

    def draw(self, rng: random.Random, pool: ConstantPool) -> Question:
        if rng.random() < KEEP_PAPER_SHARE:
            return Question(self.use_case, self.query, self.paper)
        entries = []
        for attr, value in self.entries:
            alias, dot, column = attr.partition(".")
            if dot and not isinstance(value, Var) and alias in self.aliases:
                value = rng.choice(
                    pool.values(self.database, self.aliases[alias], column)
                )
            entries.append((attr, value))
        return Question(
            self.use_case,
            self.query,
            render_predicate(entries, self.condition),
        )


def _spec_aliases(spec):
    """alias -> table of a spec (both branches of a union)."""
    if hasattr(spec, "aliases"):
        return spec.aliases.items()
    return [*_spec_aliases(spec.left), *_spec_aliases(spec.right)]


def templates(queries=None) -> list[Template]:
    """The Table 4 templates, optionally restricted to *queries*."""
    return [
        Template(uc)
        for uc in USE_CASES
        if queries is None or uc.query in queries
    ]


def make_stream(
    seed: int, rounds: int, databases: dict, queries=None
) -> list[Question]:
    """*rounds* seeded permutations of the templates, constants redrawn."""
    rng = random.Random(seed)
    pool = ConstantPool(databases)
    chosen = templates(queries)
    stream: list[Question] = []
    for _ in range(rounds):
        order = list(chosen)
        rng.shuffle(order)
        stream.extend(t.draw(rng, pool) for t in order)
    return stream
