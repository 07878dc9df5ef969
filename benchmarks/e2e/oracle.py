"""The answer check: a seeded sample of questions, recomputed literally.

During a timed loop a :class:`Reservoir` keeps a uniform, seeded sample
of the distinct questions answered and their ``answers`` JSON.  After
the loop, :func:`check` recomputes each sampled question with the
paper's literal per-question loop
(``NedExplainConfig(use_shared_evaluation=False)``) on the row engine
with a fresh cache, and reports every mismatch.  The recomputation runs
outside the timed region.
"""

from __future__ import annotations

import json
import random
import threading

import repro
from repro.relational.sql import sql_to_canonical
from repro.workloads.usecases import QUERIES

from .stream import Question, query_sql

#: distinct questions recomputed per run
CHECK_SIZE = 64


def normalize(answers) -> list:
    """``answers`` as they read after a JSON round trip."""
    return json.loads(json.dumps(answers, default=str))


class Reservoir:
    """A seeded uniform sample of the distinct questions offered.

    Thread-safe: the service workload offers from two client threads.
    Holding only the sample keeps the loop's memory flat.
    """

    def __init__(self, size: int, seed: int):
        self.size = size
        self._rng = random.Random(seed)
        self._seen: set[Question] = set()
        self._kept: list = []
        self._lock = threading.Lock()

    def offer(self, question: Question, answers) -> None:
        with self._lock:
            if question in self._seen:
                return
            seen = len(self._seen)
            self._seen.add(question)
            if seen < self.size:
                self._kept.append((question, answers))
                return
            slot = self._rng.randrange(seen + 1)
            if slot < self.size:
                self._kept[slot] = (question, answers)

    def sample(self) -> list:
        """``(question, answers)`` pairs, in a stable order."""
        with self._lock:
            return sorted(
                self._kept,
                key=lambda kept: (kept[0].query, kept[0].predicate),
            )


class Oracle:
    """Recomputes answers with the literal per-question loop."""

    def __init__(self, databases: dict, via_sql: bool = False):
        self.databases = databases
        #: canonicalize from the SQL text the service received, instead
        #: of from the spec the library workloads use
        self.via_sql = via_sql

    def answers(self, question: Question) -> list:
        database = self.databases[question.database]
        if self.via_sql:
            canonical = sql_to_canonical(
                query_sql(question.query), database.schema
            )
        else:
            canonical = repro.canonicalize(
                QUERIES[question.query][1](), database.schema
            )
        engine = repro.NedExplain(
            canonical,
            database=database,
            config=repro.NedExplainConfig(use_shared_evaluation=False),
            cache=repro.EvaluationCache(),
        )
        return normalize(engine.explain(question.predicate).to_dict()["answers"])


def check(samples, oracle: Oracle) -> list[str]:
    """One line per sampled question whose answers differ."""
    mismatches = []
    for question, answers in samples:
        expected = oracle.answers(question)
        if normalize(answers) != expected:
            mismatches.append(
                f"{question.use_case} {question.query} "
                f"{question.predicate}: got {json.dumps(answers)} "
                f"expected {json.dumps(expected)}"
            )
    return mismatches
