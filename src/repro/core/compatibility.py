"""Compatibility of source tuples with a c-tuple (Def. 2.8).

Given an unrenamed c-tuple ``tc`` and the query input instance ``I_Q``,
this module computes

* the **direct compatible set** ``Dir_tc`` -- the source tuples that
  carry the constant values / satisfiable variable bindings of ``tc``,
  with the paper's requirement that all pairs of ``tc`` referencing the
  same relation co-occur in the same source tuple (Sec. 3.1, step 2a);
* ``S_tc`` -- the relation aliases typing the tuples of ``Dir_tc``;
* the **indirect compatible set** ``InDir_tc`` -- the full instance of
  every relation in ``S_Q - S_tc`` (data needed to *produce* the
  missing answer but not constrained by it).

``Dir_tc | InDir_tc`` is the tuple set ``D`` against which successors
are validated (Notation 2.1).

The :class:`CompatibleFinder` mirrors the paper's implementation note:
it retrieves candidates through hash-index lookups on ``I_Q`` itself
(the ``SELECT A.aid FROM A WHERE A.name = 'Homer'`` of Ex. 3.1)
instead of scanning the instance, whichever engine built ``I_Q``.
Range and residual conditions get no index; instead, Def. 2.8 is
decided once per distinct value of the shared attributes, since the
decision reads nothing else of the tuple.  The memo is keyed by
``(type(v), v)``, not by the index's ``==`` buckets: ``1`` and
``True`` share a bucket, yet ``$x >= 0`` holds for one and not the
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from ..obs.trace import current_tracer
from ..relational.conditions import Condition, Var, is_satisfiable
from ..robustness.budget import current_context
from ..robustness.faults import fault_point
from ..relational.instance import DatabaseInstance
from ..relational.tuples import Tuple, Value, alias_of
from .whynot_question import CTuple


@dataclass(frozen=True)
class CompatibilitySets:
    """The outcome of CompatibleFinder for one c-tuple."""

    ctuple: CTuple
    #: alias -> compatible tuples of that relation (only aliases with hits)
    direct: Mapping[str, tuple[Tuple, ...]]
    #: S_tc: aliases typing the direct compatible tuples
    direct_aliases: frozenset[str]
    #: S_Q - S_tc
    indirect_aliases: frozenset[str]
    #: identifiers of the direct compatible tuples
    dir_tids: frozenset[str]
    #: identifiers of every tuple of the indirect relations
    indir_tids: frozenset[str]

    @cached_property
    def valid_tids(self) -> frozenset[str]:
        """``D = Dir_tc | InDir_tc`` as a set of base-tuple ids
        (built once: every node of the traversal reads it)."""
        return self.dir_tids | self.indir_tids

    def direct_tuples(self) -> tuple[Tuple, ...]:
        """All direct compatible tuples, grouped by alias order."""
        out: list[Tuple] = []
        for alias in sorted(self.direct):
            out.extend(self.direct[alias])
        return tuple(out)

    @property
    def is_empty(self) -> bool:
        """True when no source tuple is compatible with the c-tuple."""
        return not self.dir_tids


def tuple_matches_ctuple(t: Tuple, tc: CTuple) -> bool:
    """Decide Def. 2.8 for one source tuple.

    ``t`` is compatible with ``tc`` iff (1) they share attributes and
    (2) some valuation equates the shared entries and satisfies
    ``tc.cond``: constants must match exactly, variables are bound to
    the tuple's values, and the residual condition must stay
    satisfiable.
    """
    shared = t.type & tc.type
    if not shared:
        return False
    return _values_match(
        [tc.entry(attr) for attr in shared],
        tc.condition,
        [t[attr] for attr in shared],
    )


def _values_match(
    entries: Sequence[Value | Var],
    condition: Condition,
    values: Sequence[Value],
) -> bool:
    """Def. 2.8 (2) for a tuple's *values* on the shared *entries*."""
    bound: dict[str, Value] = {}
    for entry, value in zip(entries, values):
        if isinstance(entry, Var):
            if entry.name in bound and bound[entry.name] != value:
                return False
            bound[entry.name] = value
        elif entry != value:
            return False
    return is_satisfiable(condition, bound)


class CompatibleFinder:
    """Computes :class:`CompatibilitySets` over a query input instance.

    ``instance`` is the query input instance ``I_Q`` (one relation per
    alias).  Constant constraints of the c-tuple are served by the
    relations' hash indexes (:meth:`RelationInstance.lookup`, the
    paper's ``SELECT ... WHERE`` of Ex. 3.1); only those candidates are
    checked against the full c-tuple, once per distinct value of the
    shared attributes.
    """

    def __init__(self, instance: DatabaseInstance):
        self.instance = instance

    def find(self, tc: CTuple) -> CompatibilitySets:
        """Compute ``Dir_tc`` / ``InDir_tc`` for the c-tuple."""
        fault_point("compatible.find")
        tracer = current_tracer()
        if tracer is None:
            return self._find(tc)
        with tracer.span(
            "find", category="compatible", ctuple=str(tc)
        ) as span:
            sets = self._find(tc)
            span.set_tag("direct", len(sets.dir_tids))
            span.set_tag("indirect", len(sets.indir_tids))
            tracer.metrics.counter("compatible.finds").inc()
            return sets

    def _find(self, tc: CTuple) -> CompatibilitySets:
        constrained = frozenset(
            alias
            for alias in (alias_of(attr) for attr in tc.type)
            if alias is not None and alias in self.instance
        )
        direct: dict[str, tuple[Tuple, ...]] = {}
        for alias in sorted(constrained):
            hits = self._compatible_in(alias, tc)
            if hits:
                direct[alias] = tuple(hits)
        direct_aliases = frozenset(direct)
        all_aliases = frozenset(self.instance.relation_names())
        indirect_aliases = all_aliases - direct_aliases
        dir_tids = frozenset(
            t.tid for hits in direct.values() for t in hits if t.tid
        )
        indir_tids = frozenset().union(
            *(self.instance.relation(alias).tids for alias in indirect_aliases)
        )
        return CompatibilitySets(
            ctuple=tc,
            direct=direct,
            direct_aliases=direct_aliases,
            indirect_aliases=indirect_aliases,
            dir_tids=dir_tids,
            indir_tids=indir_tids,
        )

    def _compatible_in(self, alias: str, tc: CTuple) -> list[Tuple]:
        relation = self.instance.relation(alias)
        equalities = [
            (attr, entry)
            for attr, entry in tc.entries()
            if alias_of(attr) == alias and not isinstance(entry, Var)
        ]
        candidates: Sequence[Tuple] = relation.tuples
        if equalities:
            # start from the most selective index bucket
            first = min(
                equalities, key=lambda eq: len(relation.lookup(*eq))
            )
            rest = [eq for eq in equalities if eq[0] != first[0]]
            candidates = [
                t
                for t in relation.lookup(*first)
                if all(t[attr] == value for attr, value in rest)
            ]
        context = current_context()
        if context is not None:
            context.tick_comparisons(len(candidates))
        # every tuple of the relation has the relation's type, so the
        # shared attributes -- all Def. 2.8 reads -- are the same for all
        shared = sorted(relation.schema.type & tc.type)
        entries = [tc.entry(attr) for attr in shared]
        decided: dict[tuple, bool] = {}
        hits: list[Tuple] = []
        for t in candidates:
            values = [t[attr] for attr in shared]
            key = tuple([(type(v), v) for v in values])
            ok = decided.get(key)
            if ok is None:
                ok = decided[key] = _values_match(
                    entries, tc.condition, values
                )
            if ok:
                hits.append(t)
        return hits
