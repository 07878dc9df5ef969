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
it answers the ``SELECT A.aid FROM A WHERE A.name = 'Homer'`` of
Ex. 3.1 the way a DBMS would, through indexes on ``I_Q`` itself,
whichever engine built ``I_Q``:

* constant equalities narrow through hash-index lookups
  (:meth:`RelationInstance.lookup`);
* a numeric range on the one shared attribute -- ``$v op c`` atoms
  only -- is a range scan: bisection of a sorted column index
  (:meth:`RelationInstance.range_scan`);
* every other condition is decided once per distinct value of the
  shared attributes, since the decision reads nothing else of the
  tuple.  That memo is keyed by ``(type(v), v)``, not by the index's
  ``==`` buckets: ``1`` and ``True`` share a bucket, yet ``$x >= 0``
  holds for one and not the other.

The sets returned hold tuples of ``I_Q`` itself, never copies, and
``InDir`` is built once per set of indirect aliases; TabQ entries
(:mod:`repro.core.tabq`) are likewise read-only views of the cached
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from ..obs.trace import current_tracer
from ..relational.conditions import (
    Comparison,
    Condition,
    Const,
    Var,
    compare_values,
    is_satisfiable,
)
from ..robustness.budget import current_context
from ..robustness.faults import fault_point
from ..relational.instance import DatabaseInstance, RelationInstance
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
    #: identifiers of every tuple of the indirect relations (shared by
    #: every c-tuple with the same indirect aliases: do not mutate)
    indir_tids: frozenset[str]

    @cached_property
    def valid_tids(self) -> frozenset[str]:
        """``D = Dir_tc | InDir_tc`` as one set of base-tuple ids.

        SuccessorsFinder never builds it: it tests ``D``-membership on
        the two parts (:func:`repro.core.successors.find_successors`).
        """
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
    shared = sorted(t.type & tc.type)
    if not shared:
        return False
    return _values_match(
        [tc.entry(attr) for attr in shared],
        tc.condition,
        [t[attr] for attr in shared],
    )


def compatible_tuples(
    tuples: Iterable[Tuple], tc: CTuple
) -> Iterator[Tuple]:
    """The tuples of *tuples* compatible with *tc*, in order.

    Def. 2.8 per tuple (:func:`tuple_matches_ctuple`), decided once per
    distinct type and ``(type(v), v)`` values of the shared attributes,
    since the decision reads nothing else of the tuple.  The tuples of
    one relation or one node's output share one type, so a scan mostly
    reads the memo.
    """
    decided: dict[tuple, bool] = {}
    kind: frozenset[str] | None = None
    for t in tuples:
        if kind is None or not t.has_type(kind):
            kind = t.type
            shared = sorted(kind & tc.type)
            entries = [tc.entry(attr) for attr in shared]
        values = [t[attr] for attr in shared]
        key = (kind, tuple([(type(v), v) for v in values]))
        ok = decided.get(key)
        if ok is None:
            ok = decided[key] = bool(shared) and _values_match(
                entries, tc.condition, values
            )
        if ok:
            yield t


def any_compatible(tuples: Iterable[Tuple], tc: CTuple) -> bool:
    """True when some tuple of *tuples* is compatible with *tc*."""
    return next(compatible_tuples(tuples, tc), None) is not None


def _values_match(
    entries: Sequence[Value | Var],
    condition: Condition,
    values: Sequence[Value],
) -> bool:
    """Def. 2.8 (2) for a tuple's *values* on the shared *entries*.

    A variable shared by several entries binds one value: two values
    unify only when ``compare_values(a, "=", b)`` holds.  So ``0`` and
    ``False`` (or ``1`` and ``True``) never unify, and neither does a
    NULL, not even with another NULL (SQL's ``NULL = NULL`` is
    unknown).  Unified values are equal numbers, or equal values of
    one type, and satisfy the same conditions, so the decision does
    not depend on the order of the entries.
    """
    bound: dict[str, Value] = {}
    for entry, value in zip(entries, values):
        if isinstance(entry, Var):
            if entry.name in bound:
                if not compare_values(bound[entry.name], "=", value):
                    return False
                continue
            bound[entry.name] = value
        elif entry != value:
            return False
    return is_satisfiable(condition, bound)


class CompatibleFinder:
    """Computes :class:`CompatibilitySets` over a query input instance.

    ``instance`` is the query input instance ``I_Q`` (one relation per
    alias).  Constant constraints of the c-tuple are served by the
    relations' hash indexes (:meth:`RelationInstance.lookup`, the
    paper's ``SELECT ... WHERE`` of Ex. 3.1) and numeric ranges by
    their sorted column indexes (:meth:`RelationInstance.range_scan`);
    other candidates are checked against the full c-tuple, once per
    distinct value of the shared attributes.
    """

    def __init__(self, instance: DatabaseInstance):
        self.instance = instance
        #: indirect aliases -> (their relations' sizes, InDir tids).
        #: Relations only grow and tids are unique, so equal sizes mean
        #: equal contents.  Entries are built complete before they are
        #: published: worker threads share the finder.
        self._indir: dict[
            frozenset[str], tuple[tuple[int, ...], frozenset[str]]
        ] = {}

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
        return CompatibilitySets(
            ctuple=tc,
            direct=direct,
            direct_aliases=direct_aliases,
            indirect_aliases=indirect_aliases,
            dir_tids=dir_tids,
            indir_tids=self._indir_tids(indirect_aliases),
        )

    def _indir_tids(self, aliases: frozenset[str]) -> frozenset[str]:
        """The tids of every tuple of the relations *aliases*."""
        relations = [self.instance.relation(a) for a in sorted(aliases)]
        sizes = tuple(len(r) for r in relations)
        known = self._indir.get(aliases)
        if known is not None and known[0] == sizes:
            return known[1]
        tids = frozenset().union(*(r.tids for r in relations))
        self._indir[aliases] = (sizes, tids)
        return tids

    def _compatible_in(self, alias: str, tc: CTuple) -> list[Tuple]:
        relation = self.instance.relation(alias)
        equalities = [
            (attr, entry)
            for attr, entry in tc.entries()
            if alias_of(attr) == alias and not isinstance(entry, Var)
        ]
        candidates: Sequence[Tuple] | RelationInstance = relation
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
        # every tuple of the relation has the relation's type: one
        # shared attribute, bound to a variable, may make a range scan
        shared = relation.schema.type & tc.type
        if not equalities and len(shared) == 1:
            (attr,) = shared
            interval = _interval(tc.entry(attr), tc.condition)
            if interval is not None:
                return relation.range_scan(attr, *interval)
        return list(compatible_tuples(candidates, tc))


def _interval(
    entry: Value | Var, condition: Condition
) -> tuple[Value, bool, Value, bool] | None:
    """``(lower, lower_strict, upper, upper_strict)`` when *condition*
    is a conjunction of ``$v op c`` atoms on the variable *entry*, with
    ``op`` one of ``<, <=, >, >=, =`` and ``c`` a number (not a bool,
    not NaN); ``None`` for any other shape.  ``None`` bounds are open.

    Def. 2.8 then holds for exactly the numeric values inside the
    interval: a NULL, a bool, a string or a NaN fails every atom.
    """
    if not isinstance(entry, Var):
        return None
    atoms = condition.conjuncts()
    if not atoms:
        return None  # ``true`` admits every value, numeric or not
    lower = upper = None
    lower_strict = upper_strict = False
    for atom in atoms:
        if not isinstance(atom, Comparison):
            return None
        if isinstance(atom.left, Const) and isinstance(atom.right, Var):
            atom = atom.flipped()
        if not (
            isinstance(atom.left, Var)
            and atom.left.name == entry.name
            and isinstance(atom.right, Const)
            and atom.op != "!="
        ):
            return None
        c = atom.right.value
        if isinstance(c, bool) or not isinstance(c, (int, float)) or c != c:
            return None
        if atom.op in ("=", ">", ">="):
            strict = atom.op == ">"
            if lower is None or c > lower or (c == lower and strict):
                lower, lower_strict = c, strict
        if atom.op in ("=", "<", "<="):
            strict = atom.op == "<"
            if upper is None or c < upper or (c == upper and strict):
                upper, upper_strict = c, strict
    return lower, lower_strict, upper, upper_strict
