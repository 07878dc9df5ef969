"""Condition language for selections, joins, and conditional tuples.

Three kinds of terms appear in conditions:

* :class:`Attr` -- a (qualified) attribute reference, used by selection
  and theta-join conditions;
* :class:`Const` -- a literal value;
* :class:`Var` -- a variable of a conditional tuple (Def. 2.5), similar
  in spirit to labelled nulls.

Conditions are conjunctions/disjunctions of binary comparisons with the
comparison operators of Def. 2.5 (``=, !=, <, >, <=, >=``).  Evaluation
follows SQL three-valued logic collapsed to two values: any comparison
involving ``NULL`` (Python ``None``) or incomparable types is false.

The module also provides :func:`is_satisfiable`, the decision procedure
behind c-tuple compatibility (Def. 2.8 asks whether *some* valuation of
the free variables satisfies ``tc.cond``).  Conditions of the paper's
grammar -- comparisons between variables and constants or between
variables -- form order constraints over dense domains; satisfiability
is decided by union-find over equalities followed by bound propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..errors import ConditionError
from .tuples import Tuple, Value

#: Comparison operators of Def. 2.5.
COMPARISON_OPS = ("=", "!=", "<", ">", "<=", ">=")

_NEGATION = {
    "=": "!=",
    "!=": "=",
    "<": ">=",
    ">": "<=",
    "<=": ">",
    ">=": "<",
}

_FLIP = {
    "=": "=",
    "!=": "!=",
    "<": ">",
    ">": "<",
    "<=": ">=",
    ">=": "<=",
}


def _comparable(a: Value, b: Value) -> bool:
    """True when *a* and *b* live in the same ordered domain."""
    if a is None or b is None:
        return False
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return True
    return type(a) is type(b)


def join_key(value: Value) -> Value:
    """*value* as a hash key that matches only what it compares ``=`` to.

    Python hashes ``True`` like ``1`` and finds them equal, while
    :func:`compare_values` keeps booleans apart from numbers; so a
    boolean is keyed with its domain.  Every other value is its own
    key: ``1`` and ``1.0`` still match.  NULL is the caller's to skip.
    """
    return (bool, value) if value.__class__ is bool else value


def compare_values(a: Value, op: str, b: Value) -> bool:
    """Apply comparison *op* to two values under SQL-like semantics.

    ``NULL`` and cross-domain comparisons are false (SQL's *unknown*
    collapsed to false), so selections silently drop such tuples rather
    than crash -- the behaviour a query debugger must mirror.
    """
    if op not in COMPARISON_OPS:
        raise ConditionError(f"unknown comparison operator {op!r}")
    if not _comparable(a, b):
        return False
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    if op == "<=":
        return a <= b
    return a >= b


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Attr:
    """A reference to a (qualified) attribute of the evaluated tuple."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A literal value."""

    value: Value

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Var:
    """A variable of a conditional tuple (Def. 2.4 / 2.5)."""

    name: str

    def __repr__(self) -> str:
        return f"${self.name}"


Term = Attr | Const | Var


def _resolve(
    term: Term,
    t: Tuple | None,
    valuation: Mapping[str, Value] | None,
) -> tuple[bool, Value]:
    """Resolve *term* to a value.

    Returns ``(resolved, value)``; ``resolved`` is False for a variable
    absent from the valuation.
    """
    if isinstance(term, Const):
        return True, term.value
    if isinstance(term, Attr):
        if t is None or term.name not in t:
            raise ConditionError(
                f"attribute {term.name!r} cannot be resolved against "
                f"{'no tuple' if t is None else sorted(t.type)}"
            )
        return True, t[term.name]
    if valuation is not None and term.name in valuation:
        return True, valuation[term.name]
    return False, None


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------
def _freeze_names(condition: "Condition", parts: Iterable) -> None:
    """Store the attribute and variable names of an immutable condition
    built from *parts* (terms or sub-conditions), once: Def. 2.8 asks
    for them on every satisfiability check."""
    attributes: set[str] = set()
    variables: set[str] = set()
    for part in parts:
        if isinstance(part, Attr):
            attributes.add(part.name)
        elif isinstance(part, Var):
            variables.add(part.name)
        elif isinstance(part, Condition):
            attributes |= part.attributes()
            variables |= part.variables()
    object.__setattr__(condition, "_attributes", frozenset(attributes))
    object.__setattr__(condition, "_variables", frozenset(variables))


class Condition:
    """Abstract base of all conditions."""

    def evaluate(
        self,
        t: Tuple | None = None,
        valuation: Mapping[str, Value] | None = None,
    ) -> bool:
        """Evaluate against tuple *t* and variable *valuation*."""
        raise NotImplementedError

    def attributes(self) -> frozenset[str]:
        """All attribute names referenced by the condition."""
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        """All variable names referenced by the condition."""
        raise NotImplementedError

    def conjuncts(self) -> tuple["Condition", ...]:
        """Flatten a conjunction into its atomic parts."""
        return (self,)

    def negated(self) -> "Condition":
        """Return the logical negation of this condition."""
        raise NotImplementedError

    def rename_attributes(self, mapping: Mapping[str, str]) -> "Condition":
        """Return a copy with attribute names rewritten via *mapping*."""
        raise NotImplementedError

    def __and__(self, other: "Condition") -> "Condition":
        return And.of(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return Or.of(self, other)


@dataclass(frozen=True)
class TrueCondition(Condition):
    """The trivially true condition (the ``true`` of Def. 2.5)."""

    def evaluate(self, t=None, valuation=None) -> bool:
        return True

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def variables(self) -> frozenset[str]:
        return frozenset()

    def conjuncts(self) -> tuple[Condition, ...]:
        return ()

    def negated(self) -> Condition:
        return FalseCondition()

    def rename_attributes(self, mapping) -> Condition:
        return self

    def __repr__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseCondition(Condition):
    """The trivially false condition (negation closure helper)."""

    def evaluate(self, t=None, valuation=None) -> bool:
        return False

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def variables(self) -> frozenset[str]:
        return frozenset()

    def negated(self) -> Condition:
        return TrueCondition()

    def rename_attributes(self, mapping) -> Condition:
        return self

    def __repr__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Comparison(Condition):
    """A binary comparison ``left op right``."""

    left: Term
    op: str
    right: Term

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ConditionError(f"unknown comparison operator {self.op!r}")
        _freeze_names(self, (self.left, self.right))

    def evaluate(self, t=None, valuation=None) -> bool:
        ok_l, lhs = _resolve(self.left, t, valuation)
        ok_r, rhs = _resolve(self.right, t, valuation)
        if not ok_l or not ok_r:
            raise ConditionError(
                f"unbound variable in comparison {self!r}"
            )
        return compare_values(lhs, self.op, rhs)

    def attributes(self) -> frozenset[str]:
        return self._attributes

    def variables(self) -> frozenset[str]:
        return self._variables

    def negated(self) -> Condition:
        return Comparison(self.left, _NEGATION[self.op], self.right)

    def flipped(self) -> "Comparison":
        """Return the same constraint with operands swapped."""
        return Comparison(self.right, _FLIP[self.op], self.left)

    def rename_attributes(self, mapping) -> Condition:
        def rewrite(term: Term) -> Term:
            if isinstance(term, Attr) and term.name in mapping:
                return Attr(mapping[term.name])
            return term

        return Comparison(rewrite(self.left), self.op, rewrite(self.right))

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"


@dataclass(frozen=True)
class And(Condition):
    """A conjunction of conditions."""

    parts: tuple[Condition, ...]

    @classmethod
    def of(cls, *parts: Condition) -> Condition:
        """Build a flattened conjunction, simplifying trivia."""
        flat: list[Condition] = []
        for part in parts:
            if isinstance(part, TrueCondition):
                continue
            if isinstance(part, FalseCondition):
                return FalseCondition()
            if isinstance(part, And):
                flat.extend(part.parts)
            else:
                flat.append(part)
        if not flat:
            return TrueCondition()
        if len(flat) == 1:
            return flat[0]
        return cls(tuple(flat))

    def __post_init__(self) -> None:
        _freeze_names(self, self.parts)

    def evaluate(self, t=None, valuation=None) -> bool:
        return all(part.evaluate(t, valuation) for part in self.parts)

    def attributes(self) -> frozenset[str]:
        return self._attributes

    def variables(self) -> frozenset[str]:
        return self._variables

    def conjuncts(self) -> tuple[Condition, ...]:
        flat: list[Condition] = []
        for part in self.parts:
            flat.extend(part.conjuncts())
        return tuple(flat)

    def negated(self) -> Condition:
        return Or.of(*(part.negated() for part in self.parts))

    def rename_attributes(self, mapping) -> Condition:
        return And.of(*(p.rename_attributes(mapping) for p in self.parts))

    def __repr__(self) -> str:
        return " and ".join(f"({part!r})" for part in self.parts)


@dataclass(frozen=True)
class Or(Condition):
    """A disjunction of conditions."""

    parts: tuple[Condition, ...]

    @classmethod
    def of(cls, *parts: Condition) -> Condition:
        """Build a flattened disjunction, simplifying trivia."""
        flat: list[Condition] = []
        for part in parts:
            if isinstance(part, FalseCondition):
                continue
            if isinstance(part, TrueCondition):
                return TrueCondition()
            if isinstance(part, Or):
                flat.extend(part.parts)
            else:
                flat.append(part)
        if not flat:
            return FalseCondition()
        if len(flat) == 1:
            return flat[0]
        return cls(tuple(flat))

    def __post_init__(self) -> None:
        _freeze_names(self, self.parts)

    def evaluate(self, t=None, valuation=None) -> bool:
        return any(part.evaluate(t, valuation) for part in self.parts)

    def attributes(self) -> frozenset[str]:
        return self._attributes

    def variables(self) -> frozenset[str]:
        return self._variables

    def negated(self) -> Condition:
        return And.of(*(part.negated() for part in self.parts))

    def rename_attributes(self, mapping) -> Condition:
        return Or.of(*(p.rename_attributes(mapping) for p in self.parts))

    def __repr__(self) -> str:
        return " or ".join(f"({part!r})" for part in self.parts)


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------
def attr_cmp(attribute: str, op: str, value: Value) -> Comparison:
    """``attribute op literal`` -- the common selection condition."""
    return Comparison(Attr(attribute), op, Const(value))


def attr_attr_cmp(left: str, op: str, right: str) -> Comparison:
    """``attribute op attribute`` -- a theta-join style condition."""
    return Comparison(Attr(left), op, Attr(right))


def var_cmp(variable: str, op: str, value: Value) -> Comparison:
    """``variable op literal`` -- a c-tuple condition (Def. 2.5)."""
    return Comparison(Var(variable), op, Const(value))


def var_var_cmp(left: str, op: str, right: str) -> Comparison:
    """``variable op variable`` -- a c-tuple condition (Def. 2.5)."""
    return Comparison(Var(left), op, Var(right))


# ---------------------------------------------------------------------------
# Satisfiability of c-tuple conditions
# ---------------------------------------------------------------------------
@dataclass
class _Bounds:
    """Interval-with-exclusions over a dense ordered domain."""

    lower: Value = None
    lower_strict: bool = False
    upper: Value = None
    upper_strict: bool = False
    excluded: set[Value] = None  # type: ignore[assignment]
    pinned: Value = None
    is_pinned: bool = False

    def __post_init__(self) -> None:
        if self.excluded is None:
            self.excluded = set()

    def pin(self, value: Value) -> bool:
        """Constrain to exactly *value*; False on contradiction."""
        if self.is_pinned:
            return self.pinned == value
        self.is_pinned = True
        self.pinned = value
        return self._check()

    def exclude(self, value: Value) -> bool:
        self.excluded.add(value)
        return self._check()

    def tighten_lower(self, value: Value, strict: bool) -> bool:
        if self.lower is None or _gt(value, self.lower) or (
            value == self.lower and strict and not self.lower_strict
        ):
            self.lower, self.lower_strict = value, strict
        return self._check()

    def tighten_upper(self, value: Value, strict: bool) -> bool:
        if self.upper is None or _lt(value, self.upper) or (
            value == self.upper and strict and not self.upper_strict
        ):
            self.upper, self.upper_strict = value, strict
        return self._check()

    def _check(self) -> bool:
        if self.is_pinned:
            v = self.pinned
            if v in self.excluded:
                return False
            if self.lower is not None and (
                _lt(v, self.lower) or (v == self.lower and self.lower_strict)
            ):
                return False
            if self.upper is not None and (
                _gt(v, self.upper) or (v == self.upper and self.upper_strict)
            ):
                return False
            return True
        if self.lower is not None and self.upper is not None:
            if _gt(self.lower, self.upper):
                return False
            if self.lower == self.upper:
                if self.lower_strict or self.upper_strict:
                    return False
                # the interval collapsed to a point
                if self.lower in self.excluded:
                    return False
        return True


def _lt(a: Value, b: Value) -> bool:
    return _comparable(a, b) and a < b


def _gt(a: Value, b: Value) -> bool:
    return _comparable(a, b) and a > b


class _UnionFind:
    """Union-find over variable names."""

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def find(self, name: str) -> str:
        parent = self._parent.setdefault(name, name)
        if parent == name:
            return name
        root = self.find(parent)
        self._parent[name] = root
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


def is_satisfiable(
    condition: Condition,
    bound: Mapping[str, Value] | None = None,
) -> bool:
    """Decide whether *condition* has a satisfying variable valuation.

    *bound* pre-assigns values to some variables (in Def. 2.8 these are
    the variables fixed by the shared attributes of the c-tuple and the
    candidate source tuple); the remaining variables are free and range
    over dense ordered domains.

    Supports the grammar of Def. 2.5 -- conjunctions of ``x cop y`` and
    ``x cop a`` -- plus disjunctions (checked branch-wise).  Raises
    :class:`ConditionError` when the condition references attributes.

    A condition whose variables are all bound is ground: it is decided
    by evaluating it, which is exact because the solver decides
    constant-constant atoms with the same :func:`compare_values`.
    """
    bound = bound or {}
    if condition.attributes():
        raise ConditionError(
            "satisfiability is defined for variable/constant conditions "
            f"only; got attributes {sorted(condition.attributes())}"
        )
    if condition.variables() <= bound.keys():
        return condition.evaluate(valuation=bound)
    if isinstance(condition, Or):
        return any(is_satisfiable(part, bound) for part in condition.parts)

    comparisons: list[Comparison] = []
    for part in condition.conjuncts():
        if isinstance(part, TrueCondition):
            continue
        if isinstance(part, FalseCondition):
            return False
        if isinstance(part, Or):
            # Rare mixed form: distribute by trying each branch with
            # the remaining conjuncts -- handled by full expansion.
            return any(
                is_satisfiable(
                    And.of(
                        branch,
                        *(c for c in condition.conjuncts() if c is not part),
                    ),
                    bound,
                )
                for branch in part.parts
            )
        if not isinstance(part, Comparison):
            raise ConditionError(f"unsupported condition node {part!r}")
        comparisons.append(_substitute_bound(part, bound))

    return _solve(comparisons)


def _substitute_bound(
    comparison: Comparison, bound: Mapping[str, Value]
) -> Comparison:
    def sub(term: Term) -> Term:
        if isinstance(term, Var) and term.name in bound:
            return Const(bound[term.name])
        return term

    return Comparison(sub(comparison.left), comparison.op, sub(comparison.right))


def _solve(comparisons: Sequence[Comparison]) -> bool:
    """Decide a conjunction of var/const order constraints."""
    uf = _UnionFind()
    residual: list[Comparison] = []

    # Pass 1: merge equalities between variables.
    for cmp in comparisons:
        if (
            cmp.op == "="
            and isinstance(cmp.left, Var)
            and isinstance(cmp.right, Var)
        ):
            uf.union(cmp.left.name, cmp.right.name)
        else:
            residual.append(cmp)

    def canonical(term: Term) -> Term:
        if isinstance(term, Var):
            return Var(uf.find(term.name))
        return term

    bounds: dict[str, _Bounds] = {}

    def bounds_of(name: str) -> _Bounds:
        return bounds.setdefault(name, _Bounds())

    var_edges: list[tuple[str, str, bool]] = []  # a < b (strict?)
    neq_pairs: list[tuple[str, str]] = []

    for cmp in residual:
        left, right = canonical(cmp.left), canonical(cmp.right)
        op = cmp.op
        if isinstance(left, Const) and isinstance(right, Const):
            if not compare_values(left.value, op, right.value):
                return False
            continue
        if isinstance(left, Const):
            left, right, op = right, left, _FLIP[op]
        # now left is a Var
        assert isinstance(left, Var)
        name = left.name
        if isinstance(right, Const):
            value = right.value
            ok = True
            if op == "=":
                ok = bounds_of(name).pin(value)
            elif op == "!=":
                ok = bounds_of(name).exclude(value)
            elif op == "<":
                ok = bounds_of(name).tighten_upper(value, strict=True)
            elif op == "<=":
                ok = bounds_of(name).tighten_upper(value, strict=False)
            elif op == ">":
                ok = bounds_of(name).tighten_lower(value, strict=True)
            else:
                ok = bounds_of(name).tighten_lower(value, strict=False)
            if not ok:
                return False
        else:
            other = right.name
            if op == "=":
                # equality discovered after the union pass; conservative
                # merge by pinning both through shared bounds
                uf.union(name, other)
                return _solve(
                    [
                        _canonicalize_all(c, uf)
                        for c in residual
                        if c is not cmp
                    ]
                )
            if op == "!=":
                if name == other:
                    return False
                neq_pairs.append((name, other))
            elif op in ("<", "<="):
                if name == other:
                    if op == "<":
                        return False
                    continue
                var_edges.append((name, other, op == "<"))
            else:
                if name == other:
                    if op == ">":
                        return False
                    continue
                var_edges.append((other, name, op == ">"))
            bounds_of(name)
            bounds_of(other)

    # Pass 2: propagate interval bounds across variable order edges
    # until a fixed point (at most |vars| * |edges| rounds).
    for _ in range(max(1, len(bounds))):
        changed = False
        for low, high, strict in var_edges:
            lo, hi = bounds[low], bounds[high]
            if hi.is_pinned:
                lo_upper = (hi.pinned, strict)
            else:
                lo_upper = (hi.upper, hi.upper_strict or strict)
            if lo_upper[0] is not None:
                before = (lo.upper, lo.upper_strict, lo.is_pinned)
                if not lo.tighten_upper(lo_upper[0], lo_upper[1]):
                    return False
                changed |= before != (lo.upper, lo.upper_strict, lo.is_pinned)
            hi_lower = (
                (lo.pinned, strict)
                if lo.is_pinned
                else (lo.lower, lo.lower_strict or strict)
            )
            if hi_lower[0] is not None:
                before = (hi.lower, hi.lower_strict, hi.is_pinned)
                if not hi.tighten_lower(hi_lower[0], hi_lower[1]):
                    return False
                changed |= before != (hi.lower, hi.lower_strict, hi.is_pinned)
        if not changed:
            break

    # Pass 3: strict cycles among free variables (a < b, b < a).
    if _has_strict_cycle(var_edges):
        return False

    # Pass 4: disequalities between two pinned variables.
    for a, b in neq_pairs:
        ba, bb = bounds[a], bounds[b]
        if ba.is_pinned and bb.is_pinned and ba.pinned == bb.pinned:
            return False
    return True


def _canonicalize_all(cmp: Comparison, uf: _UnionFind) -> Comparison:
    def canon(term: Term) -> Term:
        if isinstance(term, Var):
            return Var(uf.find(term.name))
        return term

    return Comparison(canon(cmp.left), cmp.op, canon(cmp.right))


def _has_strict_cycle(edges: Iterable[tuple[str, str, bool]]) -> bool:
    """Detect a cycle containing a strict edge in the order graph."""
    adjacency: dict[str, list[tuple[str, bool]]] = {}
    for low, high, strict in edges:
        adjacency.setdefault(low, []).append((high, strict))
        adjacency.setdefault(high, [])

    # A <=-cycle is fine (all equal); a cycle with any < is not.  We
    # check reachability: if u -> ... -> u via a path with a strict
    # edge, report a contradiction.
    nodes = list(adjacency)
    for start in nodes:
        # BFS carrying "saw a strict edge" flags
        seen: dict[str, bool] = {}
        frontier: list[tuple[str, bool]] = [(start, False)]
        while frontier:
            node, strict_seen = frontier.pop()
            for nxt, strict in adjacency.get(node, ()):  # pragma: no branch
                flag = strict_seen or strict
                if nxt == start and flag:
                    return True
                if seen.get(nxt) is None or (flag and not seen[nxt]):
                    seen[nxt] = flag
                    frontier.append((nxt, flag))
    return False
