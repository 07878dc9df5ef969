"""Property tests for the per-value Def. 2.8 decision.

:class:`CompatibleFinder` decides compatibility once per distinct
``(type, value)`` of the shared attributes, and :func:`is_satisfiable`
decides a fully bound condition by evaluating it.  Both are checked
here against the plain definitions, on columns that mix values Python
calls equal but Def. 2.8 keeps apart (``1``, ``True``, ``1.0``), NULLs
and NaNs:

* the finder returns exactly the tuples, in relation order, that
  per-tuple :func:`tuple_matches_ctuple` accepts;
* the ground fast path of :func:`is_satisfiable` agrees with the full
  solver on fully bound ``And``/``Or``/``true``/``false`` conditions.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core import CTuple, CompatibleFinder, tuple_matches_ctuple
from repro.relational import (
    And,
    Comparison,
    Const,
    DatabaseInstance,
    Or,
    Var,
    is_satisfiable,
)
from repro.relational.conditions import (
    COMPARISON_OPS,
    FalseCondition,
    TrueCondition,
)
from repro.relational.schema import DatabaseSchema, RelationSchema

_NAN = object()
# equal values of distinct types, NULL and NaN (a fresh NaN object per
# draw: the memo must not rely on NaN identity)
_VALUES = st.sampled_from(
    [0, 1, True, False, 1.0, 0.0, -0.0, 2, 2.5, "1", None, _NAN]
).map(lambda v: float("nan") if v is _NAN else v)
_VARIABLES = ("x", "y")


@st.composite
def _relation(draw):
    """``I_Q`` with one relation ``R(id, a, b)`` over mixed values."""
    schema = RelationSchema("R", ("id", "a", "b"))
    instance = DatabaseInstance(DatabaseSchema((schema,)))
    # a few values per column, repeated: memo hits and misses both
    domain = st.sampled_from(draw(st.lists(_VALUES, min_size=2, max_size=4)))
    rows = draw(st.lists(st.tuples(domain, domain), min_size=1, max_size=10))
    for i, (a, b) in enumerate(rows):
        instance.insert_values("R", f"R:{i}", id=i, a=a, b=b)
    return instance


def _atoms(names):
    """``$v op c`` and ``$v op $w`` over the variables *names*."""
    return st.builds(
        Comparison,
        st.sampled_from(names).map(Var),
        st.sampled_from(COMPARISON_OPS),
        st.one_of(
            _VALUES.map(Const),
            _VALUES.map(Const),
            _VALUES.map(Const),
            st.sampled_from(names).map(Var),
        ),
    )


def _conditions(names):
    """And/Or trees of comparisons, with ``true`` and ``false``."""
    leaves = st.one_of(
        _atoms(names),
        st.sampled_from([TrueCondition(), FalseCondition()]),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(
                lambda parts: And(tuple(parts))
            ),
            st.lists(inner, min_size=2, max_size=3).map(
                lambda parts: Or(tuple(parts))
            ),
        ),
        max_leaves=4,
    )


def _entry(draw, variables):
    """A constant, or one of *variables*."""
    if draw(st.booleans()):
        return draw(_VALUES)
    return Var(draw(st.sampled_from(variables)))


@st.composite
def _ctuple(draw):
    """A c-tuple over R (and maybe an alias outside ``I_Q``) with
    constants, variables, and range or ``!=`` conditions.  ``R.a``
    is mostly the variable ``$x``, so the condition reads the column."""
    entries = {
        "R.a": Var("x") if draw(st.integers(0, 3)) else draw(_VALUES)
    }
    if draw(st.booleans()):
        entries["R.b"] = _entry(draw, _VARIABLES)
    if draw(st.booleans()):
        entries["T.z"] = Var("z")  # never bound: the solver decides
    names = sorted(
        {e.name for e in entries.values() if isinstance(e, Var)}
    )
    condition = (
        draw(_conditions(names)) if names else TrueCondition()
    )
    return CTuple(entries, condition)


def _one_and_true():
    """``1`` and ``True`` share an index bucket, yet ``$x >= 0`` holds
    for ``1`` only: ``_comparable`` keeps bools apart."""
    schema = RelationSchema("R", ("id", "a", "b"))
    instance = DatabaseInstance(DatabaseSchema((schema,)))
    instance.insert_values("R", "R:0", id=0, a=True, b=0)
    instance.insert_values("R", "R:1", id=1, a=1, b=0)
    tc = CTuple({"R.a": Var("x")}, Comparison(Var("x"), ">=", Const(0)))
    return instance, tc


@settings(max_examples=200)
@given(_relation(), _ctuple())
@example(*_one_and_true())
def test_finder_matches_tuple_by_tuple(instance, tc):
    relation = instance.relation("R")
    expected = tuple(t for t in relation if tuple_matches_ctuple(t, tc))
    sets = CompatibleFinder(instance).find(tc)
    assert sets.direct.get("R", ()) == expected
    # same objects, in relation order
    assert all(
        a is b for a, b in zip(sets.direct.get("R", ()), expected)
    )


@given(
    _conditions(_VARIABLES),
    st.fixed_dictionaries({name: _VALUES for name in _VARIABLES}),
)
def test_ground_fast_path_agrees_with_the_solver(condition, bound):
    # a free, trivially satisfiable conjunct sends the same question
    # down the full solver: bound variables become constants there
    free = Comparison(Var("free"), "<=", Var("free"))
    solved = is_satisfiable(And.of(condition, free), bound)
    assert is_satisfiable(condition, bound) == solved
