"""Property tests for the per-value Def. 2.8 decision.

:class:`CompatibleFinder` decides compatibility once per distinct
``(type, value)`` of the shared attributes, and :func:`is_satisfiable`
decides a fully bound condition by evaluating it.  Both are checked
here against the plain definitions, on columns that mix values Python
calls equal but Def. 2.8 keeps apart (``1``, ``True``, ``1.0``), NULLs
and NaNs:

* the finder returns exactly the tuples, in relation order, that
  per-tuple :func:`tuple_matches_ctuple` accepts, and
  :func:`any_compatible` says whether there is one;
* the ground fast path of :func:`is_satisfiable` agrees with the full
  solver on fully bound ``And``/``Or``/``true``/``false`` conditions;
* a range condition, decided by bisecting the relation's sorted column
  index, keeps exactly what Def. 2.8 keeps tuple by tuple;
* a variable repeated over several attributes unifies two values only
  when ``compare_values(a, "=", b)`` holds, whatever the attribute
  order (so never across domains, and never for NULL).
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import CTuple, CompatibleFinder, tuple_matches_ctuple
from repro.core.compatibility import (
    _interval,
    _values_match,
    any_compatible,
)
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
    compare_values,
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


def _zero_and_false():
    """``$x`` bound by ``R.a = 0`` and ``R.b = False``: the two values
    are ``==`` in Python but do not unify, in either attribute order."""
    schema = RelationSchema("R", ("id", "a", "b"))
    instance = DatabaseInstance(DatabaseSchema((schema,)))
    instance.insert_values("R", "R:0", id=0, a=0, b=False)
    instance.insert_values("R", "R:1", id=1, a=False, b=0)
    tc = CTuple(
        {"R.a": Var("x"), "R.b": Var("x")},
        Comparison(Var("x"), "=", Const(0)),
    )
    return instance, tc


@settings(max_examples=200)
@given(_relation(), _ctuple())
@example(*_one_and_true())
@example(*_zero_and_false())
def test_finder_matches_tuple_by_tuple(instance, tc):
    relation = instance.relation("R")
    expected = tuple(t for t in relation if tuple_matches_ctuple(t, tc))
    sets = CompatibleFinder(instance).find(tc)
    assert sets.direct.get("R", ()) == expected
    # same objects, in relation order
    assert all(
        a is b for a, b in zip(sets.direct.get("R", ()), expected)
    )
    assert any_compatible(relation, tc) == bool(expected)


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


# ---------------------------------------------------------------------------
# A repeated variable: unification by compare_values, order-free
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "a, b, unify",
    [
        (0, False, False),  # == in Python, distinct domains
        (1, True, False),
        (True, True, True),
        (1, 1.0, True),  # one numeric domain
        (0.0, -0.0, True),
        ("1", 1, False),
        (None, None, False),  # NULL = NULL is unknown: never unifies
        (None, 0, False),
        (float("nan"), float("nan"), False),
    ],
)
def test_repeated_variable_unifies_in_both_orders(a, b, unify):
    """Both attribute orders, both value placements, with and without
    a condition: the decision is ``compare_values(a, "=", b)`` (and
    the condition, when there is one)."""
    assert compare_values(a, "=", b) == unify == compare_values(b, "=", a)
    schema = RelationSchema("R", ("id", "a", "b"))
    instance = DatabaseInstance(DatabaseSchema((schema,)))
    first = instance.insert_values("R", "R:0", id=0, a=a, b=b)
    second = instance.insert_values("R", "R:1", id=1, a=b, b=a)
    for condition in (TrueCondition(), Comparison(Var("x"), ">=", Const(0))):
        expected = unify and (
            isinstance(condition, TrueCondition)
            or (
                compare_values(a, ">=", 0) and compare_values(b, ">=", 0)
            )
        )
        for entries in (
            {"R.a": Var("x"), "R.b": Var("x")},
            {"R.b": Var("x"), "R.a": Var("x")},
        ):
            tc = CTuple(entries, condition)
            assert tuple_matches_ctuple(first, tc) == expected
            assert tuple_matches_ctuple(second, tc) == expected
            hits = CompatibleFinder(instance).find(tc).direct.get("R", ())
            assert hits == ((first, second) if expected else ())
        for values in ((a, b), (b, a)):
            assert (
                _values_match([Var("x"), Var("x")], condition, values)
                == expected
            )


def test_a_single_null_binding_is_kept():
    """The NULL rule covers unification only: a variable bound once to
    NULL is compatible when the condition does not read it."""
    schema = RelationSchema("R", ("id", "a", "b"))
    instance = DatabaseInstance(DatabaseSchema((schema,)))
    t = instance.insert_values("R", "R:0", id=0, a=None, b=1)
    assert tuple_matches_ctuple(t, CTuple({"R.a": Var("x")}))
    assert not tuple_matches_ctuple(
        t, CTuple({"R.a": Var("x")}, Comparison(Var("x"), ">=", Const(0)))
    )


# ---------------------------------------------------------------------------
# Ranges decided by bisection
# ---------------------------------------------------------------------------
#: ints and floats tied at the bounds, -0.0, and numbers between them
_NUMBERS = (-1, 0, 0.0, -0.0, 1, 1.0, 2, 2.0, 2.5, 3)
#: a mixed column: numbers plus every value no numeric bound admits
_COLUMN = st.sampled_from(
    [*_NUMBERS, True, False, None, "1", "x", _NAN]
).map(lambda v: float("nan") if v is _NAN else v)
_RANGE_OPS = ("<", "<=", ">", ">=", "=")


@st.composite
def _range_atom(draw):
    """``$x op c`` (or ``c op $x``) with a number ``c``."""
    atom = Comparison(
        Var("x"),
        draw(st.sampled_from(_RANGE_OPS)),
        Const(draw(st.sampled_from(_NUMBERS))),
    )
    return atom.flipped() if draw(st.booleans()) else atom


#: atoms that send the condition down the per-value path
_OFF_SHAPE = st.one_of(
    st.builds(
        Comparison,
        st.just(Var("x")),
        st.just("!="),
        st.sampled_from(_NUMBERS).map(Const),
    ),
    st.builds(  # a bool, a NULL, a string or a NaN bound
        Comparison,
        st.just(Var("x")),
        st.sampled_from(_RANGE_OPS),
        st.sampled_from([True, False, None, "1", _NAN]).map(
            lambda v: Const(float("nan") if v is _NAN else v)
        ),
    ),
    st.builds(  # a second, free variable
        Comparison,
        st.just(Var("x")),
        st.sampled_from(_RANGE_OPS),
        st.just(Var("y")),
    ),
    st.lists(_range_atom(), min_size=2, max_size=2).map(
        lambda parts: Or(tuple(parts))
    ),
    st.just(FalseCondition()),
)


@st.composite
def _range_case(draw):
    schema = RelationSchema("R", ("id", "a", "b"))
    instance = DatabaseInstance(DatabaseSchema((schema,)))
    rows = draw(st.lists(st.tuples(_COLUMN, _COLUMN), max_size=12))
    for i, (a, b) in enumerate(rows):
        instance.insert_values("R", f"R:{i}", id=i, a=a, b=b)
    atoms = draw(st.lists(_range_atom(), max_size=3))
    in_shape = bool(atoms) and draw(st.integers(0, 3)) > 0
    if not in_shape:
        atoms.append(draw(_OFF_SHAPE))
    condition = And.of(*atoms)
    entries = {"R.a": Var("x")}
    if "y" in condition.variables():
        entries["T.z"] = Var("y")  # outside I_Q: never bound
    if draw(st.integers(0, 4)) == 0:
        # a second shared attribute: not a one-column range any more
        entries["R.b"] = draw(st.one_of(_COLUMN, st.just(Var("x"))))
    return instance, CTuple(entries, condition), in_shape


def _range_example(*atoms, rows=(0, 0.0, -0.0, 1, 1.0, True, None)):
    schema = RelationSchema("R", ("id", "a", "b"))
    instance = DatabaseInstance(DatabaseSchema((schema,)))
    for i, a in enumerate(rows):
        instance.insert_values("R", f"R:{i}", id=i, a=a, b=0)
    return instance, CTuple({"R.a": Var("x")}, And.of(*atoms)), True


@settings(max_examples=300)
@given(_range_case())
@example(_range_example(Comparison(Var("x"), "=", Const(0))))
@example(  # contradictory bounds
    _range_example(
        Comparison(Var("x"), ">", Const(1)),
        Comparison(Var("x"), "<", Const(1.0)),
    )
)
@example(  # tied ints and floats at both inclusive bounds
    _range_example(
        Comparison(Var("x"), ">=", Const(-0.0)),
        Comparison(Const(1), ">=", Var("x")),
    )
)
def test_bisection_matches_tuple_by_tuple(case):
    instance, tc, in_shape = case
    relation = instance.relation("R")
    expected = tuple(t for t in relation if tuple_matches_ctuple(t, tc))
    got = CompatibleFinder(instance).find(tc).direct.get("R", ())
    assert got == expected
    assert all(a is b for a, b in zip(got, expected))  # same objects
    interval = _interval(tc.entry("R.a"), tc.condition)
    # the shape, and nothing else, selects the bisection path
    assert (interval is not None) == in_shape
    if interval is not None and "R.b" not in tc.type:
        # one shared attribute: the finder took the bisection path
        scanned = relation.range_scan("R.a", *interval)
        assert len(scanned) == len(expected)
        assert all(a is b for a, b in zip(scanned, expected))
