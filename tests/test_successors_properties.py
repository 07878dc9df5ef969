"""Property test for index-based SuccessorsFinder (Alg. 3).

:func:`find_successors` looks the compatibles' children up in a
parent -> child index of the output.  Here it is checked against a
scan of the whole output -- the literal reading of Alg. 3, kept only
as this test's oracle -- on random outputs with parentless tuples,
parents shared by several children, and join fan-out: same successors
in output order, same ``blocked``, same ``origins_in`` and
``origins_out``, whether the index is prebuilt or built on the spot.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core import SuccessorStep, find_successors
from repro.relational.evaluator import children_index
from repro.relational.tuples import Tuple


def _scan(output, compatibles, valid_tids, dir_tids) -> SuccessorStep:
    """Alg. 3 by scanning every output tuple."""
    compatible_set = set(compatibles)
    successors = []
    for candidate in output:
        if not candidate.lineage <= valid_tids:
            continue
        if candidate.parents:
            derives = any(p in compatible_set for p in candidate.parents)
        else:
            derives = candidate in compatible_set
        if derives:
            successors.append(candidate)
    survived = set()
    for successor in successors:
        for parent in successor.parents:
            if parent in compatible_set:
                survived.add(parent)
        if not successor.parents and successor in compatible_set:
            survived.add(successor)

    def origins(tuples):
        alive = set()
        for t in tuples:
            alive |= t.lineage & dir_tids
        return frozenset(alive)

    return SuccessorStep(
        successors=tuple(successors),
        blocked=tuple(c for c in compatibles if c not in survived),
        origins_in=origins(compatibles),
        origins_out=origins(successors),
    )


@st.composite
def _step(draw):
    """An input, an output derived from it, and a question's sets."""
    left = [
        Tuple({"R.a": draw(st.integers(0, 2))}, tid=f"R:{i}")
        for i in range(draw(st.integers(1, 5)))
    ]
    right = [
        Tuple({"S.b": draw(st.integers(0, 2))}, tid=f"S:{i}")
        for i in range(draw(st.integers(1, 4)))
    ]
    pick_left = st.sampled_from(left)
    output = []
    for kind in draw(
        st.lists(
            st.sampled_from(("leaf", "derive", "project", "join")),
            max_size=14,
        )
    ):
        if kind == "leaf":  # parentless: its own predecessor
            output.append(draw(pick_left))
        elif kind == "derive":  # a selection keeps its input tuple
            output.append(draw(pick_left).derive())
        elif kind == "project":
            output.append(draw(pick_left).project(["R.a"]))
        else:  # join fan-out: one parent, many children
            output.append(draw(pick_left).merge(draw(st.sampled_from(right))))
    tids = sorted(t.tid for t in left + right)
    compatibles = draw(st.lists(pick_left, unique_by=id))
    dir_tids = frozenset(draw(st.lists(st.sampled_from(tids))))
    indir_tids = frozenset(draw(st.lists(st.sampled_from(tids))))
    return output, compatibles, dir_tids, indir_tids


@given(_step())
def test_index_lookup_equals_the_scan(step):
    output, compatibles, dir_tids, indir_tids = step
    # the scan reads D as one set; find_successors reads its two parts
    expected = _scan(output, compatibles, dir_tids | indir_tids, dir_tids)
    for children in (None, children_index(output)):
        got = find_successors(
            output, compatibles, dir_tids, indir_tids, children=children
        )
        assert got == expected
        # the very output tuples, in output order
        assert all(
            a is b for a, b in zip(got.successors, expected.successors)
        )
