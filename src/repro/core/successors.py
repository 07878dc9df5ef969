"""Valid successors of compatible tuples (Notation 2.1 / Alg. 3).

For one manipulation ``m`` with compatible input tuples
``m.Compatibles`` and output ``m.Output``, the *valid successors* are
the output tuples

* whose full (base) lineage is contained in ``D = Dir | InDir`` -- the
  validity requirement that fixes the baseline's "traced through
  foreign data" failures (use cases Crime8, Imdb2), and
* that directly succeed at least one compatible input tuple (some
  parent is in ``m.Compatibles``).

The second test is a join the engine answers, not a scan: a
parent -> child index of the output
(:func:`repro.relational.evaluator.children_index`, built once per
node of a cached evaluation) yields the positions of the compatibles'
children, and only those candidates are checked against ``D``.  A step
thus costs the fan-out of its compatibles, not the size of the output.
Candidates are visited in output order, so successors (and TabQ) keep
the order a scan would give.

The module also tracks, per *direct compatible origin* (a tuple of
``Dir_tc``), whether its trace is still alive -- the information the
detailed answer (Def. 2.12) reports as ``(t_I, Q')`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..obs.trace import current_tracer
from ..relational.evaluator import ChildPositions, children_index
from ..relational.tuples import Tuple
from ..robustness.budget import current_context


@dataclass(frozen=True)
class SuccessorStep:
    """Outcome of one FindSuccessors application (Alg. 3)."""

    #: valid successors found in the output
    successors: tuple[Tuple, ...]
    #: compatible input tuples with no valid successor (TabQ's Blocked)
    blocked: tuple[Tuple, ...]
    #: Dir-origin tids alive in the compatible input
    origins_in: frozenset[str]
    #: Dir-origin tids still alive among the valid successors
    origins_out: frozenset[str]

    @property
    def died(self) -> frozenset[str]:
        """Origins whose trace ends at this manipulation."""
        return self.origins_in - self.origins_out


def find_successors(
    output: Sequence[Tuple],
    compatibles: Sequence[Tuple],
    dir_tids: frozenset[str],
    indir_tids: frozenset[str],
    children: Mapping[Tuple, ChildPositions] | None = None,
) -> SuccessorStep:
    """Compute the valid successors of *compatibles* in *output*.

    Mirrors Alg. 3: an output tuple is kept when its lineage lies
    within ``D = Dir | InDir`` and it derives directly from a
    compatible input tuple.  ``D`` is given as its two parts,
    *dir_tids* and *indir_tids*, and never built: a lineage lies
    within it when what ``Dir`` leaves of it lies within ``InDir``.
    *children* is the parent -> child index of *output*
    (:meth:`EvaluationResult.children_index`); it is built from
    *output* when not given.
    """
    if children is None and compatibles:
        children = children_index(output)
    #: candidate position -> whether its lineage lies within D
    valid: dict[int, bool] = {}
    blocked: list[Tuple] = []
    for compatible in compatibles:
        found = children.get(compatible, ())
        if isinstance(found, int):
            found = (found,)
        alive = False
        for position in found:
            ok = valid.get(position)
            if ok is None:
                ok = valid[position] = (
                    output[position].lineage - dir_tids <= indir_tids
                )
            alive = alive or ok
        if not alive:
            blocked.append(compatible)
    successors = [output[p] for p in sorted(valid) if valid[p]]
    # one validity check per candidate child, one survival check per
    # compatible input
    checks = len(valid) + len(compatibles)
    context = current_context()
    if context is not None:
        context.tick_comparisons(checks)

    origins_in = _origins(compatibles, dir_tids)
    origins_out = _origins(successors, dir_tids)
    tracer = current_tracer()
    if tracer is not None:
        metrics = tracer.metrics
        metrics.counter("successors.steps").inc()
        metrics.counter("successors.checks").inc(checks)
        metrics.counter("successors.found").inc(len(successors))
        metrics.counter("successors.blocked").inc(len(blocked))
    return SuccessorStep(
        successors=tuple(successors),
        blocked=tuple(blocked),
        origins_in=origins_in,
        origins_out=origins_out,
    )


def _origins(
    tuples: Iterable[Tuple], dir_tids: frozenset[str]
) -> frozenset[str]:
    """Dir-origin tids occurring in the lineage of *tuples*."""
    return dir_tids.intersection(
        frozenset().union(*[t.lineage for t in tuples])
    )
