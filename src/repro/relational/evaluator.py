"""Bottom-up query evaluation with lineage tracing.

This is the library's stand-in for the Trio system the paper's
implementations used for lineage: every operator application records,
on each output tuple, its direct predecessors and base lineage.  The
:class:`EvaluationResult` keeps the input/output tuple lists of every
subquery -- precisely the ``Input`` / ``Output`` columns of the paper's
TabQ structure -- so NedExplain and the Why-Not baseline can inspect
every intermediate result.  Per node it also serves a parent -> child
index (:func:`children_index`), which turns SuccessorsFinder (Alg. 3)
into a lookup of the compatibles' children instead of a scan.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Sequence

from ..errors import EvaluationError, UnknownRelationError
from ..obs.trace import current_tracer
from ..robustness.budget import current_context
from ..robustness.faults import fault_point
from .algebra import Query, RelationLeaf, query_fingerprint, validate_tree
from .instance import DatabaseInstance, query_input_instance
from .tuples import Tuple, Value

#: Monotonic serial per evaluation run, shared by the row and columnar
#: engines.  Operator spans carry it as the ``eval`` tag, so a trace
#: reader can group the columnar engine's per-batch operator spans by
#: evaluation without mixing the spans of distinct evaluations.
_EVAL_SERIALS = itertools.count(1)

#: Positions of one tuple's children in a node's output: a bare ``int``
#: for the common single child, a ``tuple`` only for fan-out (a join
#: partner matching several tuples).  An index lives as long as its
#: cached evaluation, so it is kept this compact rather than one list
#: per parent.
ChildPositions = int | tuple[int, ...]


def children_index(output: Sequence[Tuple]) -> dict[Tuple, ChildPositions]:
    """Map each parent tuple to the positions of its children in *output*.

    A tuple without parents (a leaf's copy of its input) indexes under
    itself: it is its own predecessor.  Parents are matched by tuple
    equality, as :func:`repro.core.successors.find_successors` matches
    them against the compatibles; they hash by lineage, which no two
    tuples of one node's inputs share.
    """
    index: dict[Tuple, int | list[int]] = {}
    for position, t in enumerate(output):
        for parent in t.parents or (t,):
            known = index.get(parent)
            if known is None:
                index[parent] = position
            elif isinstance(known, int):
                index[parent] = [known, position]
            else:
                known.append(position)
    # fan-out grows as lists (linear in the output), then packs tightly
    for parent, known in index.items():
        if isinstance(known, list):
            index[parent] = tuple(known)
    return index


class EvaluationResult:
    """Per-node inputs and outputs of one query evaluation.

    Nodes are keyed by identity (two structurally equal operators in
    one tree are still distinct subqueries).  Because ``id()`` values
    are recycled once an object is garbage-collected, every keyed node
    is also held by strong reference (``_nodes``): a result that
    outlives its evaluation call -- e.g. inside an
    :class:`~repro.relational.evalcache.EvaluationCache` -- can never
    have its keys silently re-bound to unrelated query objects.

    Parent -> child indexes (:meth:`children_index`) are built lazily,
    one per node, and keyed by the identity of the node's output list,
    which each entry holds.  :meth:`rebind` shares both the lists and
    the index map, so every view of one cached evaluation builds each
    index at most once.
    """

    def __init__(self, root: Query):
        self.root = root
        self._outputs: dict[int, list[Tuple]] = {}
        self._inputs: dict[int, list[list[Tuple]]] = {}
        #: strong references keeping every keyed node alive (id-reuse
        #: safety; see the class docstring)
        self._nodes: dict[int, Query] = {}
        #: id(output list) -> (that list, its children_index), shared
        #: by rebind views; holding the list keeps its id from reuse
        self._children: dict[
            int, tuple[list[Tuple], dict[Tuple, ChildPositions]]
        ] = {}

    def set_node(
        self,
        node: Query,
        inputs: list[list[Tuple]],
        output: list[Tuple],
    ) -> None:
        """Record the evaluation of one node."""
        self._nodes[id(node)] = node
        self._inputs[id(node)] = inputs
        self._outputs[id(node)] = output

    def output(self, node: Query) -> list[Tuple]:
        """Output tuples of *node*."""
        try:
            return self._outputs[id(node)]
        except KeyError:
            raise EvaluationError(
                f"node {node!r} was not evaluated"
            ) from None

    def children_index(
        self, node: Query
    ) -> Mapping[Tuple, ChildPositions]:
        """The parent -> child index of *node*'s output, built once.

        Cached results are shared across worker threads, so the index
        is built complete before it is published (as
        :meth:`RelationInstance.lookup` does); two threads racing on a
        first use both build it and one copy wins.  Callers must not
        mutate it.
        """
        output = self.output(node)
        built = self._children.get(id(output))
        if built is None:
            built = (output, children_index(output))
            self._children[id(output)] = built
        return built[1]

    def inputs(self, node: Query) -> list[list[Tuple]]:
        """Per-child input tuple lists of *node*."""
        try:
            return self._inputs[id(node)]
        except KeyError:
            raise EvaluationError(
                f"node {node!r} was not evaluated"
            ) from None

    def flat_input(self, node: Query) -> list[Tuple]:
        """All input tuples of *node*, children concatenated.

        This is the ``m.Input`` entry of TabQ: 'the input instance of a
        manipulation includes solely the output of its direct children'.
        """
        flat: list[Tuple] = []
        for part in self.inputs(node):
            flat.extend(part)
        return flat

    @property
    def result(self) -> list[Tuple]:
        """The output of the root, i.e. ``Q(I)``."""
        return self.output(self.root)

    def result_values(self) -> list[dict[str, Value]]:
        """Root output as plain value dicts, duplicates collapsed."""
        seen: set[frozenset] = set()
        out: list[dict[str, Value]] = []
        for t in self.result:
            key = frozenset(t.items())
            if key not in seen:
                seen.add(key)
                out.append(dict(t.items()))
        return out

    def nodes(self) -> Iterator[Query]:
        """All evaluated nodes, bottom-up."""
        return self.root.postorder()

    def rebind(self, new_root: Query) -> "EvaluationResult":
        """Re-key this result onto a structurally equal tree.

        A cached result is keyed by the node identities of the tree it
        was computed from; a caller holding a *different but
        structurally equal* tree (same fingerprint) gets a view keyed
        by its own nodes.  Inputs and outputs are shared, not copied --
        cached results must be treated as immutable.
        """
        old_nodes = list(self.root.postorder())
        new_nodes = list(new_root.postorder())
        if len(old_nodes) != len(new_nodes):
            raise EvaluationError(
                "cannot rebind evaluation result onto a tree of "
                "different shape"
            )
        clone = EvaluationResult(new_root)
        clone._children = self._children
        for old, new in zip(old_nodes, new_nodes):
            if old.op != new.op:
                raise EvaluationError(
                    "cannot rebind evaluation result onto a tree of "
                    "different shape"
                )
            clone.set_node(
                new, self._inputs[id(old)], self._outputs[id(old)]
            )
        return clone


def evaluate(root: Query, instance: DatabaseInstance) -> EvaluationResult:
    """Evaluate the query tree *root* over the input instance.

    *instance* must be a *query input instance*: one relation per leaf
    alias (see :func:`repro.relational.instance.query_input_instance`
    for deriving it from a stored database and an alias mapping).
    """
    validate_tree(root)
    result = EvaluationResult(root)
    context = current_context()
    # Tracing fast path: one context-var read per evaluation, one None
    # check per node when tracing is off.
    tracer = current_tracer()
    serial = next(_EVAL_SERIALS)
    for index, node in enumerate(root.postorder()):
        # Cooperative budget tick per operator: a deadline or row limit
        # stops the bottom-up pass between manipulations (the
        # comparison ticks inside Join/Select bound work *within* one).
        fault_point("operator.apply")
        if context is not None:
            context.check_deadline()
        span = None
        if tracer is not None:
            span = tracer.start_span(
                node.name or node.op,
                category="operator",
                op=node.op,
                fingerprint=query_fingerprint(node)[:12],
                postorder=index,
                eval=serial,
            )
        try:
            if isinstance(node, RelationLeaf):
                try:
                    stored = list(instance.relation(node.alias))
                except UnknownRelationError as exc:
                    raise EvaluationError(
                        f"query reads alias {node.alias!r} but the "
                        "input instance has no such relation"
                    ) from exc
                inputs = [stored]
            else:
                inputs = [
                    list(result.output(child)) for child in node.children
                ]
            output = node.apply(inputs)
        finally:
            if span is not None:
                tracer.end_span(span)
        if span is not None:
            span.set_tag(
                "rows_in", sum(len(part) for part in inputs)
            )
            span.set_tag("rows_out", len(output))
            tracer.metrics.counter("evaluator.operators").inc()
            tracer.metrics.histogram("evaluator.rows_out").observe(
                len(output)
            )
        result.set_node(node, inputs, output)
        if context is not None:
            context.tick_rows(len(output))
    return result


def evaluate_query(
    root: Query,
    database: DatabaseInstance,
    aliases: Mapping[str, str] | None = None,
    cache=None,
    use_columnar: bool = False,
) -> EvaluationResult:
    """Evaluate ``(Q, eta_Q)`` over a stored database (Def. 2.3).

    *aliases* maps each leaf alias to a stored relation name; when
    omitted, each alias is assumed to name a stored relation directly.
    *cache* may be an
    :class:`~repro.relational.evalcache.EvaluationCache`; repeated
    evaluations of structurally equal queries over unchanged data are
    then served from it (the returned result must be treated as
    immutable in that case).

    With ``use_columnar=True`` the evaluation routes through the
    batch-at-a-time engine of :mod:`repro.columnar` and the result is
    its lossless row view -- observationally identical tuples,
    lineage, and parent links (the row engine stays the differential
    oracle; see ``docs/columnar.md``).
    """
    mapping = resolve_aliases(root, database, aliases)
    input_instance = query_input_instance(database, mapping)
    if cache is not None:
        return cache.get_or_evaluate(
            root,
            input_instance,
            mapping,
            engine="columnar" if use_columnar else "row",
        )
    if use_columnar:
        from ..columnar import evaluate_columnar  # lazy: avoids cycle

        return evaluate_columnar(root, input_instance).row_view()
    return evaluate(root, input_instance)


def resolve_aliases(
    root: Query,
    database: DatabaseInstance,
    aliases: Mapping[str, str] | None = None,
) -> dict[str, str]:
    """Complete the alias mapping ``eta_Q`` for all leaves of *root*."""
    mapping = dict(aliases or {})
    for leaf in root.leaves():
        if leaf.alias not in mapping:
            if leaf.alias not in database:
                raise UnknownRelationError(
                    f"alias {leaf.alias!r} does not name a stored "
                    "relation and no alias mapping was provided"
                )
            mapping[leaf.alias] = leaf.alias
    return mapping
