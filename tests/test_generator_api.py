"""Tests for the workload generator, canonical_from_tree, and the
public API surface."""

import pytest

from repro.core import CTuple, NedExplain, canonical_from_tree
from repro.errors import ConfigurationError
from repro.core.canonical import canonicalize
from repro.relational import (
    Aggregate,
    AggregateCall,
    Join,
    RelationLeaf,
    Renaming,
    evaluate_query,
)
from repro.workloads import (
    chain_database,
    chain_predicate,
    chain_query,
    scaled_database,
)


class TestChainWorkload:
    def test_database_shape(self):
        db = chain_database(3, rows_per_relation=20)
        assert set(db.table_names()) == {"R0", "R1", "R2"}
        assert len(db.table("R0")) == 21  # 20 rows + the needle

    def test_needle_exists_and_breaks(self):
        db = chain_database(2, rows_per_relation=10)
        needle = [
            t
            for t in db.table("R0").rows
            if t["R0.label"] == "needle"
        ]
        assert len(needle) == 1
        # the needle's key points outside R1's id range
        assert needle[0]["R0.key"] > 10

    def test_query_explains_needle(self):
        db = chain_database(3, rows_per_relation=30)
        canonical = canonicalize(chain_query(3), db.schema)
        report = NedExplain(canonical, database=db).explain(chain_predicate())
        assert not report.is_empty()
        (entry,) = [e for e in report.detailed if e.tid]
        assert entry.subquery.op == "join"

    def test_too_short_chain_rejected(self):
        with pytest.raises(ConfigurationError):
            chain_database(1, rows_per_relation=5)

    def test_scaled_database_dispatch(self):
        small = scaled_database("crime", 1)
        large = scaled_database("crime", 3)
        assert large.size() > small.size()


class TestCanonicalFromTree:
    def _tree(self, db):
        r = RelationLeaf(db.table("R").schema)
        s = RelationLeaf(db.table("S").schema)
        return Join(r, s, Renaming.of(("R.x", "S.x", "x")))

    def test_labels_and_aliases(self, tiny_db):
        canonical = canonical_from_tree(self._tree(tiny_db))
        assert canonical.node("m0").op == "join"
        assert canonical.aliases == {"R": "R", "S": "S"}

    def test_no_breakpoints_without_aggregation(self, tiny_db):
        canonical = canonical_from_tree(self._tree(tiny_db))
        assert canonical.breakpoints == ()

    def test_breakpoint_recovered_for_aggregates(self, tiny_db):
        join = self._tree(tiny_db)
        root = Aggregate(
            join, ("R.y",), (AggregateCall("count", "S.z", "n"),)
        )
        canonical = canonical_from_tree(root)
        assert canonical.breakpoint is join

    def test_explainable(self, tiny_db):
        canonical = canonical_from_tree(self._tree(tiny_db))
        report = NedExplain(canonical, database=tiny_db).explain(
            CTuple({"R.y": 20})
        )
        # y=20 belongs to R:2 (x='b'), which has no S partner
        (entry,) = report.detailed
        assert entry.tid == "R:2"
        assert entry.subquery.op == "join"

    def test_alias_mapping_override(self, tiny_db):
        r1 = RelationLeaf(tiny_db.table("R").schema.renamed("R1"))
        r2 = RelationLeaf(tiny_db.table("R").schema.renamed("R2"))
        join = Join(r1, r2, Renaming.of(("R1.x", "R2.x", "x")))
        canonical = canonical_from_tree(
            join, aliases={"R1": "R", "R2": "R"}
        )
        result = evaluate_query(
            canonical.root,
            tiny_db.instance(),
            canonical.aliases,
        )
        assert result.result  # the self-join has matches


class TestPublicApi:
    def test_top_level_all_resolves(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_resolves(self):
        import repro.baseline
        import repro.bench
        import repro.core
        import repro.relational
        import repro.workloads

        for module in (
            repro.baseline,
            repro.bench,
            repro.core,
            repro.relational,
            repro.workloads,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_algorithm_modules_are_not_hidden(self, monkeypatch):
        """The package re-exports do not shadow the algorithm modules,
        so a patch made through the module name takes effect."""
        import inspect

        import repro.baseline.whynot as whynot_module
        import repro.core.nedexplain as ned_module
        from repro.baseline import WhyNotBaseline

        assert inspect.ismodule(ned_module)
        assert inspect.ismodule(whynot_module)
        assert ned_module.NedExplain is NedExplain

        db = chain_database(3, rows_per_relation=30)
        canonical = canonicalize(chain_query(3), db.schema)
        calls = []
        real_evaluate = whynot_module.evaluate

        def counting_evaluate(*args, **kwargs):
            calls.append(args)
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(whynot_module, "evaluate", counting_evaluate)
        WhyNotBaseline(canonical, database=db, use_cache=False).explain(
            chain_predicate()
        )
        assert len(calls) == 1

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_every_public_callable_has_docstring(self):
        import inspect

        import repro

        missing = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.ismodule(obj):
                continue
            if not (obj.__doc__ or "").strip():
                missing.append(name)
        assert not missing, f"undocumented public names: {missing}"
