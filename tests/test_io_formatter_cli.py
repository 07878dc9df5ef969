"""Tests for CSV persistence, the SQL formatter, and the CLI."""

import pytest

from repro.errors import QueryError, SchemaError
from repro.cli import main
from repro.core import JoinPair, SPJASpec, UnionSpec
from repro.relational import AggregateCall, Database, Renaming, attr_cmp
from repro.relational.csv_io import load_database, save_database
from repro.relational.sql import parse_sql, sql_to_spec
from repro.relational.sql.formatter import format_spec
from repro.relational.sql.translate import translate


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------
class TestCsvIo:
    def test_round_trip(self, running_example_db, tmp_path):
        save_database(running_example_db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        assert loaded.table_names() == running_example_db.table_names()
        assert loaded.size() == running_example_db.size()
        homer = loaded.table("A").by_tid("A:a1")
        assert homer["A.name"] == "Homer"
        assert homer["A.dob"] == -800  # int survives the round trip

    def test_key_declarations_survive(self, running_example_db, tmp_path):
        save_database(running_example_db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        assert loaded.table("A").schema.key == "aid"
        assert loaded.table("AB").schema.key is None

    def test_null_round_trip(self, tmp_path):
        db = Database()
        db.create_table("T", ["id", "v"], key="id")
        db.insert("T", id=1, v=None)
        db.insert("T", id=2, v="x")
        save_database(db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        assert loaded.table("T").by_tid("T:1")["T.v"] is None

    def test_float_round_trip(self, tmp_path):
        db = Database()
        db.create_table("T", ["id", "v"], key="id")
        db.insert("T", id=1, v=3.5)
        save_database(db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        assert loaded.table("T").by_tid("T:1")["T.v"] == 3.5

    def test_schemaless_directory(self, tmp_path):
        (tmp_path / "People.csv").write_text(
            "id,name\n1,ada\n2,grace\n"
        )
        loaded = load_database(tmp_path)
        assert loaded.table("People").rows[0]["People.name"] == "ada"
        # without a catalog there is no key: ids are auto-assigned
        assert loaded.table("People").schema.key is None

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            load_database(tmp_path / "nope")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            load_database(tmp_path)

    def test_header_only_csv_loads_empty(self, tmp_path):
        (tmp_path / "T.csv").write_text("id,v\n")
        loaded = load_database(tmp_path)
        assert len(loaded.table("T")) == 0

    def test_headerless_csv_rejected(self, tmp_path):
        (tmp_path / "T.csv").write_text("")
        with pytest.raises(SchemaError):
            load_database(tmp_path)

    def test_explainable_after_loading(self, running_example_db, tmp_path):
        from repro.core import NedExplain, canonicalize

        save_database(running_example_db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        spec = SPJASpec(
            aliases={"A": "A", "AB": "AB", "B": "B"},
            joins=[JoinPair("A.aid", "AB.aid"),
                   JoinPair("AB.bid", "B.bid")],
            selections=[attr_cmp("A.dob", ">", -800)],
            group_by=("A.name",),
            aggregates=(AggregateCall("avg", "B.price", "ap"),),
        )
        canonical = canonicalize(spec, loaded.schema)
        report = NedExplain(canonical, database=loaded).explain(
            "((A.name: Homer, ap: $x), $x > 25)"
        )
        assert report.condensed_labels == ("m2",)


# ---------------------------------------------------------------------------
# SQL formatter (round trips)
# ---------------------------------------------------------------------------
class TestFormatter:
    def _round_trip(self, spec, schema):
        text = format_spec(spec)
        return translate(parse_sql(text), schema)

    def test_spj_round_trip(self, tiny_db):
        spec = SPJASpec(
            aliases={"R": "R", "S": "S"},
            joins=[JoinPair("R.x", "S.x")],
            selections=[attr_cmp("R.y", ">", 5)],
            projection=("R.y", "S.z"),
        )
        back = self._round_trip(spec, tiny_db.schema)
        assert back.aliases == spec.aliases
        assert back.joins[0].left == "R.x"
        assert back.selections == spec.selections
        assert back.projection == spec.projection

    def test_aggregate_round_trip(self, tiny_db):
        spec = SPJASpec(
            aliases={"R": "R"},
            group_by=("R.x",),
            aggregates=(AggregateCall("sum", "R.y", "total"),),
        )
        back = self._round_trip(spec, tiny_db.schema)
        assert back.group_by == spec.group_by
        assert back.aggregates == spec.aggregates

    def test_union_round_trip(self, tiny_db):
        spec = UnionSpec(
            SPJASpec(aliases={"R": "R"}, projection=("R.x",)),
            SPJASpec(aliases={"S": "S"}, projection=("S.x",)),
            Renaming.of(("R.x", "S.x", "x")),
        )
        back = self._round_trip(spec, tiny_db.schema)
        assert isinstance(back, UnionSpec)
        assert back.renaming.codomain == frozenset({"x"})

    def test_string_literals_escaped(self, tiny_db):
        spec = SPJASpec(
            aliases={"R": "R"},
            selections=[attr_cmp("R.x", "=", "o'hara")],
            projection=("R.y",),
        )
        back = self._round_trip(spec, tiny_db.schema)
        assert back.selections == spec.selections

    def test_select_star(self, tiny_db):
        spec = SPJASpec(aliases={"R": "R"}, projection=None)
        assert "SELECT *" in format_spec(spec)

    def test_alias_rendering(self, tiny_db):
        spec = SPJASpec(aliases={"a": "R"}, projection=("a.x",))
        assert "R a" in format_spec(spec)

    def test_unsupported_condition_rejected(self, tiny_db):
        from repro.relational import Or

        spec = SPJASpec(
            aliases={"R": "R"},
            selections=[
                Or.of(attr_cmp("R.x", "=", 1), attr_cmp("R.y", "=", 2))
            ],
            projection=("R.x",),
        )
        with pytest.raises(QueryError):
            format_spec(spec)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_demo(self, capsys):
        assert main(["demo", "Crime5"]) == 0
        out = capsys.readouterr().out
        assert "NedExplain" in out and "m3" in out and "m2" in out

    def test_demo_unknown_case(self, capsys):
        assert main(["demo", "Nope"]) == 2
        assert "unknown use case" in capsys.readouterr().err

    def test_explain_over_csv(
        self, running_example_db, tmp_path, capsys
    ):
        save_database(running_example_db, tmp_path / "db")
        code = main(
            [
                "explain",
                "--data", str(tmp_path / "db"),
                "--sql",
                "SELECT A.name, AVG(B.price) AS ap FROM A, AB, B "
                "WHERE A.dob > -800 AND A.aid = AB.aid "
                "AND B.bid = AB.bid GROUP BY A.name",
                "--why-not", "((A.name: Homer, ap: $x), $x > 25)",
                "--baseline", "--repairs", "--show-result",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "detailed : (A:a1, m2)" in out
        assert "repair:" in out and "[verified]" in out
        assert "Sophocles" in out  # --show-result

    def test_explain_reports_errors(self, tmp_path, capsys):
        code = main(
            [
                "explain",
                "--data", str(tmp_path),
                "--sql", "SELECT x FROM T",
                "--why-not", "(x: 1)",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_evaluate(self, capsys):
        assert main(["evaluate"]) == 0
        out = capsys.readouterr().out
        assert "Crime1" in out and "Gov7" in out


class TestCliObservability:
    """--json / --trace / --metrics: one writer, no interleaving."""

    def _explain_args(self, tmp_path):
        return [
            "explain",
            "--data", str(tmp_path / "db"),
            "--sql",
            "SELECT A.name FROM A WHERE A.dob > -800",
            "--why-not", "(A.name: Homer)",
        ]

    def test_json_output_is_one_document(
        self, running_example_db, tmp_path, capsys
    ):
        import json

        save_database(running_example_db, tmp_path / "db")
        code = main(self._explain_args(tmp_path) + ["--json"])
        out = capsys.readouterr().out
        document = json.loads(out)  # the whole stdout parses at once
        assert code == 0
        assert document["command"] == "explain"
        assert document["exit_code"] == 0
        assert document["questions"] == ["(A.name: Homer)"]
        report = document["reports"][0]
        assert set(report["phase_times_ms"]) >= {
            "Initialization", "CompatibleFinder",
        }
        entries = report["answers"][0]["detailed"]
        assert {"tid": "A:a1", "subquery": "m0"} in entries

    def test_explain_baseline_evaluates_the_query_once(
        self, running_example_db, tmp_path, capsys
    ):
        import json

        save_database(running_example_db, tmp_path / "db")
        code = main(
            self._explain_args(tmp_path)
            + ["--baseline", "--json", "--metrics"]
        )
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "baseline" in document
        metrics = document["metrics"]
        # the baseline reads the engine's evaluation from its cache
        assert metrics["cache.misses"]["value"] == 1
        assert metrics["cache.hits"]["value"] == 1

    def test_json_errors_go_to_stderr_and_document(
        self, tmp_path, capsys
    ):
        import json

        code = main(
            [
                "explain",
                "--data", str(tmp_path),
                "--sql", "SELECT x FROM T",
                "--why-not", "(x: 1)",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        document = json.loads(captured.out)
        assert document["exit_code"] == 2
        assert any("error:" in e for e in document["errors"])

    def test_trace_flag_writes_valid_artifact(
        self, running_example_db, tmp_path, capsys
    ):
        from repro.obs import read_trace_jsonl

        save_database(running_example_db, tmp_path / "db")
        trace_path = tmp_path / "run_trace.jsonl"
        code = main(
            self._explain_args(tmp_path) + ["--trace", str(trace_path)]
        )
        assert code == 0
        assert f"trace written to {trace_path}" in (
            capsys.readouterr().out
        )
        spans, metrics = read_trace_jsonl(trace_path)
        categories = {record["category"] for record in spans}
        assert {"run", "phase", "operator"} <= categories
        assert metrics["evaluator.operators"]["value"] > 0

    def test_metrics_flag_renders_snapshot(
        self, running_example_db, tmp_path, capsys
    ):
        save_database(running_example_db, tmp_path / "db")
        code = main(self._explain_args(tmp_path) + ["--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "cache.misses:" in out
        assert "trace tree:" in out

    def test_json_trace_metrics_compose(
        self, running_example_db, tmp_path, capsys
    ):
        import json

        save_database(running_example_db, tmp_path / "db")
        trace_path = tmp_path / "t.jsonl"
        code = main(
            self._explain_args(tmp_path)
            + ["--json", "--metrics", "--trace", str(trace_path)]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["trace_file"] == str(trace_path)
        assert document["metrics"]["evaluator.operators"]["value"] > 0
        assert set(document["trace_summary"]) >= {"Initialization"}

    def test_show_result_ignores_unused_tables(
        self, running_example_db, tmp_path, capsys
    ):
        # --show-result evaluates over I_Q only; an extra stored table
        # the query never names changes no byte of the document
        import json
        import re

        from repro.relational import evaluate_query
        from repro.relational.sql import sql_to_canonical

        sql = "SELECT A.name FROM A, AB WHERE A.aid = AB.aid"
        args = ["explain", "--sql", sql, "--why-not", "(A.name: Euripides)",
                "--show-result", "--json"]
        timings = re.compile(
            r'("(?:Initialization|CompatibleFinder|SuccessorsFinder|'
            r'BottomUp|total_time_ms)": )[-0-9.e]+'
        )

        def document(db, name):
            save_database(db, tmp_path / name)
            assert main(args + ["--data", str(tmp_path / name)]) == 0
            return timings.sub(r"\g<1>0", capsys.readouterr().out)

        plain = document(running_example_db, "plain")
        running_example_db.create_table("Extra", ["e"])
        running_example_db.insert("Extra", e=1)
        extended = document(running_example_db, "extended")
        assert extended == plain
        canonical = sql_to_canonical(sql, running_example_db.schema)
        reference = evaluate_query(
            canonical.root, running_example_db.instance(), canonical.aliases
        ).result_values()
        assert json.loads(extended)["query_result"] == reference
        assert len(reference) == 2

    def test_demo_supports_json(self, capsys):
        import json

        assert main(["demo", "Crime5", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["use_case"] == "Crime5"
        assert document["report"]["answers"]
        assert document["baseline"]

    def test_batch_json_reports_outcomes(
        self, running_example_db, tmp_path, capsys
    ):
        import json

        save_database(running_example_db, tmp_path / "db")
        code = main(
            [
                "explain",
                "--data", str(tmp_path / "db"),
                "--sql",
                "SELECT A.name FROM A WHERE A.dob > -800",
                "--why-not", "(A.name: Homer)",
                "--why-not", "(A.name: Vergil)",
                "--json",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["outcomes"]) == 2
        assert all(o["ok"] for o in document["outcomes"])
        assert document["batch"]["questions"] == 2
        assert document["batch"]["evaluations"] == 1


class TestCliResilience:
    """The batch path: outcome documents, --journal / --resume."""

    def _base_args(self, tmp_path):
        return [
            "explain",
            "--data", str(tmp_path / "db"),
            "--sql",
            "SELECT A.name FROM A WHERE A.dob > -800",
            "--json",
        ]

    def test_outcome_schema_is_stable(
        self, running_example_db, tmp_path, capsys
    ):
        """The journalled/--json outcome document shape is a contract:
        resume compatibility and downstream consumers both depend on
        these exact keys staying put."""
        import json

        save_database(running_example_db, tmp_path / "db")
        code = main(
            self._base_args(tmp_path)
            + [
                "--why-not", "(A.name: Homer)",
                "--why-not", "(A.nope: broken)",
            ]
        )
        assert code == 3  # one failed question degrades the batch
        document = json.loads(capsys.readouterr().out)
        ok, failed = document["outcomes"]
        expected_keys = {
            "question", "ok", "report", "failure", "degradation_level",
        }
        assert set(ok) == expected_keys
        assert set(failed) == expected_keys
        assert ok["degradation_level"] == "full"
        assert failed["degradation_level"] == "failed"
        assert set(failed["failure"]) == {
            "error_class", "message", "phase", "spent",
        }
        # report keys (the pre-resilience ones must all survive)
        assert set(ok["report"]) == {
            "answers", "phase_times_ms", "total_time_ms",
            "partial", "degraded_reason", "degradation_level",
        }

    def test_journal_round_trip_over_cli(
        self, running_example_db, tmp_path, capsys
    ):
        import json

        save_database(running_example_db, tmp_path / "db")
        journal = tmp_path / "batch.jsonl"
        args = self._base_args(tmp_path) + [
            "--why-not", "(A.name: Homer)",
            "--journal", str(journal),
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["journal"] == str(journal)
        assert len(journal.read_text().splitlines()) == 1

        assert main(args + ["--resume"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["outcomes"] == first["outcomes"]

    def test_resume_requires_journal(
        self, running_example_db, tmp_path, capsys
    ):
        save_database(running_example_db, tmp_path / "db")
        code = main(
            [
                "explain",
                "--data", str(tmp_path / "db"),
                "--sql", "SELECT A.name FROM A WHERE A.dob > -800",
                "--why-not", "(A.name: Homer)",
                "--resume",
            ]
        )
        assert code == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "batch_flags",
        [
            ["--why-not", "(A.name: Sophocles)"],
            ["--batch"],
            ["--journal", "{tmp}/batch.jsonl"],
            ["--workers", "2"],
        ],
    )
    def test_repairs_refused_on_batch_path(
        self, running_example_db, tmp_path, capsys, batch_flags
    ):
        """The batch path prints no repairs, so asking for them there
        is a configuration error, not a silently dropped flag."""
        import json

        save_database(running_example_db, tmp_path / "db")
        code = main(
            self._base_args(tmp_path)
            + ["--why-not", "(A.name: Homer)", "--repairs"]
            + [flag.format(tmp=tmp_path) for flag in batch_flags]
        )
        assert code == 2
        document = json.loads(capsys.readouterr().out)
        assert document["error"]["type"] == "ConfigurationError"
        assert "--repairs" in document["error"]["message"]
        assert "outcomes" not in document

    def test_serve_has_no_storage_flag(self, capsys, monkeypatch):
        """The service journals if and only if --journal-dir is
        given; there is no storage selector to pass."""

        def never_started(*args, **kwargs):
            raise AssertionError("serve started despite --storage")

        monkeypatch.setattr("repro.service.serve", never_started)
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--storage", "memory"])
        assert exit_info.value.code == 2
        assert "--storage" in capsys.readouterr().err


class TestCliErrorEnvelope:
    """Every nonzero ``--json`` exit carries one stable error envelope:
    ``document["error"] == {"type", "message", "exit_code"}``.  Scripted
    callers branch on this shape for *every* failure mode -- fatal (2),
    degraded (3), drained (5) -- instead of scraping stderr."""

    def _document(self, capsys):
        import json

        return json.loads(capsys.readouterr().out)

    def _assert_envelope(self, document, exit_code, error_type):
        assert document["exit_code"] == exit_code
        envelope = document["error"]
        assert set(envelope) == {"type", "message", "exit_code"}
        assert envelope["exit_code"] == exit_code
        assert envelope["type"] == error_type
        assert (
            isinstance(envelope["message"], str)
            and envelope["message"]
        )

    def _base_args(self, tmp_path):
        return [
            "explain",
            "--data", str(tmp_path / "db"),
            "--sql",
            "SELECT A.name FROM A WHERE A.dob > -800",
            "--json",
        ]

    def test_exit_0_has_no_envelope(
        self, running_example_db, tmp_path, capsys
    ):
        save_database(running_example_db, tmp_path / "db")
        code = main(
            self._base_args(tmp_path)
            + ["--why-not", "(A.name: Homer)"]
        )
        assert code == 0
        assert "error" not in self._document(capsys)

    def test_exit_2_fatal_names_the_raised_error(
        self, running_example_db, tmp_path, capsys
    ):
        save_database(running_example_db, tmp_path / "db")
        code = main(
            self._base_args(tmp_path)
            + ["--why-not", "(A.name: Homer)", "--resume"]
        )
        assert code == 2
        document = self._document(capsys)
        self._assert_envelope(document, 2, "ConfigurationError")
        assert "--resume requires --journal" in (
            document["error"]["message"]
        )

    def test_exit_2_fatal_demo_unknown_use_case(self, capsys):
        code = main(["demo", "Nope", "--json"])
        assert code == 2
        document = self._document(capsys)
        self._assert_envelope(document, 2, "ConfigurationError")
        assert "unknown use case" in document["error"]["message"]

    def test_exit_3_degraded(
        self, running_example_db, tmp_path, capsys
    ):
        save_database(running_example_db, tmp_path / "db")
        code = main(
            self._base_args(tmp_path)
            + [
                "--why-not", "(A.name: Homer)",
                "--why-not", "(A.nope: broken)",
            ]
        )
        assert code == 3
        self._assert_envelope(
            self._document(capsys), 3, "DegradedResult"
        )

    def test_exit_5_drained(
        self, running_example_db, tmp_path, capsys, monkeypatch
    ):
        """A drain signal mid-batch (the deterministic SIGINT hook
        fires after the first journaled record) exits 5 with the
        BatchDrained envelope."""
        from repro.robustness.journal import SIGINT_AFTER_ENV

        save_database(running_example_db, tmp_path / "db")
        monkeypatch.setenv(SIGINT_AFTER_ENV, "1")
        code = main(
            self._base_args(tmp_path)
            + [
                "--why-not", "(A.name: Homer)",
                "--why-not", "(A.name: Vergil)",
                "--why-not", "(A.name: Sophocles)",
                "--journal", str(tmp_path / "batch.jsonl"),
            ]
        )
        assert code == 5
        document = self._document(capsys)
        self._assert_envelope(document, 5, "BatchDrained")
        assert document["drained_by"] == "SIGINT"
