"""Tests of the end-to-end benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -m bench``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.workloads.usecases import QUERIES

from benchmarks.e2e import cli, repeat
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, layer_self_ms
from benchmarks.e2e.oracle import Oracle
from benchmarks.e2e.service import ROUND_LEN, make_ops
from benchmarks.e2e.stats import percentile, self_times
from benchmarks.e2e.stream import (
    KEEP_PAPER_SHARE,
    build_databases,
    make_stream,
    templates,
)

# benchmark-harness tests stay out of tier-1, like benchmarks/bench_*.py
pytestmark = pytest.mark.bench

ROOT = Path(__file__).resolve().parents[3]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"


@pytest.fixture(scope="module")
def databases():
    return build_databases(1)


# -- question streams ----------------------------------------------------
def test_same_seed_same_stream_other_seed_other_stream(databases):
    first = make_stream(7, 4, databases)
    assert first == make_stream(7, 4, databases)
    assert first != make_stream(8, 4, databases)
    assert make_ops(7, 2, databases) == make_ops(7, 2, databases)
    assert make_ops(7, 2, databases) != make_ops(8, 2, databases)


def test_every_round_holds_each_template_once(databases):
    names = sorted(t.use_case for t in templates())
    stream = make_stream(3, 5, databases)
    for start in range(0, len(stream), len(names)):
        chunk = stream[start : start + len(names)]
        assert sorted(q.use_case for q in chunk) == names


def test_service_rounds_have_the_request_mix(databases):
    ops = make_ops(3, 2, databases)
    assert len(ops) == 2 * ROUND_LEN
    kinds = [op.kind for op in ops[:ROUND_LEN]]
    assert (kinds.count("explain"), kinds.count("batch")) == (70, 20)
    assert all(
        len({q.query for q in op.questions}) == 1
        for op in ops
        if op.kind == "batch"
    )


def test_generated_predicates_validate_against_their_query(databases):
    stream = make_stream(11, 20, databases)
    paper = {t.use_case: t.paper for t in templates()}
    canonical = {}
    for question in stream:
        if question.query not in canonical:
            database = databases[question.database]
            canonical[question.query] = repro.canonicalize(
                QUERIES[question.query][1](), database.schema
            )
        predicate = repro.parse_predicate(question.predicate)
        predicate.validate_against(canonical[question.query].root)
    kept = sum(q.predicate == paper[q.use_case] for q in stream)
    assert KEEP_PAPER_SHARE / 2 < kept / len(stream) < 2 * KEEP_PAPER_SHARE
    assert len({q.predicate for q in stream}) > len(paper)


# -- statistics -----------------------------------------------------------
def test_percentile_reports_its_sample_count():
    result = percentile([float(v) for v in range(1, 11)], 90)
    assert result.samples == 10
    assert result.value == pytest.approx(9.1)
    assert result.beyond == 1
    assert "n=10" in result.describe()
    single = percentile([3.0], 50)
    assert (single.value, single.samples, single.beyond) == (3.0, 1, 0)


def _span(sid, parent, start, duration, category="layer", name=None):
    return {
        "id": sid,
        "parent": parent,
        "start_ms": start,
        "duration_ms": duration,
        "category": category,
        "name": name or f"s{sid}",
    }


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        _span(1, None, 0.0, 10.0, category="question", name="question"),
        _span(2, 1, 1.0, 3.0, name="a"),  # [1, 4]
        _span(3, 1, 3.0, 3.0, name="b"),  # [3, 6], overlaps a
        _span(4, 2, 2.0, 1.0, category="operator"),  # [2, 3] inside a
        _span(5, 1, 9.0, 2.0, name="c"),  # [9, 11], past the root
    ]
    # root: 10 minus the union [1, 6] + [9, 10] of its children
    selves = self_times(spans)
    assert selves == pytest.approx({1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 2.0})
    layers = layer_self_ms(spans)
    # the operator span inherits its parent's layer
    assert layers == pytest.approx({None: 4.0, "a": 3.0, "b": 3.0, "c": 2.0})


# -- the benchmark command ------------------------------------------------
def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(cli.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in cli.WORKLOADS.values()
    ]
    assert repeat.WORKLOADS == tuple(cli.WORKLOADS)


def test_a_wrong_answer_makes_run_exit_nonzero(monkeypatch, capsys):
    real = Oracle.answers
    calls = []

    def corrupted(self, question):
        answers = real(self, question)
        if not calls:
            answers = [{"corrupted": True}] + answers
        calls.append(question)
        return answers

    monkeypatch.setattr(Oracle, "answers", corrupted)
    code = cli.main(["--workload", "cold-row", "--smoke"])
    out = capsys.readouterr().out
    assert code == 1
    assert "WRONG ANSWER" in out
    assert json.loads(out.splitlines()[-1])["correct"] is False


def test_smoke_run_prints_every_benchmark_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            printed = f"[{name} seed=1] {metric['name']} "
            assert any(line.startswith(printed) for line in lines)
            assert f"{name}.{metric['name']}" in result["metrics"]
        for metric in spec["per_layer"]:
            assert f"{name}.trace.{metric['name']}" in result["metrics"]


def test_without_the_repo_sources_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e",
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    proc = subprocess.run(
        [
            sys.executable,
            "benchmarks/e2e/run.py",
            "--workload",
            "warm-row",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
