"""Crash-safe batch journal: WAL semantics, resume, kill/resume diff.

The differential acceptance test at the bottom SIGKILLs a journaled CLI
batch mid-run (via the deterministic ``REPRO_JOURNAL_CRASH_AFTER``
hook -- the journal kills its own process right after the N-th record
is flushed to the kernel, no racy poll-and-kill), resumes it, and asserts
the merged ``--json`` outcomes are byte-for-byte identical to an
uninterrupted run.  Both runs execute under ``REPRO_MANUAL_CLOCK`` so
every reported duration is deterministically ``0.0``.

Set ``REPRO_CHAOS_ARTIFACT_DIR`` to persist the journals outside the
pytest tmpdir -- the ``chaos-resume`` CI job points it at a directory
it uploads when the test fails.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import NedExplain, canonicalize
from repro.errors import ConfigurationError, JournalError
from repro.relational import EvaluationCache
from repro.relational.csv_io import save_database
from repro.robustness import (
    BatchJournal,
    FaultPlan,
    FaultSpec,
    ReplayedOutcome,
    inject,
)
from repro.robustness.journal import JOURNAL_VERSION, _checksum
from repro.workloads.generator import chain_database, chain_query

_SRC = str(Path(repro.__file__).resolve().parents[1])

QUESTIONS = ["(R0.label: needle)", "(R0.label: r0v1)", "(R2.label: r2v3)"]


def _setup():
    db = chain_database(3, rows_per_relation=12)
    canonical = canonicalize(chain_query(3), db.schema)
    return db, canonical


_DB, _CANONICAL = _setup()


def _engine():
    return NedExplain(_CANONICAL, database=_DB, cache=EvaluationCache())


def _outcome_dict(question="(q: 1)", ok=True):
    return {
        "question": question,
        "ok": ok,
        "report": {"answers": []},
        "failure": None,
        "degradation_level": "full",
        "baseline": None,
    }


# ---------------------------------------------------------------------------
# WAL unit semantics
# ---------------------------------------------------------------------------
class TestBatchJournal:
    def test_record_and_resume_round_trip(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record(0, "(q: 1)", _outcome_dict())
            journal.record(1, "(q: 2)", _outcome_dict("(q: 2)"))
            assert len(journal) == 2
            assert journal.replayable_count == 0  # all fresh appends

        resumed = BatchJournal(path, resume=True)
        assert len(resumed) == 2
        assert resumed.replayable_count == 2
        assert resumed.completed(0, "(q: 1)") == _outcome_dict()
        assert resumed.completed(2, "(q: 3)") is None
        resumed.close()

    def test_without_resume_existing_journal_is_truncated(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record(0, "(q: 1)", _outcome_dict())
        with BatchJournal(path) as journal:
            assert len(journal) == 0
        assert path.read_text() == ""

    def test_question_mismatch_raises_journal_error(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record(0, "(q: 1)", _outcome_dict())
        resumed = BatchJournal(path, resume=True)
        with pytest.raises(JournalError):
            resumed.completed(0, "(q: OTHER)")
        resumed.close()

    def test_torn_tail_is_discarded(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record(0, "(q: 1)", _outcome_dict())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "index": 1, "quest')  # power cut
        resumed = BatchJournal(path, resume=True)
        assert len(resumed) == 1
        assert resumed.discarded == 1
        assert resumed.completed(0, "(q: 1)") is not None
        resumed.close()

    @pytest.mark.parametrize(
        "tail",
        [
            '{"v": 2, "index": 1, "quest',  # a torn record
            "\x00" * 16,  # lost data blocks under a persisted size
        ],
        ids=["torn", "zeroed"],
    )
    def test_records_after_a_torn_tail_are_read_back(self, tmp_path, tail):
        """A resume cuts the discarded tail off before appending, so
        the next record starts on a line of its own and the next
        resume loads it."""
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record(0, "(q: 1)", _outcome_dict())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(tail)
        with BatchJournal(path, resume=True) as resumed:
            assert resumed.discarded == 1
            resumed.record(1, "(q: 2)", _outcome_dict("(q: 2)"))
        again = BatchJournal(path, resume=True)
        assert again.discarded == 0
        assert again.completed(0, "(q: 1)") == _outcome_dict()
        assert again.completed(1, "(q: 2)") == _outcome_dict("(q: 2)")
        again.close()
        assert not (tmp_path / "batch.jsonl.tmp").exists()

    def test_unterminated_last_record_is_kept_and_terminated(
        self, tmp_path
    ):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record(0, "(q: 1)", _outcome_dict())
        path.write_text(path.read_text().rstrip("\n"))
        with BatchJournal(path, resume=True) as resumed:
            assert resumed.discarded == 0
            resumed.record(1, "(q: 2)", _outcome_dict("(q: 2)"))
        again = BatchJournal(path, resume=True)
        assert len(again) == 2
        again.close()

    def test_replay_stops_at_first_corrupt_record(self, tmp_path):
        """Records after a checksum failure are not trusted, even if
        they verify individually -- append-only logs are only
        trustworthy up to their first corruption."""
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record(0, "(q: 1)", _outcome_dict())
            journal.record(1, "(q: 2)", _outcome_dict("(q: 2)"))
            journal.record(2, "(q: 3)", _outcome_dict("(q: 3)"))
        lines = path.read_text().splitlines()
        tampered = json.loads(lines[1])
        tampered["outcome"]["ok"] = False  # flip a bit, keep checksum
        lines[1] = json.dumps(tampered, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")

        resumed = BatchJournal(path, resume=True)
        assert resumed.completed(0, "(q: 1)") is not None
        assert resumed.completed(1, "(q: 2)") is None
        assert resumed.completed(2, "(q: 3)") is None  # after the cut
        assert resumed.discarded == 1
        resumed.close()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        entry = {
            "v": JOURNAL_VERSION + 1,
            "index": 0,
            "question": "(q: 1)",
            "outcome": _outcome_dict(),
        }
        entry["checksum"] = _checksum(entry)
        path.write_text(json.dumps(entry, sort_keys=True) + "\n")
        resumed = BatchJournal(path, resume=True)
        assert len(resumed) == 0
        assert resumed.discarded == 1
        resumed.close()

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = BatchJournal(tmp_path / "batch.jsonl")
        journal.close()
        with pytest.raises(ConfigurationError):
            journal.record(0, "(q: 1)", _outcome_dict())

    def test_missing_parent_directory_raises_journal_error(
        self, tmp_path
    ):
        """A typo'd journal path fails loudly with the path in the
        message -- a durability artifact must never be silently
        journaled into a freshly invented directory."""
        path = tmp_path / "deep" / "nested" / "batch.jsonl"
        with pytest.raises(JournalError) as excinfo:
            BatchJournal(path)
        assert str(path.parent) in str(excinfo.value)
        assert not path.exists()

    def test_unopenable_journal_raises_journal_error(
        self, tmp_path, monkeypatch
    ):
        """OS-level open failures surface as JournalError (with the
        path), not bare OSError.  The open goes through the module
        hook because the suite may run as root, where permission bits
        on a chmod-0 directory do not bite."""
        from repro.robustness import journal as journal_module

        path = tmp_path / "batch.jsonl"

        def _refuse(p, mode):
            raise PermissionError(13, "Permission denied", str(p))

        monkeypatch.setattr(
            journal_module, "_open_journal_file", _refuse
        )
        with pytest.raises(JournalError) as excinfo:
            BatchJournal(path)
        assert str(path) in str(excinfo.value)
        assert "Permission denied" in str(excinfo.value)

    def test_readonly_directory_raises_journal_error(self, tmp_path):
        """The real permission-denied path (skipped as root, where
        chmod does not restrict access)."""
        if os.geteuid() == 0:
            pytest.skip("running as root: chmod cannot deny access")
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o500)
        try:
            with pytest.raises(JournalError) as excinfo:
                BatchJournal(locked / "batch.jsonl")
            assert str(locked) in str(excinfo.value)
        finally:
            locked.chmod(0o700)

    def test_out_of_order_appends_resume_by_identity(self, tmp_path):
        """Parallel workers journal in completion order; resume matches
        records by (index, question digest), not file position."""
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record(2, "(q: 3)", _outcome_dict("(q: 3)"))
            journal.record(0, "(q: 1)", _outcome_dict())
        resumed = BatchJournal(path, resume=True)
        assert resumed.replayable_count == 2
        assert resumed.completed(0, "(q: 1)") == _outcome_dict()
        assert resumed.completed(2, "(q: 3)") == _outcome_dict("(q: 3)")
        assert resumed.completed(1, "(q: 2)") is None
        resumed.close()

    def test_records_carry_the_question_digest(self, tmp_path):
        from repro.robustness import question_digest

        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record(0, "(q: 1)", _outcome_dict())
        record = json.loads(path.read_text())
        assert record["v"] == JOURNAL_VERSION
        assert record["qdigest"] == question_digest("(q: 1)")

    def test_tampered_digest_is_discarded(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record(0, "(q: 1)", _outcome_dict())
        record = json.loads(path.read_text())
        record["qdigest"] = "0" * 16  # forge, then re-checksum
        record.pop("checksum")
        record["checksum"] = _checksum(record)
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        resumed = BatchJournal(path, resume=True)
        assert resumed.replayable_count == 0
        assert resumed.discarded == 1
        resumed.close()

    def test_concurrent_appends_are_serialized(self, tmp_path):
        import threading

        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            threads = [
                threading.Thread(
                    target=journal.record,
                    args=(i, f"(q: {i})", _outcome_dict(f"(q: {i})")),
                )
                for i in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # every record is a whole, verifiable line: nothing interleaved
        resumed = BatchJournal(path, resume=True)
        assert resumed.replayable_count == 16
        assert resumed.discarded == 0
        for i in range(16):
            assert resumed.completed(i, f"(q: {i})") is not None
        resumed.close()


    def test_record_line_is_the_canonical_entry(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record(0, "(q: 0)", _outcome_dict("(q: 0)"))
        line = path.read_text().splitlines()[0]
        entry = json.loads(line)
        assert entry["checksum"] == _checksum(entry)
        assert line == json.dumps(
            entry, sort_keys=True, separators=(",", ":")
        )

    def test_records_are_flushed_and_fsynced_once_at_close(self):
        from repro.storage import SimIO

        sim = SimIO()
        sim.mkdir(Path("/j"))
        path = Path("/j/batch.jsonl")
        journal = BatchJournal(path, io=sim)
        for i in range(3):
            journal.record(i, f"(q: {i})", _outcome_dict(f"(q: {i})"))
        # every record already reached the file, none was fsynced
        assert len(sim.read_text(path).splitlines()) == 3
        assert [op.kind for op in sim.log].count("fsync") == 0
        journal.close()
        journal.close()  # idempotent: still one fsync
        kinds = [op.kind for op in sim.log]
        assert kinds.count("fsync") == 1
        assert kinds[-1] == "fsync"


# ---------------------------------------------------------------------------
# explain_each integration: journaling and replay
# ---------------------------------------------------------------------------
class TestJournaledBatch:
    def test_journaled_batch_records_every_outcome(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            outcomes = _engine().explain_each(QUESTIONS, journal=journal)
        assert len(outcomes) == len(QUESTIONS)
        lines = path.read_text().splitlines()
        assert len(lines) == len(QUESTIONS)
        for line, outcome in zip(lines, outcomes):
            record = json.loads(line)
            assert record["outcome"] == json.loads(
                json.dumps(outcome.to_dict(), default=str)
            )

    def test_resume_replays_without_reexecuting(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            first = _engine().explain_each(QUESTIONS, journal=journal)

        # Re-running under a plan that fails EVERY site invocation
        # proves the replay path never re-executes the questions.
        poison = FaultPlan(
            [
                FaultSpec(site, at_call=i)
                for site in ("compatible.find", "cache.lookup")
                for i in range(32)
            ]
        )
        with BatchJournal(path, resume=True) as journal:
            with inject(poison):
                second = _engine().explain_each(
                    QUESTIONS, journal=journal
                )
        assert not poison.fired  # nothing was evaluated
        assert all(isinstance(o, ReplayedOutcome) for o in second)
        assert all(o.replayed for o in second)
        for fresh, replayed in zip(first, second):
            assert replayed.to_dict() == json.loads(
                json.dumps(fresh.to_dict(), default=str)
            )
            assert replayed.ok == fresh.ok

    def test_partial_journal_computes_only_the_remainder(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            _engine().explain_each(QUESTIONS[:1], journal=journal)

        with BatchJournal(path, resume=True) as journal:
            outcomes = _engine().explain_each(QUESTIONS, journal=journal)
        assert outcomes[0].replayed
        assert not outcomes[1].replayed
        assert not outcomes[2].replayed
        # the journal now covers the full batch
        with BatchJournal(path, resume=True) as journal:
            assert len(journal) == len(QUESTIONS)

    def test_failed_outcomes_are_journalled_and_replayed(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        questions = [QUESTIONS[0], "(R0.nope: x)"]
        with BatchJournal(path) as journal:
            first = _engine().explain_each(questions, journal=journal)
        assert first[1].degradation_level == "failed"
        with BatchJournal(path, resume=True) as journal:
            second = _engine().explain_each(questions, journal=journal)
        assert second[1].replayed
        assert not second[1].ok
        assert second[1].degradation_level == "failed"


# ---------------------------------------------------------------------------
# Differential: SIGKILL mid-batch, resume, compare with a clean run
# ---------------------------------------------------------------------------
class TestKillResumeDifferential:
    """The resume proof of docs/robustness.md, end to end over the CLI."""

    CLI_QUESTIONS = [
        "(A.name: Homer)",
        "(A.name: Vergil)",
        "(A.name: Sappho)",
    ]

    def _database_dir(self, root: Path) -> Path:
        from repro import Database

        db = Database()
        db.create_table("A", ["aid", "name", "dob"], key="aid")
        db.insert("A", aid="a1", name="Homer", dob=-800)
        db.insert("A", aid="a2", name="Vergil", dob=-70)
        db.insert("A", aid="a3", name="Sappho", dob=-630)
        save_database(db, root / "db")
        return root / "db"

    def _cli(self, data_dir: Path, journal: Path, resume: bool = False):
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "explain",
            "--data",
            str(data_dir),
            "--sql",
            "SELECT A.name FROM A WHERE A.dob > -800",
            "--json",
            "--journal",
            str(journal),
        ]
        for question in self.CLI_QUESTIONS:
            argv += ["--why-not", question]
        if resume:
            argv.append("--resume")
        return argv

    def _env(self, crash_after: int | None = None) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        # deterministic clock: all reported durations are 0.0, making
        # the two --json documents comparable byte for byte
        env["REPRO_MANUAL_CLOCK"] = "1"
        env.pop("REPRO_JOURNAL_CRASH_AFTER", None)
        if crash_after is not None:
            env["REPRO_JOURNAL_CRASH_AFTER"] = str(crash_after)
        return env

    def _artifact_dir(self, tmp_path: Path) -> Path:
        configured = os.environ.get("REPRO_CHAOS_ARTIFACT_DIR")
        if configured:
            path = Path(configured)
            path.mkdir(parents=True, exist_ok=True)
            return path
        return tmp_path

    def test_killed_batch_resumes_to_identical_outcomes(self, tmp_path):
        data_dir = self._database_dir(tmp_path)
        artifacts = self._artifact_dir(tmp_path)
        clean_journal = artifacts / "clean.jsonl"
        killed_journal = artifacts / "killed.jsonl"

        # 1. the uninterrupted oracle run
        clean = subprocess.run(
            self._cli(data_dir, clean_journal),
            capture_output=True,
            text=True,
            env=self._env(),
            timeout=120,
        )
        assert clean.returncode == 0, clean.stderr
        clean_doc = json.loads(clean.stdout)

        # 2. the same batch, killed right after the first record is
        #    flushed (SIGKILL: no atexit, no fsync, no cleanup)
        killed = subprocess.run(
            self._cli(data_dir, killed_journal),
            capture_output=True,
            text=True,
            env=self._env(crash_after=1),
            timeout=120,
        )
        assert killed.returncode == -signal.SIGKILL
        survived = killed_journal.read_text().splitlines()
        assert len(survived) == 1  # exactly the flushed prefix

        # 3. resume and merge
        resumed = subprocess.run(
            self._cli(data_dir, killed_journal, resume=True),
            capture_output=True,
            text=True,
            env=self._env(),
            timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr
        resumed_doc = json.loads(resumed.stdout)

        # 4. the merged outcomes are byte-for-byte the clean run's
        assert json.dumps(
            resumed_doc["outcomes"], sort_keys=True
        ) == json.dumps(clean_doc["outcomes"], sort_keys=True)
        assert len(resumed_doc["outcomes"]) == len(self.CLI_QUESTIONS)
        assert all(o["ok"] for o in resumed_doc["outcomes"])

    def test_crash_after_second_record(self, tmp_path):
        """Killing one record later still leaves a loadable prefix."""
        data_dir = self._database_dir(tmp_path)
        journal = tmp_path / "killed2.jsonl"
        killed = subprocess.run(
            self._cli(data_dir, journal),
            capture_output=True,
            text=True,
            env=self._env(crash_after=2),
            timeout=120,
        )
        assert killed.returncode == -signal.SIGKILL
        assert len(journal.read_text().splitlines()) == 2
        resumed = BatchJournal(journal, resume=True)
        assert resumed.replayable_count == 2
        assert resumed.discarded == 0
        resumed.close()


# ---------------------------------------------------------------------------
# Parallel differentials: workers=4 byte-identity, SIGKILL resume under
# concurrency, and the SIGINT graceful-drain proof (exit code 5)
# ---------------------------------------------------------------------------
class TestParallelDrainAndResume:
    """The concurrency half of the resume proof, end to end over the CLI."""

    NAMES = ["Homer", "Vergil", "Sappho", "Ovid", "Hesiod", "Pindar"]
    CLI_QUESTIONS = [f"(A.name: {name})" for name in NAMES]

    def _database_dir(self, root: Path) -> Path:
        from repro import Database

        db = Database()
        db.create_table("A", ["aid", "name", "dob"], key="aid")
        for n, (name, dob) in enumerate(
            zip(self.NAMES, [-800, -70, -630, -43, -750, -518])
        ):
            db.insert("A", aid=f"a{n}", name=name, dob=dob)
        save_database(db, root / "db")
        return root / "db"

    def _cli(
        self,
        data_dir: Path,
        journal: Path | None = None,
        resume: bool = False,
        workers: int | None = None,
    ):
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "explain",
            "--data",
            str(data_dir),
            "--sql",
            "SELECT A.name FROM A WHERE A.dob > -800",
            "--json",
            "--batch",
        ]
        if journal is not None:
            argv += ["--journal", str(journal)]
        for question in self.CLI_QUESTIONS:
            argv += ["--why-not", question]
        if resume:
            argv.append("--resume")
        if workers is not None:
            argv += ["--workers", str(workers)]
        return argv

    def _env(
        self,
        crash_after: int | None = None,
        sigint_after: int | None = None,
    ) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_MANUAL_CLOCK"] = "1"
        env.pop("REPRO_JOURNAL_CRASH_AFTER", None)
        env.pop("REPRO_JOURNAL_SIGINT_AFTER", None)
        if crash_after is not None:
            env["REPRO_JOURNAL_CRASH_AFTER"] = str(crash_after)
        if sigint_after is not None:
            env["REPRO_JOURNAL_SIGINT_AFTER"] = str(sigint_after)
        return env

    def _artifact_dir(self, tmp_path: Path) -> Path:
        configured = os.environ.get("REPRO_CHAOS_ARTIFACT_DIR")
        if configured:
            path = Path(configured)
            path.mkdir(parents=True, exist_ok=True)
            return path
        return tmp_path

    def test_workers4_json_is_byte_identical_to_sequential(self, tmp_path):
        """The acceptance lock: under REPRO_MANUAL_CLOCK, a --workers 4
        run emits the byte-for-byte --json document of the sequential
        run -- outcomes, cache statistics, exit code, everything."""
        data_dir = self._database_dir(tmp_path)
        sequential = subprocess.run(
            self._cli(data_dir),
            capture_output=True,
            text=True,
            env=self._env(),
            timeout=120,
        )
        parallel = subprocess.run(
            self._cli(data_dir, workers=4),
            capture_output=True,
            text=True,
            env=self._env(),
            timeout=120,
        )
        assert sequential.returncode == 0, sequential.stderr
        assert parallel.returncode == 0, parallel.stderr
        assert parallel.stdout == sequential.stdout

    def test_parallel_killed_batch_resumes_to_identical_outcomes(
        self, tmp_path
    ):
        """SIGKILL mid-batch with 4 workers journalling out of order;
        the resumed outcomes are byte-identical to a clean run's."""
        data_dir = self._database_dir(tmp_path)
        artifacts = self._artifact_dir(tmp_path)
        clean_journal = artifacts / "parallel-clean.jsonl"
        killed_journal = artifacts / "parallel-killed.jsonl"

        clean = subprocess.run(
            self._cli(data_dir, clean_journal),
            capture_output=True,
            text=True,
            env=self._env(),
            timeout=120,
        )
        assert clean.returncode == 0, clean.stderr
        clean_doc = json.loads(clean.stdout)

        killed = subprocess.run(
            self._cli(data_dir, killed_journal, workers=4),
            capture_output=True,
            text=True,
            env=self._env(crash_after=2),
            timeout=120,
        )
        assert killed.returncode == -signal.SIGKILL
        # the flushed prefix: at least the 2 records that triggered the
        # kill (another worker may have squeezed one in before dying)
        survived = killed_journal.read_text().splitlines()
        assert 2 <= len(survived) < len(self.CLI_QUESTIONS)

        resumed = subprocess.run(
            self._cli(data_dir, killed_journal, resume=True, workers=4),
            capture_output=True,
            text=True,
            env=self._env(),
            timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr
        resumed_doc = json.loads(resumed.stdout)
        assert json.dumps(
            resumed_doc["outcomes"], sort_keys=True
        ) == json.dumps(clean_doc["outcomes"], sort_keys=True)

    def test_sigint_drain_exits_5_then_resumes_cleanly(self, tmp_path):
        """A SIGINT mid-batch triggers a graceful drain: in-flight
        questions finish and are journalled, the rest become explicit
        cancelled outcomes, the exit code is 5 -- and a --resume run
        completes the batch to the clean run's exact outcomes."""
        data_dir = self._database_dir(tmp_path)
        artifacts = self._artifact_dir(tmp_path)
        clean_journal = artifacts / "drain-clean.jsonl"
        drained_journal = artifacts / "drained.jsonl"

        clean = subprocess.run(
            self._cli(data_dir, clean_journal),
            capture_output=True,
            text=True,
            env=self._env(),
            timeout=120,
        )
        assert clean.returncode == 0, clean.stderr
        clean_doc = json.loads(clean.stdout)

        drained = subprocess.run(
            self._cli(data_dir, drained_journal, workers=2),
            capture_output=True,
            text=True,
            env=self._env(sigint_after=1),
            timeout=120,
        )
        assert drained.returncode == 5, (
            drained.stdout,
            drained.stderr,
        )
        drained_doc = json.loads(drained.stdout)
        assert drained_doc["drained_by"] == "SIGINT"
        outcomes = drained_doc["outcomes"]
        assert len(outcomes) == len(self.CLI_QUESTIONS)
        completed = [o for o in outcomes if o["ok"]]
        cancelled = [
            o
            for o in outcomes
            if o["degradation_level"] == "cancelled"
        ]
        assert len(completed) + len(cancelled) == len(outcomes)
        assert completed, "the drain must finish in-flight questions"
        # every completed question is durably journalled; cancelled
        # ones are not (a resume recomputes them)
        journalled = drained_journal.read_text().splitlines()
        assert len(journalled) == len(completed)

        resumed = subprocess.run(
            self._cli(data_dir, drained_journal, resume=True, workers=2),
            capture_output=True,
            text=True,
            env=self._env(),
            timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr
        resumed_doc = json.loads(resumed.stdout)
        assert json.dumps(
            resumed_doc["outcomes"], sort_keys=True
        ) == json.dumps(clean_doc["outcomes"], sort_keys=True)
