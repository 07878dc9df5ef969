"""Crash-state enumeration: recovery proven over every legal state.

The acceptance harness at the bottom is the point of the whole
subsystem: record the complete I/O operation log of a journaled
``workers=4`` batch (run against the :class:`~repro.storage.crashsim.
SimIO` simulator, with seeded engine faults and occasional lying
fsyncs), then for **every crash prefix** of that log and **every legal
post-crash filesystem state** (fsync reordering, torn appends, lost
directory entries):

1. no committed record is lost -- every journal byte covered by an
   executed fsync parses back out of the surviving journal;
2. no uncommitted record is resurrected -- recovery never reports a
   question the crashed run had not durably appended;
3. resuming the batch from the surviving journal produces outcomes
   byte-identical to the uninterrupted run (under the manual clock).

Engine-level resume differentials are deduplicated by the set of
records each crash state recovers -- two states that recover the same
records resume identically -- which keeps the harness exhaustive over
states while bounding engine executions.

``TestServiceBatchCrashStates`` enumerates one whole
``ServiceState.explain_batch`` the same way: its one journal file from
the manifest record to the result record and the two syncs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import NedExplain, canonicalize
from repro.errors import ServiceError
from repro.obs.clock import ManualClock, use_clock
from repro.relational import EvaluationCache
from repro.robustness import (
    BatchJournal,
    FaultPlan,
    FaultSpec,
    inject,
)
from repro.robustness.faults import FAULT_SITES
from repro.service import ServiceConfig, ServiceState
from repro.storage import (
    CrashSim,
    Op,
    OpLog,
    SimIO,
    StorageBackend,
    atomic_write_json,
    enumerate_crash_states,
    journal_commit_horizon,
    materialize,
)
from repro.storage.crashsim import MAX_STATES_PER_PREFIX
from repro.workloads.generator import chain_database, chain_query

QUESTIONS = [
    "(R0.label: needle)",
    "(R0.label: r0v1)",
    "(R2.label: r2v3)",
]

_DB = chain_database(3, rows_per_relation=12)
_CANONICAL = canonicalize(chain_query(3), _DB.schema)

ROOT = Path("/sim")
JOURNAL = ROOT / "batch.journal.jsonl"


def _engine() -> NedExplain:
    return NedExplain(_CANONICAL, database=_DB, cache=EvaluationCache())


def _plan(seed: int) -> FaultPlan:
    """The seeded fault schedule of one harness run.

    Engine faults are question-scoped so they fire identically under
    any worker interleaving; odd seeds add a lying fsync -- the fault
    only this harness can observe.
    """
    plan = FaultPlan.random(
        seed,
        sites=FAULT_SITES,
        faults=2,
        scope="question",
    )
    specs = list(plan.specs)
    if seed % 2:
        specs.append(
            FaultSpec("io.fsync_lost", at_call=seed % 4, kind="error")
        )
    return FaultPlan(specs, seed=seed, scope="question")


def _lying_close_plan(seed: int) -> FaultPlan:
    """:func:`_plan` with the journal's one fsync -- at close -- lost.

    The journal fsyncs once per batch, so ``_plan``'s lying fsync
    (call 1 or 3) never meets a call; this plan lies on call 0.
    """
    specs = [
        spec for spec in _plan(seed).specs if spec.site != "io.fsync_lost"
    ]
    specs.append(FaultSpec("io.fsync_lost", at_call=0, kind="error"))
    return FaultPlan(specs, seed=seed, scope="question")


def _normalized(outcomes) -> list[dict]:
    return [
        json.loads(json.dumps(o.to_dict(), default=str))
        for o in outcomes
    ]


def _scrub_spent(document):
    """Drop ``spent`` resource accounting, recursively.

    Row/comparison counters depend on shared-cache warmth, which
    depends on which questions were replayed instead of executed; they
    are the one field a re-executed outcome may legitimately differ
    in.  Replayed outcomes are never scrubbed -- they must be
    byte-identical.
    """
    if isinstance(document, dict):
        return {
            key: _scrub_spent(value)
            for key, value in document.items()
            if key != "spent"
        }
    if isinstance(document, list):
        return [_scrub_spent(value) for value in document]
    return document


def _run_recorded_batch(seed: int, plan=_plan):
    """One journaled workers=4 batch on the simulator.

    Returns ``(sim, clean_outcomes)``: the op log of the complete run
    plus its outcomes (the ground truth every resume must converge to).
    """
    sim = SimIO()
    sim.mkdir(ROOT)
    journal = BatchJournal(JOURNAL, io=sim)
    with use_clock(ManualClock()):
        with inject(plan(seed)):
            outcomes = _engine().explain_each(
                QUESTIONS, journal=journal, workers=4
            )
            journal.close()
    return sim, _normalized(outcomes)


def _parse_records(text: str) -> dict[int, str]:
    """index -> question for every whole, valid line of journal text."""
    records: dict[int, str] = {}
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            break  # torn tail / first corruption: stop, like the WAL
        records[int(record["index"])] = record["question"]
    return records


def _recovered_indexes(files: dict[str, str]) -> frozenset[int]:
    """Which questions a resume from this crash state replays."""
    io = materialize(files, root=ROOT)
    journal = BatchJournal(JOURNAL, resume=True, io=io)
    recovered = frozenset(
        i
        for i, question in enumerate(QUESTIONS)
        if journal.completed(i, question) is not None
    )
    journal.close()
    return recovered


def _crash_harness(seed: int, plan=_plan) -> None:
    sim, clean = _run_recorded_batch(seed, plan)
    log = sim.log
    journal_text = sim.read_text(JOURNAL)
    csim = CrashSim(log)

    resume_cases: dict[frozenset[int], dict[str, str]] = {}
    appended = 0
    for prefix in range(len(log) + 1):
        if prefix:
            op = log[prefix - 1]
            if op.kind == "append" and op.path == str(JOURNAL):
                appended += len(op.data)
        horizon = journal_commit_horizon(log, str(JOURNAL), prefix)
        committed = set(_parse_records(journal_text[:horizon]))
        # records with *any* bytes appended by this prefix (committed
        # or not); nothing beyond them may ever be recovered
        appendable = set(_parse_records(journal_text[:appended]))
        for files in csim.states_at(prefix):
            recovered = _recovered_indexes(files)
            # invariant 1: no committed batch outcome is lost
            assert committed <= recovered, (
                f"seed {seed} prefix {prefix}: committed {committed} "
                f"but only {set(recovered)} recovered from {files}"
            )
            # invariant 2: no uncommitted record is resurrected from
            # bytes the crashed run never appended
            assert recovered <= appendable, (
                f"seed {seed} prefix {prefix}: recovered "
                f"{set(recovered)} exceeds appended {appendable}"
            )
            resume_cases.setdefault(recovered, files)

    # invariant 3: resuming from every distinct recovery point yields
    # outcomes byte-identical to the uninterrupted run
    for recovered, files in sorted(
        resume_cases.items(), key=lambda item: sorted(item[0])
    ):
        io = materialize(files, root=ROOT)
        journal = BatchJournal(JOURNAL, resume=True, io=io)
        with use_clock(ManualClock()):
            with inject(plan(seed)):
                outcomes = _engine().explain_each(
                    QUESTIONS, journal=journal, workers=4
                )
        journal.close()
        resumed = _normalized(outcomes)
        for index in range(len(QUESTIONS)):
            if index in recovered:
                # replayed verbatim from the journal: byte-identical
                assert outcomes[index].replayed
                assert resumed[index] == clean[index], (
                    f"seed {seed}: replayed outcome {index} diverged "
                    f"resuming from {sorted(recovered)}"
                )
            else:
                # re-executed: identical up to resource accounting
                assert _scrub_spent(resumed[index]) == _scrub_spent(
                    clean[index]
                ), (
                    f"seed {seed}: re-executed outcome {index} "
                    f"diverged resuming from {sorted(recovered)}"
                )


# ---------------------------------------------------------------------------
# SimIO op-log recording
# ---------------------------------------------------------------------------
class TestSimIO:
    def test_records_the_write_protocol(self):
        sim = SimIO()
        sim.mkdir(Path("/d"))
        atomic_write_json(Path("/d/doc.json"), {"v": 1}, io=sim)
        kinds = [op.kind for op in sim.log]
        assert kinds == [
            "truncate", "append", "fsync", "rename", "fsync_dir",
        ]

    def test_fsync_lost_records_no_fsync(self):
        sim = SimIO()
        sim.mkdir(Path("/d"))
        with inject(FaultPlan([FaultSpec("io.fsync_lost", 0)])):
            sim.write_text(Path("/d/f"), "data")
        assert "fsync" not in [op.kind for op in sim.log]
        # the cache still sees the bytes -- only a crash reveals the lie
        assert sim.read_text(Path("/d/f")) == "data"

    def test_append_deltas_not_whole_files(self):
        sim = SimIO()
        sim.mkdir(Path("/d"))
        handle = sim.open(Path("/d/log"), "w")
        sim.write(handle, "one\n")
        sim.fsync(handle)
        sim.write(handle, "two\n")
        sim.fsync(handle)
        sim.close(handle)
        appends = [op.data for op in sim.log if op.kind == "append"]
        assert appends == ["one\n", "two\n"]


# ---------------------------------------------------------------------------
# Crash-state enumeration semantics
# ---------------------------------------------------------------------------
class TestCrashStates:
    def test_atomic_write_protocol_is_all_or_nothing(self):
        sim = SimIO()
        sim.mkdir(Path("/d"))
        atomic_write_json(Path("/d/doc.json"), {"v": 1}, io=sim)
        # after the full protocol the ONLY legal state is the complete
        # document; mid-protocol states may miss it but never tear it
        for prefix, files in enumerate_crash_states(sim.log):
            content = files.get("/d/doc.json")
            if content is not None:
                assert json.loads(content) == {"v": 1}
            if prefix == len(sim.log):
                assert content is not None

    def test_rename_without_dir_fsync_can_be_lost(self):
        sim = SimIO()
        sim.mkdir(Path("/d"))
        # write + rename but NO fsync_dir: the rename must be losable
        handle = sim.open(Path("/d/t.tmp"), "w")
        sim.write(handle, "data")
        sim.fsync(handle)
        sim.close(handle)
        sim.replace(Path("/d/t.tmp"), Path("/d/final"))
        finals = [
            files
            for prefix, files in enumerate_crash_states(sim.log)
            if prefix == len(sim.log)
        ]
        assert any("/d/final" not in files for files in finals)
        assert any(
            files.get("/d/final") == "data" for files in finals
        )

    def test_torn_tail_states_exist(self):
        sim = SimIO()
        sim.mkdir(Path("/d"))
        handle = sim.open(Path("/d/log"), "w")
        sim.write(handle, "x" * 100)
        sim.flush(handle)  # flushed but never fsynced: torn is legal
        sim.close(handle)
        contents = {
            files.get("/d/log")
            for prefix, files in enumerate_crash_states(sim.log)
            if prefix == len(sim.log)
        }
        assert "x" * 50 in contents  # the torn half-cut
        assert "x" * 100 in contents

    def test_fsync_reordering_between_files(self):
        sim = SimIO()
        sim.mkdir(Path("/d"))
        sim.write_text(Path("/d/a"), "A", durable=False)
        sim.write_text(Path("/d/b"), "B", durable=False)
        # neither file was fsynced: every subset of {a, b} is legal
        finals = [
            frozenset(files)
            for prefix, files in enumerate_crash_states(sim.log)
            if prefix == len(sim.log)
        ]
        assert frozenset() in finals
        assert frozenset({"/d/a", "/d/b"}) in finals
        assert frozenset({"/d/b"}) in finals  # b without a: reordered

    def test_flushed_but_unfsynced_append_is_losable(self):
        # flush() publishes bytes to the cache (other readers see
        # them) but promises nothing about durability: some legal
        # crash state must lose the whole append
        sim = SimIO()
        sim.mkdir(Path("/d"))
        handle = sim.open(Path("/d/log"), "w")
        sim.write(handle, "committed\n")
        sim.fsync(handle)
        sim.write(handle, "flushed-only\n")
        sim.flush(handle)
        sim.close(handle)
        # the live process observes both lines...
        assert sim.read_text(Path("/d/log")) == (
            "committed\nflushed-only\n"
        )
        finals = [
            files.get("/d/log")
            for prefix, files in enumerate_crash_states(sim.log)
            if prefix == len(sim.log)
        ]
        # ...but a crash may keep only the fsynced prefix
        assert "committed\n" in finals
        assert "committed\nflushed-only\n" in finals
        assert all(
            content is not None and content.startswith("committed\n")
            for content in finals
        )

    def test_fsynced_append_survives_every_crash_state(self):
        sim = SimIO()
        sim.mkdir(Path("/d"))
        handle = sim.open(Path("/d/log"), "w")
        sim.write(handle, "first\n")
        sim.fsync(handle)
        sim.write(handle, "second\n")
        sim.fsync(handle)
        sim.close(handle)
        for prefix, files in enumerate_crash_states(sim.log):
            if prefix == len(sim.log):
                # after the final fsync there is exactly one legal
                # content: everything acknowledged as durable
                assert files.get("/d/log") == "first\nsecond\n"

    def test_state_explosion_is_capped(self):
        log = OpLog()
        for i in range(12):
            log.record(Op("truncate", f"/d/f{i}"))
            log.record(Op("append", f"/d/f{i}", data=f"x{i}"))
        states = list(CrashSim(log).states_at(len(log)))
        assert 0 < len(states) <= MAX_STATES_PER_PREFIX

    def test_commit_horizon(self):
        log = OpLog()
        log.record(Op("truncate", "/j"))
        log.record(Op("append", "/j", data="aaaa"))
        log.record(Op("fsync", "/j"))
        log.record(Op("append", "/j", data="bbbb"))
        assert journal_commit_horizon(log, "/j", 0) == 0
        assert journal_commit_horizon(log, "/j", 2) == 0
        assert journal_commit_horizon(log, "/j", 3) == 4
        assert journal_commit_horizon(log, "/j", 4) == 4


# ---------------------------------------------------------------------------
# The acceptance harness
# ---------------------------------------------------------------------------
class TestCrashRecoveryHarness:
    @pytest.mark.parametrize("seed", range(3))
    def test_journaled_batch_survives_every_crash_state(self, seed):
        _crash_harness(seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(25))
    def test_acceptance_twenty_five_seeds(self, seed):
        """The PR acceptance bar: every crash prefix of a workers=4
        journaled batch, across 25 fault seeds."""
        _crash_harness(seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_lost_close_fsync_commits_nothing_and_still_converges(
        self, seed
    ):
        """The journal's one fsync lies: nothing is ever committed, and
        every crash state still resumes to the uninterrupted outcomes."""
        sim, _ = _run_recorded_batch(seed, _lying_close_plan)
        assert "fsync" not in [op.kind for op in sim.log]
        _crash_harness(seed, _lying_close_plan)


# ---------------------------------------------------------------------------
# The whole service batch: manifest, question records, result, two syncs
# ---------------------------------------------------------------------------
SERVICE_BATCH = {
    "request_id": "crash-batch",
    "database": "crime",
    "sql": "SELECT Person.name FROM Person WHERE Person.hair = 'brown'",
    "why_not": [
        "(Person.name: Roger)",
        "(Person.name: Hannah)",
        "(Person.name: nobody)",
    ],
    "workers": 2,
}


def _json(document):
    return json.loads(json.dumps(document, sort_keys=True, default=str))


def _service_state(io):
    """A service whose storage runs on *io*, started the way ``serve``
    starts one up to batch recovery: storage recovery, then the
    persisted registrations."""
    state = ServiceState(ServiceConfig())
    state.open_storage(
        StorageBackend(Path("/memory"), metrics=state.metrics, io=io)
    )
    return state


def _record_service_batch():
    """One ``ServiceState.explain_batch`` on the simulator.

    Returns ``(sim, start, synced, clean)``: the op log, the index of
    the batch's first op, the prefix at which the response is sent
    (after both syncs), and the batch's response document."""
    sim = SimIO()
    sim.mkdir(Path("/memory"))
    with use_clock(ManualClock()):
        state = _service_state(sim)
        state.register_database({"name": "crime", "use_case_db": "crime"})
        start = len(sim.log)
        clean, fresh = state.explain_batch(dict(SERVICE_BATCH))
    assert fresh
    return sim, start, len(sim.log), _json(clean)


class TestServiceBatchCrashStates:
    def test_every_crash_state_recovers_or_converges(self):
        """For every crash prefix of a service batch and every legal
        state: recovery plus GET serves the clean result, or re-runs
        the batch to it, or the batch was never acknowledged and a
        retry converges to it; a 200 never carries a partial document;
        a batch whose two syncs completed is never lost."""
        sim, start, synced, clean = _record_service_batch()
        csim = CrashSim(sim.log)
        request_id = SERVICE_BATCH["request_id"]
        seen: set[tuple] = set()
        paths = {"served": 0, "recovered": 0, "retried": 0}
        for prefix in range(start, len(sim.log) + 1):
            for files in csim.states_at(prefix):
                key = (prefix >= synced, tuple(sorted(files.items())))
                if key in seen:
                    continue
                seen.add(key)
                with use_clock(ManualClock()):
                    state = _service_state(
                        materialize(files, Path("/memory"))
                    )
                    recovered = state.recover()
                    try:
                        document = state.batch_result(request_id)
                        path = "recovered" if recovered else "served"
                    except ServiceError as exc:
                        # only an unacknowledged batch may be lost
                        assert exc.status == 404, exc
                        assert prefix < synced, (prefix, files)
                        document, fresh = state.explain_batch(
                            dict(SERVICE_BATCH)
                        )
                        assert fresh
                        path = "retried"
                paths[path] += 1
                document = _json(document)
                # a 200 carries the whole document
                assert set(document) == set(clean)
                assert len(document["outcomes"]) == len(
                    SERVICE_BATCH["why_not"]
                )
                if path == "served" or prefix >= synced:
                    # the stored result, byte-identical
                    assert path == "served" and document == clean
                    continue
                # a re-run converges to the clean outcomes
                assert _scrub_spent(document["outcomes"]) == _scrub_spent(
                    clean["outcomes"]
                )
                for field in ("questions", "request_id", "workers"):
                    assert document[field] == clean[field]
        assert all(paths.values()), paths
