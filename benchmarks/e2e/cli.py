"""Command line of the end-to-end benchmark.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
--trace 0|1`` runs one workload; without ``--workload`` every workload
runs, each in its own subprocess.  Every metric is printed by name with
its unit, the answers are checked, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics of the traced replay).

Exit codes: 0 = answers correct, 1 = a wrong answer (the question is
printed), 2 = the benchmark itself could not run (no result line).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

from repro.obs import counter_values, read_trace_jsonl
from repro.workloads.usecases import QUERIES

from .metrics import END_TO_END, PER_LAYER, TracedRun, end_to_end, per_layer
from .oracle import CHECK_SIZE, Oracle, Reservoir, check
from .procs import ROOT, HarnessError, child_env, finish, spawn_until
from .service import make_ops, timed_run, traced_run
from .stats import percentile
from .stream import (
    SERVICE_QUERIES,
    Question,
    build_databases,
    make_stream,
    templates,
)

#: where runs keep their temporary files (inside the checkout)
WORK = ROOT / "benchmarks" / "e2e" / ".work"

#: set-ups per untraced run; setup_s is their median
SETUPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "library" (a child process calling the API) or "service" (HTTP)
    kind: str
    scale: int
    #: stream length in rounds; a round holds every template once
    #: (library) or 100 requests (service); loops wrap around
    rounds: int
    warm: bool = False
    columnar: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "warm-row",
            "scale 4, warmed per-database caches (hit ratio 1): "
            "steady-state serving, so the time goes to the Algorithm 1 "
            "phases",
            "library",
            scale=4,
            rounds=316,
            warm=True,
        ),
        Workload(
            "cold-row",
            "scale 4, a fresh engine and cache per question (hit ratio "
            "0): a first question on a new query, so input-instance "
            "build and row evaluation dominate",
            "library",
            scale=4,
            rounds=32,
        ),
        Workload(
            "cold-columnar",
            "the cold-row stream with use_columnar=True: the only "
            "workload that runs columnar evaluation and row-view "
            "conversion",
            "library",
            scale=4,
            rounds=32,
            columnar=True,
        ),
        Workload(
            "service-journaled",
            "HTTP at scale 1, two clients, 70% explain, 20% journaled "
            "batch, 10% result read: service, storage and journal "
            "layers dominate",
            "service",
            scale=1,
            rounds=60,
        ),
    )
}


@dataclass(frozen=True)
class Settings:
    seed: int
    seconds: float
    trace: bool
    setups: int
    check_size: int


def _library(workload: Workload, settings: Settings, work: Path) -> dict:
    databases = build_databases(workload.scale)
    questions = make_stream(settings.seed, workload.rounds, databases)
    spec_path = work / "spec.json"
    result_path = work / "result.json"
    trace_path = work / "trace.jsonl"
    spec_path.write_text(
        json.dumps(
            {
                "scale": workload.scale,
                "warm": workload.warm,
                "columnar": workload.columnar,
                "questions": [
                    [q.use_case, q.query, q.predicate] for q in questions
                ],
                "seconds": settings.seconds,
                "round_len": len(templates()),
                "check_size": settings.check_size,
                "sample_seed": settings.seed,
                "trace": str(trace_path) if settings.trace else None,
                "result": str(result_path),
            }
        ),
        encoding="utf-8",
    )
    env = child_env(work)
    args = ["-m", "benchmarks.e2e.library", str(spec_path)]
    setups = []
    for _ in range(0 if settings.trace else settings.setups - 1):
        proc, _, took = spawn_until([*args, "--setup-only"], env, "ready")
        finish(proc)
        setups.append(took)
    proc, _, took = spawn_until(args, env, "ready")
    setups.append(took)
    finish(proc)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    samples = [(Question(*q), answers) for q, answers in result["samples"]]
    mismatches = check(samples, Oracle(databases))
    out = {"failed": result["failed"], "samples": len(samples)}
    if settings.trace:
        spans, snapshot = read_trace_jsonl(trace_path)
        run = TracedRun(
            questions=result["questions"],
            untraced_ms=result["untraced_ms"],
            traced_ms=result["traced_ms"],
        )
        out["attempted"] = result["questions"]
        out["metrics"] = per_layer(spans, counter_values(snapshot), run)
        out["spans"] = len(spans)
    else:
        latencies = result["latencies_ms"]
        out["attempted"] = len(latencies)
        out["metrics"] = end_to_end(
            setups,
            latencies,
            len(latencies) - result["failed"],
            result["wall_s"],
            result["rss_mb"],
        )
        out["latencies_ms"] = latencies
        out["setups_s"] = setups
    out["mismatches"] = mismatches
    return out


def _service(workload: Workload, settings: Settings, work: Path) -> dict:
    databases = build_databases(
        workload.scale, sorted({QUERIES[q][0] for q in SERVICE_QUERIES})
    )
    ops = make_ops(settings.seed, workload.rounds, databases)
    sampler = Reservoir(settings.check_size, settings.seed)
    if settings.trace:
        trace_path = work / "trace.jsonl"
        drive, run = traced_run(
            ops, settings.seconds, work, workload.scale, sampler, trace_path
        )
        spans, snapshot = read_trace_jsonl(trace_path)
        out = {
            "attempted": drive.sent,
            "failed": drive.failed,
            "metrics": per_layer(spans, counter_values(snapshot), run),
            "spans": len(spans),
        }
    else:
        timed = timed_run(
            ops,
            settings.seconds,
            settings.setups,
            work,
            child_env(work),
            workload.scale,
            sampler,
        )
        drive = timed["drive"]
        out = {
            "attempted": drive.sent,
            "failed": drive.failed,
            "metrics": end_to_end(
                timed["setup_s"],
                drive.explain_ms,
                drive.answered,
                drive.wall_s,
                timed["rss_mb"],
            ),
            "latencies_ms": drive.explain_ms,
            "batch_latencies_ms": drive.batch_ms,
            "read_latencies_ms": drive.read_ms,
            "setups_s": timed["setup_s"],
        }
    samples = sampler.sample()
    out["samples"] = len(samples)
    out["mismatches"] = check(samples, Oracle(databases, via_sql=True))
    return out


def run_one(name: str, settings: Settings) -> dict:
    """Run one workload in this process (its children are spawned)."""
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = _service if workload.kind == "service" else _library
        out = runner(workload, settings, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # succeeds once no other run is using it
    out["workload"] = name
    out["seed"] = settings.seed
    out["trace"] = settings.trace
    out["correct"] = not out["mismatches"]
    return out


def report_lines(out: dict) -> list[str]:
    """The human-readable lines of one workload's result."""
    units = dict(PER_LAYER if out["trace"] else END_TO_END)
    tag = f"[{out['workload']} seed={out['seed']}]"
    lines = [
        f"{tag} {name} {value:.6g} {units[name]}"
        for name, value in out["metrics"].items()
    ]
    for key, label in (
        ("latencies_ms", "latency"),
        ("batch_latencies_ms", "batch_latency"),
        ("read_latencies_ms", "read_latency"),
    ):
        if out.get(key):
            described = ", ".join(
                percentile(out[key], q).describe() for q in (50, 90, 99)
            )
            lines.append(f"{tag} info {label}: {described}")
    lines.append(
        f"{tag} info answers checked: {out['samples']} distinct "
        f"questions, {len(out['mismatches'])} wrong; failed "
        f"{out['failed']} of {out['attempted']}"
    )
    lines.extend(f"{tag} WRONG ANSWER {m}" for m in out["mismatches"])
    return lines


def result_line(out: dict) -> dict:
    units = dict(PER_LAYER if out["trace"] else END_TO_END)
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in out["metrics"].items()
        },
    }


def _run_all(args, settings: Settings) -> tuple[int, dict]:
    """Every workload (and with --smoke both modes), one subprocess each."""
    results = []
    modes = (False, True) if args.smoke else (settings.trace,)
    for name in WORKLOADS:
        for trace in modes:
            command = [
                sys.executable,
                str(ROOT / "benchmarks" / "e2e" / "run.py"),
                "--workload",
                name,
                "--seed",
                str(settings.seed),
                "--seconds",
                str(settings.seconds),
                "--trace",
                str(int(trace)),
            ]
            if args.smoke:
                command.append("--smoke")
            proc = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode not in (0, 1) or not lines:
                sys.stdout.write(proc.stdout)
                raise HarnessError(f"{name} exited {proc.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            results.append((name, trace, json.loads(lines[-1])))
    summary = {
        "correct": all(r["correct"] for _, _, r in results),
        "attempted": sum(r["attempted"] for _, _, r in results),
        "failed": sum(r["failed"] for _, _, r in results),
        "metrics": {
            f"{name}{'.trace' if trace else ''}.{metric}": value
            for name, trace, r in results
            for metric, value in r["metrics"].items()
        },
    }
    return (0 if summary["correct"] else 1), summary


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="End-to-end why-not benchmark (see "
        "benchmarks/e2e/README.md).",
    )
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        default=None,
        help="run one workload (default: all, one subprocess each)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help="input seed: generates the question stream (default: 1)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=10.0,
        help="length of the timed loop (default: 10)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1 (or the bare flag): run the traced replay and print the "
        "per-layer metrics instead of the end-to-end ones",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes (1 s loops, one set-up, 8 checked questions); "
        "without --workload, runs every workload untraced and traced",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="OUT",
        help="also write the full result, with raw latencies, to OUT",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    settings = Settings(
        seed=args.seed,
        seconds=1.0 if args.smoke else args.seconds,
        trace=bool(args.trace),
        setups=1 if args.smoke else SETUPS,
        check_size=8 if args.smoke else CHECK_SIZE,
    )
    try:
        if args.workload is None:
            code, document = _run_all(args, settings)
            full = document
        else:
            full = run_one(args.workload, settings)
            for line in report_lines(full):
                print(line, flush=True)
            document = result_line(full)
            code = 0 if full["correct"] else 1
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 -- report, never print a result
        traceback.print_exc()
        return 2
    if args.json:
        Path(args.json).write_text(
            json.dumps(full, indent=1) + "\n", encoding="utf-8"
        )
    print(json.dumps(document), flush=True)
    return code
