"""``repro chaos``: seeded fault schedules swept through real runs.

The chaos sweeper closes the loop the fault plane opens
(:mod:`repro.faultplane`): it generates a deterministic **schedule
family** — seed range × fault plane — and drives each schedule through
a *real* ``repro batch`` / ``repro hunt`` / ``repro serve`` run in a
supervised subprocess, then checks the **recovery invariants** the rest
of the repo merely documents:

* ``completed`` — the faulted run finished before the trial deadline
  (no injected fault may turn into a hang);
* ``exit_contract`` — the faulted exit code stayed inside the
  scenario's contract (batch/hunt 0/1/3; the daemon drains to 0);
* ``verdicts_identical`` — the faulted run's verdicts are byte-
  identical to the fault-free baseline (the repo-wide invariant,
  now under substrate fault pressure);
* ``journal_resumable`` — a fault-free re-run over the faulted
  journal reproduces the baseline report byte-for-byte (torn tails
  skipped, last record wins);
* ``doctor_clean`` — ``repro doctor --fix`` repairs whatever the
  faults left in the trial cache directory and a rescan is clean;
* ``faults_observable`` — the injections actually surfaced where the
  acceptance contract says they must (``faultplane`` counts in the
  campaign report for the journal plane, ``wire_faults`` in the
  daemon's stats for the wire plane).

Plane → scenario compatibility: storage faults exercise ``batch`` and
``hunt`` (their cells carry warm caches), journal faults exercise
``batch`` (the outcome log), wire faults exercise ``serve``.

Everything in the emitted report is deterministic — schedules, exit
codes, invariant booleans, canonical digests; no wall-clock times, no
absolute paths — so replaying one schedule by seed reproduces its
trial record byte-for-byte (pinned in ``tests/campaign/test_chaos.py``).

Exit-code contract::

    0  every trial upheld every invariant
    1  >= 1 invariant violation (ranked first in the report)
    2  usage error (bad seed range, bad schedule file)
    3  the harness or a fault-free baseline itself failed
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.faultplane import (
    FaultScheduleError,
    load_schedule,
    schedule_digest,
    validate_schedule,
)

CHAOS_OK = 0
CHAOS_VIOLATIONS = 1
CHAOS_USAGE = 2
CHAOS_HARNESS = 3

PLANES = ("storage", "journal", "wire")

#: The sites each plane owns (classifies externally supplied schedules).
PLANE_SITES: Dict[str, Tuple[str, ...]] = {
    "storage": ("cache.save", "cache.load"),
    "journal": ("journal.append", "journal.fsync"),
    "wire": ("serve.send", "serve.recv"),
}

#: Which scenarios exercise each plane's faults for real.
PLANE_SCENARIOS: Dict[str, Tuple[str, ...]] = {
    "storage": ("batch", "hunt"),
    "journal": ("batch",),
    "wire": ("serve",),
}

#: The batch scenario: one uncached control cell, one disk-cached and
#: one mmap-cached cell (so storage faults hit both file backends), and
#: a known violation (modtl2/op) so the baseline exit is 1 — a chaos
#: run must preserve failing verdicts just as faithfully as passing
#: ones.  Cache paths are relative (resolved against the trial
#: directory), keeping the spec digest — and hence the trial record —
#: byte-stable across replays.
BATCH_SPEC: Dict[str, object] = {
    "name": "chaos-batch",
    "defaults": {"timeout_s": 120, "retries": 1, "backoff_s": 0},
    "cells": [
        {"tm": "seq", "property": "ss", "n": 2, "k": 1},
        {"tm": "2pl", "property": "ss", "n": 2, "k": 1,
         "cache_dir": "cache", "cache_backend": "disk"},
        {"tm": "modtl2", "property": "op", "n": 2, "k": 2,
         "cache_dir": "cache", "cache_backend": "mmap"},
    ],
}

#: The hunt scenario: one seeded mutant the checker must catch
#: (baseline exit 1 — the hunt success code), warm-cached so storage
#: faults land on its cache I/O.
HUNT_SPEC: Dict[str, object] = {
    "name": "chaos-hunt",
    "mutants": ["2pl/no-rlock"],
    "controls": [],
    "properties": ["ss"],
    "sizes": [[2, 2]],
    "defaults": {"timeout_s": 120, "retries": 1, "backoff_s": 0,
                 "cache_dir": "cache", "cache_backend": "disk"},
}

#: The serve scenario's request burst: one passing and one violating
#: check, answered by a single-worker daemon.
SERVE_REQUESTS: List[Dict[str, object]] = [
    {"op": "check", "id": "r1", "tm": "2pl", "property": "ss",
     "n": 2, "k": 1, "timeout_s": 120, "retries": 1, "backoff_s": 0},
    {"op": "check", "id": "r2", "tm": "modtl2", "property": "op",
     "n": 2, "k": 2, "timeout_s": 120, "retries": 1, "backoff_s": 0},
]

#: Client attempts per serve request: attempt 1 eats the scheduled wire
#: fault, attempt 2 is the recovery the invariant checks.
SERVE_CLIENT_ATTEMPTS = 3

_EXIT_CONTRACT = {"batch": (0, 1, 3), "hunt": (0, 1, 3)}


class ChaosHarnessError(RuntimeError):
    """The sweeper itself (or a fault-free baseline) failed — exit 3."""


# ----------------------------------------------------------------------
# The default schedule family
# ----------------------------------------------------------------------


def default_schedule(plane: str, seed: int) -> Dict[str, object]:
    """The family member for ``(plane, seed)``.

    The seed shifts *where* each fault lands (the ``nth`` trigger) and
    feeds the torn-write truncation draws, so a seed range enumerates
    genuinely different cut points through the same run shape.
    """
    if plane == "storage":
        rules = [
            {"site": "cache.save", "nth": 1 + seed % 3,
             "fault": "torn_write"},
            {"site": "cache.save", "nth": 4 + seed % 2, "fault": "eio"},
            {"site": "cache.load", "nth": 1 + seed % 4, "fault": "eio"},
        ]
    elif plane == "journal":
        rules = [
            # nth >= 2 keeps the torn line off the header: tearing a
            # cell record (and merging it with the next append) is the
            # documented skip-the-tail recovery under test.
            {"site": "journal.append", "nth": 2 + seed % 3,
             "fault": "torn_write"},
            {"site": "journal.fsync", "nth": 1 + seed % 4,
             "fault": "drop_fsync"},
        ]
    elif plane == "wire":
        rules = [
            # nth=1 so the lossy fault is consumed by the first
            # response and the client's reconnect sees a clean wire.
            {"site": "serve.send", "match": "server:check", "nth": 1,
             "fault": ("reset", "partial_send", "eio")[seed % 3]},
            {"site": "serve.recv", "match": "server:*",
             "nth": 2 + seed % 3, "fault": "stall_ms", "stall_ms": 25},
        ]
    else:
        raise ChaosHarnessError(f"unknown fault plane {plane!r}")
    return validate_schedule(
        {"name": f"{plane}-s{seed}", "seed": seed, "rules": rules}
    )


def schedule_planes(schedule: Dict[str, object]) -> List[str]:
    """The planes a schedule touches, in canonical order."""
    sites = {rule["site"] for rule in schedule["rules"]}
    return [
        plane for plane in PLANES
        if sites & set(PLANE_SITES[plane])
    ]


# ----------------------------------------------------------------------
# Subprocess plumbing
# ----------------------------------------------------------------------


def _canon(obj: object) -> str:
    return json.dumps(obj, sort_keys=True)


def _sha256(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _base_env(schedule_path: Optional[str] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_FAULT_SCHEDULE", None)
    env.pop("REPRO_CACHE_DIR", None)  # trials own their cache dirs
    # Trials run with cwd inside the workdir, so a relative PYTHONPATH
    # (the repo's own `PYTHONPATH=src` idiom) would stop resolving;
    # pin this package's import root absolutely instead.
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    parts = [src_root] + [
        part for part in env.get("PYTHONPATH", "").split(os.pathsep)
        if part and os.path.abspath(part) != src_root
    ]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    if schedule_path is not None:
        env["REPRO_FAULT_SCHEDULE"] = schedule_path
    return env


def _run_cli(
    argv: List[str], cwd: str, env: Dict[str, str], deadline_s: float
) -> Tuple[Optional[int], bool]:
    """``(exit_code, timed_out)`` for one supervised subprocess."""
    cmd = [sys.executable, "-m", "repro"] + argv
    try:
        proc = subprocess.run(
            cmd, cwd=cwd, env=env, timeout=deadline_s,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return None, True
    return proc.returncode, False


def _read_report(path: str) -> Optional[Dict[str, object]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _strip_faultplane(
    report: Optional[Dict[str, object]],
) -> Optional[Dict[str, object]]:
    if report is None:
        return None
    out = dict(report)
    out.pop("faultplane", None)
    return out


# ----------------------------------------------------------------------
# Batch / hunt trials
# ----------------------------------------------------------------------


def _scenario_argv(scenario: str) -> List[str]:
    # Serial cells: rules fire on the nth matching call per process,
    # and concurrent cells would order journal appends and cache saves
    # by timing — replay by (plane, seed) must be byte-identical.
    if scenario in ("batch", "hunt"):
        return [scenario, "spec.json", "--journal", "journal.jsonl",
                "--report-json", "report.json", "--quiet",
                "--concurrency", "1"]
    raise ChaosHarnessError(f"no CLI scenario {scenario!r}")


def _write_scenario_spec(scenario: str, trial_dir: str) -> None:
    spec = BATCH_SPEC if scenario == "batch" else HUNT_SPEC
    with open(
        os.path.join(trial_dir, "spec.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(spec, fh, sort_keys=True, indent=2)


def _batch_like_baseline(
    scenario: str, workdir: str, deadline_s: float
) -> Dict[str, object]:
    """One fault-free reference run; its report bytes are the oracle
    every faulted trial of this scenario is compared against."""
    base_dir = os.path.join(workdir, f"baseline-{scenario}")
    os.makedirs(base_dir, exist_ok=True)
    _write_scenario_spec(scenario, base_dir)
    code, timed_out = _run_cli(
        _scenario_argv(scenario), base_dir, _base_env(), deadline_s
    )
    report = _read_report(os.path.join(base_dir, "report.json"))
    if timed_out or report is None or code not in (0, 1):
        raise ChaosHarnessError(
            f"fault-free {scenario} baseline failed"
            f" (exit {code}, timed_out={timed_out})"
        )
    return {"exit": code, "report": report, "canon": _canon(report)}


def _doctor_pass(cache_dir: str) -> Tuple[bool, Dict[str, object]]:
    """``(clean_after_fix, observed)`` for one trial cache directory."""
    from .doctor import run_doctor

    if not os.path.isdir(cache_dir):
        return True, {"summary": {}, "rotated": 0}
    fix_code, fix_report = run_doctor(cache_dir, fix=True)
    clean_code, _clean_report = run_doctor(cache_dir, fix=False)
    observed = {
        "summary": fix_report.get("summary", {}),
        "rotated": len(
            (fix_report.get("quarantine") or {}).get("rotated") or ()
        ),
    }
    return (fix_code == 0 and clean_code == 0), observed


def _batch_like_trial(
    scenario: str,
    plane: str,
    schedule: Dict[str, object],
    workdir: str,
    deadline_s: float,
    baseline: Dict[str, object],
) -> Dict[str, object]:
    trial_dir = os.path.join(
        workdir, "trials", f"{schedule['name']}-{scenario}"
    )
    os.makedirs(trial_dir, exist_ok=True)
    _write_scenario_spec(scenario, trial_dir)
    schedule_path = os.path.join(trial_dir, "schedule.json")
    with open(schedule_path, "w", encoding="utf-8") as fh:
        json.dump(schedule, fh, sort_keys=True, indent=2)

    argv = _scenario_argv(scenario)
    faulted_exit, faulted_timeout = _run_cli(
        argv, trial_dir, _base_env(schedule_path), deadline_s
    )
    faulted_report = _read_report(os.path.join(trial_dir, "report.json"))

    # Recovery: a fault-free run over the faulted journal.  Torn tail
    # records are skipped and their cells re-run; the report must come
    # back byte-identical to the baseline.
    resumed_exit, resumed_timeout = _run_cli(
        argv, trial_dir, _base_env(), deadline_s
    )
    resumed_report = _read_report(os.path.join(trial_dir, "report.json"))

    doctor_clean, doctor_observed = _doctor_pass(
        os.path.join(trial_dir, "cache")
    )

    faultplane_counts = (
        (faulted_report or {}).get("faultplane") or {}
    )
    invariants: Dict[str, bool] = {
        "completed": not faulted_timeout and not resumed_timeout,
        "exit_contract": faulted_exit in _EXIT_CONTRACT[scenario],
        "verdicts_identical": (
            faulted_report is not None
            and _canon(_strip_faultplane(faulted_report))
            == baseline["canon"]
        ),
        "journal_resumable": (
            not resumed_timeout
            and resumed_exit == baseline["exit"]
            and resumed_report is not None
            and _canon(_strip_faultplane(resumed_report))
            == baseline["canon"]
        ),
        "doctor_clean": doctor_clean,
    }
    if plane == "journal":
        # The journal plane's observability contract: the injections
        # must land in the campaign report's faultplane tally.
        invariants["faults_observable"] = (
            sum(faultplane_counts.values()) > 0
        )
    return {
        "exits": {
            "baseline": baseline["exit"],
            "faulted": faulted_exit,
            "resumed": resumed_exit,
        },
        "invariants": invariants,
        "observed": {
            "faultplane": faultplane_counts,
            "doctor": doctor_observed,
        },
        "report_sha256": {
            "baseline": _sha256(baseline["canon"]),
            "faulted": (
                _sha256(_canon(_strip_faultplane(faulted_report)))
                if faulted_report is not None else None
            ),
        },
    }


# ----------------------------------------------------------------------
# Serve trials
# ----------------------------------------------------------------------


def _normalize_response(
    response: Optional[Dict[str, object]], request_id: object
) -> Dict[str, object]:
    """The verdict-bearing slice of a daemon response: timings, warm
    stats and retry bookkeeping are legitimately variable; ``status``
    and ``result`` are the byte-identity surface."""
    if response is None:
        return {"id": request_id, "status": "unreachable",
                "result": None}
    return {
        "id": response.get("id"),
        "status": response.get("status"),
        "result": response.get("result"),
    }


def _serve_round(
    workdir: str,
    label: str,
    deadline_s: float,
    schedule_path: Optional[str],
) -> Dict[str, object]:
    """One daemon lifecycle: spawn, burst, stats, health, drain."""
    from ..serve import ServeClient, ServeClientError

    trial_dir = os.path.join(workdir, "trials", label)
    os.makedirs(trial_dir, exist_ok=True)
    # AF_UNIX paths are length-limited (~107 bytes): the socket lives
    # in its own short-lived tmpdir, never under a deep workdir.
    sock_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    sock = os.path.join(sock_dir, "serve.sock")
    stderr_path = os.path.join(trial_dir, "daemon.log")
    deadline = time.monotonic() + deadline_s
    daemon = None
    responses: List[Dict[str, object]] = []
    wire_faults: Dict[str, int] = {}
    health_ok = False
    daemon_exit: Optional[int] = None
    timed_out = False
    try:
        with open(stderr_path, "ab") as errlog:
            daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--socket", sock, "--workers", "1"],
                cwd=trial_dir,
                env=_base_env(schedule_path),
                stdout=subprocess.DEVNULL,
                stderr=errlog,
            )
        for request in SERVE_REQUESTS:
            response = None
            for _attempt in range(SERVE_CLIENT_ATTEMPTS):
                if time.monotonic() >= deadline:
                    break
                try:
                    with ServeClient(
                        socket_path=sock,
                        timeout=max(1.0, deadline - time.monotonic()),
                        connect_timeout=10.0,
                    ) as client:
                        response = client.request(dict(request))
                    break
                except ServeClientError:
                    continue  # reconnect: the recovery under test
            responses.append(
                _normalize_response(response, request.get("id"))
            )
        try:
            with ServeClient(
                socket_path=sock, timeout=10.0, connect_timeout=10.0
            ) as client:
                stats = client.stats()
                wire_faults = dict(stats.get("wire_faults") or {})
            with ServeClient(
                socket_path=sock, timeout=10.0, connect_timeout=10.0
            ) as client:
                health_ok = bool(client.health().get("ok"))
        except ServeClientError:
            health_ok = False
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon_exit = daemon.wait(
                timeout=max(1.0, deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            timed_out = True
            daemon.kill()
            daemon.wait()
    finally:
        if daemon is not None and daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        shutil.rmtree(sock_dir, ignore_errors=True)
    return {
        "exit": daemon_exit,
        "timed_out": timed_out,
        "responses": responses,
        "wire_faults": wire_faults,
        "health_ok": health_ok,
    }


def _serve_baseline(
    workdir: str, deadline_s: float
) -> Dict[str, object]:
    round_ = _serve_round(workdir, "baseline-serve", deadline_s, None)
    ok = (
        not round_["timed_out"]
        and round_["exit"] == 0
        and round_["health_ok"]
        and all(
            resp["status"] in ("pass", "fail")
            for resp in round_["responses"]
        )
    )
    if not ok:
        raise ChaosHarnessError(
            "fault-free serve baseline failed"
            f" (exit {round_['exit']},"
            f" responses {[r['status'] for r in round_['responses']]})"
        )
    return {
        "exit": round_["exit"],
        "responses": round_["responses"],
        "canon": _canon(round_["responses"]),
    }


def _serve_trial(
    plane: str,
    schedule: Dict[str, object],
    workdir: str,
    deadline_s: float,
    baseline: Dict[str, object],
) -> Dict[str, object]:
    label = f"{schedule['name']}-serve"
    trial_dir = os.path.join(workdir, "trials", label)
    os.makedirs(trial_dir, exist_ok=True)
    schedule_path = os.path.join(trial_dir, "schedule.json")
    with open(schedule_path, "w", encoding="utf-8") as fh:
        json.dump(schedule, fh, sort_keys=True, indent=2)
    round_ = _serve_round(workdir, label, deadline_s, schedule_path)
    invariants: Dict[str, bool] = {
        "completed": not round_["timed_out"],
        "exit_contract": round_["exit"] == 0,
        "verdicts_identical": (
            _canon(round_["responses"]) == baseline["canon"]
        ),
        "daemon_responsive": round_["health_ok"],
    }
    if plane == "wire":
        # The wire plane's observability contract: injections must
        # land in the daemon's stats wire_faults counters.
        invariants["faults_observable"] = (
            sum(round_["wire_faults"].values()) > 0
        )
    return {
        "exits": {
            "baseline": baseline["exit"],
            "faulted": round_["exit"],
        },
        "invariants": invariants,
        "observed": {"wire_faults": round_["wire_faults"]},
        "report_sha256": {
            "baseline": _sha256(baseline["canon"]),
            "faulted": _sha256(_canon(round_["responses"])),
        },
    }


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------


def parse_seed_range(text: str) -> Tuple[int, int]:
    """``"START:STOP"`` (half-open) → ``(start, stop)``."""
    try:
        start_text, _, stop_text = text.partition(":")
        start, stop = int(start_text), int(stop_text)
    except ValueError:
        raise ValueError(
            f"--seed-range must look like START:STOP (got {text!r})"
        )
    if start < 0 or stop <= start:
        raise ValueError(
            f"--seed-range must be a non-empty half-open range"
            f" (got {text!r})"
        )
    return start, stop


def build_trials(
    *,
    seed_range: Tuple[int, int],
    planes: Optional[List[str]] = None,
    scenarios: Optional[List[str]] = None,
    schedule: Optional[Dict[str, object]] = None,
) -> List[Tuple[str, str, Dict[str, object]]]:
    """The trial matrix: ``(plane, scenario, schedule)`` triples.

    With an explicit ``schedule``, its sites pick the planes and the
    seed range is ignored (the schedule carries its own seed).
    """
    selected_planes = list(planes) if planes else list(PLANES)
    triples: List[Tuple[str, str, Dict[str, object]]] = []
    if schedule is not None:
        touched = schedule_planes(schedule)
        if not touched:
            raise FaultScheduleError(
                "schedule touches no known fault plane"
            )
        for plane in touched:
            if plane not in selected_planes:
                continue
            for scenario in PLANE_SCENARIOS[plane]:
                if scenarios and scenario not in scenarios:
                    continue
                triples.append((plane, scenario, schedule))
        if not triples:
            raise FaultScheduleError(
                "schedule/plane/scenario selection matches no trial"
            )
        return triples
    for seed in range(*seed_range):
        for plane in PLANES:
            if plane not in selected_planes:
                continue
            for scenario in PLANE_SCENARIOS[plane]:
                if scenarios and scenario not in scenarios:
                    continue
                triples.append(
                    (plane, scenario, default_schedule(plane, seed))
                )
    return triples


def run_chaos(
    *,
    workdir: str,
    trials: List[Tuple[str, str, Dict[str, object]]],
    deadline_s: float = 120.0,
    say: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run every trial; the ranked, deterministic chaos report."""
    tell = say or (lambda _line: None)
    baselines: Dict[str, Dict[str, object]] = {}

    def baseline_for(scenario: str) -> Dict[str, object]:
        if scenario not in baselines:
            tell(f"baseline: {scenario} ...")
            if scenario == "serve":
                baselines[scenario] = _serve_baseline(
                    workdir, deadline_s
                )
            else:
                baselines[scenario] = _batch_like_baseline(
                    scenario, workdir, deadline_s
                )
        return baselines[scenario]

    records: List[Dict[str, object]] = []
    for index, (plane, scenario, schedule) in enumerate(trials, 1):
        tell(
            f"[{index}/{len(trials)}] {schedule['name']} -> {scenario}"
            " ..."
        )
        baseline = baseline_for(scenario)
        if scenario == "serve":
            outcome = _serve_trial(
                plane, schedule, workdir, deadline_s, baseline
            )
        else:
            outcome = _batch_like_trial(
                scenario, plane, schedule, workdir, deadline_s,
                baseline,
            )
        violations = sorted(
            name for name, held in outcome["invariants"].items()
            if not held
        )
        record = {
            "plane": plane,
            "scenario": scenario,
            "seed": schedule["seed"],
            "schedule": schedule,
            "schedule_digest": schedule_digest(schedule),
            "violations": violations,
        }
        record.update(outcome)
        records.append(record)
        tell(
            "    -> "
            + ("ok" if not violations else
               "VIOLATED: " + ", ".join(violations))
        )

    # Invariant violations rank first; within each class the order is
    # the canonical (plane, scenario, seed) sweep order.
    records.sort(
        key=lambda r: (
            0 if r["violations"] else 1,
            PLANES.index(r["plane"]),
            r["scenario"],
            r["seed"],
        )
    )
    by_invariant: Dict[str, int] = {}
    for record in records:
        for name in record["violations"]:
            by_invariant[name] = by_invariant.get(name, 0) + 1
    return {
        "chaos": "fault-schedule sweep",
        "trials": records,
        "summary": {
            "trials": len(records),
            "violations": sum(
                1 for record in records if record["violations"]
            ),
            "by_invariant": by_invariant,
        },
    }


def chaos_exit_code(report: Dict[str, object]) -> int:
    return (
        CHAOS_VIOLATIONS
        if report["summary"]["violations"]
        else CHAOS_OK
    )


def render_chaos(report: Dict[str, object]) -> str:
    """Human-facing trial table, violations first."""
    lines = [
        "| schedule | scenario | plane | seed | exits (base/faulted) |"
        " violations |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for record in report["trials"]:
        exits = record["exits"]
        lines.append(
            "| {} | {} | {} | {} | {}/{} | {} |".format(
                record["schedule"]["name"],
                record["scenario"],
                record["plane"],
                record["seed"],
                exits.get("baseline"),
                exits.get("faulted"),
                ", ".join(record["violations"]) or "-",
            )
        )
    summary = report["summary"]
    lines.append("")
    lines.append(
        "**chaos**: {trials} trial(s), {violations} with invariant"
        " violations".format(**{
            key: summary[key] for key in ("trials", "violations")
        })
    )
    return "\n".join(lines)


def run_chaos_cli(args) -> int:
    """The ``repro chaos`` entry point (parsed argparse namespace)."""
    say = (
        None if args.quiet
        else (lambda line: print(line, file=sys.stderr, flush=True))
    )
    try:
        schedule = (
            load_schedule(args.schedule) if args.schedule else None
        )
        trials = build_trials(
            seed_range=parse_seed_range(args.seed_range),
            planes=args.plane,
            scenarios=args.scenario,
            schedule=schedule,
        )
    except (FaultScheduleError, ValueError) as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return CHAOS_USAGE
    cleanup = args.workdir is None
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    os.makedirs(workdir, exist_ok=True)
    try:
        report = run_chaos(
            workdir=workdir,
            trials=trials,
            deadline_s=args.deadline_s,
            say=say,
        )
    except ChaosHarnessError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return CHAOS_HARNESS
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2))
            fh.write("\n")
    if not args.quiet:
        print(render_chaos(report))
    return chaos_exit_code(report)
