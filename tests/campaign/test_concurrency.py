"""Concurrent campaign cells: reports, progress, limits and drains are
the serial loop's at any concurrency."""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro.campaign.runner as runner_mod
from repro.campaign import (
    Journal,
    build_hunt_report,
    build_report,
    parse_hunt_spec,
    parse_spec,
    render_hunt_json,
    run_campaign,
    run_hunt,
)
from repro.campaign.report import render_json
from repro.cli import main

_BATCH = {
    "name": "conc",
    "defaults": {"timeout_s": 120, "retries": 1, "backoff_s": 0},
    "matrix": {"tms": ["seq", "2pl", "dstm"], "properties": ["ss", "op"],
               "sizes": [[2, 1]]},
    "cells": [
        # a known violation, and a worker SIGKILLed on its first attempt
        {"tm": "modtl2", "property": "op", "n": 2, "k": 2},
        {"tm": "tl2", "property": "ss", "n": 2, "k": 1,
         "inject": {"sigkill_attempts": 1}},
    ],
}

_SMALL_HUNT = {
    "name": "smoke",
    "mutants": ["2pl/no-rlock"],
    "controls": ["norec"],
    "properties": ["ss"],
    "sizes": [[2, 2]],
}


def _fake_outcome():
    return {"status": "pass", "result": {"holds": True}, "error": None,
            "attempts": 1, "faults": [], "seconds": 0.0}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        "src" + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    return env


def _processes_naming(text):
    """Live pids whose command line mentions ``text`` — the campaign
    process and every child it forked (children keep its argv)."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as fh:
                cmdline = fh.read().decode(errors="replace")
            with open(f"/proc/{name}/stat") as fh:
                zombie = fh.read().rsplit(")", 1)[1].split()[0] == "Z"
        except OSError:
            continue
        if text in cmdline and not zombie:
            pids.append(int(name))
    return pids


def _wait_for(predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def test_batch_report_is_byte_identical_at_concurrency_1_and_2(tmp_path):
    spec = parse_spec(_BATCH)
    reports, lines = [], []
    for concurrency in (1, 2):
        said = []
        run = run_campaign(
            spec, str(tmp_path / f"c{concurrency}.jsonl"),
            progress=said.append, concurrency=concurrency,
        )
        reports.append(render_json(build_report(run)))
        lines.append(said)
    assert reports[0] == reports[1]
    summary = json.loads(reports[0])["summary"]
    assert summary["fail"] == 1 and summary["pass"] == 7
    # the same progress text, in the same (spec) order
    assert lines[0] == lines[1]
    assert lines[0][:2] == ["[1/8] seq/ss/2x1 ...", "    -> pass"]
    assert "    -> pass (1 fault(s))" in lines[0]


def test_small_hunt_report_is_byte_identical_at_concurrency_1_and_2(
    tmp_path,
):
    spec = parse_hunt_spec(_SMALL_HUNT)
    reports = [
        render_hunt_json(build_hunt_report(spec, run_hunt(
            spec, str(tmp_path / f"h{c}.jsonl"), concurrency=c,
        )))
        for c in (1, 2)
    ]
    assert reports[0] == reports[1]


def test_progress_stays_in_spec_order_when_cells_finish_out_of_order(
    tmp_path, monkeypatch
):
    spec = parse_spec(_BATCH)
    first = spec.cells[0]["id"]
    second_done = threading.Event()

    def run_cell(cell, **kwargs):
        if cell["id"] == first:
            assert second_done.wait(10)
        else:
            second_done.set()
        return _fake_outcome()

    monkeypatch.setattr(runner_mod, "run_cell", run_cell)
    said = []
    run_campaign(spec, str(tmp_path / "2.jsonl"), progress=said.append,
                 concurrency=2)
    assert said == [
        line
        for i, cell in enumerate(spec.cells)
        for line in (f"[{i + 1}/8] {cell['id']} ...", "    -> pass")
    ]
    # the journal is in completion order: the second cell came first
    lines = (tmp_path / "2.jsonl").read_text().splitlines()
    assert json.loads(lines[1])["id"] == spec.cells[1]["id"]
    assert json.loads(lines[2])["id"] == first


def test_limit_runs_exactly_the_first_pending_cells(tmp_path, monkeypatch):
    spec = parse_spec(_BATCH)
    journal = str(tmp_path / "campaign.jsonl")
    calls = []
    lock = threading.Lock()

    def run_cell(cell, **kwargs):
        with lock:
            calls.append(cell["id"])
        return _fake_outcome()

    monkeypatch.setattr(runner_mod, "run_cell", run_cell)
    ids = [cell["id"] for cell in spec.cells]
    run_campaign(spec, journal, limit=2, concurrency=2)
    assert sorted(calls) == sorted(ids[:2])
    calls.clear()
    # resumed: the two journaled cells are skipped, not counted
    run = run_campaign(spec, journal, limit=3, concurrency=2)
    assert sorted(calls) == sorted(ids[2:5])
    assert set(run.entries) == set(ids[:5])


def test_many_threads_journal_every_cell_once(tmp_path, monkeypatch):
    cells = [{"tm": "seq", "property": "ss", "n": 2, "k": k}
             for k in range(1, 41)]
    spec = parse_spec({"name": "stress", "cells": cells})

    def run_cell(cell, **kwargs):
        time.sleep(0.001)
        return _fake_outcome()

    monkeypatch.setattr(runner_mod, "run_cell", run_cell)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    said = []
    try:
        run = run_campaign(spec, str(tmp_path / "s.jsonl"),
                           progress=said.append, concurrency=8)
    finally:
        sys.setswitchinterval(interval)
    _header, entries = Journal(str(tmp_path / "s.jsonl")).load()
    lines = (tmp_path / "s.jsonl").read_text().splitlines()
    assert len(lines) == 1 + len(cells)
    assert set(entries) == set(run.entries) == {c["id"] for c in spec.cells}
    assert said == [
        line
        for i, cell in enumerate(spec.cells)
        for line in (f"[{i + 1}/40] {cell['id']} ...", "    -> pass")
    ]


def test_interrupt_journals_every_in_flight_cell(tmp_path, monkeypatch):
    spec = parse_spec(_BATCH)
    journal = str(tmp_path / "campaign.jsonl")
    ids = [cell["id"] for cell in spec.cells]
    both_started = threading.Barrier(2, timeout=10)

    def run_cell(cell, **kwargs):
        if cell["id"] in ids[:2]:
            both_started.wait()
        if cell["id"] == ids[1]:
            raise KeyboardInterrupt
        return _fake_outcome()

    monkeypatch.setattr(runner_mod, "run_cell", run_cell)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(spec, journal, concurrency=2)
    _header, entries = Journal(journal).load()
    assert entries[ids[1]]["status"] == "interrupted"
    assert entries[ids[1]]["error"] == "interrupted mid-cell"
    # the first cell's outcome is journaled whichever reached the main
    # thread first; a third cell only ran if the first came back first
    assert entries[ids[0]]["status"] == "pass"
    assert set(entries) <= set(ids[:3])


def test_concurrency_below_one_is_a_usage_error(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_BATCH))
    for argv in (["batch", str(spec_path)], ["hunt"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--concurrency", "0"])
        assert exc.value.code == 2
    with pytest.raises(ValueError, match="concurrency"):
        run_campaign(parse_spec(_BATCH), str(tmp_path / "j.jsonl"),
                     concurrency=0)
    assert not (tmp_path / "j.jsonl").exists()


def _hanging_spec(tmp_path):
    # Two cells whose first attempt hangs past the test: both are in
    # flight at --concurrency 2 when the signal lands.
    hang = {"inject": {"hang_attempts": 1, "hang_s": 120},
            "timeout_s": 3}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "drain2",
        "defaults": {"retries": 1, "backoff_s": 0},
        "cells": [
            dict({"tm": "seq", "property": "ss", "n": 2, "k": 1}, **hang),
            dict({"tm": "2pl", "property": "ss", "n": 2, "k": 1}, **hang),
            {"tm": "dstm", "property": "ss", "n": 2, "k": 1},
        ],
    }))
    return spec_path


@pytest.mark.slow
def test_cli_sigterm_at_concurrency_2_drains_and_resumes(tmp_path):
    spec_path = _hanging_spec(tmp_path)
    journal = tmp_path / "campaign.jsonl"
    argv = [sys.executable, "-m", "repro", "batch", str(spec_path),
            "--journal", str(journal), "--quiet", "--concurrency", "2"]
    proc = subprocess.Popen(argv, env=_env())
    try:
        # the campaign process plus one child per hanging cell
        assert _wait_for(
            lambda: len(_processes_naming(str(journal))) >= 3
        )
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 143
    finally:
        if proc.poll() is None:
            proc.kill()
    assert _wait_for(lambda: not _processes_naming(str(journal)), 10)
    _header, entries = Journal(str(journal)).load()
    assert set(entries) == {"seq/ss/2x1", "2pl/ss/2x1"}
    assert {e["status"] for e in entries.values()} == {"interrupted"}

    resumed = tmp_path / "resumed.json"
    fresh = tmp_path / "fresh.json"
    env = _env()
    assert subprocess.call(
        argv + ["--report-json", str(resumed)], env=env
    ) == 0
    assert subprocess.call(
        argv + ["--no-resume", "--journal", str(tmp_path / "f.jsonl"),
                "--report-json", str(fresh)], env=env,
    ) == 0
    assert resumed.read_bytes() == fresh.read_bytes()


@pytest.mark.slow
def test_journal_enospc_at_concurrency_2_exits_3_with_no_live_child(
    tmp_path,
):
    spec_path = _hanging_spec(tmp_path)
    # The third cell finishes first; its append fails while both
    # hanging cells are still in flight.
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps({
        "name": "nospace", "seed": 0,
        "rules": [{"site": "journal.append", "fault": "enospc",
                   "match": "dstm/*"}],
    }))
    data = json.loads(spec_path.read_text())
    data["cells"].insert(0, data["cells"].pop())
    spec_path.write_text(json.dumps(data))
    journal = tmp_path / "campaign.jsonl"
    env = _env()
    env["REPRO_FAULT_SCHEDULE"] = str(schedule)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "batch", str(spec_path),
         "--journal", str(journal), "--quiet", "--concurrency", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert str(journal) in proc.stderr and "errno" in proc.stderr
    assert _wait_for(lambda: not _processes_naming(str(journal)), 10)
    _header, entries = Journal(str(journal)).load()
    assert entries == {}
