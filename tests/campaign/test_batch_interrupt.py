"""SIGTERM/^C drain for ``repro batch``: interrupted cells journal and
resume, and the CLI exits with the 128+signal convention."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro.campaign.runner as runner_mod
from repro.campaign import (
    CampaignInterrupted,
    Journal,
    parse_spec,
    run_campaign,
)


def _spec_data(**cell_overrides):
    cell = {"tm": "seq", "property": "ss", "n": 2, "k": 1,
            "timeout_s": 120, "retries": 1, "backoff_s": 0}
    cell.update(cell_overrides)
    return {
        "name": "drain",
        "cells": [
            cell,
            {"tm": "2pl", "property": "ss", "n": 2, "k": 1,
             "timeout_s": 120, "retries": 1, "backoff_s": 0},
        ],
    }


def test_interrupt_mid_cell_journals_and_resumes(tmp_path, monkeypatch):
    spec = parse_spec(_spec_data())
    journal_path = str(tmp_path / "campaign.jsonl")
    real_run_cell = runner_mod.run_cell
    calls = []

    def interrupting_run_cell(cell, **kwargs):
        calls.append(cell["id"])
        if len(calls) == 2:
            raise CampaignInterrupted("signal 15")
        return real_run_cell(cell, **kwargs)

    monkeypatch.setattr(runner_mod, "run_cell", interrupting_run_cell)
    with pytest.raises(CampaignInterrupted):
        # serial: the first cell has passed before the second starts
        run_campaign(spec, journal_path, concurrency=1)

    _header, entries = Journal(journal_path).load()
    assert entries["seq/ss/2x1"]["status"] == "pass"
    interrupted = entries["2pl/ss/2x1"]
    assert interrupted["status"] == "interrupted"
    assert interrupted["result"] is None
    assert interrupted["error"] == "interrupted mid-cell"

    # resume re-runs exactly the interrupted cell (the completed one
    # is replayed from the journal, not executed again)
    monkeypatch.setattr(runner_mod, "run_cell", real_run_cell)
    resumed = run_campaign(spec, journal_path)
    assert resumed.complete
    assert resumed.entries["2pl/ss/2x1"]["status"] == "pass"
    # the journal's last record for the cell wins over the interrupt
    _header, entries = Journal(journal_path).load()
    assert entries["2pl/ss/2x1"]["status"] == "pass"


def test_keyboard_interrupt_takes_the_same_path(tmp_path, monkeypatch):
    spec = parse_spec(_spec_data())
    journal_path = str(tmp_path / "campaign.jsonl")

    def interrupting_run_cell(cell, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner_mod, "run_cell", interrupting_run_cell)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(spec, journal_path)
    _header, entries = Journal(journal_path).load()
    assert entries["seq/ss/2x1"]["status"] == "interrupted"


@pytest.mark.slow
def test_batch_sigterm_exits_143_and_journal_resumes(tmp_path):
    # The first cell hangs its first attempt for longer than the test:
    # SIGTERM lands mid-cell, the CLI must journal it as interrupted
    # and exit 143; the resumed batch retries the cell (the hang is
    # first-attempt-only) and completes.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec_data(
        inject={"hang_attempts": 1, "hang_s": 120},
        timeout_s=5, retries=1, backoff_s=0,
    )))
    journal_path = tmp_path / "campaign.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        "src" + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "batch", str(spec_path),
         "--journal", str(journal_path), "--quiet"],
        env=env,
    )
    # wait for the journal header: the campaign is then mid-cell-1
    deadline = time.monotonic() + 30
    while not journal_path.exists() and time.monotonic() < deadline:
        time.sleep(0.05)
    time.sleep(1.0)  # let the hanging attempt start
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 143

    _header, entries = Journal(str(journal_path)).load()
    assert entries["seq/ss/2x1"]["status"] == "interrupted"

    # resume: attempt 1 hangs again but times out at 5s, attempt 2
    # passes — the journal converges to a complete campaign
    code = subprocess.call(
        [sys.executable, "-m", "repro", "batch", str(spec_path),
         "--journal", str(journal_path), "--quiet"],
        env=env,
    )
    assert code == 0
    _header, entries = Journal(str(journal_path)).load()
    assert entries["seq/ss/2x1"]["status"] == "pass"
    assert entries["2pl/ss/2x1"]["status"] == "pass"
