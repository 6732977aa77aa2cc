"""Spec-table prewarm: a campaign builds each (n, k, property) spec DFA
once, in a supervised child, installs its int rows in the parent, and
forks every cell with them in place — without changing one outcome."""

import json
import multiprocessing
import os
import signal
import time

import pytest

import repro.campaign.runner as runner_mod
from repro.campaign import (
    CampaignInterrupted,
    Journal,
    build_hunt_report,
    build_report,
    parse_hunt_spec,
    parse_spec,
    render_hunt_json,
    render_hunt_markdown,
    render_markdown,
    run_campaign,
    run_hunt,
)
from repro.campaign.report import render_json
from repro.spec import OP, SS
from repro.spec.build import cached_det_spec
from repro.spec.compiled import cached_spec_dfa, clear_spec_dfa_cache

_HUNT = {
    "name": "prewarm",
    "mutants": ["2pl/no-rlock", "2pl/wlock-ignores-readers",
                "dstm/skip-invalidate", "opt/read-ignores-ms"],
    "controls": ["norec"],
    "properties": ["ss", "op"],
    "sizes": [[2, 2]],
}

#: Two cheap cells sharing one spec table, (2, 1, ss).
_ONE_KEY = {
    "name": "one-key",
    "defaults": {"timeout_s": 120, "retries": 0, "memory_mb": 1024},
    "cells": [
        {"tm": "seq", "property": "ss", "n": 2, "k": 1},
        {"tm": "2pl", "property": "ss", "n": 2, "k": 1},
    ],
}


def _no_prewarm(monkeypatch):
    monkeypatch.setattr(runner_mod, "_prewarm", lambda *args: None)


def _stripped(journal_path):
    """Journal entries without the fields that vary run to run."""
    _header, entries = Journal(journal_path).load()
    return {
        cell_id: {k: v for k, v in entry.items()
                  if k not in ("seconds", "stats")}
        for cell_id, entry in entries.items()
    }


def _not_progress(lines):
    return [line for line in lines
            if not line.startswith(("[", "    -> "))]


def _fake_outcome():
    return {"status": "pass", "result": {"holds": True}, "error": None,
            "attempts": 1, "faults": [], "seconds": 0.0}


@pytest.mark.parametrize("concurrency", [1, 2])
def test_hunt_is_byte_identical_with_and_without_prewarm(
    tmp_path, monkeypatch, concurrency
):
    spec = parse_hunt_spec(_HUNT)
    det_specs = cached_det_spec.cache_info().currsize
    outputs = []
    for prewarm in (False, True):
        clear_spec_dfa_cache()
        journal = str(tmp_path / f"prewarm-{prewarm}.jsonl")
        with monkeypatch.context() as patch:
            if not prewarm:
                _no_prewarm(patch)
            run = run_hunt(spec, journal, concurrency=concurrency)
        # the prewarm really installed both tables (and only it did)
        for prop in (SS, OP):
            assert (cached_spec_dfa(2, 2, prop).rows is not None) == prewarm
        report = build_hunt_report(spec, run)
        outputs.append((
            render_hunt_json(report),
            render_hunt_markdown(report),
            render_json(build_report(run)),
            render_markdown(build_report(run)),
            _stripped(journal),
        ))
    assert outputs[0] == outputs[1]
    # the parent never held a rich DFA: only int rows were installed
    assert cached_det_spec.cache_info().currsize == det_specs

    # Engine stats vary with what a child inherited; they stay in the
    # journal and never reach a report.
    assert all(
        "safety_rows" in entry["stats"] for entry in run.entries.values()
    )
    for entry in run.entries.values():
        entry["stats"] = {"safety_rows": -1, "warm_safety_rows": 10**6}
    report = build_hunt_report(spec, run)
    rendered = (
        render_hunt_json(report),
        render_hunt_markdown(report),
        render_json(build_report(run)),
        render_markdown(build_report(run)),
    )
    assert rendered == outputs[1][:4]
    assert not any("safety_rows" in text for text in rendered)


def test_prewarm_selects_cold_default_path_keys_only(tmp_path):
    clear_spec_dfa_cache()
    spec = parse_spec({
        "name": "select",
        "defaults": {"timeout_s": 60},
        "cells": [
            {"tm": "seq", "property": "ss", "n": 2, "k": 1},
            # the same key: the strictest timeout and memory cap win
            {"tm": "2pl", "property": "ss", "n": 2, "k": 1,
             "timeout_s": 7, "memory_mb": 700},
            {"tm": "dstm", "property": "ss", "n": 2, "k": 1,
             "memory_mb": 900},
            # off the all-int DFA path
            {"tm": "seq", "property": "op", "n": 2, "k": 1,
             "lazy_spec": True},
            {"tm": "seq", "property": "ss", "n": 1, "k": 1,
             "compiled": False},
            {"tm": "seq", "property": "op", "n": 1, "k": 1,
             "spec_compiled": False},
            # a warm cell, and a cold cell needing the same table
            {"tm": "seq", "property": "ss", "n": 1, "k": 2,
             "cache_dir": str(tmp_path)},
            {"tm": "2pl", "property": "ss", "n": 1, "k": 2},
        ],
    })
    assert runner_mod._prewarm_jobs(spec.cells) == {(2, 1, "ss"): (7.0, 700)}
    # a table this process already holds is not built again
    cached_spec_dfa(2, 1, SS).ensure()
    assert runner_mod._prewarm_jobs(spec.cells) == {}
    assert runner_mod._prewarm_jobs([]) == {}


def test_prewarm_skips_replayed_and_limited_cells(tmp_path, monkeypatch):
    built = []
    real_attempt = runner_mod._attempt

    def recording_attempt(target, args, *rest):
        built.append(args[0])
        return real_attempt(target, args, *rest)

    monkeypatch.setattr(runner_mod, "_attempt", recording_attempt)
    monkeypatch.setattr(
        runner_mod, "run_cell", lambda cell, **kwargs: _fake_outcome()
    )
    spec = parse_spec({"name": "limit", "cells": [
        {"tm": "seq", "property": "ss", "n": 2, "k": 1},
        {"tm": "seq", "property": "op", "n": 2, "k": 1},
        {"tm": "seq", "property": "ss", "n": 1, "k": 2},
    ]})
    journal = str(tmp_path / "campaign.jsonl")
    det_specs = cached_det_spec.cache_info().currsize
    for limit, want in ((1, [(2, 1, "ss")]), (1, [(2, 1, "op")]),
                        (None, [(1, 2, "ss")]), (None, [])):
        clear_spec_dfa_cache()
        built.clear()
        run_campaign(spec, journal, limit=limit, concurrency=2)
        assert built == want
    assert cached_det_spec.cache_info().currsize == det_specs


def _faulted_prewarm_matches_no_prewarm(tmp_path, monkeypatch, builder):
    """Run ``_ONE_KEY`` with no prewarm, then with ``builder`` as the
    prewarm child's body; return the second run's non-progress lines
    after checking that every outcome matched."""
    spec = parse_spec(_ONE_KEY)
    runs = []
    for prewarm in (False, True):
        clear_spec_dfa_cache()
        said = []
        journal = str(tmp_path / f"prewarm-{prewarm}.jsonl")
        with monkeypatch.context() as patch:
            if prewarm:
                patch.setattr(runner_mod, "_spec_rows", builder)
            else:
                _no_prewarm(patch)
            run = run_campaign(spec, journal, progress=said.append)
        runs.append((render_json(build_report(run)), _stripped(journal)))
        assert multiprocessing.active_children() == []
        assert cached_spec_dfa(2, 1, SS).rows is None
    assert runs[0] == runs[1]
    assert {e["status"] for e in runs[1][1].values()} == {"pass"}
    return _not_progress(said)


def test_raising_prewarm_child_warns_once_and_changes_nothing(
    tmp_path, monkeypatch
):
    def raising(n, k, prop):
        raise RuntimeError("prewarm build failed")

    warnings = _faulted_prewarm_matches_no_prewarm(
        tmp_path, monkeypatch, raising
    )
    assert warnings == [
        "prewarm 2x1/ss: exception; its cells build the table themselves"
    ]


def test_prewarm_child_over_memory_cap_warns_once_and_changes_nothing(
    tmp_path, monkeypatch
):
    def ballooning(n, k, prop):
        ballast = bytearray(4096 * 1024 * 1024)  # over the 1024 MB cap
        del ballast

    warnings = _faulted_prewarm_matches_no_prewarm(
        tmp_path, monkeypatch, ballooning
    )
    assert warnings == [
        "prewarm 2x1/ss: memory; its cells build the table themselves"
    ]


def test_corrupt_prewarm_rows_are_rejected_by_the_shared_validator(
    tmp_path, monkeypatch
):
    real_rows = runner_mod._spec_rows

    def corrupt(n, k, prop):
        msg = real_rows(n, k, prop)
        msg["rows"][0] = msg["num_states"]  # one successor out of range
        return msg

    warnings = _faulted_prewarm_matches_no_prewarm(
        tmp_path, monkeypatch, corrupt
    )
    assert warnings == [
        "prewarm 2x1/ss: rejected; its cells build the table themselves"
    ]


def test_drain_during_prewarm_journals_no_cell_and_reaps_the_child(
    tmp_path, monkeypatch
):
    clear_spec_dfa_cache()
    ran = []

    def draining(n, k, prop):
        os.kill(os.getppid(), signal.SIGUSR1)  # the drain lands now
        time.sleep(60)

    def drain(signum, frame):
        raise CampaignInterrupted(f"signal {signum}")

    def run_cell(cell, **kwargs):
        ran.append(cell["id"])
        return _fake_outcome()

    monkeypatch.setattr(runner_mod, "_spec_rows", draining)
    monkeypatch.setattr(runner_mod, "run_cell", run_cell)
    journal = str(tmp_path / "campaign.jsonl")
    previous = signal.signal(signal.SIGUSR1, drain)
    start = time.monotonic()
    try:
        with pytest.raises(CampaignInterrupted):
            run_campaign(parse_spec(_ONE_KEY), journal, concurrency=2)
    finally:
        signal.signal(signal.SIGUSR1, previous)
    assert time.monotonic() - start < 30
    assert ran == []
    assert multiprocessing.active_children() == []
    header, entries = Journal(journal).load()
    assert header is not None and entries == {}
    with open(journal, encoding="utf-8") as fh:
        assert [json.loads(line)["type"] for line in fh] == ["campaign"]
    assert cached_spec_dfa(2, 1, SS).rows is None
