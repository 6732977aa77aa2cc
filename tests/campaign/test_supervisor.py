"""Supervised cell execution: isolation, faults, retries, degradation.

Cells here are tiny ((2,1) instances) so each subprocess round-trip
stays fast; the fork start method means children inherit the parent's
already-imported modules.
"""

import pytest

from repro.campaign.supervisor import run_cell
from repro.campaign.spec import parse_spec
from repro.checking import check_safety
from repro.spec import SS
from repro.tm import DSTM


def _cell(**overrides):
    data = {
        "name": "t",
        "cells": [
            dict(
                {"tm": "dstm", "property": "ss", "n": 2, "k": 1,
                 "retries": 1, "backoff_s": 0, "timeout_s": 120},
                **overrides,
            )
        ],
    }
    return parse_spec(data).cells[0]


def test_clean_cell_matches_direct_check():
    entry = run_cell(_cell())
    assert entry["status"] == "pass"
    assert entry["faults"] == []
    assert entry["attempts"] == 1
    ref = check_safety(DSTM(2, 1), SS)
    assert entry["result"] == {
        "tm_name": ref.tm_name,
        "holds": ref.holds,
        "counterexample": None,
        "tm_states": ref.tm_states,
        "spec_states": ref.spec_states,
        "product_states": ref.product_states,
    }


def test_violation_reports_fail_with_counterexample():
    entry = run_cell(
        _cell(tm="modtl2", property="op", n=2, k=2)
    )
    assert entry["status"] == "fail"
    ref = check_safety(
        __import__("repro.tm", fromlist=["ModifiedTL2"]).ModifiedTL2(2, 2),
        __import__("repro.spec", fromlist=["OP"]).OP,
    )
    from repro.core.statements import format_word

    assert entry["result"]["counterexample"] == format_word(
        ref.counterexample
    )
    assert entry["result"]["product_states"] == ref.product_states


def test_sigkilled_worker_is_retried_to_the_same_result():
    """A SIGKILLed subprocess surfaces as a crash fault; the retry
    completes with the exact result an uninjected run produces."""
    clean = run_cell(_cell())
    entry = run_cell(_cell(inject={"sigkill_attempts": 1}))
    assert entry["status"] == "pass"
    assert entry["attempts"] == 2
    [fault] = entry["faults"]
    assert fault["class"] == "crash"
    assert "-9" in fault["detail"]  # SIGKILL exit code
    assert entry["result"] == clean["result"]


def test_hang_hits_the_wall_clock():
    entry = run_cell(
        _cell(
            timeout_s=0.5,
            retries=0,
            inject={"hang_attempts": 1, "hang_s": 60},
        )
    )
    assert entry["status"] == "timeout"
    assert entry["attempts"] == 1
    [fault] = entry["faults"]
    assert fault["class"] == "timeout"


def test_retry_exhaustion_records_error_without_raising():
    entry = run_cell(
        _cell(retries=1, inject={"fail_attempts": 5})
    )
    assert entry["status"] == "error"
    assert entry["attempts"] == 2
    assert [fault["class"] for fault in entry["faults"]] == [
        "exception",
        "exception",
    ]
    assert "injected failure" in entry["error"]


def test_degradation_ladder_warm_to_cold(tmp_path):
    """A fault degrades warm -> cold, the ladder's single rung; later
    retries have nothing left to shed.  The degraded result is still
    the canonical one (warm starts are optimization-only)."""
    clean = run_cell(_cell())
    entry = run_cell(
        _cell(
            cache_dir=str(tmp_path),
            retries=2,
            inject={"fail_attempts": 2},
        )
    )
    assert entry["status"] == "pass"
    assert entry["attempts"] == 3
    assert [fault["degraded"] for fault in entry["faults"]] == [
        "cold",
        None,
    ]
    assert entry["result"] == clean["result"]


def test_memory_cap_reports_memory_fault():
    entry = run_cell(
        _cell(
            memory_mb=512,
            retries=0,
            inject={"alloc_mb": 4096},
        )
    )
    assert entry["status"] == "error"
    [fault] = entry["faults"]
    assert fault["class"] == "memory"


def test_retry_delay_decorrelated_jitter():
    from repro.campaign.supervisor import BACKOFF_CAP_S, _retry_delay

    calls = []

    def rng(low, high):
        calls.append((low, high))
        return high  # worst case: always the top of the window

    # the window's top triples from the previous delay, never below base
    delay = _retry_delay(0.1, 0.1, rng)
    assert calls[-1] == (0.1, pytest.approx(0.3))
    delay = _retry_delay(0.1, delay, rng)
    assert calls[-1] == (0.1, pytest.approx(0.9))
    # and the cap bounds any single delay
    assert _retry_delay(0.1, 1e9, rng) == BACKOFF_CAP_S
    # a shrunken prev never drops the window below base
    assert _retry_delay(0.5, 0.0, rng) == pytest.approx(0.5)


def test_run_cell_reports_engine_stats():
    entry = run_cell(_cell())
    assert entry["stats"]["safety_rows"] > 0
    assert entry["stats"]["warm_safety_rows"] == 0


def test_run_cell_collects_warm_blobs_for_resident_store():
    from repro.cache import TieredCacheBackend

    store = TieredCacheBackend()
    cell = _cell(cache_dir="<resident>", cache_backend="memory")
    first = run_cell(cell, cache=store, collect_warm=True)
    assert first["status"] == "pass"
    assert first["warm"]  # the forked child shipped its tables back
    store.absorb_blobs(first["warm"])

    second = run_cell(cell, cache=store, collect_warm=True)
    assert second["result"] == first["result"]
    assert second["stats"]["safety_rows"] == 0  # resident tier hit
    assert second["stats"]["warm_safety_rows"] > 0
    assert second["warm"] == {}  # nothing new was built


def test_exception_detail_names_the_raise_site():
    """The fault detail carries ``file:line`` of the raising frame — an
    errored cell in a journal is triageable without re-running it."""
    entry = run_cell(_cell(retries=0, inject={"fail_attempts": 1}))
    assert entry["status"] == "error"
    assert "injected failure" in entry["error"]
    assert " @ supervisor.py:" in entry["error"]


def test_retry_seed_validated_at_the_spec_layer():
    from repro.campaign.spec import CampaignSpecError

    for good in (0, 7, None):
        assert _cell(retry_seed=good)["retry_seed"] == good
    for bad in (-1, 1.5, "x", True):
        with pytest.raises(CampaignSpecError, match="retry_seed"):
            _cell(retry_seed=bad)


def test_seeded_retry_schedule_is_deterministic():
    """``retry_seed`` routes the decorrelated jitter through a private
    PRNG: same seed, same delays; no seed falls back to the module
    RNG (and a seeded faulty cell still converges to the clean result)."""
    import random

    from repro.campaign.supervisor import _retry_delay

    def schedule(seed):
        rng = random.Random(seed).uniform
        delays, prev = [], 0.2
        for _ in range(4):
            prev = _retry_delay(0.2, prev, rng)
            delays.append(prev)
        return delays

    assert schedule(3) == schedule(3)
    assert schedule(3) != schedule(4)

    clean = run_cell(_cell())
    entry = run_cell(
        _cell(retry_seed=3, retries=1, inject={"fail_attempts": 1})
    )
    assert entry["status"] == "pass"
    assert entry["attempts"] == 2
    assert entry["result"] == clean["result"]


def test_run_cell_profile_policy_key():
    entry = run_cell(_cell(profile=True))
    assert entry["status"] == "pass"
    assert isinstance(entry["profile"], dict) and entry["profile"]
    # a non-profiled cell carries no profile key at all
    assert "profile" not in run_cell(_cell())


def test_retry_delay_honors_a_cell_level_cap():
    from repro.campaign.supervisor import BACKOFF_CAP_S, _retry_delay

    def rng(_low, high):
        return high

    # a cell's backoff_cap_s threads through as cap_s and binds first
    assert _retry_delay(0.1, 1e9, rng, cap_s=5.0) == 5.0
    assert _retry_delay(0.1, 1e9, rng, cap_s=90.0) == 90.0
    # the default cap is the historical 30s ceiling
    assert _retry_delay(0.1, 1e9, rng) == BACKOFF_CAP_S


def test_backoff_cap_surfaces_in_the_report(tmp_path):
    from repro.campaign import parse_spec, run_campaign
    from repro.campaign.report import build_report

    spec = parse_spec(
        {
            "name": "cap",
            "defaults": {"timeout_s": 120, "retries": 1,
                         "backoff_s": 0, "backoff_cap_s": 7.5},
            "cells": [
                {"tm": "seq", "property": "ss", "n": 2, "k": 1}
            ],
        }
    )
    run = run_campaign(spec, str(tmp_path / "j.jsonl"))
    report = build_report(run)
    assert report["cells"][0]["backoff_cap_s"] == 7.5
