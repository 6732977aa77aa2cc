"""The deterministic fault plane: validation, windows, determinism."""

import json

import pytest

from repro import faultplane
from repro.faultplane import (
    FaultPlane,
    FaultScheduleError,
    MAX_STALL_MS,
    fault_check,
    injected_counts,
    install,
    installed,
    load_schedule,
    reset,
    schedule_digest,
    uninstall,
    validate_schedule,
)


@pytest.fixture(autouse=True)
def _pristine_plane():
    reset()
    yield
    reset()


def _schedule(**overrides):
    base = {
        "name": "t",
        "seed": 0,
        "rules": [{"site": "cache.save", "fault": "eio"}],
    }
    base.update(overrides)
    return base


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def test_canonical_form_fills_defaults():
    canon = validate_schedule(_schedule())
    assert canon["rules"][0] == {
        "site": "cache.save", "match": "*", "nth": 1, "count": 1,
        "fault": "eio",
    }


def test_equivalent_schedules_share_a_digest():
    explicit = _schedule(
        rules=[{"site": "cache.save", "fault": "eio", "match": "*",
                "nth": 1, "count": 1}]
    )
    assert schedule_digest(_schedule()) == schedule_digest(explicit)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda s: s.update(bogus=1), "unknown key"),
        (lambda s: s.update(seed=-1), "seed"),
        (lambda s: s.update(seed=True), "seed"),
        (lambda s: s.update(rules=[]), "non-empty list"),
        (lambda s: s["rules"][0].update(site="disk.save"),
         "unknown site"),
        (lambda s: s["rules"][0].update(fault="explode"),
         "unknown fault"),
        (lambda s: s["rules"][0].update(nth=0), "nth"),
        (lambda s: s["rules"][0].update(count=0), "count"),
        (lambda s: s["rules"][0].update(match=""), "match"),
        (lambda s: s["rules"][0].update(stall_ms=10), "stall_ms"),
        (lambda s: s["rules"][0].update(keep_bytes=3), "keep_bytes"),
        # the pool dispatcher left with the process-sharding layer
        (lambda s: s["rules"][0].update(site="pool.dispatch"),
         "unknown site 'pool.dispatch'"),
    ],
)
def test_validation_rejects(mutate, fragment):
    schedule = _schedule()
    mutate(schedule)
    with pytest.raises(FaultScheduleError, match=fragment):
        validate_schedule(schedule)


def test_site_fault_compatibility_enforced():
    # drop_fsync belongs to journal.fsync, never to a cache save.
    with pytest.raises(FaultScheduleError, match="cannot be injected"):
        validate_schedule(
            _schedule(rules=[{"site": "cache.save",
                              "fault": "drop_fsync"}])
        )


def test_stall_requires_bounded_duration():
    for bad in (0, -5, MAX_STALL_MS + 1):
        with pytest.raises(FaultScheduleError, match="stall_ms"):
            validate_schedule(
                _schedule(rules=[{"site": "cache.load",
                                  "fault": "stall_ms",
                                  "stall_ms": bad}])
            )


def test_load_schedule_rejects_bad_json(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("{not json")
    with pytest.raises(FaultScheduleError, match="not valid JSON"):
        load_schedule(str(path))
    with pytest.raises(FaultScheduleError, match="cannot read"):
        load_schedule(str(tmp_path / "absent.json"))


# ----------------------------------------------------------------------
# Trigger windows and matching
# ----------------------------------------------------------------------


def test_nth_and_count_open_a_window():
    plane = FaultPlane(
        _schedule(rules=[{"site": "cache.save", "fault": "eio",
                          "nth": 2, "count": 2}])
    )
    fired = [
        plane.check("cache.save", "k") is not None for _ in range(5)
    ]
    assert fired == [False, True, True, False, False]
    assert plane.counts() == {"cache.save:eio": 2}


def test_match_glob_scopes_a_rule():
    plane = FaultPlane(
        _schedule(rules=[{"site": "serve.send", "fault": "reset",
                          "match": "server:check"}])
    )
    assert plane.check("serve.send", "server:health") is None
    assert plane.check("serve.send", "client:check") is None
    assert plane.check("serve.send", "server:check") is not None


def test_first_open_rule_wins_but_all_counters_advance():
    plane = FaultPlane(
        _schedule(rules=[
            {"site": "cache.save", "fault": "eio", "nth": 1},
            {"site": "cache.save", "fault": "enospc", "nth": 1,
             "count": 2},
        ])
    )
    first = plane.check("cache.save", "k")
    assert first.fault == "eio"
    # Rule 2's counter advanced during call 1, so its nth=1..2 window
    # still covers call 2.
    second = plane.check("cache.save", "k")
    assert second.fault == "enospc"
    assert plane.check("cache.save", "k") is None


def test_raise_io_carries_errno_and_path():
    plane = FaultPlane(
        _schedule(rules=[{"site": "cache.save", "fault": "enospc"}])
    )
    fault = plane.check("cache.save", "k")
    with pytest.raises(OSError) as exc:
        fault.raise_io("/some/path")
    import errno

    assert exc.value.errno == errno.ENOSPC
    assert exc.value.filename == "/some/path"
    assert "injected" in str(exc.value)


# ----------------------------------------------------------------------
# Torn-write draws
# ----------------------------------------------------------------------


def test_torn_draws_are_seed_deterministic():
    def draws(seed):
        plane = FaultPlane(
            _schedule(seed=seed, rules=[
                {"site": "cache.save", "fault": "torn_write",
                 "count": 4},
            ])
        )
        out = []
        for _ in range(4):
            fault = plane.check("cache.save", "k")
            out.append(len(fault.torn(b"x" * 100)))
        return out

    assert draws(7) == draws(7)
    assert draws(7) != draws(8)  # astronomically unlikely to collide
    assert all(length < 100 for length in draws(7))


def test_keep_bytes_pins_the_truncation():
    plane = FaultPlane(
        _schedule(rules=[{"site": "journal.append",
                          "fault": "torn_write", "keep_bytes": 5}])
    )
    fault = plane.check("journal.append", "k")
    assert fault.torn(b"0123456789") == b"01234"
    assert fault.torn(b"ab") == b"ab"  # never longer than the data


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------


def test_fault_check_is_inert_without_a_schedule():
    assert fault_check("cache.save", "k") is None
    assert injected_counts() == {}


def test_installed_context_scopes_activation():
    with installed(_schedule()) as plane:
        fault = fault_check("cache.save", "k")
        assert fault is not None and fault.fault == "eio"
        assert injected_counts() == {"cache.save:eio": 1}
        assert plane.counts() == {"cache.save:eio": 1}
    assert fault_check("cache.save", "k") is None


def test_env_schedule_loads_lazily(tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_schedule()))
    monkeypatch.setenv(faultplane.SCHEDULE_ENV, str(path))
    reset()  # env is consulted on the next check
    assert fault_check("cache.save", "k") is not None
    assert injected_counts() == {"cache.save:eio": 1}


def test_broken_env_schedule_raises_loudly(tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    path.write_text("{broken")
    monkeypatch.setenv(faultplane.SCHEDULE_ENV, str(path))
    reset()
    with pytest.raises(FaultScheduleError):
        fault_check("cache.save", "k")


def test_uninstall_beats_the_env(tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_schedule()))
    monkeypatch.setenv(faultplane.SCHEDULE_ENV, str(path))
    reset()
    uninstall()  # explicit deactivation wins over the env var
    assert fault_check("cache.save", "k") is None


def test_install_replaces_the_active_plane():
    install(_schedule())
    install(
        _schedule(rules=[{"site": "cache.load", "fault": "eio"}])
    )
    assert fault_check("cache.save", "k") is None
    assert fault_check("cache.load", "k") is not None
