"""Deterministic chaos plane: seeded fault schedules for I/O and wire.

Process-level faults (SIGKILL, hangs, ballast allocations) have been
first-class, injectable inputs since the campaign supervisor landed —
but the substrate faults real deployments actually die on (ENOSPC
mid-journal-append, EIO on a segment read, a dropped fsync, a TCP reset
mid-response) were only ever exercised by hand-corrupting files in CI
recipes.  This module makes those faults a **seeded, replayable input**:
a validated JSON *fault schedule* drives a process-wide injector that
the storage plane (:mod:`repro.cache`), the journal plane
(:mod:`repro.campaign.journal`) and the wire plane (:mod:`repro.serve`)
consult at each instrumented site.

A schedule looks like::

    {
      "name": "storage-eio",
      "seed": 3,
      "rules": [
        {"site": "cache.save", "match": "*", "nth": 1, "fault": "eio"},
        {"site": "journal.append", "nth": 2, "fault": "torn_write"},
        {"site": "serve.send", "match": "server:*", "nth": 1,
         "fault": "reset"},
        {"site": "serve.recv", "nth": 1, "fault": "stall_ms",
         "stall_ms": 50}
      ]
    }

Semantics:

* **Sites** (:data:`SITES`) are the instrumented call points; each call
  carries a *key* (a cache key repr, a journal record id, a wire role
  and op like ``server:check``) matched against the rule's ``match``
  glob (default ``*``).
* A rule fires on its ``nth`` matching call (1-based) and on the
  ``count - 1`` matching calls after it (default ``count`` 1).  Rules
  are ordered: the first rule whose window covers the current call
  wins, but every matching rule's occurrence counter always advances.
* ``seed`` feeds one private ``random.Random`` per rule (keyed
  ``"{seed}:{rule_index}"``), from which data-dependent parameters —
  the truncation point of a ``torn_write`` / ``partial_send`` — are
  drawn in fire order.  Same schedule, same call sequence ⇒ same
  faults, byte for byte.
* Counters are **per-process**: a forked child inherits the parent's
  counts at fork time and advances its own copy.  (The supervised
  check children each see the schedule from the top — deliberate:
  cache faults are absorbed *inside* one attempt by the never-raise
  contract, so per-child replay is what makes them reproducible.)

Activation: programmatically via :func:`install` / :func:`uninstall`
(or the :func:`installed` context manager), or — the form the
``repro chaos`` sweeper uses — by pointing ``$REPRO_FAULT_SCHEDULE``
at a schedule file before the process starts.  When no schedule is
active, :func:`fault_check` is a near-free ``None`` return on every
call, so instrumented sites cost nothing in production.

Every fired injection is tallied (:meth:`FaultPlane.counts`) and
surfaced — cache-plane faults additionally land in the backends'
``error_counts()``/quarantine, wire-plane faults in the daemon's
``stats`` wire counters, journal-plane faults in the campaign exit
path — so no injection can vanish silently (the observability
acceptance bar of the chaos plane).
"""

from __future__ import annotations

import errno as _errno
import fnmatch
import hashlib
import json
import os
import random
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: Environment variable naming a schedule file to auto-install.
SCHEDULE_ENV = "REPRO_FAULT_SCHEDULE"

#: Instrumented call points.
SITES = (
    "cache.save",
    "cache.load",
    "journal.append",
    "journal.fsync",
    "serve.send",
    "serve.recv",
)

#: Injectable fault kinds.
FAULTS = (
    "eio",
    "enospc",
    "torn_write",
    "drop_fsync",
    "partial_send",
    "reset",
    "stall_ms",
)

#: Which faults make sense at which site — a schedule naming an
#: incompatible pair is a validation error, not a silent no-op.
SITE_FAULTS: Dict[str, tuple] = {
    "cache.save": ("eio", "enospc", "torn_write", "stall_ms"),
    "cache.load": ("eio", "stall_ms"),
    "journal.append": ("eio", "enospc", "torn_write", "stall_ms"),
    "journal.fsync": ("eio", "enospc", "drop_fsync", "stall_ms"),
    "serve.send": ("eio", "partial_send", "reset", "stall_ms"),
    "serve.recv": ("eio", "reset", "stall_ms"),
}

_ERRNO = {"eio": _errno.EIO, "enospc": _errno.ENOSPC}

#: Ceiling on one injected stall (a schedule must not be able to turn
#: into an unbounded hang the supervisor then has to kill).
MAX_STALL_MS = 60_000

_RULE_KEYS = frozenset(
    ["site", "match", "nth", "count", "fault", "stall_ms", "keep_bytes"]
)
_SCHEDULE_KEYS = frozenset(["name", "seed", "rules"])


class FaultScheduleError(ValueError):
    """A fault schedule failed validation (CLI exit 2)."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FaultScheduleError(message)


def validate_schedule(data: object) -> Dict[str, object]:
    """Validate one decoded schedule document into canonical form.

    The canonical form has every optional field filled in (``match``,
    ``nth``, ``count``), so two schedules that mean the same thing
    share one :func:`schedule_digest`.
    """
    _require(isinstance(data, dict), "fault schedule must be a JSON object")
    unknown = set(data) - _SCHEDULE_KEYS
    _require(
        not unknown,
        f"fault schedule: unknown key(s) {sorted(unknown)}"
        f" (expected {sorted(_SCHEDULE_KEYS)})",
    )
    name = data.get("name", "schedule")
    _require(
        isinstance(name, str) and bool(name),
        "fault schedule: name must be a non-empty string",
    )
    seed = data.get("seed", 0)
    _require(
        isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
        "fault schedule: seed must be a non-negative integer",
    )
    raw_rules = data.get("rules")
    _require(
        isinstance(raw_rules, list) and bool(raw_rules),
        "fault schedule: rules must be a non-empty list",
    )
    rules: List[Dict[str, object]] = []
    for index, raw in enumerate(raw_rules):
        where = f"rules[{index}]"
        _require(isinstance(raw, dict), f"{where}: rule must be an object")
        unknown = set(raw) - _RULE_KEYS
        _require(
            not unknown,
            f"{where}: unknown key(s) {sorted(unknown)}"
            f" (expected {sorted(_RULE_KEYS)})",
        )
        site = raw.get("site")
        _require(
            site in SITES,
            f"{where}: unknown site {site!r} (choose from {list(SITES)})",
        )
        fault = raw.get("fault")
        _require(
            fault in FAULTS,
            f"{where}: unknown fault {fault!r}"
            f" (choose from {list(FAULTS)})",
        )
        _require(
            fault in SITE_FAULTS[site],
            f"{where}: fault {fault!r} cannot be injected at {site!r}"
            f" (choose from {list(SITE_FAULTS[site])})",
        )
        match = raw.get("match", "*")
        _require(
            isinstance(match, str) and bool(match),
            f"{where}: match must be a non-empty glob string",
        )
        rule: Dict[str, object] = {
            "site": site, "match": match, "fault": fault,
        }
        for key, default, floor in (("nth", 1, 1), ("count", 1, 1)):
            value = raw.get(key, default)
            _require(
                isinstance(value, int) and not isinstance(value, bool)
                and value >= floor,
                f"{where}: {key} must be an integer >= {floor}",
            )
            rule[key] = value
        if fault == "stall_ms":
            stall = raw.get("stall_ms")
            _require(
                isinstance(stall, (int, float))
                and not isinstance(stall, bool)
                and 0 < stall <= MAX_STALL_MS,
                f"{where}: stall_ms must be a number in"
                f" (0, {MAX_STALL_MS}] for fault 'stall_ms'",
            )
            rule["stall_ms"] = stall
        else:
            _require(
                "stall_ms" not in raw,
                f"{where}: stall_ms only applies to fault 'stall_ms'",
            )
        if "keep_bytes" in raw and raw["keep_bytes"] is not None:
            _require(
                fault in ("torn_write", "partial_send"),
                f"{where}: keep_bytes only applies to torn_write /"
                " partial_send",
            )
            value = raw["keep_bytes"]
            _require(
                isinstance(value, int) and not isinstance(value, bool)
                and value >= 0,
                f"{where}: keep_bytes must be a non-negative integer",
            )
            rule["keep_bytes"] = value
        rules.append(rule)
    return {"name": name, "seed": seed, "rules": rules}


def schedule_digest(schedule: Dict[str, object]) -> str:
    """sha256 over the canonical schedule JSON — names a trial."""
    canonical = json.dumps(validate_schedule(schedule), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _Rule:
    """One validated rule plus its per-process occurrence state."""

    __slots__ = ("spec", "rng", "hits", "fired")

    def __init__(self, spec: Dict[str, object], seed: int, index: int):
        self.spec = spec
        # A private, per-rule stream: data-dependent draws (truncation
        # points) never perturb other rules' determinism.
        self.rng = random.Random(f"{seed}:{index}")
        self.hits = 0
        self.fired = 0

    def matches(self, site: str, key: str) -> bool:
        return self.spec["site"] == site and fnmatch.fnmatchcase(
            key, self.spec["match"]
        )

    def window_open(self) -> bool:
        nth = self.spec["nth"]
        return nth <= self.hits < nth + self.spec["count"]


class ScheduledFault:
    """One fired injection, handed to the instrumented call site.

    The helpers cover the common shapes; sites with richer needs read
    :attr:`fault` directly (``torn_write`` at a journal append,
    ``reset`` on a socket).
    """

    def __init__(self, rule: _Rule, site: str, key: str) -> None:
        self.fault: str = rule.spec["fault"]
        self.site = site
        self.key = key
        self._rule = rule

    def raise_io(self, path: Optional[str] = None) -> None:
        """Raise the injected ``OSError`` for ``eio``/``enospc``
        (no-op for other fault kinds)."""
        code = _ERRNO.get(self.fault)
        if code is None:
            return
        message = f"injected {self.fault} at {self.site}"
        if path is not None:
            raise OSError(code, message, path)
        raise OSError(code, message)

    def stall(self) -> None:
        """Sleep out a ``stall_ms`` fault (no-op otherwise)."""
        if self.fault == "stall_ms":
            time.sleep(float(self._rule.spec["stall_ms"]) / 1000.0)

    def apply_io(self, path: Optional[str] = None) -> None:
        """The one-liner for plain I/O sites: stall, or raise."""
        self.stall()
        self.raise_io(path)

    def torn(self, data: bytes) -> bytes:
        """The truncated prefix a ``torn_write``/``partial_send``
        leaves behind: ``keep_bytes`` when the rule pins it, else a
        seeded draw in ``[0, len(data))`` — strictly shorter than the
        intended write whenever there was anything to tear."""
        if self.fault not in ("torn_write", "partial_send"):
            return data
        keep = self._rule.spec.get("keep_bytes")
        if keep is None:
            keep = self._rule.rng.randrange(len(data)) if data else 0
        return data[: min(int(keep), len(data))]


class FaultPlane:
    """A process-wide injector over one validated schedule."""

    def __init__(self, schedule: object) -> None:
        self.schedule = validate_schedule(schedule)
        self.digest = schedule_digest(self.schedule)
        self.name: str = self.schedule["name"]
        seed: int = self.schedule["seed"]
        self._rules = [
            _Rule(spec, seed, index)
            for index, spec in enumerate(self.schedule["rules"])
        ]
        self._lock = threading.Lock()

    def check(self, site: str, key: str) -> Optional[ScheduledFault]:
        """Advance every matching rule; fire the first whose window is
        open.  Thread-safe (the daemon's connection threads share one
        plane)."""
        fired: Optional[ScheduledFault] = None
        with self._lock:
            for rule in self._rules:
                if not rule.matches(site, key):
                    continue
                rule.hits += 1
                if fired is None and rule.window_open():
                    rule.fired += 1
                    fired = ScheduledFault(rule, site, key)
        return fired

    def counts(self) -> Dict[str, int]:
        """``{"site:fault": fired}`` over every rule that fired —
        deterministic given a deterministic call sequence, and the
        plane's contribution to reports/stats."""
        out: Dict[str, int] = {}
        with self._lock:
            for rule in self._rules:
                if rule.fired:
                    label = f"{rule.spec['site']}:{rule.spec['fault']}"
                    out[label] = out.get(label, 0) + rule.fired
        return out


# ----------------------------------------------------------------------
# The process-wide active plane
# ----------------------------------------------------------------------

_ACTIVE: Optional[FaultPlane] = None
_ENV_LOADED = False
_STATE_LOCK = threading.Lock()


def load_schedule(path: str) -> Dict[str, object]:
    """Read + validate a schedule file (bad JSON is a schedule error)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FaultScheduleError(f"cannot read fault schedule: {exc}")
    except json.JSONDecodeError as exc:
        raise FaultScheduleError(
            f"fault schedule is not valid JSON: {exc}"
        )
    return validate_schedule(data)


def install(schedule: object) -> FaultPlane:
    """Activate a schedule (dict or pre-built plane) process-wide."""
    global _ACTIVE, _ENV_LOADED
    plane = (
        schedule
        if isinstance(schedule, FaultPlane)
        else FaultPlane(schedule)
    )
    with _STATE_LOCK:
        _ACTIVE = plane
        _ENV_LOADED = True  # an explicit install overrides the env
    return plane


def uninstall() -> None:
    """Deactivate injection (and forget any env-var schedule)."""
    global _ACTIVE, _ENV_LOADED
    with _STATE_LOCK:
        _ACTIVE = None
        _ENV_LOADED = True


def reset() -> None:
    """Back to pristine: no plane, env re-consulted on next check
    (tests use this to undo both install() and uninstall())."""
    global _ACTIVE, _ENV_LOADED
    with _STATE_LOCK:
        _ACTIVE = None
        _ENV_LOADED = False


@contextmanager
def installed(schedule: object):
    """``with installed({...}) as plane:`` — scoped activation."""
    plane = install(schedule)
    try:
        yield plane
    finally:
        reset()


def active_plane() -> Optional[FaultPlane]:
    """The installed plane, lazily loading ``$REPRO_FAULT_SCHEDULE``
    on first consultation.  A broken env schedule raises loudly here —
    a chaos run whose schedule silently failed to parse would report a
    vacuous all-clear."""
    global _ACTIVE, _ENV_LOADED
    if _ENV_LOADED:
        return _ACTIVE
    with _STATE_LOCK:
        if not _ENV_LOADED:
            path = os.environ.get(SCHEDULE_ENV)
            if path:
                _ACTIVE = FaultPlane(load_schedule(path))
            _ENV_LOADED = True
    return _ACTIVE


def fault_check(site: str, key: str) -> Optional[ScheduledFault]:
    """The instrumented sites' single entry point: ``None`` (fast path,
    no schedule active) or the fired :class:`ScheduledFault`."""
    plane = active_plane()
    if plane is None:
        return None
    return plane.check(site, key)


def injected_counts() -> Dict[str, int]:
    """The active plane's fired-injection tally (``{}`` when idle)."""
    plane = _ACTIVE if _ENV_LOADED else active_plane()
    return plane.counts() if plane is not None else {}
