"""Bug-hunt campaigns: the mutant farm swept through the batch layer.

A *hunt* is a campaign whose TMs are mutation-farm mutants
(:mod:`repro.tm.mutate`) plus plain control TMs, and whose success
criterion is inverted per TM: a mutant seeded with a bug **must** be
killed (some cell finds a counterexample), a correct variant **must
not** be.  The hunt spec compiles down to an ordinary
:class:`~repro.campaign.spec.CampaignSpec` — mutants × properties ×
sizes through the same validated matrix expansion — so hunts inherit
the whole batch stack unchanged: per-cell subprocess isolation,
timeout/RSS caps, retry-with-degradation, the resumable JSONL journal,
and (because :func:`~repro.campaign.spec.expand_cell` now accepts
mutant ids) the ``repro serve`` daemon as an execution backend.

A hunt spec file looks like::

    {
      "name": "nightly-hunt",
      "mutants": ["tl2/*", "2pl/no-rlock", "opt/split-commit@seed2"],
      "controls": ["tl2", "norec"],
      "properties": ["ss", "op"],
      "sizes": [[2, 2]],
      "defaults": {"timeout_s": 120, "retry_seed": 0}
    }

``mutants`` entries are exact mutant ids or ``fnmatch`` globs over the
default roster; ``controls`` are plain TM names whose expected verdict
comes from :data:`PLAIN_EXPECTATIONS` (every paper TM is correct except
``modtl2``, the Section 5.4 flaw).  Omitting ``mutants`` selects the
full shipped roster — the configuration ``repro hunt`` runs with no
spec file at all.

The verdict layer lives in :mod:`.hunt_report`.
"""

from __future__ import annotations

import fnmatch
import json
from typing import Dict, List, Optional, Sequence, Tuple

from .spec import CampaignSpec, CampaignSpecError, _check_policy, parse_spec

#: Expected verdicts for the plain (non-mutant) control TMs: ``True``
#: means "the checker must find a bug".  Only the paper's deliberately
#: broken modified TL2 is expected-buggy; every other registered TM is
#: a true negative.
PLAIN_EXPECTATIONS: Dict[str, bool] = {"modtl2": True}

_HUNT_KEYS = frozenset(
    ["name", "mutants", "controls", "properties", "sizes", "defaults"]
)

#: Hunt-level policy defaults: seeded retries (reproducible schedules)
#: and a per-attempt timeout far below the campaign default — hunt
#: cells are small by construction.
HUNT_POLICY_DEFAULTS: Dict[str, object] = {
    "timeout_s": 120.0,
    "retry_seed": 0,
}

DEFAULT_CONTROLS: Tuple[str, ...] = ("tl2", "norec")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CampaignSpecError(message)


def tm_expectation(name: str) -> bool:
    """``expect_bug`` for any hunt TM — mutant id or plain control."""
    if "/" in name:
        from ..tm.mutate import mutant_expectation

        try:
            return mutant_expectation(name)
        except ValueError as exc:
            raise CampaignSpecError(f"hunt spec: {exc}")
    from ..cli import TM_FACTORIES

    _require(
        name.lower() in TM_FACTORIES,
        f"hunt spec: unknown control TM {name!r}"
        f" (choose from {sorted(TM_FACTORIES)})",
    )
    return PLAIN_EXPECTATIONS.get(name.lower(), False)


def _expand_mutant_patterns(patterns: Sequence[object]) -> List[str]:
    """Exact mutant ids pass through; globs select from the default
    roster.  Order-preserving, de-duplicated."""
    from ..tm.mutate import default_mutants, is_mutant_id

    roster = default_mutants()
    out: List[str] = []
    for pattern in patterns:
        _require(
            isinstance(pattern, str) and bool(pattern),
            "hunt spec: mutants entries must be non-empty strings",
        )
        if is_mutant_id(pattern):
            matches = [pattern]
        else:
            matches = [
                mid for mid in roster
                if fnmatch.fnmatchcase(mid, pattern)
            ]
            _require(
                bool(matches),
                f"hunt spec: mutant pattern {pattern!r} matches nothing"
                " (see 'repro hunt --list' for the roster)",
            )
        for mid in matches:
            if mid not in out:
                out.append(mid)
    return out


class HuntSpec:
    """A validated hunt: per-TM expectations over a campaign matrix.

    ``campaign`` is the fully expanded :class:`CampaignSpec` the batch
    layer executes; ``expectations`` maps each TM name (mutant id or
    control) to its expected verdict.  The campaign digest doubles as
    the hunt digest, so journals resume under the standard
    digest-mismatch protection.
    """

    def __init__(
        self,
        name: str,
        tms: List[str],
        properties: List[str],
        sizes: List[List[int]],
        defaults: Dict[str, object],
    ) -> None:
        self.name = name
        self.tms = tms
        self.expectations = {tm: tm_expectation(tm) for tm in tms}
        self.properties = properties
        self.sizes = sizes
        self.defaults = defaults
        self.campaign: CampaignSpec = parse_spec(
            {
                "name": name,
                "defaults": defaults,
                "matrix": {
                    "tms": tms,
                    "properties": properties,
                    "sizes": sizes,
                },
            }
        )

    @property
    def digest(self) -> str:
        return self.campaign.digest


def parse_hunt_spec(data: object) -> HuntSpec:
    """Validate and expand one decoded hunt spec document."""
    _require(
        isinstance(data, dict), "hunt spec must be a JSON object"
    )
    unknown = set(data) - _HUNT_KEYS
    _require(
        not unknown,
        f"hunt spec: unknown key(s) {sorted(unknown)}"
        f" (expected {sorted(_HUNT_KEYS)})",
    )
    name = data.get("name", "hunt")
    _require(
        isinstance(name, str) and bool(name),
        "hunt spec: name must be a non-empty string",
    )

    raw_mutants = data.get("mutants")
    if raw_mutants is None:
        from ..tm.mutate import default_mutants

        mutants = default_mutants()
    else:
        _require(
            isinstance(raw_mutants, list) and bool(raw_mutants),
            "hunt spec: mutants must be a non-empty list",
        )
        mutants = _expand_mutant_patterns(raw_mutants)

    raw_controls = data.get("controls")
    if raw_controls is None:
        controls = list(DEFAULT_CONTROLS)
    else:
        _require(
            isinstance(raw_controls, list),
            "hunt spec: controls must be a list",
        )
        for control in raw_controls:
            _require(
                isinstance(control, str) and bool(control)
                and "/" not in control,
                "hunt spec: controls entries must be plain TM names",
            )
        controls = list(dict.fromkeys(raw_controls))

    properties = data.get("properties", ["ss", "op"])
    _require(
        isinstance(properties, list) and bool(properties),
        "hunt spec: properties must be a non-empty list",
    )
    sizes = data.get("sizes", [[2, 2]])
    _require(
        isinstance(sizes, list) and bool(sizes)
        and all(
            isinstance(size, list) and len(size) == 2 for size in sizes
        ),
        "hunt spec: sizes must be a non-empty list of [n, k] pairs",
    )

    defaults = dict(HUNT_POLICY_DEFAULTS)
    overrides = data.get("defaults", {})
    _require(
        isinstance(overrides, dict),
        "hunt spec: defaults must be an object",
    )
    _check_policy(overrides, "hunt defaults")
    defaults.update(overrides)

    tms = mutants + [c for c in controls if c not in mutants]
    _require(bool(tms), "hunt spec: no mutants or controls selected")
    return HuntSpec(name, tms, properties, sizes, defaults)


def default_hunt_spec() -> HuntSpec:
    """The shipped hunt ``repro hunt`` runs with no spec file: the full
    default mutant roster plus the TL2/NOrec true-negative controls at
    (2, 2) against both properties."""
    return parse_hunt_spec({"name": "default-hunt"})


def load_hunt_spec(path: str) -> HuntSpec:
    """Parse + validate a hunt spec file (bad JSON is a spec error)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CampaignSpecError(f"cannot read hunt spec: {exc}")
    except json.JSONDecodeError as exc:
        raise CampaignSpecError(f"hunt spec is not valid JSON: {exc}")
    return parse_hunt_spec(data)


def run_hunt(
    spec: HuntSpec,
    journal_path: str,
    *,
    resume: bool = True,
    limit: Optional[int] = None,
    progress=None,
    concurrency: Optional[int] = None,
):
    """Execute the hunt's campaign (journal-resumable, fault-isolated,
    ``concurrency`` cells at once — see
    :func:`~repro.campaign.runner.run_campaign`) and return the
    :class:`~repro.campaign.runner.CampaignRun` for
    :func:`~repro.campaign.hunt_report.build_hunt_report`."""
    from .runner import run_campaign

    return run_campaign(
        spec.campaign, journal_path, resume=resume, limit=limit,
        progress=progress, concurrency=concurrency,
    )
