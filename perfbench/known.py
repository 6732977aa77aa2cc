"""Hand-written known answers: every op's verdict is checked against these.

Nothing here is asked of the checker under test.  The Table 2 and
Table 3 rows are the paper's results (Table 3 as pinned by
``benchmarks/bench_table3_liveness.py``); the mutant rows are the
ground truth each mutation operator declares, written out by hand so a
change to the operator registry cannot silently change what counts as
correct.
"""

from __future__ import annotations

import re
from typing import Dict, Optional, Tuple

#: Table 2: the only paper TM whose language leaves either
#: specification.  Every other plain TM holds for ss and op at every
#: (n, k) the benchmark runs.
TABLE2_VIOLATORS = {"modtl2"}

#: Table 3 at (2, 1): (TM, contention manager) -> verdicts for
#: (obstruction freedom, livelock freedom, wait freedom).
TABLE3: Dict[Tuple[str, Optional[str]], Tuple[bool, bool, bool]] = {
    ("seq", None): (False, False, False),
    ("2pl", None): (False, False, False),
    ("dstm", "aggressive"): (True, False, False),
    ("tl2", "polite"): (False, False, False),
}

#: The default hunt roster: mutant id -> "the checker must find a bug".
MUTANT_BUG: Dict[str, bool] = {
    "tl2/split-validation": True,
    "tl2/drop-rvalidate": True,
    "tl2/drop-chklock": True,
    "tl2/skip-version-bump": True,
    "tl2/shuffle-lock-order": False,
    "2pl/no-rlock": True,
    "2pl/early-release": True,
    "2pl/wlock-ignores-readers": True,
    "dstm/drop-validate": False,
    "dstm/skip-invalidate": True,
    "dstm/invalid-can-commit": True,
    "dstm/own-no-steal": False,
    "opt/read-ignores-ms": True,
    "opt/split-commit": True,
    "opt/drop-ws-validation": False,
    "tl2/skip-version-bump@seed1": True,
    "tl2/shuffle-lock-order@seed1": False,
}

#: Buggy mutants whose bug breaks opacity only: their ss cell holds.
OPACITY_ONLY = {"opt/read-ignores-ms"}

#: Plain TMs the hunt adds as true-negative controls.
HUNT_CONTROLS = ("tl2", "norec")

#: ``repro hunt`` exit code when every seeded bug was caught.
HUNT_EXIT_CAUGHT = 1


def expected_holds(tm: str, prop: str) -> bool:
    """Whether ``tm``'s language is inside the ``prop`` specification."""
    if "/" in tm:
        if not MUTANT_BUG[tm]:
            return True
        return prop == "ss" and tm in OPACITY_ONLY
    return tm not in TABLE2_VIOLATORS


def expected_hunt_exit(tms) -> int:
    return HUNT_EXIT_CAUGHT if any(MUTANT_BUG.get(t, False) for t in tms) else 0


# ----------------------------------------------------------------------
# Reading the CLI's answers
# ----------------------------------------------------------------------

_CELL_SPLIT = re.compile(r"\s{2,}")


def _last_row(stdout: str):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return _CELL_SPLIT.split(lines[-1].strip()) if lines else []


def safety_verdict(stdout: str) -> Optional[bool]:
    """The holds/violated cell of a one-TM, one-property ``repro
    safety`` table, or None when the output is not such a table."""
    row = _last_row(stdout)
    if len(row) != 2 or row[1][:2] not in ("Y,", "N,"):
        return None
    return row[1].startswith("Y")


def liveness_verdicts(stdout: str) -> Optional[Tuple[bool, bool, bool]]:
    """(OF, LF, WF) of a one-row ``repro liveness`` table, or None."""
    row = _last_row(stdout)
    if len(row) != 5 or any(c[:2] not in ("Y,", "N,") for c in row[2:]):
        return None
    return tuple(c.startswith("Y") for c in row[2:])  # type: ignore[return-value]
