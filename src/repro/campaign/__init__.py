"""Fault-tolerant campaign execution (``repro batch`` / ``repro doctor``).

A *campaign* is a validated matrix of safety checks — TM × property ×
(n, k), with per-cell overrides — executed one cell at a time under a
supervisor (:mod:`.supervisor`) that isolates each check in its own
subprocess with a wall-clock timeout, an RSS cap, and bounded
retry-with-backoff that degrades warm→cold before
recording a still-failing cell as ``error`` and moving on.  Every
outcome is appended to an atomic JSONL journal (:mod:`.journal`) so an
interrupted campaign resumes exactly where it stopped, and the final
JSON/markdown reports (:mod:`.report`) are byte-identical whether or
not the campaign was interrupted.  :mod:`.doctor` is the companion
read-only cache-health scanner behind ``repro doctor``.
"""

from .chaos import (
    CHAOS_HARNESS,
    CHAOS_OK,
    CHAOS_USAGE,
    CHAOS_VIOLATIONS,
    build_trials,
    chaos_exit_code,
    default_schedule,
    render_chaos,
    run_chaos,
    run_chaos_cli,
)
from .doctor import DEFAULT_MAX_QUARANTINE, run_doctor
from .hunt import (
    HuntSpec,
    default_hunt_spec,
    load_hunt_spec,
    parse_hunt_spec,
    run_hunt,
)
from .hunt_report import (
    build_hunt_report,
    hunt_exit_code,
    render_hunt_json,
    render_hunt_markdown,
)
from .journal import Journal, JournalError
from .report import (
    EXIT_ERRORS,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
    build_report,
    render_markdown,
    report_exit_code,
)
from .runner import CampaignInterrupted, CampaignRun, run_campaign
from .spec import CampaignSpec, CampaignSpecError, load_spec, parse_spec
from .supervisor import run_cell

__all__ = [
    "CHAOS_HARNESS",
    "CHAOS_OK",
    "CHAOS_USAGE",
    "CHAOS_VIOLATIONS",
    "CampaignInterrupted",
    "CampaignRun",
    "CampaignSpec",
    "CampaignSpecError",
    "DEFAULT_MAX_QUARANTINE",
    "EXIT_ERRORS",
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_VIOLATIONS",
    "HuntSpec",
    "Journal",
    "JournalError",
    "build_trials",
    "chaos_exit_code",
    "default_schedule",
    "render_chaos",
    "run_chaos",
    "run_chaos_cli",
    "build_hunt_report",
    "build_report",
    "default_hunt_spec",
    "hunt_exit_code",
    "load_hunt_spec",
    "load_spec",
    "parse_hunt_spec",
    "render_hunt_json",
    "render_hunt_markdown",
    "run_hunt",
    "parse_spec",
    "render_markdown",
    "report_exit_code",
    "run_campaign",
    "run_cell",
    "run_doctor",
]
