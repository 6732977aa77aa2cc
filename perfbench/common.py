"""Shared plumbing: paths, child environments, timed processes, statistics."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
DRIVER = os.path.join(HERE, "driver.py")
PYTHON = sys.executable

#: Hard ceiling on any one child process; a run must end within 180 s.
CHILD_TIMEOUT_S = 170.0


def child_env() -> Dict[str, str]:
    """The environment every checker process gets: the checkout's
    ``src`` on the path and no inherited ``REPRO_*`` knobs (no fault
    schedule, no default cache directory)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def repro_argv(args: Sequence[str]) -> List[str]:
    """``python -m repro ARGS`` — the command a user types."""
    return [PYTHON, "-m", "repro", *args]


def driver_argv(args: Sequence[str]) -> List[str]:
    return [PYTHON, DRIVER, *args]


def spawn(argv: Sequence[str], stdout=None, stderr=None) -> subprocess.Popen:
    return subprocess.Popen(
        list(argv), stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT
    )


def reap(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S) -> Tuple[int, float]:
    """Wait for ``proc`` with ``wait4``: ``(exit code, peak RSS in MB)``.

    The peak covers the process and every descendant it reaped (forked
    check children of a supervisor or daemon).  A watchdog kills the
    process after ``timeout`` seconds.
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class Finished(NamedTuple):
    rc: int
    start: float
    wall: float
    rss_mb: float
    out: str
    err: str


def run_timed(argv: Sequence[str], timeout: float = CHILD_TIMEOUT_S) -> Finished:
    """Run one process to completion, timing it from spawn to reap."""
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(
        dir=WORK
    ) as err:
        start = time.perf_counter()
        proc = spawn(argv, stdout=out, stderr=err)
        rc, rss = reap(proc, timeout)
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        return Finished(
            rc, start, wall, rss,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
        )


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def tail(values: Sequence[float]) -> Tuple[float, int]:
    """``(value, percentile)``: the highest whole percentile with at
    least ten samples beyond it.  Below 20 samples no such percentile
    sits above the median, so the median is reported as p50."""
    n = len(values)
    pct = max(50, math.floor(100 * (1 - 10 / n))) if n >= 20 else 50
    return quantile(values, pct / 100), pct


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 when flat)."""
    if len(values) < 2:
        return 0.0
    mid = median(values)
    if mid == 0:
        return 0.0
    return (quantile(values, 0.75) - quantile(values, 0.25)) / mid


def digest(obj: object) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(dirpath, name)).st_size
            except OSError:
                pass
    return total


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint() -> Dict[str, object]:
    """What two runs must share to be comparable."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    commit: Optional[str] = None
    dirty: Optional[bool] = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": commit or "none",
        "git_dirty": dirty,
    }
