"""Per-cell supervision: isolate, bound, retry, degrade.

Each campaign cell runs ``check_safety`` in its own subprocess: a hang,
an OOM kill, or a crash takes down only the child, and the supervisor's
wall clock is the one bound that covers *every* failure shape.  The
child reports back over a pipe; the parent waits
with ``poll(timeout)`` **before** joining (join-first deadlocks when
the result exceeds the pipe buffer).

Retry policy: a faulted attempt (timeout, crash, memory, exception) is
retried up to ``retries`` times with exponential backoff, degrading the
configuration first — a warm ``cache_dir`` falls back to cold — so a
fault in the cache layer cannot fail a cell that the plain cold path
can finish.  Degradation never changes verdicts: warm starts are
optimization-only (the repo-wide byte-identical contract).
A cell whose every attempt faults is recorded as ``timeout``/``error``
without aborting the campaign.

Fault injection (spec ``inject``, validated in :mod:`.spec`) exists so
the tests and the CI smoke can exercise exactly these paths: SIGKILL
the child, hang it, raise in it, or balloon its RSS, each on the first
N attempts only — the retry then demonstrates recovery.

``run_cell`` is also the **per-request entry point of the resident
daemon** (:mod:`repro.serve`): the daemon passes its resident tiered
cache backend as ``cache`` (the forked child inherits the in-memory
tier for free) and sets ``collect_warm=True`` so the child ships every
payload it *built* back over the result pipe — the daemon absorbs those
blobs into its resident tier, which is how warm state accumulates in a
process whose checks all run in throwaway children.

The campaign executor runs several cells at once, each ``run_cell`` in
its own thread; it hands them all one :class:`CellGroup`, which lets it
cancel every in-flight attempt at once (each attempt kills and reaps
its own child) and serializes forks against its journal writes and
progress output.

:func:`_attempt` is the one fork/wait/kill primitive: it supervises any
child target that reports through :func:`_report` (memory cap, message
or fault).  Besides cells it runs the campaign's spec prewarm
(:mod:`.runner`), whose children build a spec table and send back flat
int rows only, so the parent never holds the rich DFA its forked cells
would otherwise drag along.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
import time
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Tuple

#: Fault classes a single attempt can report.
FAULT_TIMEOUT = "timeout"
FAULT_CRASH = "crash"
FAULT_MEMORY = "memory"
FAULT_EXCEPTION = "exception"

#: Grace period for terminate before escalating to SIGKILL.
_TERM_GRACE_S = 5.0

#: Default ceiling on any single retry delay (decorrelated jitter can
#: otherwise triple its way to minutes on high retry counts).  Cells
#: override it with the validated ``backoff_cap_s`` policy key.
BACKOFF_CAP_S = 30.0


def interrupted_outcome() -> Dict[str, object]:
    """The journal entry body (sans ``type``/``id``) of a cell stopped
    mid-run by a drain; resume re-runs such cells."""
    return {
        "status": "interrupted",
        "result": None,
        "error": "interrupted mid-cell",
        "attempts": 0,
        "faults": [],
    }


class CellGroup:
    """Concurrently supervised cells that are cancelled as one.

    ``cancel()`` makes the group's read end readable for good: every
    attempt waiting on its child wakes, kills and reaps the child, and
    ``run_cell`` returns :func:`interrupted_outcome` instead of
    retrying.  ``fork_lock`` is held around each child's fork; a caller
    that writes a stream or the journal from another thread holds it
    too, so no child is forked while that thread owns a lock (a stream
    buffer's, the fault plane's) it could never release in the child.
    """

    def __init__(self) -> None:
        self._read_fd, self._write_fd = os.pipe()
        self.fork_lock = threading.Lock()

    def fileno(self) -> int:
        return self._read_fd

    def cancel(self) -> None:
        os.write(self._write_fd, b"x")

    @property
    def cancelled(self) -> bool:
        return bool(wait([self], 0))

    def sleep(self, seconds: float) -> None:
        """``time.sleep`` that a cancel cuts short."""
        wait([self], seconds)

    def close(self) -> None:
        os.close(self._read_fd)
        os.close(self._write_fd)


def _retry_delay(
    base_s: float, prev_s: float, rng=random.uniform,
    cap_s: float = BACKOFF_CAP_S,
) -> float:
    """The next retry delay: decorrelated jitter.

    ``uniform(base, prev * 3)`` capped at ``cap_s`` (the cell's
    ``backoff_cap_s`` policy, default :data:`BACKOFF_CAP_S`) — the
    expected delay still grows exponentially, but simultaneous faulted
    cells (or daemon requests all hit by the same dying pool) spread out
    instead of retrying in lockstep the way the old deterministic
    ``base * 2**attempt`` schedule made them.
    """
    return min(cap_s, rng(base_s, max(base_s, prev_s * 3)))


def _apply_memory_cap(memory_mb: Optional[int]) -> None:
    if not memory_mb:
        return
    try:
        import resource

        limit = int(memory_mb) * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ImportError, ValueError, OSError):
        # Platform without rlimits (or a cap below the current usage):
        # the wall-clock timeout still bounds the attempt.  Anything
        # else — say a TypeError from a mangled policy value — is a
        # programming error and must surface as an ``exception`` fault,
        # not vanish here.
        pass


def _apply_injections(inject: Dict[str, object], attempt: int) -> None:
    if attempt <= inject.get("sigkill_attempts", 0):
        os.kill(os.getpid(), signal.SIGKILL)
    if attempt <= inject.get("hang_attempts", 0):
        time.sleep(float(inject.get("hang_s", 3600)))
    if attempt <= inject.get("fail_attempts", 0):
        raise RuntimeError(f"injected failure (attempt {attempt})")
    alloc_mb = inject.get("alloc_mb")
    if alloc_mb:
        # Ballast to trip the RLIMIT_AS cap; kept alive via the raise
        # path only — a successful check frees it immediately.
        ballast = bytearray(int(alloc_mb) * 1024 * 1024)
        del ballast


def _resolve_cell_cache(cell: Dict[str, object], cache=None):
    """The warm cache a cell's check should use.

    ``cell["cache_dir"]`` gates warmth (the degradation ladder clears it
    for cold attempts); when a ``cache`` backend object is supplied (the
    daemon's resident tiered store, inherited by the forked child) it
    takes the place of whatever the cell names.
    """
    cache_dir = cell.get("cache_dir")
    if not cache_dir:
        return None
    if cache is not None:
        return cache
    backend = cell.get("cache_backend") or "disk"
    if backend == "disk":
        return cache_dir
    from ..cache import make_backend

    return make_backend(backend, cache_dir)


def _run_check(
    cell: Dict[str, object], cache=None
) -> Tuple[Dict[str, object], Dict[str, object], Optional[Dict[str, float]]]:
    """The actual check, in-process (the child body, minus plumbing).

    Returns ``(result, stats, profile)``: the canonical verdict payload
    (identical whether the check ran here, in a campaign cell, or behind
    the daemon), a small engine-introspection dict — ``safety_rows`` is
    the number of TM transition rows this run actually *built* (0 means
    the check was served entirely from warm state), ``warm_safety_rows``
    the rows restored from the cache — and the per-phase profile split
    when the cell asked for one (``profile: true``).
    """
    from ..checking import check_safety
    from ..cli import PROPERTIES, _make_tm
    from ..core.statements import format_word

    tm = _make_tm(
        cell["tm"], cell["n"], cell["k"], cell.get("manager")
    )
    profile: Optional[Dict[str, float]] = (
        {} if cell.get("profile") else None
    )
    res = check_safety(
        tm,
        PROPERTIES[cell["property"]],
        lazy_spec=bool(cell.get("lazy_spec")),
        compiled=bool(cell.get("compiled", True)),
        spec_compiled=bool(cell.get("spec_compiled", True)),
        dense_kernel=cell.get("dense_kernel"),
        cache_dir=_resolve_cell_cache(cell, cache),
        max_states=cell.get("max_states"),
        profile=profile,
    )
    result = {
        "tm_name": res.tm_name,
        "holds": res.holds,
        "counterexample": (
            None
            if res.counterexample is None
            else format_word(res.counterexample)
        ),
        "tm_states": res.tm_states,
        "spec_states": res.spec_states,
        "product_states": res.product_states,
        "seconds": round(res.seconds, 6),
    }
    stats: Dict[str, object] = {}
    if cell.get("compiled", True):
        from ..tm.compiled import compile_tm

        engine_stats = compile_tm(tm).stats()
        warm = engine_stats.get("warm_safety_rows", 0)
        stats = {
            "safety_rows": engine_stats["safety_rows"] - warm,
            "warm_safety_rows": warm,
        }
    return result, stats, profile


def _report(conn, memory_mb: Optional[int], body) -> None:
    """The child side of every supervised attempt: cap the address
    space, send ``body()``'s message back over ``conn`` — or the fault
    it raised — and close the pipe."""
    try:
        _apply_memory_cap(memory_mb)
        conn.send(body())
    except MemoryError:
        conn.send(
            {"ok": False, "fault": FAULT_MEMORY,
             "detail": "memory cap exceeded"}
        )
    except BaseException as exc:  # report, don't die silently
        # Full repr + raise site: a TypeError from a bad mutant must be
        # triageable from the journal alone, not conflated with checker
        # faults ("worker died" / "memory cap exceeded").
        detail = repr(exc)
        tb = getattr(exc, "__traceback__", None)
        if tb is not None:
            import traceback

            frames = traceback.extract_tb(tb)
            if frames:
                last_frame = frames[-1]
                detail += (
                    f" @ {os.path.basename(last_frame.filename)}"
                    f":{last_frame.lineno}"
                )
        conn.send(
            {"ok": False, "fault": FAULT_EXCEPTION, "detail": detail}
        )
    finally:
        conn.close()


def _cell_worker(
    conn,
    cell: Dict[str, object],
    attempt: int,
    cache=None,
    collect_warm: bool = False,
) -> None:
    def body() -> Dict[str, object]:
        _apply_injections(cell.get("inject") or {}, attempt)
        baseline = (
            cache.snapshot_keys()
            if collect_warm and cache is not None and cell.get("cache_dir")
            else None
        )
        result, stats, profile = _run_check(cell, cache)
        msg: Dict[str, object] = {
            "ok": True, "result": result, "stats": stats,
        }
        if profile is not None:
            msg["profile"] = {
                key: round(value, 6) for key, value in profile.items()
            }
        if baseline is not None:
            # Ship the payloads this child *built* back to the parent:
            # its forked copy of the resident tier dies with it.
            msg["warm"] = cache.export_blobs(exclude=baseline)
        return msg

    _report(conn, cell.get("memory_mb"), body)


def _degrade(cell: Dict[str, object]) -> Optional[str]:
    """Mutate ``cell`` one rung down the ladder; name the rung taken."""
    if cell.get("cache_dir"):
        cell["cache_dir"] = None
        return "cold"
    return None


def _attempt(
    target,
    args: tuple,
    timeout_s: float,
    group: Optional[CellGroup] = None,
) -> Dict[str, object]:
    """One supervised child: fork ``target(conn, *args)`` (which reports
    through :func:`_report`), and return its message — or a synthesized
    timeout/crash fault, or a plain ``{"ok": False}`` when ``group`` was
    cancelled mid-attempt.  The child is always reaped before return."""
    ctx = multiprocessing.get_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=target, args=(child_conn,) + args)
    if group is None:
        proc.start()
    else:
        with group.fork_lock:
            proc.start()
    child_conn.close()
    try:
        ready = wait(
            [parent_conn] if group is None else [parent_conn, group],
            timeout_s,
        )
        if not ready:
            proc.terminate()
            proc.join(_TERM_GRACE_S)
            if proc.is_alive():
                proc.kill()
                proc.join()
            return {
                "ok": False,
                "fault": FAULT_TIMEOUT,
                "detail": f"no result within {timeout_s:g}s",
            }
        if parent_conn not in ready:
            return {"ok": False}  # cancelled: ``finally`` kills the child
        try:
            msg = parent_conn.recv()
        except EOFError:
            proc.join()
            return {
                "ok": False,
                "fault": FAULT_CRASH,
                "detail": f"worker died (exit code {proc.exitcode})",
            }
        proc.join()
        return msg
    finally:
        parent_conn.close()
        if proc.is_alive():
            proc.kill()
            proc.join()


def run_cell(
    cell: Dict[str, object],
    *,
    cache=None,
    collect_warm: bool = False,
    group: Optional[CellGroup] = None,
) -> Dict[str, object]:
    """Run one cell to a journal entry (sans ``type``/``id``).

    Statuses: ``pass``/``fail`` from a completed check, ``timeout``
    when the final attempt hit the wall clock, ``error`` for any other
    exhausted fault.  ``faults`` records every failed attempt with the
    degradation rung the *next* attempt took.

    ``cache`` substitutes a live backend object for the cell's named
    ``cache_dir`` (the daemon's resident tiered store); with
    ``collect_warm=True`` a successful outcome carries a ``warm`` dict
    of the encoded payloads the child built, for the caller to absorb.
    The ``result`` payload itself never varies with these knobs — the
    byte-identity contract extends through the daemon.

    Once ``group`` is cancelled the in-flight attempt's child is killed
    and reaped, no retry starts, and the outcome is
    :func:`interrupted_outcome`.
    """
    cell = dict(cell)  # degradation mutates a private copy
    retries = int(cell.get("retries") or 0)
    backoff_s = float(cell.get("backoff_s") or 0.0)
    backoff_cap_s = float(cell.get("backoff_cap_s") or BACKOFF_CAP_S)
    retry_seed = cell.get("retry_seed")
    # A seeded cell draws its decorrelated jitter from a private PRNG,
    # making the whole retry schedule — and hence hunt wall-clock
    # behaviour under fault injection — reproducible end-to-end.
    rng = (
        random.Random(retry_seed).uniform
        if retry_seed is not None
        else random.uniform
    )
    faults: List[Dict[str, object]] = []
    attempts = 0
    last: Dict[str, object] = {}
    delay = backoff_s
    for attempt in range(1, retries + 2):
        attempts = attempt
        last = _attempt(
            _cell_worker, (cell, attempt, cache, collect_warm),
            float(cell.get("timeout_s") or 300.0), group,
        )
        if last.get("ok"):
            result = dict(last["result"])
            seconds = result.pop("seconds", None)
            outcome = {
                "status": "pass" if result["holds"] else "fail",
                "result": result,
                "error": None,
                "attempts": attempts,
                "faults": faults,
                "seconds": seconds,
            }
            if last.get("stats"):
                outcome["stats"] = last["stats"]
            if last.get("profile") is not None:
                outcome["profile"] = last["profile"]
            if collect_warm:
                outcome["warm"] = last.get("warm") or {}
            return outcome
        if group is not None and group.cancelled:
            return interrupted_outcome()
        degraded = _degrade(cell) if attempt <= retries else None
        faults.append(
            {
                "attempt": attempt,
                "class": last.get("fault", FAULT_EXCEPTION),
                "detail": last.get("detail", ""),
                "degraded": degraded,
            }
        )
        if attempt <= retries and backoff_s > 0:
            delay = _retry_delay(
                backoff_s, delay, rng, cap_s=backoff_cap_s
            )
            (time.sleep if group is None else group.sleep)(delay)
    status = (
        "timeout" if last.get("fault") == FAULT_TIMEOUT else "error"
    )
    return {
        "status": status,
        "result": None,
        "error": last.get("detail", ""),
        "attempts": attempts,
        "faults": faults,
        "seconds": None,
    }
