"""The campaign loop: journal-resumable, concurrent cell execution.

``run_campaign`` takes the spec's cells in order, skipping every cell
the journal already records (the resume path), and runs up to
``concurrency`` of the rest at once — each ``run_cell`` in its own
thread, each check in its own forked child.  The main thread owns the
journal, the progress lines and the signals: it appends each outcome
as soon as its supervisor returns (so the journal is in *completion*
order, and killing the process at any point loses at most the
in-flight cells), while progress lines come out in *spec* order.
Reports are keyed by spec order with ``seconds`` stripped, so they are
byte-identical at every concurrency.  ``limit`` runs only the first N
pending cells; the tests use it to simulate an interruption
deterministically (run 2 cells, "crash", resume, and compare reports).

Spec prewarm: the deterministic specification depends only on
``(n, k, property)``, never on the TM, so before starting any cell the
runner builds each spec table the pending cells would otherwise build
one child at a time (:func:`_prewarm_jobs` says which), ``width`` at
once, each in a supervised child under the strictest ``timeout_s`` and
``memory_mb`` of the cells that need it.  The child sends back flat
int rows only; the parent installs them into
:func:`~repro.spec.compiled.cached_spec_dfa` through the same
validation a warm-cache load applies, and every cell forked afterwards
inherits them copy-on-write.  The parent holds int rows only, never the
rich DFA: a rich DFA in the parent would leave every child's garbage
collector copying its pages, costing both the speed and the memory the
prewarm is for.  A faulted build is not retried; one progress line
names it and its cells build the table themselves, as they would
without the prewarm.

Signal drain: when SIGTERM/SIGINT lands mid-campaign (the CLI converts
SIGTERM into :class:`CampaignInterrupted`), the runner stops starting
cells, kills and reaps every in-flight child, and journals each
in-flight cell with status ``interrupted`` (keeping any outcome that
came back meanwhile) before the exception propagates, so orchestrators
that TERM a batch get a journal that names exactly where it stopped —
and resume *re-runs* interrupted cells rather than trusting a
half-finished outcome.  A :class:`~.journal.JournalError` stops the
same way, minus the journaling.  A drain during the prewarm kills its
children the same way, through the same :class:`CellGroup`, and stops
with no cell journaled.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Callable, Dict, List, Optional, Tuple

from .journal import Journal, JournalError
from .spec import CampaignSpec, CampaignSpecError
from .supervisor import (
    FAULT_EXCEPTION,
    CellGroup,
    _attempt,
    _report,
    interrupted_outcome,
    run_cell,
)


class CampaignInterrupted(BaseException):
    """A drain request (SIGTERM) — ``BaseException`` so no check-level
    ``except Exception`` can swallow it on the way out."""


class CampaignRun:
    """Everything a report needs: the spec plus the journal entries."""

    def __init__(
        self,
        spec: CampaignSpec,
        entries: Dict[str, Dict[str, object]],
    ) -> None:
        self.spec = spec
        self.entries = entries

    @property
    def complete(self) -> bool:
        return all(cell["id"] in self.entries for cell in self.spec.cells)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the
    platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_campaign(
    spec: CampaignSpec,
    journal_path: str,
    *,
    resume: bool = True,
    limit: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    concurrency: Optional[int] = None,
) -> CampaignRun:
    """Execute ``spec``, journaling to ``journal_path``.

    With ``resume`` (the default), an existing journal for the *same*
    spec digest replays its completed cells; a journal for a different
    digest raises :class:`CampaignSpecError` (start over with
    ``--no-resume`` or a fresh journal path).  ``resume=False`` always
    truncates.  Faulted cells never raise — every outcome, ``error``
    included, lands in the journal and the campaign moves on.

    ``concurrency`` bounds the cells in flight; ``None`` means one per
    usable CPU.  It is a run argument, not policy: it never enters the
    spec digest, so a journal resumes at any concurrency.
    """
    if concurrency is not None and concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, not {concurrency}")
    say = progress or (lambda _line: None)
    journal = Journal(journal_path)
    entries: Dict[str, Dict[str, object]] = {}
    if resume:
        header, entries = journal.load()
        if header is None:
            entries = {}
            journal.start(spec.name, spec.digest)
        elif header.get("digest") != spec.digest:
            raise CampaignSpecError(
                f"journal {journal_path} was written for a different"
                " campaign spec (digest mismatch); use --no-resume to"
                " start over"
            )
        # Drop journal entries for cells the spec no longer has (a
        # digest match makes this impossible, but stay defensive), and
        # re-run cells a previous run only got to interrupt.
        known = {cell["id"] for cell in spec.cells}
        entries = {
            k: v for k, v in entries.items()
            if k in known and v.get("status") != "interrupted"
        }
        if entries:
            say(f"resuming: {len(entries)} cell(s) replayed from journal")
    else:
        journal.start(spec.name, spec.digest)

    pending = [cell for cell in spec.cells if cell["id"] not in entries]
    if limit is not None:
        pending = pending[:limit]
    width = min(concurrency or _usable_cpus(), len(pending))
    lines = _SpecOrderLines(
        [cell["id"] for cell in pending], len(entries), len(spec.cells)
    )
    group = CellGroup()
    try:
        _prewarm(pending, width, group, say)
        _execute(pending, width, group, journal, entries, lines, say)
    finally:
        group.close()
    return CampaignRun(spec, entries)


#: A spec table's key: ``(n, k, property name)``.
SpecKey = Tuple[int, int, str]


def _prewarm_jobs(
    pending: List[Dict[str, object]],
) -> Dict[SpecKey, Tuple[float, Optional[int]]]:
    """The spec tables worth building before any cell starts, each with
    the strictest ``(timeout_s, memory_mb)`` of the cells that need it.

    A key qualifies when a pending cell takes the default all-int
    DFA-sided path without a ``cache_dir``, no pending warm cell needs
    the same table (so warm caches fill and fault exactly as before),
    and this process does not hold its rows already.
    """
    from ..cli import PROPERTIES
    from ..spec.compiled import cached_spec_dfa

    dfa_cells = [
        cell for cell in pending
        if not cell.get("lazy_spec")
        and cell.get("compiled", True)
        and cell.get("spec_compiled", True)
    ]

    def key(cell: Dict[str, object]) -> SpecKey:
        return (cell["n"], cell["k"], cell["property"])

    warm = {key(cell) for cell in dfa_cells if cell.get("cache_dir")}
    jobs: Dict[SpecKey, Tuple[float, Optional[int]]] = {}
    for cell in dfa_cells:
        n, k, prop = spec_key = key(cell)
        if spec_key in warm or (
            cached_spec_dfa(n, k, PROPERTIES[prop]).rows is not None
        ):
            continue
        timeout_s = float(cell.get("timeout_s") or 300.0)
        memory_mb = cell.get("memory_mb")
        if spec_key in jobs:
            prev_timeout_s, prev_memory_mb = jobs[spec_key]
            timeout_s = min(timeout_s, prev_timeout_s)
            memory_mb = min(
                filter(None, (memory_mb, prev_memory_mb)), default=None
            )
        jobs[spec_key] = (timeout_s, memory_mb)
    return jobs


def _spec_rows(n: int, k: int, prop: str) -> Dict[str, object]:
    """A prewarm child's message: one spec table as flat int rows plus
    its state count.  The rich DFA it is built from dies with the
    child."""
    from ..cli import PROPERTIES
    from ..spec.compiled import cached_spec_dfa

    table = cached_spec_dfa(n, k, PROPERTIES[prop]).ensure()
    flat, nstates = table.flat_rows()
    return {"ok": True, "rows": flat, "num_states": nstates}


def _spec_rows_worker(conn, key: SpecKey, memory_mb: Optional[int]) -> None:
    _report(conn, memory_mb, lambda: _spec_rows(*key))


def _prewarm(
    pending: List[Dict[str, object]],
    width: int,
    group: CellGroup,
    say: Callable[[str], None],
) -> None:
    """Build :func:`_prewarm_jobs`' tables, ``width`` supervised children
    at once, and install each into this process's
    :func:`~repro.spec.compiled.cached_spec_dfa` so every cell forked
    afterwards inherits it.  A faulted build is not retried: its cells
    build their own table, as without the prewarm.  A drain cancels the
    group, reaps the children and re-raises."""
    jobs = _prewarm_jobs(pending)
    if not jobs:
        return
    from ..cli import PROPERTIES
    from ..spec.compiled import cached_spec_dfa

    todo = list(jobs.items())
    results: "queue.Queue" = queue.Queue()

    def build() -> None:
        while not group.cancelled:
            try:
                spec_key, (timeout_s, memory_mb) = todo.pop()
            except IndexError:
                return
            try:
                msg = _attempt(
                    _spec_rows_worker, (spec_key, memory_mb), timeout_s,
                    group,
                )
            except Exception as exc:  # a failed fork is a faulted build
                msg = {"ok": False, "fault": FAULT_EXCEPTION,
                       "detail": repr(exc)}
            results.put((spec_key, msg))

    threads = [
        threading.Thread(target=build, name=f"prewarm-{i}", daemon=True)
        for i in range(min(width, len(jobs)))
    ]
    built: Dict[SpecKey, Dict[str, object]] = {}
    try:
        for thread in threads:
            thread.start()
        while len(built) < len(jobs):
            spec_key, msg = results.get()
            built[spec_key] = msg
    except BaseException:
        group.cancel()
        for thread in threads:
            thread.join()
        raise
    for thread in threads:
        thread.join()
    for n, k, prop in jobs:
        msg = built[(n, k, prop)]
        table = cached_spec_dfa(n, k, PROPERTIES[prop])
        if not msg.get("ok"):
            fault = msg.get("fault", FAULT_EXCEPTION)
        elif table.install(msg.get("rows"), msg.get("num_states")):
            continue
        else:
            fault = "rejected"
        say(f"prewarm {n}x{k}/{prop}: {fault}; its cells build the table"
            " themselves")


def _result_text(entry: Dict[str, object]) -> str:
    if entry["status"] == "interrupted":
        return "interrupted (journaled; resume re-runs it)"
    nfaults = len(entry.get("faults") or ())
    suffix = f" ({nfaults} fault(s))" if nfaults else ""
    return f"{entry['status']}{suffix}"


class _SpecOrderLines:
    """Progress in spec order, whatever order cells finish in.

    Each cell gets ``[i/N] id ...`` once it has started and the previous
    cell's result line is out, then ``    -> status`` once it has
    finished — so at concurrency 1 the output is the serial loop's.
    ``started``/``finished`` return the lines that became due.
    """

    def __init__(self, ids: List[str], replayed: int, total: int):
        self._ids = ids
        self._replayed = replayed
        self._total = total
        self._started = 0
        self._results: Dict[int, str] = {}
        self._announced = 0
        self._next = 0

    def started(self) -> List[str]:
        self._started += 1
        return self._due()

    def finished(self, index: int, text: str) -> List[str]:
        self._results[index] = text
        return self._due()

    def _due(self) -> List[str]:
        due: List[str] = []
        while self._next < self._started:
            if self._announced == self._next:
                due.append(
                    f"[{self._replayed + self._next + 1}/{self._total}]"
                    f" {self._ids[self._next]} ..."
                )
                self._announced += 1
            if self._next not in self._results:
                break
            due.append(f"    -> {self._results.pop(self._next)}")
            self._next += 1
        return due


def _execute(
    pending: List[Dict[str, object]],
    width: int,
    group: CellGroup,
    journal: Journal,
    entries: Dict[str, Dict[str, object]],
    lines: _SpecOrderLines,
    say: Callable[[str], None],
) -> None:
    """Run ``pending`` in spec order, at most ``width`` cells at once,
    journaling each outcome in the main thread as it returns."""
    results: "queue.Queue" = queue.Queue()
    threads: List[threading.Thread] = []
    in_flight = set()

    # The main thread journals and prints under ``fork_lock``: a child
    # forked meanwhile would inherit a stream or fault-plane lock held
    # by a thread that does not exist in it.
    def emit(due: List[str]) -> None:
        with group.fork_lock:
            for line in due:
                say(line)

    def work(index: int) -> None:
        try:
            outcome = run_cell(pending[index], group=group)
        except BaseException as exc:  # re-raised by the main thread
            results.put((index, None, exc))
        else:
            results.put((index, outcome, None))

    def record(index: int, outcome: Dict[str, object]) -> None:
        entry = {"type": "cell", "id": pending[index]["id"]}
        entry.update(outcome)
        with group.fork_lock:
            journal.append_cell(entry)
        entries[entry["id"]] = entry
        emit(lines.finished(index, _result_text(entry)))

    def start_next() -> None:
        index = len(threads)
        thread = threading.Thread(
            target=work, args=(index,), name=f"cell-{index}", daemon=True
        )
        in_flight.add(index)
        threads.append(thread)
        thread.start()
        emit(lines.started())

    try:
        while len(threads) < width:
            start_next()
        while in_flight:
            index, outcome, exc = results.get()
            if exc is not None:
                raise exc
            in_flight.discard(index)
            record(index, outcome)
            if len(threads) < len(pending):
                start_next()
    except BaseException as exc:
        # Stop: no new cells, every in-flight child killed and reaped
        # (each by its own thread), then every in-flight cell journaled
        # — with the outcome it returned, else as interrupted.
        group.cancel()
        for thread in threads:
            thread.join()
        if not isinstance(exc, JournalError):
            returned = {}
            while not results.empty():
                index, outcome, _exc = results.get_nowait()
                returned[index] = outcome
            for index in sorted(in_flight):
                record(index, returned.get(index) or interrupted_outcome())
        raise
