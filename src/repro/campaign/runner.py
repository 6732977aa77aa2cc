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

Signal drain: when SIGTERM/SIGINT lands mid-campaign (the CLI converts
SIGTERM into :class:`CampaignInterrupted`), the runner stops starting
cells, kills and reaps every in-flight child, and journals each
in-flight cell with status ``interrupted`` (keeping any outcome that
came back meanwhile) before the exception propagates, so orchestrators
that TERM a batch get a journal that names exactly where it stopped —
and resume *re-runs* interrupted cells rather than trusting a
half-finished outcome.  A :class:`~.journal.JournalError` stops the
same way, minus the journaling.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Callable, Dict, List, Optional

from .journal import Journal, JournalError
from .spec import CampaignSpec, CampaignSpecError
from .supervisor import CellGroup, interrupted_outcome, run_cell


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
    _execute(pending, width, journal, entries, lines, say)
    return CampaignRun(spec, entries)


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
    journal: Journal,
    entries: Dict[str, Dict[str, object]],
    lines: _SpecOrderLines,
    say: Callable[[str], None],
) -> None:
    """Run ``pending`` in spec order, at most ``width`` cells at once,
    journaling each outcome in the main thread as it returns."""
    results: "queue.Queue" = queue.Queue()
    group = CellGroup()
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
    finally:
        group.close()
