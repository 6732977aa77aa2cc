"""The campaign journal: an append-only JSONL outcome log.

Line 1 is a header naming the campaign and its spec digest; every
following line is one cell outcome, in the order cells *finished* (with
concurrent cells that is not spec order; reports re-key by spec order).
Only the campaign's main thread appends.  Appends are atomic at the OS
level (one ``write`` of one ``\\n``-terminated line on an ``O_APPEND``
file descriptor, fsynced before close), so a campaign killed mid-run
loses at most its in-flight cells — never a recorded one, and never the
file's integrity.  Loading tolerates a torn final line (a crash during the
append) by skipping unparseable lines; resume then simply re-runs the
cell whose record was torn.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.faultplane import fault_check


class JournalError(RuntimeError):
    """An append hit an I/O failure (ENOSPC, EIO, …).

    The campaign cannot safely continue without its outcome log, but it
    can fail *diagnosably*: the CLI turns this into exit 3 with a
    one-line message carrying the journal path and errno instead of an
    unhandled traceback.  Everything already journaled stays resumable.
    """

    def __init__(self, path: str, exc: OSError) -> None:
        name = getattr(exc, "strerror", None) or str(exc)
        code = exc.errno if exc.errno is not None else "?"
        super().__init__(
            f"journal append failed: {path} [errno {code}: {name}]"
        )
        self.path = path
        self.errno = exc.errno


class Journal:
    """One campaign's JSONL journal at ``path``."""

    def __init__(self, path: str) -> None:
        self.path = path

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def _append_line(self, obj: Dict[str, object]) -> None:
        line = json.dumps(obj, sort_keys=True) + "\n"
        payload = line.encode("utf-8")
        key = str(obj.get("id", obj.get("type", "")))
        fault = fault_check("journal.append", key)
        if fault is not None:
            fault.stall()
            if fault.fault == "torn_write":
                # A crash mid-append: some prefix of the record makes
                # it to disk, then the process dies from the journal's
                # point of view.  Persist the torn prefix so load()'s
                # skip-unparseable recovery is what gets exercised.
                payload = fault.torn(payload)
        try:
            fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        except OSError as exc:
            raise JournalError(self.path, exc) from exc
        try:
            if fault is not None:
                fault.raise_io(self.path)
            os.write(fd, payload)
            fsync_fault = fault_check("journal.fsync", key)
            if fsync_fault is not None:
                fsync_fault.stall()
                fsync_fault.raise_io(self.path)
                if fsync_fault.fault == "drop_fsync":
                    return  # fsync silently skipped: data may be lost
            os.fsync(fd)
        except OSError as exc:
            raise JournalError(self.path, exc) from exc
        finally:
            os.close(fd)

    def start(self, name: str, digest: str) -> None:
        """Truncate and write a fresh header."""
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "w", encoding="utf-8"):
            pass
        self._append_line(
            {"type": "campaign", "name": name, "digest": digest,
             "version": 1}
        )

    def append_cell(self, entry: Dict[str, object]) -> None:
        assert entry.get("type") == "cell" and "id" in entry
        self._append_line(entry)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def load(
        self,
    ) -> Tuple[Optional[Dict[str, object]], Dict[str, Dict[str, object]]]:
        """``(header, {cell_id: entry})``; ``(None, {})`` when absent.

        Unparseable lines (a torn tail from a crash mid-append) are
        skipped; for a duplicated cell id the *last* record wins.
        """
        header: Optional[Dict[str, object]] = None
        entries: Dict[str, Dict[str, object]] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:
            return None, {}
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(obj, dict):
                continue
            if obj.get("type") == "campaign" and header is None:
                header = obj
            elif obj.get("type") == "cell" and isinstance(
                obj.get("id"), str
            ):
                entries[obj["id"]] = obj
        return header, entries
