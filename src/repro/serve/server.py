"""The resident checker daemon: supervised checks behind a socket.

Threading model (one process, many threads, one forked child per
in-flight check):

* the **accept loop** (``serve_forever``, usually the main thread)
  hands each connection to a daemon *connection thread*;
* a connection thread reads request lines: ``health``/``stats``/
  ``shutdown`` are answered inline (introspection must work while the
  queue is full — that is its job), ``check`` requests are validated
  and offered to the **bounded admission queue** with ``put_nowait`` —
  a full queue answers ``busy`` immediately rather than buffering
  without bound;
* ``--workers`` **worker threads** pull admitted requests and run each
  through :func:`repro.campaign.supervisor.run_cell` — the same fault
  envelope as a campaign cell (wall-clock timeout, RSS cap, retry with
  the warm→cold degradation rung), executing in a
  forked subprocess so a SIGKILLed, hung, or OOM'd check fails only
  its own request;
* responses are written under a per-connection lock (a connection may
  have pipelined requests in flight; ``id`` disambiguates for the
  client, the lock keeps lines whole).

Warm state: a worker passes the resident store's backend into
``run_cell`` — the forked child inherits the hot tier copy-on-write —
and absorbs the blobs the child built back into the store when the
result comes home.  The ``result`` payload never depends on any of
this (byte-identity contract).

Drain: SIGTERM (or a ``shutdown`` request) closes the listener, lets
the admitted queue empty, waits for in-flight checks to finish or
fault, emits a final stats line, and returns 0.
"""

from __future__ import annotations

import os
import queue
import signal
import socket
import struct
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.faultplane import fault_check

from ..campaign.supervisor import (
    FAULT_CRASH,
    FAULT_EXCEPTION,
    FAULT_MEMORY,
    FAULT_TIMEOUT,
    run_cell,
)
from . import protocol
from .store import RESIDENT_MARKER, ResidentStore

#: Admitted-but-not-running requests the daemon will hold before
#: answering ``busy``.  Deliberately small: the client's retry loop is
#: the buffer, not the daemon's memory.
DEFAULT_QUEUE_DEPTH = 8

_FAULT_CLASSES = (
    FAULT_TIMEOUT, FAULT_CRASH, FAULT_MEMORY, FAULT_EXCEPTION,
)


class CheckServer:
    """One daemon: a listener, an admission queue, a worker pool."""

    def __init__(
        self,
        *,
        socket_path: Optional[str] = None,
        port: Optional[int] = None,
        host: str = "127.0.0.1",
        workers: int = 1,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        store: Optional[ResidentStore] = None,
        defaults: Optional[Dict[str, object]] = None,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError(
                "exactly one of socket_path / port is required"
            )
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.workers = max(1, int(workers))
        self.queue_depth = max(1, int(queue_depth))
        self.store = store if store is not None else ResidentStore()
        self.defaults = dict(defaults or {})
        self._log = log or (
            lambda line: print(line, file=sys.stderr, flush=True)
        )
        self._queue: "queue.Queue" = queue.Queue(
            maxsize=self.queue_depth
        )
        self._draining = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._inflight = 0
        self._requests: Dict[str, int] = {
            "total": 0, "pass": 0, "fail": 0, "timeout": 0,
            "error": 0, "busy": 0, "protocol_error": 0,
        }
        self._faults: Dict[str, int] = {
            name: 0 for name in _FAULT_CLASSES
        }
        # Chaos-plane wire injections ({"serve.send:reset": n, ...});
        # surfaced in stats so no injected wire fault is silent.
        self._wire_faults: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bind(self) -> None:
        """Create and listen on the daemon's socket."""
        if self._listener is not None:
            return
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            sock.bind(self.socket_path)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, int(self.port or 0)))
            self.port = sock.getsockname()[1]
        sock.listen(16)
        # A blocked accept() is not reliably woken by close() from
        # another thread (shutdown-request drain); poll instead.
        sock.settimeout(0.2)
        self._listener = sock

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return self.socket_path
        return f"{self.host}:{self.port}"

    def initiate_drain(self) -> None:
        """Stop accepting; let in-flight work finish (idempotent)."""
        if self._draining.is_set():
            return
        self._draining.set()
        listener = self._listener
        if listener is not None:
            try:
                listener.close()  # unblocks the accept loop
            except OSError:
                pass

    def serve_forever(self, install_signals: bool = True) -> int:
        """Run until drained; returns the process exit code (0)."""
        self.bind()
        if install_signals:
            signal.signal(
                signal.SIGTERM, lambda s, f: self.initiate_drain()
            )
            signal.signal(
                signal.SIGINT, lambda s, f: self.initiate_drain()
            )
        workers = [
            threading.Thread(
                target=self._worker, name=f"serve-worker-{i}",
                daemon=True,
            )
            for i in range(self.workers)
        ]
        for thread in workers:
            thread.start()
        self._log(f"serve: listening on {self.address}")
        while not self._draining.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue  # re-check the draining flag
            except OSError:
                break  # listener closed by initiate_drain
            conn.settimeout(None)  # inherit no accept-poll timeout
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                daemon=True,
            ).start()
        # Drain: admitted requests run to completion (each bounded by
        # its own supervised timeout), then the workers see
        # draining+empty and exit.
        for thread in workers:
            thread.join()
        # A request admitted in the razor-thin window after the workers
        # exited would otherwise hang its client forever.
        while True:
            try:
                request_id, _cell, _warm, conn, wlock = (
                    self._queue.get_nowait()
                )
            except queue.Empty:
                break
            with self._lock:
                self._requests["busy"] += 1
            self._send(
                conn, wlock,
                protocol.busy_response(request_id, "daemon is draining"),
            )
            self._queue.task_done()
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        self._log(
            "serve: drained "
            + protocol.encode(self.stats_record()).decode().rstrip()
        )
        return 0

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def _note_wire_fault(self, fault) -> None:
        with self._lock:
            label = f"{fault.site}:{fault.fault}"
            self._wire_faults[label] = (
                self._wire_faults.get(label, 0) + 1
            )

    def _send(self, conn, wlock, record: Dict[str, object]) -> None:
        payload = protocol.encode(record)
        fault = fault_check("serve.send", f"server:{record.get('op')}")
        if fault is not None:
            self._note_wire_fault(fault)
            fault.stall()
        try:
            with wlock:
                if fault is not None and fault.fault == "partial_send":
                    # A torn NDJSON line followed by EOF: the client
                    # must reject it cleanly, never hang on it.
                    conn.sendall(fault.torn(payload))
                    self._drop(conn)
                    return
                if fault is not None and fault.fault == "reset":
                    # SO_LINGER(on, 0) makes a TCP drop an RST, not a
                    # FIN; on AF_UNIX the shutdown below is the drop.
                    try:
                        conn.setsockopt(
                            socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0),
                        )
                    except OSError:
                        pass
                    self._drop(conn)
                    return
                if fault is not None and fault.fault == "eio":
                    self._drop(conn)  # the response is simply lost
                    return
                conn.sendall(payload)
        except OSError:
            pass  # client went away; its request already ran

    @staticmethod
    def _drop(conn) -> None:
        """Tear the connection down *now*.

        ``conn.close()`` alone is deferred while the connection's
        reader thread still holds its ``makefile`` handle (socket
        ``_io_refs``), so a blocked client would never see the drop;
        ``shutdown`` acts on the kernel fd immediately.
        """
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            conn.close()
        except OSError:
            pass

    def _serve_connection(self, conn: socket.socket) -> None:
        wlock = threading.Lock()
        reader = conn.makefile("rb")
        try:
            for line in self._lines(reader):
                if not line.strip():
                    continue
                try:
                    request = protocol.parse_request(line)
                except protocol.ProtocolError as exc:
                    with self._lock:
                        self._requests["protocol_error"] += 1
                    self._send(
                        conn, wlock,
                        protocol.error_response(None, str(exc)),
                    )
                    continue
                op = request["op"]
                if op == "health":
                    self._send(conn, wlock, self.health_record())
                elif op == "stats":
                    self._send(conn, wlock, self.stats_record())
                elif op == "shutdown":
                    self._send(
                        conn, wlock,
                        {"op": "shutdown", "ok": True,
                         "id": request.get("id")},
                    )
                    self.initiate_drain()
                else:
                    self._admit(conn, wlock, request)
        finally:
            try:
                reader.close()
                conn.close()
            except OSError:
                pass

    def _lines(self, reader):
        """Request lines until EOF — a client resetting its connection
        mid-read (ECONNRESET) is an EOF, not a thread obituary."""
        while True:
            fault = fault_check("serve.recv", "server:recv")
            if fault is not None:
                self._note_wire_fault(fault)
                fault.stall()
                if fault.fault in ("reset", "eio"):
                    return  # injected connection loss: EOF semantics
            try:
                line = reader.readline()
            except OSError:
                return
            if not line:
                return
            yield line

    def _admit(self, conn, wlock, request: Dict[str, object]) -> None:
        request_id = request.get("id")
        try:
            cell, warm = protocol.build_cell(request, self.defaults)
        except protocol.ProtocolError as exc:
            with self._lock:
                self._requests["protocol_error"] += 1
            self._send(
                conn, wlock,
                protocol.error_response(request_id, str(exc)),
            )
            return
        if self._draining.is_set():
            with self._lock:
                self._requests["busy"] += 1
            self._send(
                conn, wlock,
                protocol.busy_response(request_id, "daemon is draining"),
            )
            return
        try:
            self._queue.put_nowait((request_id, cell, warm, conn, wlock))
        except queue.Full:
            with self._lock:
                self._requests["busy"] += 1
            self._send(
                conn, wlock, protocol.busy_response(request_id)
            )

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            try:
                item = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self._draining.is_set():
                    return
                continue
            try:
                self._handle_check(*item)
            finally:
                self._queue.task_done()

    def _handle_check(
        self, request_id, cell, warm: bool, conn, wlock
    ) -> None:
        with self._lock:
            self._inflight += 1
        try:
            cache = None
            if warm:
                # The marker rides the degradation ladder (warm->cold
                # clears it); the supervisor swaps in the live backend.
                cell = dict(cell)
                cell["cache_dir"] = RESIDENT_MARKER
                cache = self.store.backend
            outcome = run_cell(cell, cache=cache, collect_warm=warm)
            absorbed = self.store.absorb(outcome.pop("warm", None) or {})
            with self._lock:
                self._requests["total"] += 1
                status = outcome["status"]
                self._requests[status] = (
                    self._requests.get(status, 0) + 1
                )
                for fault in outcome.get("faults") or ():
                    name = fault.get("class", FAULT_EXCEPTION)
                    self._faults[name] = self._faults.get(name, 0) + 1
            response = protocol.check_response(request_id, outcome)
            if absorbed:
                self._log(
                    f"serve: absorbed {absorbed} warm payload(s) from"
                    f" {cell.get('id', 'request')}"
                )
        except Exception as exc:  # never let a worker die
            with self._lock:
                self._requests["total"] += 1
                self._requests["error"] += 1
            response = protocol.error_response(
                request_id, f"internal error: {exc!r}"
            )
        # Decrement before sending: a client that reads this response
        # and immediately asks for stats must not see itself in-flight.
        with self._lock:
            self._inflight -= 1
        self._send(conn, wlock, response)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def health_record(self) -> Dict[str, object]:
        with self._lock:
            inflight = self._inflight
        return {
            "op": "health",
            "ok": True,
            "draining": self._draining.is_set(),
            "inflight": inflight,
        }

    def stats_record(self) -> Dict[str, object]:
        with self._lock:
            requests = dict(self._requests)
            faults = dict(self._faults)
            wire_faults = dict(self._wire_faults)
            inflight = self._inflight
        return {
            "op": "stats",
            "ok": True,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "draining": self._draining.is_set(),
            "inflight": inflight,
            "queued": self._queue.qsize(),
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "requests": requests,
            "faults": faults,
            "wire_faults": wire_faults,
            "cache": self.store.stats(),
        }
