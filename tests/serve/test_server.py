"""Daemon lifecycle: conformance, resident warmth, isolation, drain.

In-process tests run the accept loop in a thread against a loopback
TCP port (0 = ephemeral); the subprocess tests exercise the real CLI
over an AF_UNIX socket, including kill -9 + restart re-hydration and
SIGTERM drain.  Checks are tiny (2,1) instances so each supervised
fork round-trip stays fast.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.campaign.supervisor import run_cell
from repro.serve import CheckServer, ResidentStore, ServeClient
from repro.serve.protocol import encode, parse_request

DEFAULTS = {"timeout_s": 60, "retries": 1, "backoff_s": 0}


class _Daemon:
    """An in-process daemon: server thread + exit-code capture."""

    def __init__(self, **kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("defaults", DEFAULTS)
        kwargs.setdefault("log", lambda _line: None)
        self.server = CheckServer(**kwargs)
        self.server.bind()
        self.exit_code = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        self.exit_code = self.server.serve_forever(
            install_signals=False
        )

    def client(self, **kwargs):
        return ServeClient(port=self.server.port, **kwargs)

    def stop(self, timeout=60):
        self.server.initiate_drain()
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "daemon failed to drain"
        return self.exit_code

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        if self.thread.is_alive():
            self.stop()


def _check(client, **request):
    request.setdefault("tm", "dstm")
    request.setdefault("property", "ss")
    request.setdefault("n", 2)
    request.setdefault("k", 1)
    return client.check(request)


# ----------------------------------------------------------------------
# Conformance: byte-identical to the one-shot path, warm or cold
# ----------------------------------------------------------------------


def test_daemon_verdicts_byte_identical_across_axes(tmp_path):
    # the supervised one-shot reference (itself pinned against
    # check_safety in the campaign tests)
    from repro.campaign.spec import expand_cell

    reference = {}
    for tm, prop in (("dstm", "ss"), ("modtl2", "op")):
        cell = expand_cell(
            {"tm": tm, "property": prop, "n": 2, "k": 1}, DEFAULTS
        )
        reference[tm, prop] = run_cell(cell)["result"]

    with _Daemon(
        store=ResidentStore(str(tmp_path / "cold"), "mmap"), workers=2
    ) as daemon:
        with daemon.client() as client:
            for tm, prop in reference:
                for warm in (True, False):
                    record = _check(
                        client, tm=tm, property=prop, warm=warm
                    )
                    assert record["status"] in ("pass", "fail")
                    assert record["result"] == reference[tm, prop], (
                        f"{tm}/{prop} warm={warm}"
                    )
                    # canonical encoding: byte-identical lines
                    assert encode(
                        {"result": record["result"]}
                    ) == encode(
                        {"result": reference[tm, prop]}
                    )


def test_second_identical_request_hits_resident_tier():
    with _Daemon() as daemon:
        with daemon.client() as client:
            first = _check(client)
            assert first["status"] == "pass"
            assert first["stats"]["safety_rows"] > 0
            second = _check(client)
            assert second["result"] == first["result"]
            assert second["stats"]["safety_rows"] == 0
            assert second["stats"]["warm_safety_rows"] > 0
            stats = client.stats()
            assert stats["cache"]["keys"] > 0
            assert stats["requests"]["pass"] == 2


def test_concurrent_clients_byte_identical():
    with _Daemon(workers=2, queue_depth=16) as daemon:
        with daemon.client() as warmup:
            expected = {}
            for tm in ("seq", "dstm"):
                record = _check(warmup, tm=tm)
                assert record["status"] == "pass"
                expected[tm] = record["result"]

        results = []
        errors = []

        def hammer(tm, count):
            try:
                with daemon.client() as client:
                    for _ in range(count):
                        results.append(
                            (tm, _check(client, tm=tm))
                        )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(tm, 3))
            for tm in ("seq", "dstm", "seq", "dstm")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(results) == 12
        for tm, record in results:
            assert record["status"] == "pass"
            assert record["result"] == expected[tm]


# ----------------------------------------------------------------------
# Isolation and backpressure
# ----------------------------------------------------------------------


def test_injected_faults_fail_only_their_request():
    with _Daemon() as daemon:
        with daemon.client() as client:
            killed = _check(
                client, tm="seq",
                inject={"sigkill_attempts": 5}, retries=1,
            )
            assert killed["status"] == "error"
            assert [f["class"] for f in killed["faults"]] == [
                "crash", "crash"
            ]

            hung = _check(
                client, tm="seq",
                inject={"hang_attempts": 5, "hang_s": 60},
                timeout_s=1.0, retries=0,
            )
            assert hung["status"] == "timeout"

            ballooned = _check(
                client, tm="seq",
                inject={"alloc_mb": 512}, memory_mb=128, retries=0,
            )
            assert ballooned["status"] == "error"

            # the daemon took three faulted requests and kept serving
            clean = _check(client, tm="seq")
            assert clean["status"] == "pass"
            health = client.health()
            assert health["ok"] and not health["draining"]
            stats = client.stats()
            assert stats["faults"]["crash"] == 2
            assert stats["faults"]["timeout"] == 1


def test_corrupted_resident_payload_degrades_not_dies():
    with _Daemon() as daemon:
        with daemon.client() as client:
            first = _check(client)
            assert first["status"] == "pass"
            # poison every resident blob: loads now reject (and
            # quarantine), which must read as a cold rebuild, never an
            # error or a changed verdict
            hot = daemon.server.store.backend.hot
            for key in hot.snapshot_keys():
                hot.put_blob_if_changed(key, b"\x80garbage not pickle")
            again = _check(client)
            assert again["status"] == "pass"
            assert again["result"] == first["result"]
            assert again["stats"]["safety_rows"] > 0  # rebuilt cold
            assert client.health()["ok"]


def test_queue_full_answers_busy():
    with _Daemon(workers=1, queue_depth=1) as daemon:
        hang = dict(
            tm="seq", property="ss", n=2, k=1,
            inject={"hang_attempts": 1, "hang_s": 60},
            timeout_s=3.0, retries=0,
        )
        def _await(poll, predicate, what):
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = poll.stats()
                if predicate(stats):
                    return
                time.sleep(0.05)
            pytest.fail(f"daemon never {what}: {stats}")

        # fill the worker first, then the one queue slot: admission
        # capacity counts *waiting* requests, so the sends must be
        # sequenced for the overflow to be deterministic
        blocked = [daemon.client(), daemon.client()]
        with daemon.client() as poll:
            blocked[0]._sock.sendall(encode(dict(hang, op="check")))
            _await(
                poll,
                lambda s: s["inflight"] == 1 and s["queued"] == 0,
                "started the first hang",
            )
            blocked[1]._sock.sendall(encode(dict(hang, op="check")))
            _await(
                poll, lambda s: s["queued"] == 1, "queued the second"
            )
            rejected = _check(poll, tm="seq", id="overflow")
            assert rejected["status"] == "busy"
            assert rejected["id"] == "overflow"
            assert poll.stats()["requests"]["busy"] == 1
        # the blocked requests still complete (as timeouts) — nothing
        # was lost, only the overflow was refused
        for client in blocked:
            with client:
                response = json.loads(
                    client._reader.readline().decode()
                )
                assert response["status"] == "timeout"


def test_drain_finishes_inflight_and_refuses_new(tmp_path):
    daemon = _Daemon(workers=1)
    with daemon.client() as client:
        assert _check(client, tm="seq")["status"] == "pass"
        record = client.shutdown()
        assert record["ok"] is True
        late = _check(client, tm="seq", id="late")
        assert late["status"] == "busy"
        assert "draining" in late["error"]
    assert daemon.stop() == 0
    final = daemon.server.stats_record()
    assert final["requests"]["pass"] == 1
    assert final["requests"]["busy"] == 1


def test_protocol_errors_answered_inline():
    with _Daemon() as daemon:
        with daemon.client() as client:
            bad = client.request({"op": "check", "tm": "dstm"})
            assert bad["op"] == "error"
            assert "missing 'property'" in bad["error"]
            worse = client.request({"op": "check", "tm": "dstm",
                                    "property": "ss", "cache_dir": "x"})
            assert worse["op"] == "error"
            assert client.stats()["requests"]["protocol_error"] == 2
            # raw garbage on the wire is also answered, not fatal
            client._sock.sendall(b"{not json\n")
            line = json.loads(client._reader.readline().decode())
            assert line["op"] == "error"
            assert client.health()["ok"]


# ----------------------------------------------------------------------
# Subprocess: the real CLI daemon over AF_UNIX
# ----------------------------------------------------------------------


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        "src" + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    return env


def _spawn_daemon(sock, cache_dir):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", sock, "--cache-dir", cache_dir,
         "--cache-backend", "mmap", "--timeout-s", "60",
         "--retries", "1", "--quiet"],
        env=_env(),
    )


@pytest.mark.slow
def test_kill9_restart_rehydrates_from_cold_tier(tmp_path):
    sock = str(tmp_path / "serve.sock")
    cache_dir = str(tmp_path / "segments")
    daemon = _spawn_daemon(sock, cache_dir)
    try:
        with ServeClient(socket_path=sock, connect_timeout=30) as client:
            first = _check(client)
            assert first["status"] == "pass"
            assert first["stats"]["safety_rows"] > 0
        os.kill(daemon.pid, signal.SIGKILL)
        daemon.wait(timeout=30)
        assert daemon.returncode == -signal.SIGKILL
    finally:
        if daemon.poll() is None:  # pragma: no cover - cleanup
            daemon.kill()

    # restart against the same segments: the first request re-hydrates
    # through the cold tier instead of recomputing
    daemon = _spawn_daemon(sock, cache_dir)
    try:
        with ServeClient(socket_path=sock, connect_timeout=30) as client:
            again = _check(client)
            assert again["status"] == "pass"
            assert again["result"] == first["result"]
            assert again["stats"]["safety_rows"] == 0
            assert again["stats"]["warm_safety_rows"] > 0
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=30) == 0
        assert not os.path.exists(sock)  # drain removed the socket
    finally:
        if daemon.poll() is None:  # pragma: no cover - cleanup
            daemon.kill()


@pytest.mark.slow
def test_cli_client_mode_and_sigterm_drain(tmp_path):
    sock = str(tmp_path / "serve.sock")
    cache_dir = str(tmp_path / "segments")
    request_file = tmp_path / "requests.json"
    request_file.write_text(json.dumps([
        {"id": "a", "tm": "dstm", "property": "ss", "n": 2, "k": 1},
        {"id": "b", "tm": "dstm", "property": "ss", "n": 2, "k": 1},
    ]))
    daemon = _spawn_daemon(sock, cache_dir)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--check-request", str(request_file)],
            env=_env(), capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        lines = [json.loads(l) for l in out.stdout.splitlines()]
        assert [l["id"] for l in lines] == ["a", "b"]
        assert all(l["status"] == "pass" for l in lines)
        assert lines[0]["result"] == lines[1]["result"]
        assert lines[1]["stats"]["safety_rows"] == 0

        health = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--health"],
            env=_env(), capture_output=True, text=True, timeout=60,
        )
        assert health.returncode == 0
        assert json.loads(health.stdout)["ok"] is True

        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=30) == 0
    finally:
        if daemon.poll() is None:  # pragma: no cover - cleanup
            daemon.kill()


def test_parse_request_accepts_client_encoding():
    # the client and server agree on the line format end to end
    line = encode({"op": "check", "tm": "dstm", "property": "ss"})
    request = parse_request(line)
    assert request["tm"] == "dstm"
