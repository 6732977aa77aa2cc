"""The four workloads: inputs from a seed, a set-up, a closed-loop timed pass.

Every workload offers the same four calls:

``ops(seed)``
    the generated inputs (a list of JSON-able dicts; same seed, same list);
``setup(work, ops, trace_dir=None)``
    bring the system to its ready state in a fresh directory under
    ``work`` — this is what ``setup_s`` times;
``discard(state)``
    undo a set-up that will not be measured;
``measure(state, ops, seconds, limit=None, trace_dir=None)``
    run ops in order until ``seconds`` have passed (or exactly ``limit``
    ops), checking each verdict against :mod:`known`; returns a
    :class:`Pass`.  With ``trace_dir`` the checker processes run under
    the span hooks of :mod:`tracing` and write their spans there.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from typing import Dict, List, NamedTuple

import known
from common import (
    CHILD_TIMEOUT_S,
    PYTHON,
    ROOT,
    SRC,
    driver_argv,
    reap,
    repro_argv,
    run_timed,
    spawn,
)
from tracing import root_span


class SetupError(RuntimeError):
    """The workload could not reach its ready state."""


class Pass(NamedTuple):
    results: List[Dict[str, object]]  # one per attempted op
    window_s: float                   # wall time the ops took
    rss_mb: float                     # peak RSS of the checker processes
    roots: List[Dict[str, object]]    # op spans timed by the benchmark
    extra: Dict[str, object]


def _outcome(op_id: str, start: float, wall: float, ok: bool,
             mismatch: bool = False, detail: str = "", **more):
    return dict(id=op_id, start=start, wall=wall, ok=ok, mismatch=mismatch,
                detail=detail, **more)


def _fresh(work: str, stem: str) -> str:
    for i in range(1000):
        path = os.path.join(work, f"{stem}{i}")
        if not os.path.exists(path):
            os.makedirs(path)
            return path
    raise SetupError(f"no free directory for {stem} under {work}")


def _stratified(pool: List[dict], rng: random.Random, count: int) -> List[dict]:
    """Whole shuffled copies of ``pool`` back to back, so every stretch
    of ops carries nearly the same mix whatever the seed."""
    out: List[dict] = []
    while len(out) < count:
        block = list(pool)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def _sequential(ops, argv_for, check, seconds, limit, trace_dir) -> Pass:
    """One client running ``repro`` command lines back to back."""
    results: List[Dict[str, object]] = []
    roots: List[Dict[str, object]] = []
    rss = 0.0
    deadline = time.perf_counter() + seconds
    for i, op in enumerate(ops):
        if limit is not None:
            if i >= limit:
                break
        elif results and time.perf_counter() >= deadline:
            break
        args = argv_for(op)
        argv = (
            repro_argv(args) if trace_dir is None
            else driver_argv(["cli", "--trace", trace_dir, "--op", str(i),
                              "--", *args])
        )
        fin = run_timed(argv)
        ok, mismatch, detail = check(op, fin)
        results.append(_outcome(str(i), fin.start, fin.wall, ok, mismatch,
                                detail))
        roots.append(root_span(str(i), fin.start, fin.start + fin.wall))
        rss = max(rss, fin.rss_mb)
    last = results[-1]
    window = last["start"] + last["wall"] - results[0]["start"]
    return Pass(results, window, rss, roots, {})


def _check_cli(op, fin):
    """``(ok, mismatch, detail)`` for one ``repro safety|liveness`` run."""
    if op["kind"] == "safety":
        want = known.expected_holds(op["tm"], op["prop"])
        got = known.safety_verdict(fin.out)
        want_rc = 0 if want else 1
    else:
        want = known.TABLE3[(op["tm"], op.get("manager"))]
        got = known.liveness_verdicts(fin.out)
        want_rc = 0 if all(want) else 1
    if got is None:
        return False, False, f"exit {fin.rc}, no verdict: {fin.err[-300:]}"
    if got != want:
        return False, True, f"verdict {got}, known answer {want}"
    if fin.rc != want_rc:
        return False, False, f"exit {fin.rc}, expected {want_rc}"
    return True, False, ""


def _check_args(op) -> List[str]:
    if op["kind"] == "safety":
        args = ["safety", op["tm"], "-p", op["prop"]]
        return args + ["--lazy-spec"] if op.get("lazy") else args
    args = ["liveness", op["tm"]]
    return args + ["-m", op["manager"]] if op.get("manager") else args


# ----------------------------------------------------------------------
# cli-warm
# ----------------------------------------------------------------------


class CliWarm:
    """Sequential one-shot ``repro safety|liveness`` against a warm cache."""

    name = "cli-warm"
    setup_reps = 3
    # The costliest cold builds (eager dstm/norec/tl2/modtl2, lazy tl2)
    # are left out so that set-up, which runs three times, stays short.
    EAGER = ("seq", "2pl", "opt")
    LAZY = ("seq", "2pl", "dstm", "opt", "norec", "modtl2")
    BACKENDS = ("disk", "mmap")

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke

    def checks(self) -> List[dict]:
        """The distinct checks, before the backend is chosen."""
        if self.smoke:
            return [
                dict(kind="safety", tm="2pl", prop="ss", lazy=False),
                dict(kind="safety", tm="modtl2", prop="op", lazy=True),
                dict(kind="liveness", tm="dstm", manager="aggressive"),
            ]
        out = [dict(kind="safety", tm=tm, prop=p, lazy=False)
               for tm in self.EAGER for p in ("ss", "op")]
        out += [dict(kind="safety", tm=tm, prop=p, lazy=True)
                for tm in self.LAZY for p in ("ss", "op")]
        out += [dict(kind="liveness", tm=tm, manager=mgr)
                for tm, mgr in known.TABLE3]
        return out

    def ops(self, seed: int) -> List[dict]:
        """Pairs of shuffled blocks of every check: the first block sends
        a seeded half of the checks to each backend, the second the
        other half, so any run holds nearly the same mix."""
        rng = random.Random(f"{self.name}:{seed}")
        checks = self.checks()
        out: List[dict] = []
        while len(out) < 1000:
            first = [self.BACKENDS[i % 2] for i in range(len(checks))]
            rng.shuffle(first)
            for flip in (0, 1):
                block = [
                    dict(c, backend=self.BACKENDS[(self.BACKENDS.index(b) + flip) % 2])
                    for c, b in zip(checks, first)
                ]
                rng.shuffle(block)
                out.extend(block)
        return out

    def setup(self, work, ops, trace_dir=None):
        base = _fresh(work, "cli")
        spec = os.path.join(base, "populate.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump([_check_args(c) for c in self.checks()], fh)
        dirs = {b: os.path.join(base, b) for b in self.BACKENDS}
        procs = [
            spawn(driver_argv(["populate", "--ops", spec, "--dir", dirs[b],
                               "--backend", b]), stdout=subprocess.DEVNULL)
            for b in self.BACKENDS
        ]
        codes = [reap(p)[0] for p in procs]
        if any(codes):
            raise SetupError(f"cache population exited {codes}")
        return {"dirs": dirs}

    def discard(self, state) -> None:
        pass

    def measure(self, state, ops, seconds, limit=None, trace_dir=None) -> Pass:
        def argv_for(op):
            return _check_args(op) + [
                "--cache-dir", state["dirs"][op["backend"]],
                "--cache-backend", op["backend"],
            ]

        return _sequential(ops, argv_for, _check_cli, seconds, limit,
                           trace_dir)


# ----------------------------------------------------------------------
# scale-2x3
# ----------------------------------------------------------------------


class Scale:
    """Sequential cold ``repro safety TM -n 2 -k 3 --lazy-spec``."""

    name = "scale-2x3"
    setup_reps = 5
    TMS = ("norec", "opt")

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke

    def ops(self, seed: int) -> List[dict]:
        pool = [dict(kind="safety", tm=tm, prop="ss", lazy=True)
                for tm in self.TMS]
        return _stratified(pool, random.Random(f"{self.name}:{seed}"), 100)

    def setup(self, work, ops, trace_dir=None):
        # Nothing to warm: the only preparation is a started checker.
        fin = run_timed([PYTHON, "-c", "import repro.cli"])
        if fin.rc != 0:
            raise SetupError(f"import repro.cli exited {fin.rc}: {fin.err}")
        return {}

    def discard(self, state) -> None:
        pass

    def measure(self, state, ops, seconds, limit=None, trace_dir=None) -> Pass:
        size = "2" if self.smoke else "3"

        def argv_for(op):
            return _check_args(op) + ["-n", "2", "-k", size]

        # One cold check per pass: it outlasts the window on its own, and
        # a second one would double the run whenever the first ends early.
        return _sequential(ops, argv_for, _check_cli, 0, limit, trace_dir)


# ----------------------------------------------------------------------
# hunt-cold
# ----------------------------------------------------------------------


class HuntCold:
    """One supervised hunt (mutants + controls x ss/op at (2,2)), no cache."""

    name = "hunt-cold"
    setup_reps = 5

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke

    def ops(self, seed: int) -> List[str]:
        if self.smoke:
            tms = ["2pl/no-rlock", "opt/read-ignores-ms", "norec"]
        else:
            tms = list(known.MUTANT_BUG) + list(known.HUNT_CONTROLS)
        random.Random(f"{self.name}:{seed}").shuffle(tms)
        return tms

    def setup(self, work, ops, trace_dir=None):
        base = _fresh(work, "hunt")
        spec = os.path.join(base, "tms.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(ops, fh)
        fin = run_timed(driver_argv(["hunt", "--ops", spec, "--prepare-only"]))
        if fin.rc != 0:
            raise SetupError(f"hunt driver exited {fin.rc}: {fin.err[-300:]}")
        return {"base": base, "spec": spec}

    def discard(self, state) -> None:
        pass

    def measure(self, state, ops, seconds, limit=None, trace_dir=None) -> Pass:
        # A hunt is the unit a user waits for: one whole hunt per pass,
        # however long it takes, so the cell mix never depends on timing.
        journal = os.path.join(_fresh(state["base"], "pass"), "hunt.jsonl")
        argv = ["hunt", "--ops", state["spec"], "--journal", journal]
        if trace_dir is not None:
            argv += ["--trace", trace_dir]
        fin = run_timed(driver_argv(argv))
        expected = [(tm, p) for tm in ops for p in ("ss", "op")]
        try:
            data = json.loads(fin.out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            results = [
                _outcome(f"{tm}/{p}", fin.start, fin.wall, False,
                         detail=f"hunt driver exited {fin.rc}: {fin.err[-300:]}")
                for tm, p in expected
            ]
            return Pass(results, fin.wall, fin.rss_mb, [], {})
        want_exit = known.expected_hunt_exit(ops)
        results = []
        for cell in data["cells"]:
            wall = cell["end"] - cell["start"]
            done = cell["status"] in ("pass", "fail")
            mismatch = done and (
                cell["holds"] != known.expected_holds(cell["tm"], cell["prop"])
            )
            detail = "" if done else f"status {cell['status']}"
            if mismatch:
                detail = f"{cell['id']}: holds={cell['holds']} against the known answer"
            if data["exit"] != want_exit:
                detail = f"hunt exit {data['exit']}, expected {want_exit}"
            results.append(_outcome(
                cell["id"], cell["start"], wall,
                done and not mismatch and data["exit"] == want_exit,
                mismatch, detail,
            ))
        for i in range(len(results), len(expected)):
            results.append(_outcome(f"missing{i}", fin.start, fin.wall, False,
                                    detail="cell never ran"))
        return Pass(results, data["end"] - data["start"], fin.rss_mb, [], {})


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


def _connect(path: str):
    """A client of the program's own (``repro serve --check-request``)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.serve import ServeClient, ServeClientError

    try:
        return ServeClient(socket_path=path, timeout=CHILD_TIMEOUT_S,
                           connect_timeout=30.0)
    except ServeClientError as exc:
        raise SetupError(str(exc))


class ServeMixed:
    """Two closed-loop clients against one ``repro serve --workers 2``:
    a hot set of warm hits, one cold miss in every eight requests."""

    name = "serve-mixed"
    setup_reps = 3
    HOT_TMS = ("2pl", "dstm", "opt", "norec")
    CLIENTS = 2
    BLOCK_HITS = 7

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke

    def hot(self) -> List[dict]:
        if self.smoke:
            return [dict(tm="2pl", property="ss"), dict(tm="norec", property="op")]
        return [dict(tm=tm, property=p) for tm in self.HOT_TMS for p in ("ss", "op")]

    def ops(self, seed: int) -> List[dict]:
        rng = random.Random(f"{self.name}:{seed}")
        hot = self.hot()
        mutants = [m for m in known.MUTANT_BUG if not m.startswith("tl2/")]
        if self.smoke:
            mutants = mutants[:1]
        misses = [dict(tm=m, property=p) for m in mutants for p in ("ss", "op")]
        misses += [dict(h, lazy_spec=True) for h in hot]
        misses += [dict(h, warm=False) for h in hot]
        rng.shuffle(misses)
        out: List[dict] = []
        while len(out) < (200 if self.smoke else 5000):
            block = [dict(h, kind="hit")
                     for h in rng.sample(hot, min(self.BLOCK_HITS, len(hot)))]
            miss = misses.pop() if misses else dict(rng.choice(hot), warm=False)
            block.insert(rng.randrange(len(block) + 1), dict(miss, kind="miss"))
            out.extend(block)
        return out

    def setup(self, work, ops, trace_dir=None):
        base = _fresh(work, "serve")
        sock = os.path.relpath(os.path.join(base, "s.sock"), ROOT)
        args = ["serve", "--socket", sock, "--workers", "2",
                "--cache-dir", os.path.join(base, "cold"),
                "--cache-backend", "disk", "--quiet"]
        argv = (repro_argv(args) if trace_dir is None
                else driver_argv(["cli", "--trace", trace_dir, "--", *args]))
        proc = spawn(argv, stdout=subprocess.DEVNULL)
        state = {"proc": proc, "conns": [], "base": base}
        try:
            state["conns"] = [_connect(sock) for _ in range(self.CLIENTS)]
            hot = self.hot()
            failures: List[str] = []

            def prime(conn, requests):
                for request in requests:
                    try:
                        resp = conn.request(dict(request, n=2, k=2))
                    except RuntimeError as exc:
                        failures.append(f"wire: {exc}")
                        return
                    ok, mismatch, detail = self._judge(request, resp)
                    if not ok:
                        failures.append(detail)

            threads = [
                threading.Thread(target=prime,
                                 args=(conn, hot[i::self.CLIENTS]))
                for i, conn in enumerate(state["conns"])
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if failures:
                raise SetupError(f"priming failed: {failures[:3]}")
            state["stats0"] = state["conns"][0].request({"op": "stats"})
        except BaseException:
            self._stop(state, kill=True)
            raise
        return state

    @staticmethod
    def _judge(request, resp):
        status = resp.get("status")
        if status not in ("pass", "fail"):
            return False, False, f"status {status}: {resp.get('error')}"
        holds = (resp.get("result") or {}).get("holds")
        if holds != known.expected_holds(request["tm"], request["property"]):
            return False, True, f"{request['tm']} {request['property']}: holds={holds}"
        return True, False, ""

    def _stop(self, state, kill: bool = False) -> float:
        proc = state["proc"]
        if kill:
            proc.kill()
        else:
            try:
                state["conns"][0].request({"op": "shutdown"})
            except (RuntimeError, IndexError):
                proc.kill()
        for conn in state["conns"]:
            conn.close()
        return reap(proc)[1]

    def discard(self, state) -> None:
        self._stop(state)

    def measure(self, state, ops, seconds, limit=None, trace_dir=None) -> Pass:
        records: List[Dict[str, object]] = []
        lock = threading.Lock()
        cursor = [0]
        deadline = time.perf_counter() + seconds

        def client(conn):
            while True:
                with lock:
                    i = cursor[0]
                    if limit is not None and i >= limit:
                        return
                    if limit is None and time.perf_counter() >= deadline:
                        return
                    cursor[0] += 1
                op = ops[i]
                request = {k: v for k, v in op.items() if k != "kind"}
                request.update(id=i, n=2, k=2)
                start = time.perf_counter()
                try:
                    resp = conn.request(request)
                except RuntimeError as exc:
                    rec = _outcome(str(i), start, time.perf_counter() - start,
                                   False, detail=f"wire: {exc}")
                    with lock:
                        records.append(rec)
                    return
                wall = time.perf_counter() - start
                ok, mismatch, detail = self._judge(request, resp)
                rec = _outcome(
                    str(i), start, wall, ok, mismatch, detail,
                    kind=op["kind"], warm=request.get("warm", True),
                    status=resp.get("status"), seconds=resp.get("seconds"),
                    safety_rows=(resp.get("stats") or {}).get("safety_rows"),
                )
                with lock:
                    records.append(rec)

        threads = [threading.Thread(target=client, args=(conn,))
                   for conn in state["conns"]]
        loop_start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records.sort(key=lambda r: int(r["id"]))
        try:
            stats1 = state["conns"][0].request({"op": "stats"})
        except RuntimeError:
            stats1 = {}
        rss = self._stop(state)
        window = max(r["start"] + r["wall"] for r in records) - loop_start
        roots = [root_span(r["id"], r["start"], r["start"] + r["wall"])
                 for r in records]
        return Pass(records, window, rss, roots,
                    {"stats0": state.get("stats0", {}), "stats1": stats1,
                     "cold": os.path.join(state["base"], "cold")})


WORKLOADS = {w.name: w for w in (CliWarm, HuntCold, ServeMixed, Scale)}
