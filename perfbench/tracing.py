"""Spans around the calls into each layer, recorded from outside the program.

``install`` wraps public entry points of ``repro`` modules in place (the
program's source is untouched): each wrapped call records a span with
its name, start, end, parent span and the op it belongs to.  Spans are
held in memory and written as one JSON file per process when that
process ends — forked check children write theirs before they exit.
All timestamps are ``time.perf_counter()`` values, which on Linux read
the system-wide monotonic clock, so spans from different processes
line up.

Span names are ``<layer>.<what>``; the layer prefix is what self time
is aggregated by.  ``analyse`` turns the spans of a traced pass into
per-op layer figures.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    """In-memory span recorder for one process (and its forked children)."""

    def __init__(self, out_dir: str, op: Optional[str] = None,
                 parent: Optional[str] = None) -> None:
        self.out_dir = out_dir
        self.spans: List[Dict[str, object]] = []
        self.counters: List[Dict[str, object]] = []
        self._local = threading.local()
        self._default_op = op
        self._default_parent = parent
        self._seq = itertools.count()

    # -- context -------------------------------------------------------

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: Optional[str], parent: Optional[str]) -> None:
        """Bind the calling thread to an op (a daemon request, a cell)."""
        self._local.op = op
        self._local.parent = parent

    def op(self) -> Optional[str]:
        return getattr(self._local, "op", None) or self._default_op

    def _parent(self) -> Optional[str]:
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "parent", None) or self._default_parent

    # -- recording -----------------------------------------------------

    def _new_id(self) -> str:
        return f"{os.getpid()}.{next(self._seq)}"

    @contextmanager
    def span(self, name: str, **attrs):
        rec: Dict[str, object] = {
            "id": self._new_id(), "name": name, "parent": self._parent(),
            "op": self.op(), "attrs": attrs,
        }
        stack = self._stack()
        stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def add(self, name: str, start: float, end: float, parent: str,
            op: Optional[str], **attrs) -> None:
        """A span whose duration the program measured itself (profile
        phases), placed inside ``parent``."""
        self.spans.append(
            {"id": self._new_id(), "name": name, "parent": parent,
             "op": op, "start": start, "end": end, "attrs": attrs}
        )

    def count(self, name: str, value: float = 1) -> None:
        self.counters.append({"name": name, "op": self.op(), "value": value})

    def after_fork(self) -> None:
        """In a forked child: drop the parent's records (it writes its
        own), keep the op and the open-span stack."""
        self.spans = []
        self.counters = []
        self._seq = itertools.count()

    def flush(self) -> None:
        if not self.spans and not self.counters:
            return
        path = os.path.join(
            self.out_dir, f"spans-{os.getpid()}-{time.monotonic_ns()}.json"
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)
        self.spans = []
        self.counters = []


def root_span(op: str, start: float, end: float, **attrs) -> Dict[str, object]:
    """The span of one whole op, recorded by whoever timed the op."""
    return {"id": f"op-{op}", "name": "op", "parent": None, "op": op,
            "start": start, "end": end, "attrs": attrs}


def load_dir(out_dir: str):
    spans: List[Dict[str, object]] = []
    counters: List[Dict[str, object]] = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                data = json.load(fh)
            spans.extend(data["spans"])
            counters.extend(data["counters"])
    return spans, counters


# ----------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------


def _wrap_method(cls, attr: str, make):
    if attr in cls.__dict__:
        setattr(cls, attr, make(cls.__dict__[attr]))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported ``repro`` in place."""
    import repro.cache as cache
    import repro.checking as checking
    import repro.checking.safety as safety_mod
    import repro.cli as cli
    from repro.campaign import journal, runner, supervisor
    from repro.serve import server, store
    from repro.spec.compiled import CompiledSpecDFA
    from repro.tm.compiled import compile_tm

    def spanned(name, fn, **attrs):
        def wrapper(*args, **kwargs):
            with tracer.span(name, **attrs):
                return fn(*args, **kwargs)
        return wrapper

    # check: safety (with the program's own phase profile as leaves),
    # certification, liveness.
    orig_check = checking.check_safety

    def check_safety(tm, prop, **kwargs):
        profile = kwargs.get("profile")
        if profile is None:
            profile = kwargs["profile"] = {}
        with tracer.span("check.safety", tm=tm.name, prop=prop.value) as rec:
            res = orig_check(tm, prop, **kwargs)
            cursor = rec["start"] + profile.get("engine_build_s", 0.0)
            for name, key in (
                ("kernel.pair_loop", "product_bfs_s"),
                ("tm.row_discovery", "row_discovery_s"),
                ("kernel.trace_rerun", "trace_rerun_s"),
            ):
                span_s = profile.get(key, 0.0)
                if span_s > 0:
                    tracer.add(name, cursor, cursor + span_s, rec["id"],
                               rec["op"])
                    cursor += span_s
            rec["attrs"].update(
                seconds=res.seconds, holds=res.holds,
                pairs=res.product_states, spec_states=res.spec_states,
            )
            if kwargs.get("compiled", True):
                stats = compile_tm(tm).stats()
                rec["attrs"]["rows_built"] = (
                    stats["safety_rows"] - stats.get("warm_safety_rows", 0)
                )
        return res

    checking.check_safety = cli.check_safety = check_safety
    for name in ("is_strictly_serializable", "is_opaque"):
        setattr(safety_mod, name,
                spanned("check.certify", getattr(safety_mod, name)))
    cli.build_liveness_graph = spanned(
        "check.liveness_graph", cli.build_liveness_graph
    )
    for name in ("check_obstruction_freedom", "check_livelock_freedom",
                 "check_wait_freedom"):
        setattr(cli, name, spanned("check.liveness", getattr(cli, name)))

    # spec: the int-rows DFA build (a no-op when it was warm-loaded).
    _wrap_method(CompiledSpecDFA, "ensure",
                 lambda fn: spanned("spec.build", fn))

    # cache: every backend's load and save, and every swallowed failure.
    for cls, label in (
        (cache.DiskCacheBackend, "disk"), (cache.MmapCacheBackend, "mmap"),
        (cache.MemoryCacheBackend, "memory"),
        (cache.TieredCacheBackend, "tiered"),
    ):
        _wrap_method(cls, "load",
                     lambda fn, b=label: spanned("cache.load", fn, backend=b))
        _wrap_method(cls, "save",
                     lambda fn, b=label: spanned("cache.save", fn, backend=b))
    orig_note = cache.CacheBackend._note_error

    def note_error(self, kind):
        tracer.count("cache.errors")
        return orig_note(self, kind)

    cache.CacheBackend._note_error = note_error

    # supervisor: the supervised cell, and the forked child that runs it.
    orig_run_cell = supervisor.run_cell

    def run_cell(cell, **kwargs):
        with tracer.span("supervisor.run_cell", cell=cell.get("id")) as rec:
            outcome = orig_run_cell(cell, **kwargs)
            rec["attrs"].update(
                seconds=outcome.get("seconds"),
                attempts=outcome.get("attempts"),
            )
        return outcome

    runner.run_cell = server.run_cell = run_cell
    orig_worker = supervisor._cell_worker

    def cell_worker(*args, **kwargs):
        tracer.after_fork()
        try:
            with tracer.span("supervisor.child"):
                orig_worker(*args, **kwargs)
        finally:
            tracer.flush()

    supervisor._cell_worker = cell_worker

    # journal and serve.
    _wrap_method(journal.Journal, "append_cell",
                 lambda fn: spanned("journal.append", fn))
    _wrap_method(store.ResidentStore, "absorb",
                 lambda fn: spanned("serve.absorb", fn))
    orig_handle = server.CheckServer._handle_check

    def handle_check(self, request_id, *args, **kwargs):
        tracer.set_op(str(request_id), f"op-{request_id}")
        with tracer.span("serve.handle"):
            return orig_handle(self, request_id, *args, **kwargs)

    server.CheckServer._handle_check = handle_check


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def _dur(span) -> float:
    return span["end"] - span["start"]


class OpTrace:
    """The spans of one op, with per-name sums and per-layer self time."""

    def __init__(self, op: str, spans: List[Dict[str, object]],
                 counters: List[Dict[str, object]]) -> None:
        self.op = op
        self.spans = spans
        self.counters = counters
        roots = [s for s in spans if s["name"] == "op"]
        self.wall = _dur(roots[0]) if roots else 0.0
        children: Dict[str, float] = defaultdict(float)
        has_child = set()
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]] += _dur(s)
                has_child.add(s["parent"])
        self.self_s: Dict[str, float] = defaultdict(float)
        leaf_s = 0.0
        for s in spans:
            if s["name"] == "op":
                continue
            self.self_s[s["name"].split(".")[0]] += max(
                0.0, _dur(s) - children.get(s["id"], 0.0)
            )
            if s["id"] not in has_child:
                leaf_s += _dur(s)
        self.unattributed_s = self.wall - leaf_s

    def named(self, name: str, **attrs) -> List[Dict[str, object]]:
        return [
            s for s in self.spans
            if s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def total(self, name: str, **attrs) -> float:
        return sum(_dur(s) for s in self.named(name, **attrs))

    def attr_sum(self, name: str, attr: str) -> float:
        return sum(s["attrs"].get(attr) or 0 for s in self.named(name))

    def count(self, name: str) -> float:
        return sum(c["value"] for c in self.counters if c["name"] == name)

    def parented(self) -> bool:
        """Every span but the op's root names a parent in this op."""
        ids = {s["id"] for s in self.spans}
        return all(
            s["name"] == "op" or s["parent"] in ids for s in self.spans
        )


def analyse(spans, counters) -> Dict[str, OpTrace]:
    by_op: Dict[str, List] = defaultdict(list)
    counters_by_op: Dict[str, List] = defaultdict(list)
    for s in spans:
        by_op[str(s["op"])].append(s)
    for c in counters:
        counters_by_op[str(c["op"])].append(c)
    return {
        op: OpTrace(op, group, counters_by_op.get(op, []))
        for op, group in by_op.items()
        if any(s["name"] == "op" for s in group)
    }
