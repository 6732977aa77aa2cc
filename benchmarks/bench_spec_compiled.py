"""Benchmark gate for the compiled spec oracle (lazy-spec safety path).

Times ``check_safety(..., lazy_spec=True)`` per cell — the PR 2 engine
(compiled TM side, *rich* ``det_step`` spec oracle; ``spec_compiled=
False``) vs the compiled spec oracle (packed-int spec states, memoized
int-indexed rows) — and writes ``BENCH_spec_compiled.json``.  Verdicts
and all reported counts are asserted identical between the paths before
any timing is reported.

As in ``bench_compiled.py``, each path runs ``--rounds`` rounds per cell
on one long-lived TM instance: ``cold_s`` is the first round (for the
compiled path that includes compiling both engines), ``best_s`` the
fastest round (steady state — the PR 2 path re-derives its spec rows
every round because its oracle memo is per-run; the compiled oracle's
process-wide memo is precisely the optimization under test).  A third
number, ``disk_warm_s``, times a simulated fresh process: engines
restored from an on-disk warm cache written by the previous rounds.
A ``warm_backends`` block rides along per cell, comparing the pickle
disk backend against the zero-deserialization mmap backend — whole
warm-check time, direct payload-load time, stored bytes, and the bytes
saved against an int64-pickle baseline (the pre-typed-width format) —
gated by ``--require-mmap-parity``.

Each cell additionally records a ``product_bfs`` time split: the kernel
product functions timed directly on fully warm engines, isolating the
pair loop from row computation — the packed-oracle BFS, the **dense
kernel's** array-only bitset BFS over the recorded CSR (``dense_bfs_s``
/ ``dense_speedup``, gated by ``--require-dense-parity``), and (on
cells whose full spec is materializable) the DFA-sided BFS over the
Statement-keyed delta vs the int-indexed rows, which must not be slower
(``--require-dfa-parity``).  A per-phase ``profile`` split (engine build / row discovery /
product BFS / trace rerun) of one cold check rides along per cell.

Intended CI use::

    PYTHONPATH=src python benchmarks/bench_spec_compiled.py \
        --cells dstm22 --rounds 3 --require-speedup 1.5 \
        --require-dense-parity 1.5
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache import (
    ENGINE_VERSION,
    is_int_vector,
    make_backend,
    widen_int_vector,
)
from repro.automata.kernel import (
    product_dfa_direct,
    product_dfa_packed,
    product_oracle_packed,
)
from repro.checking import check_safety
from repro.core.statements import format_word
from repro.spec import OP, SS
from repro.spec.build import cached_det_spec
from repro.spec.compiled import (
    cached_spec_dfa,
    cached_spec_oracle,
    clear_spec_oracle_cache,
)
from repro.tm import DSTM, TwoPhaseLockingTM, compile_tm

#: Cells: name -> (factory, human instance label, dfa_split).  The
#: (2, 3) DSTM cell is the ROADMAP's "large lazy-spec run" — the one
#: PR 2 left dominated by the rich spec oracle.  ``dfa_split`` marks the
#: cells whose full deterministic spec is cheap enough to materialize
#: for the DFA-sided product-BFS split (the large lazy-only cells exist
#: precisely because it is not).
CELLS: Dict[str, Tuple[Callable, str, bool]] = {
    "2pl22": (lambda: TwoPhaseLockingTM(2, 2), "2PL (2,2)", True),
    "dstm22": (lambda: DSTM(2, 2), "DSTM (2,2)", True),
    "2pl32": (lambda: TwoPhaseLockingTM(3, 2), "2PL (3,2)", False),
    "dstm23": (lambda: DSTM(2, 3), "DSTM (2,3)", False),
}

PROPS = {"ss": SS, "op": OP}


def run_path(
    factory: Callable,
    prop,
    spec_compiled: bool,
    rounds: int,
    cache_dir: Optional[str] = None,
    dense_kernel: bool = True,
) -> dict:
    """Rounds of one cell on one long-lived TM instance."""
    tm = factory()
    result = None

    def check():
        nonlocal result
        result = check_safety(
            tm,
            prop,
            lazy_spec=True,
            spec_compiled=spec_compiled,
            dense_kernel=dense_kernel,
            cache_dir=cache_dir,
        )

    times: List[float] = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        check()
        times.append(time.perf_counter() - t0)
    assert result is not None
    return {
        "holds": result.holds,
        "tm_states": result.tm_states,
        "spec_states": result.spec_states,
        "product_states": result.product_states,
        "counterexample": (
            None
            if result.counterexample is None
            else format_word(result.counterexample)
        ),
        "cold_s": round(times[0], 6),
        "best_s": round(min(times), 6),
    }


def product_bfs_split(
    factory: Callable, prop, rounds: int, dfa_split: bool
) -> dict:
    """Pure product-BFS timings on *fully warm* engines.

    ``check_safety`` times above include row computation and engine
    warm-up; here the kernel product functions are timed directly with
    every row memoized, isolating the pair-loop itself.  On ``dfa_split`` cells the
    DFA-sided loop is timed twice: over the Statement-keyed delta
    (``product_dfa_direct``) and over the int-indexed rows
    (``product_dfa_packed``) — the int-ized delta must not be slower on
    any cell.
    """
    tm = factory()
    engine = compile_tm(tm)
    oracle = cached_spec_oracle(tm.n, tm.k, prop)
    # dense_kernel=True: recording no longer engages by default on
    # cache-less one-shot runs, but this split times the recorded CSR.
    check_safety(tm, prop, lazy_spec=True, dense_kernel=True)
    init = [engine.initial_node_packed()]
    row_map = engine.safety_rows_map()
    dense = engine.dense_csr("oracle", prop)

    def best(fn) -> float:
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return round(min(times), 6)

    out = {
        "oracle_packed_bfs_s": best(
            lambda: product_oracle_packed(
                engine.safety_row_ids,
                init,
                oracle,
                node_span=engine.node_span,
                row_map=row_map,
            )
        ),
        # The dense kernel's warm pair loop: array-only bitset BFS over
        # the CSR recorded by the warm-up check above — the acceptance
        # split of the dense-kernel PR, gated by --require-dense-parity.
        "dense_bfs_s": best(
            lambda: product_oracle_packed(
                engine.safety_row_ids,
                init,
                oracle,
                node_span=engine.node_span,
                row_map=row_map,
                dense=dense,
            )
        ),
    }
    out["dense_speedup"] = round(
        out["oracle_packed_bfs_s"] / out["dense_bfs_s"], 2
    )
    if dfa_split:
        spec = cached_det_spec(tm.n, tm.k, prop)
        check_safety(tm, prop, spec_compiled=False)  # warm Statement rows
        cdfa = cached_spec_dfa(tm.n, tm.k, prop).ensure()
        out["dfa_statement_bfs_s"] = best(
            lambda: product_dfa_direct(engine.safety_row, init, spec)
        )
        out["dfa_int_bfs_s"] = best(
            lambda: product_dfa_packed(
                engine.safety_row_ids,
                init,
                cdfa.rows,
                node_span=engine.node_span,
                row_map=row_map,
            )
        )
        out["dfa_int_not_slower"] = (
            out["dfa_int_bfs_s"] <= out["dfa_statement_bfs_s"]
        )
        dense_dfa = engine.dense_csr("dfa", prop)
        out["dfa_dense_bfs_s"] = best(  # first round records the CSR
            lambda: product_dfa_packed(
                engine.safety_row_ids,
                init,
                cdfa.rows,
                node_span=engine.node_span,
                row_map=row_map,
                dense=dense_dfa,
            )
        )
    return out


def run_disk_warm(factory: Callable, prop) -> dict:
    """A fresh-process simulation: spill caches, drop every in-process
    table, then time one warm-started check."""
    with tempfile.TemporaryDirectory() as d:
        check_safety(factory(), prop, lazy_spec=True, cache_dir=d)
        clear_spec_oracle_cache()
        tm = factory()  # new instance: its engine compiles from nothing
        t0 = time.perf_counter()
        result = check_safety(tm, prop, lazy_spec=True, cache_dir=d)
        elapsed = time.perf_counter() - t0
        files = os.listdir(d)
    return {
        "disk_warm_s": round(elapsed, 6),
        "cache_files": len(files),
        "holds": result.holds,
        "product_states": result.product_states,
    }


def run_backend_warm(
    factory: Callable, prop, backend_name: str, rounds: int
) -> dict:
    """Warm-start metrics for one cache backend: whole-check warm time,
    direct payload-load time (min over ``max(rounds, 10)`` — loads are
    milliseconds, so extra rounds cost nothing and de-noise the parity
    gate — each on a fresh backend instance: what a new process pays
    before its first BFS step), stored bytes, and the int64-pickle
    baseline those bytes are
    compared against (every int vector re-widened to ``array('q')`` and
    pickled, i.e. the pre-typed-width on-disk format)."""
    with tempfile.TemporaryDirectory() as d:
        be = make_backend(backend_name, d)
        check_safety(factory(), prop, lazy_spec=True, cache_dir=be)
        clear_spec_oracle_cache()
        tm = factory()  # new instance: its engine compiles from nothing
        t0 = time.perf_counter()
        result = check_safety(tm, prop, lazy_spec=True, cache_dir=be)
        warm_s = time.perf_counter() - t0
        keys = be.keys()
        stored = sum(be.stat(k)["bytes"] for k in keys)
        load_times = []
        for _ in range(max(rounds, 10)):
            fresh = make_backend(backend_name, d)
            t0 = time.perf_counter()
            for k in keys:
                assert fresh.load(k) is not None
            load_times.append(time.perf_counter() - t0)
        baseline = 0
        for k in keys:
            data = be.load(k)
            if isinstance(data, dict):
                data = {
                    name: (
                        widen_int_vector(v) if is_int_vector(v) else v
                    )
                    for name, v in data.items()
                }
            baseline += len(
                pickle.dumps(
                    {"version": ENGINE_VERSION, "key": k, "data": data},
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
    return {
        "warm_check_s": round(warm_s, 6),
        "payload_load_s": round(min(load_times), 6),
        "stored_bytes": stored,
        "int64_pickle_bytes": baseline,
        "bytes_saved_vs_int64_pickle": round(1 - stored / baseline, 3),
        "cache_files": len(keys),
        "holds": result.holds,
        "product_states": result.product_states,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--cells",
        default="dstm22,dstm23",
        help=f"comma-separated subset of {list(CELLS)}",
    )
    parser.add_argument(
        "--require-dfa-parity",
        type=float,
        default=None,
        metavar="TOL",
        help="fail unless the int-ized DFA product BFS is within TOL x"
        " of the Statement-keyed one on every dfa-split cell (e.g. 1.1)",
    )
    parser.add_argument(
        "--require-dense-parity",
        type=float,
        default=None,
        metavar="MIN_SPEEDUP",
        help="fail unless the dense warm-engine pair loop is at least"
        " MIN_SPEEDUP x faster than the set-based loop on every cell"
        " (1.0 = mere parity; the CI gate uses 1.5)",
    )
    parser.add_argument(
        "--skip-disk-warm",
        action="store_true",
        help="skip the fresh-process warm-start measurements (all"
        " backends)",
    )
    parser.add_argument(
        "--require-mmap-parity",
        type=float,
        default=None,
        metavar="TOL",
        help="fail unless the mmap backend's direct payload-load time is"
        " within TOL x of the disk (pickle) backend's on every cell"
        " (1.0 = mmap must be at least as fast)",
    )
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        help="fail unless every benchmarked cell reaches this best-round"
        " speedup over the PR 2 path",
    )
    parser.add_argument("--output", default="BENCH_spec_compiled.json")
    args = parser.parse_args(argv)

    names = [n.strip().lower() for n in args.cells.split(",") if n.strip()]
    unknown = [n for n in names if n not in CELLS]
    if unknown:
        parser.error(f"unknown cells: {unknown}; choose from {list(CELLS)}")

    cells = []
    failures: List[str] = []
    for name in names:
        factory, label, dfa_split = CELLS[name]
        for prop_name, prop in PROPS.items():
            pr2 = run_path(factory, prop, False, args.rounds)
            comp = run_path(factory, prop, True, args.rounds)
            for key in (
                "holds",
                "tm_states",
                "spec_states",
                "product_states",
                "counterexample",
            ):
                if pr2[key] != comp[key]:
                    failures.append(
                        f"{name}/{prop_name}: {key} differs between paths"
                        f" ({pr2[key]!r} vs {comp[key]!r})"
                    )
            cell = {
                "cell": name,
                "instance": label,
                "prop": prop_name,
                "holds": comp["holds"],
                "tm_states": comp["tm_states"],
                "spec_states": comp["spec_states"],
                "product_states": comp["product_states"],
                "pr2_oracle": pr2,
                "compiled_oracle": comp,
                "speedup_cold": round(pr2["cold_s"] / comp["cold_s"], 2),
                "speedup_best": round(pr2["best_s"] / comp["best_s"], 2),
            }
            cell["product_bfs"] = product_bfs_split(
                factory, prop, args.rounds, dfa_split
            )
            prof: Dict[str, float] = {}
            check_safety(
                factory(), prop, lazy_spec=True, profile=prof
            )
            cell["profile"] = {
                key: round(value, 6) for key, value in prof.items()
            }
            if not args.skip_disk_warm:
                cell["disk_warm"] = run_disk_warm(factory, prop)
                # Per-backend warm starts (the mmap backend's reason to
                # exist: zero-deserialization loads off one shared
                # page-cached mapping; memory has no cross-process warm
                # start and is skipped).
                cell["warm_backends"] = {
                    bn: run_backend_warm(factory, prop, bn, args.rounds)
                    for bn in ("disk", "mmap")
                }
            cells.append(cell)

    if args.require_speedup is not None:
        for cell in cells:
            if cell["speedup_best"] < args.require_speedup:
                failures.append(
                    f"{cell['cell']}/{cell['prop']}: best-round speedup"
                    f" {cell['speedup_best']}x <"
                    f" required {args.require_speedup}x"
                )
    if args.require_dfa_parity is not None:
        for cell in cells:
            split = cell["product_bfs"]
            if "dfa_int_bfs_s" not in split:
                continue
            bound = split["dfa_statement_bfs_s"] * args.require_dfa_parity
            if split["dfa_int_bfs_s"] > bound:
                failures.append(
                    f"{cell['cell']}/{cell['prop']}: int-ized DFA product"
                    f" {split['dfa_int_bfs_s']}s >"
                    f" {args.require_dfa_parity}x Statement path"
                    f" {split['dfa_statement_bfs_s']}s"
                )
    if args.require_dense_parity is not None:
        for cell in cells:
            split = cell["product_bfs"]
            if split["dense_speedup"] < args.require_dense_parity:
                failures.append(
                    f"{cell['cell']}/{cell['prop']}: dense warm pair loop"
                    f" only {split['dense_speedup']}x over the set-based"
                    f" loop (< required {args.require_dense_parity}x:"
                    f" dense {split['dense_bfs_s']}s vs set"
                    f" {split['oracle_packed_bfs_s']}s)"
                )

    if args.require_mmap_parity is not None:
        for cell in cells:
            wb = cell.get("warm_backends")
            if not wb:
                continue
            bound = wb["disk"]["payload_load_s"] * args.require_mmap_parity
            if wb["mmap"]["payload_load_s"] > bound:
                failures.append(
                    f"{cell['cell']}/{cell['prop']}: mmap payload load"
                    f" {wb['mmap']['payload_load_s']}s >"
                    f" {args.require_mmap_parity}x disk"
                    f" {wb['disk']['payload_load_s']}s"
                )

    total_pr2 = sum(c["pr2_oracle"]["best_s"] for c in cells)
    total_comp = sum(c["compiled_oracle"]["best_s"] for c in cells)
    report = {
        "benchmark": (
            "compiled spec oracle vs PR 2 rich det_step oracle"
            " (lazy-spec safety path)"
        ),
        "rounds": args.rounds,
        "cpu_count": os.cpu_count(),
        "cells": cells,
        "summary": {
            "total_pr2_best_s": round(total_pr2, 6),
            "total_compiled_best_s": round(total_comp, 6),
            "overall_speedup_best": round(total_pr2 / total_comp, 2),
            "failures": failures,
        },
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    width = max(len(f"{c['cell']}/{c['prop']}") for c in cells)
    for c in cells:
        lbl = f"{c['cell']}/{c['prop']}"
        warm = c.get("disk_warm", {}).get("disk_warm_s")
        split = c["product_bfs"]
        extras = [
            f"product-bfs {split['oracle_packed_bfs_s']:.4f}s",
            f"dense {split['dense_bfs_s']:.4f}s"
            f" ({split['dense_speedup']:.1f}x)",
        ]
        if "dfa_int_bfs_s" in split:
            extras.append(
                f"dfa int {split['dfa_int_bfs_s']:.4f}s vs stmt"
                f" {split['dfa_statement_bfs_s']:.4f}s"
            )
        if "warm_backends" in c:
            wb = c["warm_backends"]
            extras.append(
                f"load disk {wb['disk']['payload_load_s']:.4f}s"
                f" ({wb['disk']['stored_bytes']}B) vs mmap"
                f" {wb['mmap']['payload_load_s']:.4f}s"
                f" ({wb['mmap']['stored_bytes']}B,"
                f" -{wb['mmap']['bytes_saved_vs_int64_pickle']:.0%}"
                f" vs int64 pickle)"
            )
        print(
            f"{lbl:{width}s}  pr2 {c['pr2_oracle']['best_s']:8.4f}s"
            f"  compiled {c['compiled_oracle']['best_s']:8.4f}s"
            f"  speedup {c['speedup_best']:6.2f}x"
            f"  (cold {c['speedup_cold']:.2f}x"
            + (f", disk-warm {warm:.4f}s" if warm is not None else "")
            + "; " + ", ".join(extras) + ")"
        )
    print(
        f"overall (best rounds): pr2 {total_pr2:.3f}s,"
        f" compiled {total_comp:.3f}s,"
        f" speedup {total_pr2 / total_comp:.2f}x -> {args.output}"
    )
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
