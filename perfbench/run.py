"""End-to-end and per-layer benchmark for the checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``cli-warm``, ``hunt-cold``,
``serve-mixed``, ``scale-2x3``.  Run from anywhere; the benchmark works in
the checkout it lives in, runs the checker from its ``src`` and writes only
under ``.bench_work/``.

``--trace 0`` sets the workload up three or five times (``setup_s`` is the
median),
then runs the closed loop for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs the same loop untraced, sets up afresh and replays
exactly the same ops with spans around each layer's calls, and reports the
per-layer metrics, the tracing overhead and the time no leaf span covers.

Every metric is printed as ``metric<TAB>name<TAB>value<TAB>unit``, then one
``report`` line with the environment fingerprint, the inputs and the
details, and last the one-line JSON result.  Exit status 2 means the
checkout holds no checker to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from statistics import mean
from typing import Dict, List, Tuple

from common import (
    PYTHON,
    ROOT,
    SRC,
    WORK,
    dir_bytes,
    digest,
    fingerprint,
    median,
    run_timed,
    spread,
    tail,
)
from tracing import analyse, load_dir
from workloads import WORKLOADS, SetupError

PROBE_REPS = 3

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_s.p50", "s"),
    ("latency_s.tail", "s"),
    ("peak_rss_mb", "MB"),
]

LAYERS = ("cli", "cache", "tm", "spec", "kernel", "check", "supervisor",
          "journal", "serve")

PER_LAYER: List[Tuple[str, str]] = [
    ("fail_ratio", "ratio"),
    ("verdict_mismatches", "count"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cache.load_s.disk", "s"),
    ("cache.load_s.disk.spread", "ratio"),
    ("cache.load_s.mmap", "s"),
    ("cache.load_s.mmap.spread", "ratio"),
    ("cache.bytes.disk", "bytes"),
    ("cache.bytes.mmap", "bytes"),
    ("cache.errors", "count"),
    ("cache.save_s", "s"),
    ("tm.rows_built", "count"),
    ("tm.row_discovery_s", "s"),
    ("spec.build_s", "s"),
    ("spec.states", "count"),
    ("kernel.pair_loop_s", "s"),
    ("kernel.pairs", "count"),
    ("kernel.pairs_per_s", "1/s"),
    ("kernel.trace_rerun_s", "s"),
    ("check.safety_s", "s"),
    ("check.liveness_s", "s"),
    ("check.certify_s", "s"),
    ("supervisor.fork_s", "s"),
    ("supervisor.attempts_per_op", "count"),
    ("journal.append_s", "s"),
    ("serve.check_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.hot_hit_ratio", "ratio"),
    ("serve.absorb_bytes", "bytes"),
    ("serve.busy", "count"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.leaf_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.parented_share", "ratio"),
] + [(f"self_s.{layer}", "s") for layer in LAYERS]


def _median_or_zero(values) -> float:
    values = list(values)
    return median(values) if values else 0.0


def _setup(workload, work, ops, trace_dir=None):
    start = time.perf_counter()
    state = workload.setup(work, ops, trace_dir=trace_dir)
    return state, time.perf_counter() - start


def end_to_end(passed, setup_s: float):
    results = passed.results
    walls = [r["wall"] for r in results]
    tail_s, tail_pct = tail(walls)
    done = sum(1 for r in results if r["ok"])
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": done / passed.window_s,
        "latency_s.p50": median(walls),
        "latency_s.tail": tail_s,
        "peak_rss_mb": passed.rss_mb,
    }
    details = {"tail_percentile": tail_pct, "samples": len(walls),
               "window_s": passed.window_s}
    return metrics, details


def _probe(code: str) -> float:
    walls = []
    for _ in range(PROBE_REPS):
        fin = run_timed([PYTHON, "-c", code])
        if fin.rc != 0:
            raise SetupError(f"probe {code!r} exited {fin.rc}: {fin.err}")
        walls.append(fin.wall)
    return median(walls)


def per_layer(state, plain, traced, trace_dir) -> Dict[str, float]:
    spans, counters = load_dir(trace_dir)
    ops = analyse(spans + traced.roots, counters).values()
    checks = [t for t in ops if t.named("check.safety")]

    def over_checks(fn):
        return _median_or_zero(fn(t) for t in checks)

    m: Dict[str, float] = {}
    interpreter = _probe("pass")
    m["cli.interpreter_s"] = interpreter
    m["cli.import_s"] = _probe("import repro.cli") - interpreter
    for backend in ("disk", "mmap"):
        loads = [t.total("cache.load", backend=backend) for t in ops
                 if t.named("cache.load", backend=backend)]
        m[f"cache.load_s.{backend}"] = _median_or_zero(loads)
        m[f"cache.load_s.{backend}.spread"] = spread(loads)
    dirs = dict(state.get("dirs", {})) if isinstance(state, dict) else {}
    if "cold" in plain.extra:
        dirs["disk"] = plain.extra["cold"]
    for backend in ("disk", "mmap"):
        m[f"cache.bytes.{backend}"] = (
            dir_bytes(dirs[backend]) if backend in dirs else 0
        )
    served_errors = sum(
        (plain.extra.get("stats1") or {}).get("cache", {})
        .get("errors", {}).values()
    )
    m["cache.errors"] = sum(t.count("cache.errors") for t in ops) + served_errors
    m["cache.save_s"] = _median_or_zero(
        t.total("cache.save") for t in ops if t.named("cache.save")
    )
    m["tm.rows_built"] = over_checks(lambda t: t.attr_sum("check.safety", "rows_built"))
    m["tm.row_discovery_s"] = over_checks(lambda t: t.total("tm.row_discovery"))
    m["spec.build_s"] = over_checks(lambda t: t.total("spec.build"))
    m["spec.states"] = over_checks(lambda t: t.attr_sum("check.safety", "spec_states"))
    m["kernel.pair_loop_s"] = over_checks(lambda t: t.total("kernel.pair_loop"))
    m["kernel.pairs"] = over_checks(lambda t: t.attr_sum("check.safety", "pairs"))
    loop_s = sum(t.total("kernel.pair_loop") for t in checks)
    m["kernel.pairs_per_s"] = (
        sum(t.attr_sum("check.safety", "pairs") for t in checks) / loop_s
        if loop_s > 0 else 0.0
    )
    m["kernel.trace_rerun_s"] = over_checks(lambda t: t.total("kernel.trace_rerun"))
    m["check.safety_s"] = over_checks(lambda t: t.attr_sum("check.safety", "seconds"))
    m["check.liveness_s"] = _median_or_zero(
        t.total("check.liveness_graph") + t.total("check.liveness")
        for t in ops if t.named("check.liveness")
    )
    m["check.certify_s"] = over_checks(lambda t: t.total("check.certify"))
    cells = [s for t in ops for s in t.named("supervisor.run_cell")]
    m["supervisor.fork_s"] = _median_or_zero(
        (s["end"] - s["start"]) - s["attrs"]["seconds"]
        for s in cells if s["attrs"].get("seconds") is not None
    )
    m["supervisor.attempts_per_op"] = (
        mean(s["attrs"].get("attempts") or 0 for s in cells) if cells else 0.0
    )
    m["journal.append_s"] = _median_or_zero(
        t.total("journal.append") for t in ops if t.named("journal.append")
    )
    served = [r for r in plain.results if "status" in r]
    answered = [r for r in served if r["ok"] and r.get("seconds") is not None]
    warm = [r for r in served if r["ok"] and r.get("warm")]
    m["serve.check_s"] = _median_or_zero(r["seconds"] for r in answered)
    m["serve.overhead_s"] = _median_or_zero(
        r["wall"] - r["seconds"] for r in answered
    )
    m["serve.hot_hit_ratio"] = (
        sum(1 for r in warm if r.get("safety_rows") == 0) / len(warm)
        if warm else 0.0
    )
    if served:
        before = (plain.extra.get("stats0") or {}).get("cache", {})
        after = (plain.extra.get("stats1") or {}).get("cache", {})
        m["serve.absorb_bytes"] = after.get("bytes", 0) - before.get("bytes", 0)
    else:
        m["serve.absorb_bytes"] = 0
    m["serve.busy"] = sum(1 for r in served if r.get("status") == "busy")
    n = min(len(plain.results), len(traced.results))
    m["trace.overhead_s"] = (
        mean(r["wall"] for r in traced.results[:n])
        - mean(r["wall"] for r in plain.results[:n])
    ) if n else 0.0
    m["trace.unattributed_s"] = _median_or_zero(t.unattributed_s for t in ops)
    m["trace.leaf_share"] = _median_or_zero(
        1 - t.unattributed_s / t.wall for t in ops if t.wall > 0
    )
    m["trace.spans"] = len(spans)
    m["trace.parented_share"] = (
        sum(1 for t in ops if t.parented()) / len(ops) if ops else 0.0
    )
    for layer in LAYERS:
        m[f"self_s.{layer}"] = (
            mean(t.self_s.get(layer, 0.0) for t in ops) if ops else 0.0
        )
    return m


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        work: str) -> Dict[str, object]:
    workload = WORKLOADS[name](smoke)
    ops = workload.ops(seed)
    inputs = {"workload": name, "seed": seed, "seconds": seconds,
              "smoke": smoke, "ops_digest": digest(ops)}
    if not trace:
        setups = []
        for rep in range(workload.setup_reps):
            state, setup_s = _setup(workload, work, ops)
            setups.append(setup_s)
            if rep < workload.setup_reps - 1:
                workload.discard(state)
        passed = workload.measure(state, ops, seconds)
        values, details = end_to_end(passed, median(setups))
        details["setup_runs_s"] = setups
        passes = [passed]
        units = END_TO_END
    else:
        state, _ = _setup(workload, work, ops)
        plain = workload.measure(state, ops, seconds)
        trace_dir = os.path.join(work, "spans")
        os.makedirs(trace_dir)
        # A fresh set-up for the traced pass: a daemon must run traced.
        state, _ = _setup(workload, work, ops, trace_dir=trace_dir)
        traced = workload.measure(state, ops, seconds,
                                  limit=len(plain.results),
                                  trace_dir=trace_dir)
        passes = [plain, traced]
        values = per_layer(state, plain, traced, trace_dir)
        details = {"ops_traced": len(traced.results)}
        units = PER_LAYER
    results = [r for p in passes for r in p.results]
    failed = [r for r in results if not r["ok"]]
    mismatches = sum(1 for r in results if r["mismatch"])
    if trace:
        values["fail_ratio"] = len(failed) / len(results)
        values["verdict_mismatches"] = mismatches
    details.update(
        fail_ratio=len(failed) / len(results), verdict_mismatches=mismatches,
        failures=[f"{r['id']}: {r['detail']}" for r in failed[:10]],
    )
    return {
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units},
        "attempted": len(results),
        "failed": len(failed),
        "correct": mismatches == 0,
        "report": {"fingerprint": fingerprint(), "inputs": inputs,
                   "details": details},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no checker under {SRC}; nothing to measure",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.smoke, work)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, metric in out["metrics"].items():
        print(f"metric\t{key}\t{metric['value']}\t{metric['unit']}")
    print("report " + json.dumps(out.pop("report"), sort_keys=True))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
