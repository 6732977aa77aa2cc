"""Self-test of the benchmark at a tiny smoke size (about a minute).

    python3 perfbench/selftest.py

Checks that every workload emits every metric named in BENCHMARK.json
with its unit in both modes, that a planted wrong expectation is caught
as a verdict mismatch, that the traced pass emits parented spans, and
that a directory without the checker makes the benchmark fail cleanly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import known
import workloads
from common import HERE, PYTHON, ROOT, WORK
from tracing import Tracer, analyse, load_dir, root_span

RUN = os.path.join(HERE, "run.py")


def _bench(*args: str, cwd: str = ROOT):
    return subprocess.run([PYTHON, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def check_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(workloads.WORKLOADS), names
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in sorted(names):
            done = _bench("--workload", name, "--seed", "7", "--seconds", "1",
                          "--trace", str(trace), "--smoke")
            assert done.returncode == 0, (name, trace, done.stderr[-2000:])
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            assert result["correct"] and result["failed"] == 0, (name, result)
            if trace:
                metrics = result["metrics"]
                assert metrics["trace.spans"]["value"] > 0, name
                assert metrics["trace.parented_share"]["value"] == 1.0, name
            print(f"ok  {name} trace={trace}: {len(got)} metrics")


def check_planted_mismatch() -> None:
    work = tempfile.mkdtemp(dir=WORK)
    saved = set(known.TABLE2_VIOLATORS)
    known.TABLE2_VIOLATORS.add("2pl")  # wrong on purpose: 2PL is safe
    try:
        cli = workloads.CliWarm(smoke=True)
        ops = [op for op in cli.ops(0) if op["tm"] == "2pl"][:2]
        state = cli.setup(work, ops)
        passed = cli.measure(state, ops, seconds=60, limit=len(ops))
    finally:
        known.TABLE2_VIOLATORS.clear()
        known.TABLE2_VIOLATORS.update(saved)
        shutil.rmtree(work, ignore_errors=True)
    assert passed.results and all(
        r["mismatch"] and not r["ok"] for r in passed.results
    ), passed.results
    print(f"ok  planted expectation caught on {len(passed.results)} ops")


def check_span_parents() -> None:
    out = tempfile.mkdtemp(dir=WORK)
    try:
        tracer = Tracer(out, op="x", parent="op-x")
        with tracer.span("check.safety"):
            with tracer.span("cache.load", backend="disk"):
                pass
        tracer.flush()
        spans, counters = load_dir(out)
        spans.append(root_span("x", spans[0]["start"] - 1, spans[-1]["end"] + 1))
        trace = analyse(spans, counters)["x"]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    assert trace.parented()
    load, = trace.named("cache.load")
    check, = trace.named("check.safety")
    assert load["parent"] == check["id"] and check["parent"] == "op-x"
    assert abs(trace.unattributed_s - (trace.wall - (load["end"] - load["start"]))) < 1e-9
    print("ok  spans carry parents and leaf coverage")


def check_no_checker() -> None:
    bare = tempfile.mkdtemp(dir=WORK)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [PYTHON, "perfbench/run.py", "--workload", "cli-warm", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print(f"ok  without a checker: exit {done.returncode}, no result")


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    check_span_parents()
    check_no_checker()
    check_planted_mismatch()
    check_metrics()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
