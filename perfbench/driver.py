"""Checker-side entry points the benchmark starts as child processes.

    driver.py populate --ops FILE --dir DIR --backend NAME
        Warm a cache: run every ``repro`` command line in FILE once,
        in this one process, against DIR with the given backend.
    driver.py cli [--trace DIR --op ID] -- ARGS...
        ``python -m repro ARGS`` with the layer boundaries traced.
    driver.py hunt --ops FILE (--journal PATH [--trace DIR] | --prepare-only)
        One hunt over the TMs listed in FILE, driven through
        ``run_hunt``; prints one JSON line with per-cell timings.

Run with the checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
import time

from tracing import Tracer, install, root_span


def cmd_populate(args) -> int:
    import repro.cli

    with open(args.ops, encoding="utf-8") as fh:
        commands = json.load(fh)
    for argv in commands:
        argv = argv + ["--cache-dir", args.dir, "--cache-backend", args.backend]
        with contextlib.redirect_stdout(io.StringIO()):
            code = repro.cli.main(argv)
        if code not in (0, 1):
            print(f"populate: {argv} exited {code}", file=sys.stderr)
            return 2
    return 0


def cmd_cli(args) -> int:
    tracer = Tracer(
        args.trace, op=args.op,
        parent=None if args.op is None else f"op-{args.op}",
    )
    try:
        with tracer.span("cli.import"):
            import repro.cli
        install(tracer)
        with tracer.span("cli.main"):
            return repro.cli.main(args.args)
    finally:
        tracer.flush()


_CELL_START = re.compile(r"\[\d+/\d+\] (\S+) \.\.\.")


def cmd_hunt(args) -> int:
    tracer = Tracer(args.trace) if args.trace else None
    from repro.campaign import build_hunt_report, hunt_exit_code, run_hunt
    from repro.campaign.hunt import HUNT_POLICY_DEFAULTS, HuntSpec

    if tracer is not None:
        install(tracer)
    with open(args.ops, encoding="utf-8") as fh:
        tms = json.load(fh)
    spec = HuntSpec(
        "bench-hunt", tms, ["ss", "op"], [[2, 2]], dict(HUNT_POLICY_DEFAULTS)
    )
    if args.prepare_only:
        return 0
    cells = []
    current = {}

    def progress(line: str) -> None:
        now = time.perf_counter()
        started = _CELL_START.match(line)
        if started:
            current.update(id=started.group(1), start=now)
            if tracer is not None:
                tracer.set_op(current["id"], f"op-{current['id']}")
        elif line.strip().startswith("->") and current:
            cells.append({"id": current["id"], "start": current["start"],
                          "end": now})
            if tracer is not None:
                tracer.spans.append(
                    root_span(current["id"], current["start"], now)
                )
                tracer.set_op(None, None)
            current.clear()

    hunt_start = time.perf_counter()
    run = run_hunt(spec, args.journal, resume=False, progress=progress)
    hunt_end = time.perf_counter()
    by_id = {cell["id"]: cell for cell in spec.campaign.cells}
    for record in cells:
        entry = run.entries.get(record["id"], {})
        cell = by_id[record["id"]]
        record.update(
            tm=cell["tm"], prop=cell["property"],
            status=entry.get("status"),
            holds=(entry.get("result") or {}).get("holds"),
        )
    code = hunt_exit_code(build_hunt_report(spec, run))
    if tracer is not None:
        tracer.flush()
    print(json.dumps({"start": hunt_start, "end": hunt_end, "exit": code,
                      "cells": cells}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="driver.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("populate")
    p.add_argument("--ops", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--backend", required=True)
    p.set_defaults(func=cmd_populate)
    p = sub.add_parser("cli")
    p.add_argument("--trace", required=True)
    p.add_argument("--op", default=None)
    p.add_argument("args", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_cli)
    p = sub.add_parser("hunt")
    p.add_argument("--ops", required=True)
    p.add_argument("--journal", help="required unless --prepare-only")
    p.add_argument("--trace", default=None)
    p.add_argument("--prepare-only", action="store_true")
    p.set_defaults(func=cmd_hunt)
    args = parser.parse_args(argv)
    if getattr(args, "args", None) and args.args[0] == "--":
        args.args = args.args[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
