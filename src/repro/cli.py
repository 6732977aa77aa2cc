"""Command-line interface: the paper's checker as a tool.

Subcommands::

    python -m repro word  "(w,1)2 (r,1)1 c2 (w,2)1 c1"   # decide piss/piop
    python -m repro safety dstm --property op            # one Table 2 cell
    python -m repro safety all                           # full Table 2
    python -m repro liveness dstm --manager aggressive   # one Table 3 row
    python -m repro liveness all                         # full Table 3
    python -m repro specs --threads 2 --vars 2           # spec sizes + Thm 3
    python -m repro simulate 2PL --schedule 111112 \\
        --program "1:r1 w2 c" --program "2:w2 c"         # a Table 1 run
    python -m repro batch campaign.json                  # supervised sweep
    python -m repro hunt                                 # mutant bug-hunt farm
    python -m repro hunt --list                          # the mutant roster
    python -m repro serve --socket /tmp/repro.sock       # resident daemon
    python -m repro serve --socket /tmp/repro.sock \\
        --check-request req.json                         # daemon client
    python -m repro doctor /path/to/cache [--fix]        # cache health
    python -m repro chaos --seed-range 0:8               # fault-schedule sweep

Exit status is 0 when every requested property holds, 1 when a violation
was found, 2 on usage errors — so the tool scripts cleanly into CI for
anyone developing a TM with this library.  ``batch`` adds 3 for cells
that errored or timed out (errors dominate violations) plus 143/130
when drained by SIGTERM/^C mid-campaign (every in-flight cell is
journaled as interrupted and the journal resumes); both ``batch`` and
``hunt`` run ``--concurrency N`` cells at once (default: one per usable
CPU) with identical reports at any N; ``hunt`` inverts the
contract per mutant — 1 means every seeded bug was caught (success), 3
means a mutant escaped, a correct variant was falsely killed, or cells
are incomplete (see :mod:`repro.campaign.hunt_report`); ``doctor``
follows the scanner contract 0/1/2/3 (healthy / anomalies / scan failed
/ fix incomplete); and ``chaos`` exits 0 when every trial upholds the
recovery invariants, 1 on any invariant violation, 2 on a bad schedule
or flags, 3 when the harness or a fault-free baseline itself failed —
see :mod:`repro.campaign`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from .checking import (
    check_livelock_freedom,
    check_obstruction_freedom,
    check_safety,
    check_wait_freedom,
    render_table,
)
from .core.properties import is_opaque, is_strictly_serializable
from .core.statements import format_word, parse_word
from .spec import OP, SS, cached_det_spec, cached_nondet_spec
from .tm import (
    DSTM,
    TL2,
    AggressiveManager,
    BoundedKarmaManager,
    ManagedTM,
    ModifiedTL2,
    NOrecTM,
    OptimisticTM,
    PermissiveManager,
    PoliteManager,
    SequentialTM,
    TMAlgorithm,
    TwoPhaseLockingTM,
    build_liveness_graph,
)
from .tm.runs import parse_schedule, program, simulate

TM_FACTORIES = {
    "seq": SequentialTM,
    "2pl": TwoPhaseLockingTM,
    "dstm": DSTM,
    "tl2": TL2,
    "modtl2": ModifiedTL2,
    "opt": OptimisticTM,
    "norec": NOrecTM,
}

MANAGERS = {
    "aggressive": AggressiveManager,
    "polite": PoliteManager,
    "permissive": PermissiveManager,
    "karma": BoundedKarmaManager,
}

PROPERTIES = {"ss": SS, "op": OP}


def _resolve_cache_dir(args: argparse.Namespace):
    """``--cache-dir [DIR]`` × ``--cache-backend NAME``.

    None when warm-starting is off; otherwise the cache for the given
    (or default) directory — a bare directory string for the default
    disk backend, a constructed :class:`repro.cache.CacheBackend` for
    the others (the checking layer accepts either form).
    """
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None:
        return None
    if cache_dir == "":
        from .cache import default_cache_dir

        cache_dir = default_cache_dir()
    backend = getattr(args, "cache_backend", "disk") or "disk"
    if backend == "disk":
        return cache_dir
    from .cache import make_backend

    return make_backend(backend, cache_dir)


def _make_tm(
    name: str, n: int, k: int, manager: Optional[str]
) -> TMAlgorithm:
    if "/" in name:  # mutant ids: tl2/drop-rvalidate[@seedN]
        from .tm.mutate import make_mutant

        try:
            tm = make_mutant(name, n, k)
        except ValueError as exc:
            raise SystemExit(str(exc))
    else:
        try:
            tm = TM_FACTORIES[name.lower()](n, k)
        except KeyError:
            raise SystemExit(
                f"unknown TM {name!r}; choose from"
                f" {sorted(TM_FACTORIES)}, 'all', or a mutant id"
                " (see 'repro hunt --list')"
            )
    if manager is not None:
        try:
            cm_cls = MANAGERS[manager.lower()]
        except KeyError:
            raise SystemExit(
                f"unknown manager {manager!r}; choose from {sorted(MANAGERS)}"
            )
        if cm_cls is BoundedKarmaManager:
            tm = ManagedTM(tm, cm_cls(n))
        else:
            tm = ManagedTM(tm, cm_cls())
    return tm


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_word(args: argparse.Namespace) -> int:
    word = parse_word(args.word)
    ss = is_strictly_serializable(word)
    op = is_opaque(word)
    print(f"word: {format_word(word)}")
    print(f"strictly serializable: {'yes' if ss else 'no'}")
    print(f"opaque:                {'yes' if op else 'no'}")
    if not ss or not op:
        from .core.properties import (
            opacity_witness,
            strict_serializability_witness,
        )

        witness = (
            strict_serializability_witness(word) if not ss
            else opacity_witness(word)
        )
        if witness.cycle_explanation:
            print(f"cycle: {witness.cycle_explanation}")
    return 0 if (ss and op) else 1


def cmd_safety(args: argparse.Namespace) -> int:
    n, k = args.threads, args.vars
    props = (
        [PROPERTIES[args.property]] if args.property else [SS, OP]
    )
    # Specifications are pulled from the process-wide caches inside
    # check_safety (prebuilding them here would pin the Statement-keyed
    # DFA path; passing spec=None lets the int-rows path — and its
    # warm-start, which never materializes the rich DFA — kick in).
    names = (
        sorted(TM_FACTORIES) if args.tm.lower() == "all" else [args.tm]
    )
    rows: List[List[str]] = []
    worst = 0
    cache_dir = _resolve_cache_dir(args)
    for name in names:
        tm = _make_tm(name, n, k, args.manager)
        cells = [tm.name]
        for p in props:
            prof: Optional[Dict[str, float]] = (
                {} if args.profile else None
            )
            res = check_safety(
                tm,
                p,
                materialize=args.materialize,
                lazy_spec=args.lazy_spec,
                compiled=args.compiled,
                spec_compiled=args.spec_compiled,
                dense_kernel=args.dense_kernel,
                cache_dir=cache_dir,
                profile=prof,
            )
            if prof is not None:
                import json

                print(
                    json.dumps(
                        {
                            "tm": tm.name,
                            "prop": p.value,
                            "phases": {
                                key: round(value, 6)
                                for key, value in prof.items()
                            },
                        }
                    ),
                    file=sys.stderr,
                )
            cells.append(res.verdict())
            if not res.holds:
                worst = 1
        rows.append(cells)
    header = ["TM"] + [f"⊆ Σd{p.value}" for p in props]
    print(render_table(f"safety for ({n},{k})", header, rows))
    return worst


def cmd_liveness(args: argparse.Namespace) -> int:
    n, k = args.threads, args.vars
    names = (
        sorted(TM_FACTORIES) if args.tm.lower() == "all" else [args.tm]
    )
    rows: List[List[str]] = []
    worst = 0
    cache_dir = _resolve_cache_dir(args)
    for name in names:
        tm = _make_tm(name, n, k, args.manager)
        graph = build_liveness_graph(
            tm, compiled=args.compiled, cache_dir=cache_dir
        )
        cells = [tm.name, str(len(graph.nodes))]
        for check in (
            check_obstruction_freedom,
            check_livelock_freedom,
            check_wait_freedom,
        ):
            res = check(tm, graph=graph)
            cells.append(res.verdict())
            if not res.holds:
                worst = 1
        rows.append(cells)
    print(
        render_table(
            f"liveness for ({n},{k})",
            ["TM", "States", "Obstruction f.", "Livelock f.", "Wait f."],
            rows,
        )
    )
    return worst


def cmd_specs(args: argparse.Namespace) -> int:
    n, k = args.threads, args.vars
    for p in (SS, OP):
        nondet = cached_nondet_spec(n, k, p)
        det = cached_det_spec(n, k, p)
        line = (
            f"Σ{p.value}: nondet {nondet.num_states} states,"
            f" det {det.num_states} states"
        )
        if args.check_equivalence:
            from .automata import (
                check_inclusion_antichain,
                check_inclusion_in_dfa,
            )

            fwd = check_inclusion_in_dfa(nondet, det)
            bwd = check_inclusion_antichain(det.to_nfa(), nondet)
            line += f", equivalent: {fwd.holds and bwd.holds}"
            if not (fwd.holds and bwd.holds):
                return 1
        print(line)
    return 0


#: ``repro batch``/``repro hunt`` interrupted-drain exit codes (128 +
#: signal number, the shell convention orchestrators already match on).
EXIT_SIGTERM = 143
EXIT_SIGINT = 130


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {value}")
    return value


def _run_campaign_command(
    label: str, args: argparse.Namespace, execute, summarize
) -> int:
    """The shared body of ``batch`` and ``hunt``.

    ``execute(resume=, progress=, concurrency=)`` runs the campaign
    under a SIGTERM drain; ``summarize(run)`` returns ``(json,
    markdown, exit_code)``, which lands in the report files and on
    stdout.  A drain exits 143 (SIGTERM) or 130 (^C) — the runner has
    journaled every in-flight cell as interrupted, so a resumed run
    re-runs exactly those — and a journal I/O failure exits 3 with one
    diagnosable line.
    """
    import signal

    from .campaign import CampaignInterrupted
    from .campaign.journal import JournalError
    from .campaign.report import EXIT_ERRORS

    progress = (
        None
        if args.quiet
        else (lambda line: print(line, file=sys.stderr, flush=True))
    )

    def _on_term(signum, frame):  # orchestrator drain: TERM == ^C
        raise CampaignInterrupted(f"signal {signum}")

    previous = signal.signal(signal.SIGTERM, _on_term)
    try:
        run = execute(
            resume=not args.no_resume, progress=progress,
            concurrency=args.concurrency,
        )
    except (CampaignInterrupted, KeyboardInterrupt) as exc:
        term = isinstance(exc, CampaignInterrupted)
        if not args.quiet:
            print(
                f"{label}: interrupted ({'SIGTERM' if term else '^C'});"
                " journal is resumable",
                file=sys.stderr, flush=True,
            )
        return EXIT_SIGTERM if term else EXIT_SIGINT
    except JournalError as exc:
        # The outcome log is gone (ENOSPC/EIO): everything already
        # journaled stays resumable once the disk recovers.
        print(f"{label}: {exc}", file=sys.stderr, flush=True)
        return EXIT_ERRORS
    finally:
        signal.signal(signal.SIGTERM, previous)
    json_text, markdown, code = summarize(run)
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as fh:
            fh.write(json_text)
    if args.report_markdown:
        with open(args.report_markdown, "w", encoding="utf-8") as fh:
            fh.write(markdown + "\n")
    if not args.quiet:
        print(markdown)
    return code


def cmd_batch(args: argparse.Namespace) -> int:
    # Imported lazily: the campaign layer back-imports the TM/property
    # registries above, so a module-level import would be circular.
    from .campaign import (
        build_report,
        load_spec,
        render_markdown,
        report_exit_code,
        run_campaign,
    )
    from .campaign.report import render_json

    spec = load_spec(args.spec)
    journal_path = args.journal or os.path.join(
        os.path.dirname(os.path.abspath(args.spec)), "campaign.jsonl"
    )

    def summarize(run):
        report = build_report(run)
        return (
            render_json(report), render_markdown(report),
            report_exit_code(report),
        )

    return _run_campaign_command(
        "batch", args,
        lambda **run_args: run_campaign(spec, journal_path, **run_args),
        summarize,
    )


def cmd_hunt(args: argparse.Namespace) -> int:
    # Lazy import for the same circularity reason as cmd_batch.
    from .campaign import (
        build_hunt_report,
        default_hunt_spec,
        hunt_exit_code,
        load_hunt_spec,
        render_hunt_json,
        render_hunt_markdown,
        run_hunt,
    )

    if args.list:
        from .tm.mutate import OPERATORS, default_mutants

        roster = default_mutants()
        width = max(len(mid) for mid in roster)
        for mid in roster:
            cls = OPERATORS[mid.partition("@")[0]]
            expected = "bug    " if cls.expect_bug else "correct"
            print(f"{mid:{width}s}  {expected}  {cls.summary}")
        return 0

    spec = (
        load_hunt_spec(args.spec) if args.spec else default_hunt_spec()
    )
    journal_path = args.journal or (
        os.path.join(
            os.path.dirname(os.path.abspath(args.spec)), "hunt.jsonl"
        )
        if args.spec
        else "hunt.jsonl"
    )

    def summarize(run):
        report = build_hunt_report(spec, run)
        return (
            render_hunt_json(report), render_hunt_markdown(report),
            hunt_exit_code(report),
        )

    return _run_campaign_command(
        "hunt", args,
        lambda **run_args: run_hunt(spec, journal_path, **run_args),
        summarize,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    # Lazy import for the same circularity reason as cmd_batch.
    import json

    from .serve import ServeClient, ServeClientError

    client_mode = (
        args.check_request or args.health or args.stats or args.shutdown
    )
    if client_mode:
        try:
            client = ServeClient(
                socket_path=args.socket,
                port=args.port,
                host=args.host,
                connect_timeout=args.connect_timeout,
            )
        except (ServeClientError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        worst = 0
        with client:
            try:
                if args.health:
                    record = client.health()
                    print(json.dumps(record, sort_keys=True))
                    return 0 if record.get("ok") else 3
                if args.stats:
                    print(json.dumps(client.stats(), sort_keys=True))
                    return 0
                if args.shutdown:
                    record = client.shutdown()
                    print(json.dumps(record, sort_keys=True))
                    return 0 if record.get("ok") else 3
                with open(args.check_request, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
                requests = data if isinstance(data, list) else [data]
                for request in requests:
                    record = client.check(request)
                    print(json.dumps(record, sort_keys=True))
                    status = record.get("status")
                    if status == "fail":
                        worst = max(worst, 1)
                    elif status != "pass":
                        worst = 3
            except ServeClientError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 3
        return worst

    from .serve import CheckServer, ResidentStore

    if (args.socket is None) == (args.port is None):
        print(
            "error: serve needs exactly one of --socket / --port",
            file=sys.stderr,
        )
        return 2
    cache_dir = args.cache_dir
    if cache_dir == "":
        from .cache import default_cache_dir

        cache_dir = default_cache_dir()
    defaults: Dict[str, object] = {}
    for key, value in (
        ("timeout_s", args.timeout_s),
        ("retries", args.retries),
        ("backoff_s", args.backoff_s),
        ("memory_mb", args.memory_mb),
    ):
        if value is not None:
            defaults[key] = value
    server = CheckServer(
        socket_path=args.socket,
        port=args.port,
        host=args.host,
        workers=args.workers,
        queue_depth=args.queue_depth,
        store=ResidentStore(cache_dir, args.cache_backend),
        defaults=defaults,
        log=(lambda _line: None) if args.quiet else None,
    )
    return server.serve_forever()


def cmd_doctor(args: argparse.Namespace) -> int:
    import json

    from .campaign.doctor import (
        DEFAULT_MAX_QUARANTINE,
        render_doctor,
        run_doctor,
    )

    cache_dir = args.dir
    if cache_dir is None:
        from .cache import default_cache_dir

        cache_dir = default_cache_dir()
    max_quarantine = (
        args.max_quarantine
        if args.max_quarantine is not None
        else DEFAULT_MAX_QUARANTINE
    )
    if max_quarantine < 0:
        print("error: --max-quarantine must be >= 0", file=sys.stderr)
        return 2
    code, report = run_doctor(
        cache_dir, fix=args.fix, max_quarantine=max_quarantine
    )
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(render_doctor(report), end="")
    return code


def cmd_chaos(args: argparse.Namespace) -> int:
    # Lazy import for the same circularity reason as cmd_batch.
    from .campaign.chaos import run_chaos_cli

    return run_chaos_cli(args)


def cmd_simulate(args: argparse.Namespace) -> int:
    tm = _make_tm(args.tm, args.threads, args.vars, args.manager)
    programs: Dict[int, tuple] = {}
    for spec in args.program or []:
        thread_text, _, prog_text = spec.partition(":")
        programs[int(thread_text)] = program(prog_text)
    run = simulate(tm, programs, parse_schedule(args.schedule))
    print(f"run : {run}")
    print(f"word: {format_word(run.word())}")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Model checking transactional memories (PLDI 2008).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_word = sub.add_parser("word", help="decide piss/piop for a word")
    p_word.add_argument("word", help='e.g. "(w,1)2 (r,1)1 c2 (w,2)1 c1"')
    p_word.set_defaults(func=cmd_word)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--threads", "-n", type=int, default=2)
        p.add_argument("--vars", "-k", type=int, default=2)
        p.add_argument(
            "--manager",
            "-m",
            choices=sorted(MANAGERS),
            help="compose with a contention manager",
        )

    p_safety = sub.add_parser("safety", help="Table 2: language inclusion")
    p_safety.add_argument("tm", help="seq|2pl|dstm|tl2|modtl2|all")
    p_safety.add_argument("--property", "-p", choices=sorted(PROPERTIES))
    mode = p_safety.add_mutually_exclusive_group()
    mode.add_argument(
        "--materialize",
        action="store_true",
        help="build the full TM automaton before checking instead of"
        " streaming states into the product lazily",
    )
    mode.add_argument(
        "--lazy-spec",
        action="store_true",
        help="also stream the specification through its transition"
        " function instead of materializing it — required for large"
        " (n, k) where the full specification is intractable",
    )
    p_safety.add_argument(
        "--no-compiled",
        dest="compiled",
        action="store_false",
        help="disable the compiled packed-state TM engine and stream"
        " naive tuple states (the differential reference path)",
    )
    p_safety.add_argument(
        "--no-compiled-spec",
        dest="spec_compiled",
        action="store_false",
        help="with --lazy-spec, stream the specification through the"
        " rich det_step oracle instead of the compiled packed-state"
        " spec oracle (the differential reference path)",
    )
    dense_mode = p_safety.add_mutually_exclusive_group()
    dense_mode.add_argument(
        "--dense-kernel",
        dest="dense_kernel",
        action="store_true",
        default=None,
        help="force dense CSR recording even without a cache (by"
        " default recording only engages when --cache-dir is set, so"
        " one-shot cold runs skip the recording overhead)",
    )
    dense_mode.add_argument(
        "--no-dense-kernel",
        dest="dense_kernel",
        action="store_false",
        help="disable the dense array-backed BFS kernel (CSR successor"
        " tables + bitset seen-sets) and keep the set-based pair loop"
        " (the differential reference path)",
    )
    p_safety.add_argument(
        "--profile",
        action="store_true",
        help="emit a per-phase time split (engine build / row discovery"
        " / product BFS / trace rerun) as one JSON line per check on"
        " stderr",
    )
    p_safety.add_argument(
        "--cache-dir",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="warm-start from (and spill to) an on-disk cache of"
        " compiled-engine tables; without DIR uses $REPRO_CACHE_DIR or"
        " ~/.cache/repro",
    )
    p_safety.add_argument(
        "--cache-backend",
        choices=("disk", "mmap", "memory"),
        default="disk",
        help="storage backend for --cache-dir: pickle files (disk),"
        " zero-copy memory-mapped segment files shared across"
        " processes (mmap), or a process-local store (memory);"
        " results are identical across backends",
    )
    add_common(p_safety)
    p_safety.set_defaults(func=cmd_safety)

    p_live = sub.add_parser("liveness", help="Table 3: loop analysis")
    p_live.add_argument("tm", help="seq|2pl|dstm|tl2|modtl2|all")
    p_live.add_argument(
        "--no-compiled",
        dest="compiled",
        action="store_false",
        help="build the liveness graph with the naive explorer instead"
        " of the compiled packed-state engine",
    )
    p_live.add_argument(
        "--cache-dir",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="warm-start the compiled engine (node rows and the dense"
        " adjacency included) from an on-disk cache; without DIR uses"
        " $REPRO_CACHE_DIR or ~/.cache/repro",
    )
    p_live.add_argument(
        "--cache-backend",
        choices=("disk", "mmap", "memory"),
        default="disk",
        help="storage backend for --cache-dir (see 'safety --help')",
    )
    add_common(p_live)
    p_live.set_defaults(func=cmd_liveness, vars=1)

    p_specs = sub.add_parser("specs", help="specification sizes / Thm 3")
    p_specs.add_argument("--threads", "-n", type=int, default=2)
    p_specs.add_argument("--vars", "-k", type=int, default=2)
    p_specs.add_argument(
        "--check-equivalence",
        action="store_true",
        help="also run the Theorem 3 antichain equivalence",
    )
    p_specs.set_defaults(func=cmd_specs)

    # Run flags ``batch`` and ``hunt`` share (see _run_campaign_command).
    campaign_run = argparse.ArgumentParser(add_help=False)
    campaign_run.add_argument(
        "--no-resume",
        action="store_true",
        help="truncate any existing journal instead of resuming it",
    )
    campaign_run.add_argument(
        "--report-json",
        metavar="PATH",
        help="write the canonical JSON report here",
    )
    campaign_run.add_argument(
        "--report-markdown",
        metavar="PATH",
        help="write the markdown report here",
    )
    campaign_run.add_argument(
        "--quiet",
        "-q",
        action="store_true",
        help="suppress progress (stderr) and the stdout report",
    )
    campaign_run.add_argument(
        "--concurrency",
        type=_positive_int,
        metavar="N",
        help="cells in flight at once, each in its own supervised child"
        " (default: one per usable CPU); reports are identical at any N",
    )

    p_batch = sub.add_parser(
        "batch",
        parents=[campaign_run],
        help="run a fault-tolerant campaign from a JSON spec",
    )
    p_batch.add_argument("spec", help="path to the campaign spec (JSON)")
    p_batch.add_argument(
        "--journal",
        metavar="PATH",
        help="journal file (default: campaign.jsonl next to the spec);"
        " an existing journal for the same spec resumes the campaign",
    )
    p_batch.set_defaults(func=cmd_batch)

    p_hunt = sub.add_parser(
        "hunt",
        parents=[campaign_run],
        help="sweep seeded-bug TM mutants through the campaign layer",
    )
    p_hunt.add_argument(
        "spec",
        nargs="?",
        help="path to a hunt spec (JSON); omitted = the shipped"
        " default mutant roster at (2,2) against ss and op",
    )
    p_hunt.add_argument(
        "--list",
        action="store_true",
        help="print the default mutant roster (id, expected verdict,"
        " summary) and exit",
    )
    p_hunt.add_argument(
        "--journal",
        metavar="PATH",
        help="journal file (default: hunt.jsonl next to the spec, or"
        " ./hunt.jsonl for the default hunt); an existing journal for"
        " the same hunt resumes it",
    )
    p_hunt.set_defaults(func=cmd_hunt)

    p_serve = sub.add_parser(
        "serve",
        help="run (or talk to) the resident checker daemon",
    )
    endpoint = p_serve.add_argument_group("endpoint")
    endpoint.add_argument(
        "--socket",
        metavar="PATH",
        help="listen on (or connect to) an AF_UNIX socket at PATH",
    )
    endpoint.add_argument(
        "--port",
        type=int,
        metavar="N",
        help="listen on (or connect to) TCP port N (0 picks a free"
        " port and logs it)",
    )
    endpoint.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind/connect address (default: 127.0.0.1)",
    )
    server_group = p_serve.add_argument_group("server mode")
    server_group.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="concurrent supervised checks (default: 1)",
    )
    server_group.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        metavar="N",
        help="admitted-but-not-running requests held before answering"
        " busy (default: 8)",
    )
    server_group.add_argument(
        "--cache-dir",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="durable cold tier under the resident hot tier; a"
        " restarted daemon re-hydrates from it (without DIR uses"
        " $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    server_group.add_argument(
        "--cache-backend",
        choices=("disk", "mmap"),
        default="disk",
        help="cold-tier backend for --cache-dir (default: disk)",
    )
    server_group.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        metavar="S",
        help="default per-attempt wall clock for requests that don't"
        " set timeout_s (default: the campaign default, 300)",
    )
    server_group.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="default supervised retries per request (default: 2)",
    )
    server_group.add_argument(
        "--backoff-s",
        type=float,
        default=None,
        metavar="S",
        help="default retry backoff base (decorrelated jitter)",
    )
    server_group.add_argument(
        "--memory-mb",
        type=int,
        default=None,
        metavar="MB",
        help="default per-request RSS cap",
    )
    server_group.add_argument(
        "--quiet",
        "-q",
        action="store_true",
        help="suppress the daemon's stderr log lines",
    )
    client_group = p_serve.add_argument_group("client mode")
    client_group.add_argument(
        "--check-request",
        metavar="FILE",
        help="send the JSON check request (object or array of objects)"
        " in FILE to a running daemon and print each response line;"
        " exits 0 all-pass / 1 any-fail / 3 any error, timeout or busy",
    )
    client_group.add_argument(
        "--health",
        action="store_true",
        help="print the daemon's health record and exit",
    )
    client_group.add_argument(
        "--stats",
        action="store_true",
        help="print the daemon's stats record and exit",
    )
    client_group.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the daemon to drain and exit 0",
    )
    client_group.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="client mode: retry the initial connect for up to S"
        " seconds (rides out the daemon's startup)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_doctor = sub.add_parser(
        "doctor",
        help="scan a warm-start cache directory for damaged entries",
    )
    p_doctor.add_argument(
        "dir",
        nargs="?",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or"
        " ~/.cache/repro)",
    )
    p_doctor.add_argument(
        "--fix",
        action="store_true",
        help="quarantine damaged entries (<name>.bad) and remove"
        " orphaned temporaries; without it the scan is read-only",
    )
    p_doctor.add_argument(
        "--json",
        action="store_true",
        help="emit the scan report as JSON",
    )
    p_doctor.add_argument(
        "--max-quarantine",
        type=int,
        default=None,
        help="quarantined .bad files to retain under --fix (oldest"
        " rotated out beyond this; default 16)",
    )
    p_doctor.set_defaults(func=cmd_doctor)

    p_chaos = sub.add_parser(
        "chaos",
        help="sweep seeded fault schedules through batch/serve/hunt"
        " and check recovery invariants",
    )
    p_chaos.add_argument(
        "--seed-range",
        default="0:4",
        help="half-open seed range START:STOP for the schedule family"
        " (default 0:4)",
    )
    p_chaos.add_argument(
        "--plane",
        action="append",
        choices=["storage", "journal", "wire"],
        help="restrict to one or more fault planes (repeatable;"
        " default: all)",
    )
    p_chaos.add_argument(
        "--schedule",
        default=None,
        help="replay one JSON fault-schedule file instead of the"
        " generated family",
    )
    p_chaos.add_argument(
        "--scenario",
        action="append",
        choices=["batch", "serve", "hunt"],
        help="restrict to one or more scenarios (repeatable;"
        " default: whatever the plane supports)",
    )
    p_chaos.add_argument(
        "--deadline-s",
        type=float,
        default=120.0,
        help="per-trial wall-clock deadline (default 120)",
    )
    p_chaos.add_argument(
        "--report-json",
        help="write the chaos report to this path as JSON",
    )
    p_chaos.add_argument(
        "--workdir",
        default=None,
        help="directory for trial scratch state (default: a"
        " temporary directory, removed afterwards)",
    )
    p_chaos.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress per-trial progress lines",
    )
    p_chaos.set_defaults(func=cmd_chaos)

    p_sim = sub.add_parser("simulate", help="Table 1: run a schedule")
    p_sim.add_argument("tm")
    p_sim.add_argument("--schedule", "-s", required=True, help="e.g. 112122")
    p_sim.add_argument(
        "--program",
        "-P",
        action="append",
        help='per-thread program, e.g. "1:r1 w2 c" (repeatable)',
    )
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
