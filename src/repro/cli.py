"""Command-line front-end, generated from the analysis registry.

Usage (via ``python -m repro``)::

    python -m repro list
    python -m repro targets [--resolve SPEC]
    python -m repro run overflow gsl-bessel [--seed N] [--workers N]
    python -m repro run sat "x < 1 && x + 1 >= 2" [--metric ulp|naive]
    python -m repro run coverage fig2 --smoke
    python -m repro run path fig2 --workers 4 --racing --progress
    python -m repro run boundary --target examples/python_targets.py::fig2
    python -m repro run boundary --target examples/c/bessel.c::gsl_sf_bessel_J0_approx
    python -m repro run overflow --target mypkg.models:price --events-out ev.jsonl
    python -m repro batch --analyses fpod,coverage --workers 4
    python -m repro batch --analyses sat --formulas constraints.txt
    python -m repro batch --targets fig2,examples/python_targets.py::fig1a
    python -m repro scan examples/ --analyses boundary,overflow --workers 4
    python -m repro scan src/ --smoke --baseline --json

``--target`` accepts first-class target specs (:mod:`repro.api.targets`):
a suite program name, ``pkg.mod:fn``, ``file.py::fn``, or
``file.c::fn`` — module and ``.py`` specs lower the named Python
function to FPIR through :mod:`repro.fpir.frontend`; ``.c`` specs go
through the C frontend (:mod:`repro.cfront`).

``repro run <analysis>`` subcommands and the ``repro list`` output are
*generated* from :mod:`repro.api.registry`: registering a new
:class:`~repro.api.base.Analysis` is enough to make it runnable from
the command line.  Every run accepts the shared engine knobs
(``--seed``, ``--workers``, ``--starts``, ``--rounds``, ``--backend``,
``--niter``, ``--eval-mode``, ``--racing``, ``--progress``) plus
whatever the analysis
contributes via its ``configure_parser`` hook; ``--smoke`` applies the
analysis's tiny CI budget.  Runs execute through a
:class:`repro.api.Session` (one warm worker pool for all rounds);
``--progress`` streams the session's typed round events to stderr —
including the fault-tolerance events (``StartCrashed`` /
``RoundRetried``) emitted when a worker dies and the round is healed
by resubmitting its lost starts.  Backends resolve through
:func:`repro.mo.registry.resolve_backend` — one wiring for every
subcommand.

``repro scan PATH`` walks a whole project tree, classifies every
function, and runs the requested analyses on each lowerable one
through an incremental store (:mod:`repro.scan`): an unchanged
function's verdict replays from ``.repro-scan/`` with zero engine
evaluations on re-scan.

Exit status: 0 = complete run, 1 = batch campaign with failed jobs
(for ``scan``: findings — under ``--baseline``, *new* findings),
2 = bad target/spec, 3 = a *partial* result (a run or campaign job
whose report was salvaged from a cancelled job's completed starts).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional


def _engine_arguments(cmd: argparse.ArgumentParser) -> None:
    """The shared EngineConfig knobs, identical for every analysis."""
    from repro.core.weak_distance import EVAL_MODES
    from repro.mo import available_backends

    cmd.add_argument("--seed", type=int, default=None)
    cmd.add_argument(
        "--workers", type=int, default=1,
        help="fan each round's starts across N worker processes",
    )
    cmd.add_argument(
        "--starts", type=int, default=None,
        help="starts per round (default: analysis-specific)",
    )
    cmd.add_argument(
        "--rounds", type=int, default=None,
        help="round budget for stateful drivers",
    )
    cmd.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="MO backend (portfolio races several per start)",
    )
    cmd.add_argument(
        "--niter", type=int, default=None,
        help="backend iterations per start",
    )
    cmd.add_argument(
        "--eval-mode",
        dest="eval_mode",
        choices=EVAL_MODES,
        default=None,
        help="weak-distance tier: compiled (default) or the reference "
             "interpreter (bit-identical results)",
    )
    cmd.add_argument(
        "--smoke", action="store_true",
        help="tiny CI budget (and a default target)",
    )
    cmd.add_argument(
        "--racing", action="store_true",
        help="race the starts (EngineConfig.deterministic=False): "
             "first zero cancels the round — faster, same verdict, "
             "run-dependent representatives",
    )
    cmd.add_argument(
        "--progress", action="store_true",
        help="stream per-round progress events to stderr",
    )
    cmd.add_argument(
        "--target", dest="target_spec", default=None, metavar="SPEC",
        help="target spec overriding the positional target: a suite "
             "program name, pkg.mod:fn, file.py::fn, or file.c::fn "
             "(the Python/C frontend lowers the function to FPIR)",
    )
    cmd.add_argument(
        "--events-out", dest="events_out", default=None, metavar="PATH",
        help="write every session event as JSON Lines to PATH",
    )


def _build_parser() -> argparse.ArgumentParser:
    from repro.api import available_analyses, get_analysis
    from repro.core.weak_distance import EVAL_MODES

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Weak-distance minimization analyses (PLDI'19 "
                    "reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered analyses and programs")

    targets = sub.add_parser(
        "targets",
        help="list registered program targets and the target-spec "
             "grammar",
    )
    targets.add_argument(
        "--resolve", metavar="SPEC", default=None,
        help="resolve SPEC (suite name, pkg.mod:fn, file.py::fn, or "
             "file.c::fn) and show the lowered program's signature",
    )

    run = sub.add_parser("run", help="run a registered analysis through the engine")
    runsub = run.add_subparsers(dest="analysis_command", required=True)
    for name in available_analyses():
        cls = get_analysis(name)
        cmd = runsub.add_parser(name, help=cls.help)
        _engine_arguments(cmd)
        cls.configure_parser(cmd)
        cmd.set_defaults(analysis=name)

    batch = sub.add_parser(
        "batch",
        help="run whole analysis x program campaigns concurrently",
    )
    batch.add_argument(
        "--analyses",
        default="fpod,coverage,boundary",
        help="comma-separated analyses (fpod, coverage, boundary, path)",
    )
    batch.add_argument(
        "--targets",
        default=None,
        help="comma-separated targets: suite program names and/or "
             "frontend specs pkg.mod:fn / file.py::fn / file.c::fn "
             "(default: all registered programs)",
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: CPU count)",
    )
    batch.add_argument("--seed", type=int, default=None)
    batch.add_argument("--niter", type=int, default=30)
    batch.add_argument("--rounds", type=int, default=20)
    batch.add_argument(
        "--formulas",
        default=None,
        metavar="PATH",
        help="SAT campaign corpus: a file with one constraint per "
             "line, or a directory of .smt2-style constraint files "
             "(requires 'sat' in --analyses)",
    )
    batch.add_argument(
        "--starts", type=int, default=None,
        help="starts per formula for --formulas jobs",
    )
    batch.add_argument(
        "--racing", action="store_true",
        help="run every job in racing (non-deterministic) mode",
    )
    batch.add_argument(
        "--progress", action="store_true",
        help="stream per-job progress events to stderr",
    )
    batch.add_argument(
        "--events-out", dest="events_out", default=None, metavar="PATH",
        help="write every campaign event as JSON Lines to PATH",
    )

    scan = sub.add_parser(
        "scan",
        help="scan a whole Python project tree incrementally "
             "('CI for floating-point bugs')",
    )
    scan.add_argument(
        "path",
        help="project directory (or single .py file) to scan",
    )
    scan.add_argument(
        "--analyses",
        default="boundary",
        help="comma-separated program-kind analyses to run on every "
             "lowerable function (e.g. boundary,overflow,inconsistency)",
    )
    scan.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the campaign (results are "
             "bit-identical to a serial scan)",
    )
    scan.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed (default 0; fixed so re-scans replay)",
    )
    scan.add_argument("--niter", type=int, default=None)
    scan.add_argument("--rounds", type=int, default=None)
    scan.add_argument("--starts", type=int, default=None)
    from repro.mo import available_backends

    scan.add_argument(
        "--backend", choices=available_backends(), default=None,
    )
    scan.add_argument(
        "--eval-mode",
        dest="eval_mode",
        choices=EVAL_MODES,
        default=None,
    )
    scan.add_argument(
        "--smoke", action="store_true",
        help="tiny CI budget (each analysis's smoke options)",
    )
    scan.add_argument(
        "--exclude", action="append", default=[], metavar="PATTERN",
        help="fnmatch pattern pruned from the walk (repeatable); "
             "matched against paths relative to the scan root",
    )
    scan.add_argument(
        "--store", dest="store", default=None, metavar="DIR",
        help="incremental results store (default: <path>/.repro-scan)",
    )
    scan.add_argument(
        "--baseline", action="store_true",
        help="fail (exit 1) only on findings absent from the "
             "accepted baseline in the store",
    )
    scan.add_argument(
        "--update-baseline", dest="update_baseline", action="store_true",
        help="accept every current finding as the new baseline",
    )
    scan.add_argument(
        "--json", dest="as_json", action="store_true",
        help="machine-readable report on stdout",
    )
    scan.add_argument(
        "--prove", action="store_true",
        help="consult the static tier first: functions with a safety "
             "certificate skip their dynamic campaign entirely (zero "
             "engine evaluations, like a cache hit)",
    )
    scan.add_argument(
        "--progress", action="store_true",
        help="stream per-job progress events to stderr",
    )
    scan.add_argument(
        "--events-out", dest="events_out", default=None, metavar="PATH",
        help="write every campaign event as JSON Lines to PATH",
    )

    lint = sub.add_parser(
        "lint",
        help="statically lint a project tree for floating-point "
             "hazards (no engine evaluations)",
    )
    lint.add_argument(
        "path",
        help="project directory (or single .py/.c file) to lint",
    )
    lint.add_argument(
        "--exclude", action="append", default=[], metavar="PATTERN",
        help="fnmatch pattern pruned from the walk (repeatable)",
    )
    lint.add_argument(
        "--json", dest="as_json", action="store_true",
        help="machine-readable report on stdout",
    )

    serve = sub.add_parser(
        "serve",
        help="run the analysis service: submit jobs over HTTP, stream "
             "SSE progress, resume interrupted campaigns",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 = pick a free one; the bound address is "
             "printed on startup)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker processes in the shared warm pool",
    )
    serve.add_argument(
        "--quota", type=int, default=2,
        help="per-tenant cap on concurrently running jobs",
    )
    serve.add_argument(
        "--store", default=None, metavar="DIR",
        help="checkpoint journal directory (default: ./.repro-serve)",
    )
    serve.add_argument(
        "--api-key", dest="api_keys", action="append", default=[],
        metavar="KEY",
        help="accepted X-API-Key (repeatable; each key is a tenant); "
             "none = open single-tenant mode",
    )
    serve.add_argument(
        "--ring", type=int, default=None, metavar="N",
        help="per-job SSE ring-buffer capacity (events)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="replay the journal: restore settled jobs, continue "
             "interrupted ones bit-identically from their last "
             "checkpointed round",
    )

    client = sub.add_parser(
        "client",
        help="talk to a running 'repro serve' endpoint",
    )
    client.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="server base URL",
    )
    client.add_argument(
        "--api-key", dest="api_key", default=None,
        help="X-API-Key to authenticate (and namespace) requests with",
    )
    clientsub = client.add_subparsers(dest="client_command", required=True)
    submit = clientsub.add_parser("submit", help="submit one job")
    submit.add_argument("analysis")
    submit.add_argument("target")
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--niter", type=int, default=None)
    submit.add_argument("--rounds", type=int, default=None)
    submit.add_argument("--starts", type=int, default=None)
    submit.add_argument("--max-samples", dest="max_samples", type=int,
                        default=None)
    submit.add_argument("--smoke", action="store_true")
    submit.add_argument("--racing", action="store_true")
    submit.add_argument("--backend", default=None)
    submit.add_argument(
        "--eval-mode", dest="eval_mode",
        choices=EVAL_MODES, default=None,
    )
    submit.add_argument("--label", default=None)
    submit.add_argument(
        "--watch", action="store_true",
        help="stream the job's events until it finishes",
    )
    status = clientsub.add_parser(
        "status", help="show one job (or all jobs with no id)",
    )
    status.add_argument("job_id", nargs="?", default=None)
    watch = clientsub.add_parser(
        "watch", help="stream a job's SSE events (auto-reconnecting)",
    )
    watch.add_argument("job_id")
    watch.add_argument(
        "--from", dest="last_event_id", type=int, default=None,
        metavar="SEQ", help="resume after event SEQ (Last-Event-ID)",
    )
    cancel = clientsub.add_parser(
        "cancel", help="cancel a job; prints the salvaged report",
    )
    cancel.add_argument("job_id")
    return parser


def _cmd_list() -> int:
    from repro.api import available_analyses, get_analysis
    from repro.programs import list_programs

    print("analyses:")
    for name in available_analyses():
        print(f"  {name:<10} {get_analysis(name).help}")
    print("programs:")
    for name in list_programs():
        print(f"  {name}")
    return 0


def _cmd_targets(args) -> int:
    from repro.api import TargetError, parse_target_spec
    from repro.fpir.frontend import FrontendError
    from repro.programs import list_programs

    if args.resolve is not None:
        try:
            target = parse_target_spec(args.resolve)
            program = target.resolve()
        except (TargetError, FrontendError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        params = ", ".join(p.name for p in program.entry_function.params)
        print(f"{target.describe()}: entry {program.entry}({params})")
        print(
            f"  {len(program.functions)} function(s), "
            f"{program.num_inputs} double input(s)"
        )
        for fn in program.functions.values():
            fn_params = ", ".join(f"double {p.name}" for p in fn.params)
            print(f"    double {fn.name}({fn_params})")
        return 0
    print("suite programs (repro run <analysis> <name>):")
    for name in list_programs():
        print(f"  {name}")
    print("python targets (repro run <analysis> --target SPEC):")
    print("  pkg.mod:fn      import pkg.mod, lower fn via the frontend")
    print("  file.py::fn     lower fn from a Python source file")
    print("c targets (repro run <analysis> --target SPEC):")
    print("  file.c::fn      lower fn from a C source file (repro.cfront)")
    print("sat targets: constraint text, e.g. \"x < 1 && x + 1 >= 2\"")
    return 0


def _progress_printer():
    """A thread-safe event renderer writing one line per event."""
    import threading

    from repro.api.events import render_event

    lock = threading.Lock()

    def on_event(event) -> None:
        line = render_event(event)
        if line is not None:
            with lock:
                print(line, file=sys.stderr, flush=True)

    return on_event


def _cmd_run(args) -> int:
    from repro.api import EngineConfig, Session, get_analysis

    cls = get_analysis(args.analysis)
    options = cls.options_from_args(args)
    backend_options: Dict[str, Any] = {}
    if args.niter is not None:
        backend_options["niter"] = args.niter
    n_starts = args.starts
    max_rounds = args.rounds
    if args.smoke:
        smoke = dict(cls.smoke_options)
        smoke_niter = smoke.pop("niter", None)
        if smoke_niter is not None and args.niter is None:
            backend_options["niter"] = smoke_niter
        if n_starts is None:
            n_starts = smoke.pop("n_starts", None)
        if max_rounds is None:
            max_rounds = smoke.pop("max_rounds", None)
        for key, value in smoke.items():
            if key in ("n_starts", "max_rounds"):
                continue
            # Smoke budgets yield to options the user set explicitly
            # (explicit flags are already present in `options`).
            options.setdefault(key, value)

    config = EngineConfig(
        seed=args.seed,
        n_workers=args.workers,
        backend=args.backend,
        backend_options=backend_options,
        n_starts=n_starts,
        max_rounds=max_rounds,
        deterministic=not args.racing,
        eval_mode=args.eval_mode,
    )
    target = args.target_spec if args.target_spec else args.target
    on_event = _progress_printer() if args.progress else None
    from repro.api import TargetError
    from repro.fpir.frontend import FrontendError

    try:
        with Session(
            config=config, on_event=on_event, event_sink=args.events_out
        ) as session:
            report = session.run(args.analysis, target, **options)
    except (TargetError, FrontendError) as exc:
        # Bad spec / unsupported Python subset: show the located
        # diagnostic, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(cls.render(report))
    if report.n_crash_retries:
        print(
            f"note: {report.n_crash_retries} crash-salvage "
            "cycle(s) healed this run",
            file=sys.stderr,
        )
    if report.partial:
        # Salvaged from a cancelled job: distinguishable from a
        # complete run by exit status (see module docstring).
        print("note: partial report (job was cancelled)", file=sys.stderr)
        return 3
    return 0


def _cmd_batch(args) -> int:
    from repro.core.batch import formula_jobs, run_batch, suite_jobs
    from repro.util.tables import format_table

    analyses = [a for a in args.analyses.split(",") if a]
    targets = ([t for t in args.targets.split(",") if t] if args.targets else None)
    program_analyses = [a for a in analyses if a != "sat"]
    jobs = []
    try:
        if "sat" in analyses:
            if args.formulas is None:
                raise ValueError(
                    "a sat campaign needs --formulas FILE-OR-DIR "
                    "(one constraint per line, or one .smt2-style "
                    "file per formula)"
                )
            jobs.extend(
                formula_jobs(
                    args.formulas,
                    seed=args.seed,
                    niter=args.niter,
                    n_starts=args.starts,
                    racing=args.racing,
                )
            )
        elif args.formulas is not None:
            raise ValueError("--formulas requires 'sat' in --analyses")
        if program_analyses:
            jobs.extend(
                suite_jobs(
                    analyses=program_analyses,
                    targets=targets,
                    seed=args.seed,
                    niter=args.niter,
                    rounds=args.rounds,
                    racing=args.racing,
                )
            )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n_workers = args.workers or os.cpu_count() or 1
    on_event = _progress_printer() if args.progress else None
    results = run_batch(
        jobs,
        n_workers=n_workers,
        on_event=on_event,
        event_sink=args.events_out,
    )
    def _result_cell(r) -> str:
        if not r.ok:
            return f"ERROR: {r.error}"
        cell = r.summary
        if r.partial:
            cell += " [partial]"
        if r.crash_retries:
            cell += f" [{r.crash_retries} crash retr.]"
        return cell

    rows = [
        (
            r.job.analysis,
            r.job.display,
            _result_cell(r),
            f"{r.seconds:.1f}s",
        )
        for r in results
    ]
    print(f"{len(jobs)} jobs on {n_workers} worker(s):")
    print(format_table(("analysis", "target", "result", "time"), rows))
    failed = sum(1 for r in results if not r.ok)
    partial = sum(1 for r in results if r.partial)
    retries = sum(r.crash_retries for r in results)
    if failed or partial or retries:
        print(
            f"{failed} failed, {partial} partial, "
            f"{retries} crash-salvage cycle(s)",
            file=sys.stderr,
        )
    if failed:
        return 1
    return 3 if partial else 0


def _cmd_scan(args) -> int:
    import json

    from repro.api import get_analysis
    from repro.scan import ScanConfig, scan_exit_code, scan_project
    from repro.scan.report import render_scan_report, scan_report_to_dict

    analyses = tuple(a for a in args.analyses.split(",") if a)
    try:
        if not analyses:
            raise ValueError("--analyses names no analyses")
        for name in analyses:
            try:
                cls = get_analysis(name)
            except KeyError:
                raise ValueError(f"unknown analysis {name!r}") from None
            if cls.target_kind != "program":
                raise ValueError(
                    f"{name!r} is not a program-kind analysis; a scan "
                    "crosses program analyses over Python functions"
                )
        config = ScanConfig(
            analyses=analyses,
            n_workers=args.workers,
            seed=args.seed,
            niter=args.niter,
            rounds=args.rounds,
            starts=args.starts,
            backend=args.backend,
            eval_mode=args.eval_mode,
            smoke=args.smoke,
            exclude=tuple(args.exclude),
            store_dir=args.store,
            baseline=args.baseline,
            update_baseline=args.update_baseline,
            prove=args.prove,
            on_event=_progress_printer() if args.progress else None,
            event_sink=args.events_out,
        )
        report = scan_project(args.path, config)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(scan_report_to_dict(report), indent=2, sort_keys=True))
    else:
        print(render_scan_report(report))
    return scan_exit_code(report)


def _cmd_lint(args) -> int:
    import json

    from repro.static import (
        lint_exit_code,
        lint_paths,
        lint_report_to_dict,
        render_lint_report,
    )

    try:
        report = lint_paths(args.path, exclude=tuple(args.exclude))
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(lint_report_to_dict(report), indent=2, sort_keys=True))
    else:
        print(render_lint_report(report))
    return lint_exit_code(report)


def _cmd_serve(args) -> int:
    from repro.serve import ReproServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        n_workers=args.workers,
        quota=args.quota,
        api_keys=tuple(args.api_keys),
        resume=args.resume,
    )
    if args.store is not None:
        config.store_dir = args.store
    if args.ring is not None:
        config.ring_capacity = args.ring
    server = ReproServer(config)
    # The smoke harness (and port=0 users) parse this exact line.
    print(f"repro-serve listening on {server.url}", flush=True)
    if args.resume:
        print(f"resumed {server.n_resumed} interrupted job(s)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_client(args) -> int:
    import json

    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.url, api_key=args.api_key)
    try:
        if args.client_command == "submit":
            payload: Dict[str, Any] = {
                "analysis": args.analysis,
                "target": args.target,
            }
            for knob in ("seed", "niter", "rounds", "starts",
                         "max_samples", "backend", "eval_mode", "label"):
                value = getattr(args, knob)
                if value is not None:
                    payload[knob] = value
            for flag in ("smoke", "racing"):
                if getattr(args, flag):
                    payload[flag] = True
            job = client.submit(payload)
            print(f"submitted {job['id']} ({job['state']})")
            if not args.watch:
                return 0
            args.job_id = job["id"]
            args.last_event_id = None
        if args.client_command in ("submit", "watch"):
            from repro.api.events import event_from_dict, render_event

            for record in client.watch(args.job_id, args.last_event_id):
                line = render_event(event_from_dict(record))
                if line:
                    print(f"[{record['seq']}] {line}", flush=True)
            job = client.wait(args.job_id)
            print(json.dumps(job, indent=2, sort_keys=True))
            return 0 if job["state"] == "done" else 1
        if args.client_command == "status":
            if args.job_id is None:
                for job in client.jobs():
                    print(
                        f"{job['id']:<6} {job['state']:<10} "
                        f"{job['analysis']:<12} {job['target']}"
                    )
                return 0
            print(json.dumps(client.job(args.job_id), indent=2, sort_keys=True))
            return 0
        if args.client_command == "cancel":
            job = client.cancel(args.job_id)
            print(json.dumps(job, indent=2, sort_keys=True))
            return 0
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "targets":
        return _cmd_targets(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "scan":
        return _cmd_scan(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "client":
        return _cmd_client(args)
    return _cmd_run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
