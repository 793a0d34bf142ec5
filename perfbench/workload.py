"""One benchmark workload, run in a fresh Python process by ``run.py``.

::

    python3 perfbench/workload.py NAME --seed N --seconds S --trace 0|1 \\
        --work DIR [--setup-only]

Protocol on standard output: one ``READY`` line once set-up is done
(imports, server start and health), then, unless ``--setup-only``, one
``RESULT <json>`` line.  Everything else goes to standard error.  The
process reads and writes only under the checkout it runs in; its
scratch files live under ``--work``.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``scan-cold`` — cold serial ``scan_project`` over a twin-rich slice
  of ``examples/``; one operation is one function's verdicts under
  both analyses, each timed from its job's ``JobStarted`` to its
  ``JobFinished``;
* ``rescan-edit`` — a generated project (``gen.py``) against a warm
  store; one operation is one step: edit a few kernels, re-scan with
  ``prove``, lint the tree;
* ``serve-closed`` — ``repro serve --workers 2`` driven by two client
  threads in a closed loop; one operation is one HTTP job, timed from
  ``POST`` to the ``JobFinished`` event on its SSE stream.

With ``--trace 1`` the run is split: half of it untraced, half traced
(alternating passes or steps where the work repeats, two server phases
for ``serve-closed``).  Per-layer metrics come from the traced half;
``trace.overhead_frac`` compares the two halves.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402

ANALYSES = ("boundary", "overflow")


class Events:
    """Session events as they arrive, with arrival times.

    Accepts the typed events a ``Session`` callback receives and the
    dict records of the ``repro serve`` SSE stream.
    """

    def __init__(self, tracer: Optional[tracing.Tracer] = None, prefix: str = "") -> None:
        self.tracer = tracer
        self.prefix = prefix
        self.lock = threading.Lock()
        self.finished: List[Tuple[float, Any]] = []
        self.started: Dict[Any, float] = {}
        self.submitted: Dict[Any, float] = {}
        self.round_s: List[float] = []
        self.rounds = 0
        self.useful_rounds = 0
        self.crash_retries = 0
        self._round_t0: Dict[Any, float] = {}
        self._best: Dict[Any, float] = {}

    def __call__(self, event: Any, now: Optional[float] = None, key: Any = None) -> None:
        from repro.api import events as ev

        now = time.perf_counter() if now is None else now
        if isinstance(event, dict):
            event = ev.event_from_dict(event)
        job = event.job_id if key is None else key
        if isinstance(event, ev.JobStarted) and self.tracer is not None:
            self.tracer.bind_op(f"{self.prefix}job{job}")
        with self.lock:
            if isinstance(event, ev.JobStarted):
                self.started[job] = now
            elif isinstance(event, ev.RoundStarted):
                self._round_t0[job] = now
            elif isinstance(event, ev.RoundFinished):
                self.rounds += 1
                if job in self._round_t0:
                    self.round_s.append(now - self._round_t0.pop(job))
                best = self._best.get(job, float("inf"))
                if event.found_zero or event.best_w < best:
                    self.useful_rounds += 1
                self._best[job] = min(best, event.best_w)
            elif isinstance(event, (ev.StartCrashed, ev.RoundRetried)):
                self.crash_retries += 1
            elif isinstance(event, ev.JobFinished):
                self.finished.append((now, event))
        if isinstance(event, ev.JobFinished) and self.tracer is not None:
            self.tracer.unbind_op()

    def queue_waits(self) -> List[float]:
        return [
            self.started[job] - t
            for job, t in self.submitted.items()
            if job in self.started
        ]


def record_submits(events: Events, tee: bool = False) -> tracing.Installation:
    """Note each ``Session.submit``'s return time under its job id.

    With ``tee``, ``events`` also receives the job's events through the
    per-job ``on_event`` callback the caller passes to ``submit``.
    """
    from repro.api.session import Session

    installed = tracing.Installation()
    original = Session.__dict__["submit"]

    def submit(self: Any, *args: Any, **kwargs: Any) -> Any:
        if tee:
            callback = kwargs.get("on_event")

            def on_event(event: Any) -> None:
                events(event)
                if callback is not None:
                    callback(event)

            kwargs["on_event"] = on_event
        handle = original(self, *args, **kwargs)
        with events.lock:
            events.submitted[handle.job_id] = time.perf_counter()
        return handle

    installed.saved.append((Session, "submit", original))
    Session.submit = submit
    return installed


class Layers:
    """Accumulates what the traced half of a run measured."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.windows: List[Tuple[float, float]] = []
        self.ops = 0
        self.loose_w_evals = 0
        self.loose_w_s = 0.0
        self.values: Dict[str, List[float]] = {}

    def add_spans(self, recorded: Dict[str, Any]) -> None:
        """Append one tracer's spans (``Tracer.to_dict`` form)."""
        base = len(self.spans)
        for span in recorded["spans"]:
            if span["parent"] >= 0:
                span["parent"] += base
            self.spans.append(span)
        self.loose_w_evals += recorded["loose_w_evals"]
        self.loose_w_s += recorded["loose_w_s"]

    def note(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def mean(self, name: str) -> float:
        values = self.values.get(name)
        return statistics.fmean(values) if values else 0.0

    def metrics(self, roots: Tuple[str, ...], events: List[Events]) -> Dict[str, float]:
        totals = tracing.layer_totals(self.spans)
        ops = max(self.ops, 1)

        def self_s(*names: str) -> float:
            return sum(totals.get(n, {}).get("self_s", 0.0) for n in names) / ops

        def calls(*names: str) -> float:
            return sum(totals.get(n, {}).get("calls", 0) for n in names) / ops

        mo = totals.get("mo", {})
        w_evals = mo.get("w_evals", 0) + self.loose_w_evals
        w_s = mo.get("w_s", 0.0) + self.loose_w_s
        round_s = [s for e in events for s in e.round_s]
        rounds = sum(e.rounds for e in events)
        useful = sum(e.useful_rounds for e in events)
        waits = [w for e in events for w in e.queue_waits()]
        wall = sum(w1 - w0 for w0, w1 in self.windows)
        covered = tracing.covered_time(self.spans, self.windows, roots)
        out = {
            "scan.walk_s": self_s("scan.walk"),
            "scan.classify_s": self_s("scan.classify"),
            "scan.functions": self.mean("scan.functions"),
            "scan.store.open_s": self_s("scan.store.open"),
            "scan.store.get_s": self_s("scan.store.get"),
            "scan.store.put_s": self_s("scan.store.put"),
            "scan.store.hit_ratio": self.mean("scan.store.hit_ratio"),
            "scan.store.bytes": self.mean("scan.store.bytes"),
            "scan.dup_digest_share": self.mean("scan.dup_digest_share"),
            "fpir.frontend.lower_s": self_s("fpir.frontend.lower"),
            "cfront.lower_s": self_s("cfront.lower"),
            "lower.functions": calls("fpir.frontend.lower", "cfront.lower"),
            "lower.reject_ratio": self.mean("lower.reject_ratio"),
            "util.digest_s": self_s("util.digest"),
            "static.analyze_s": self_s("static.analyze"),
            "static.hazards_s": self_s("static.hazards"),
            "static.prove_s": self_s("static.prove"),
            "static.certified_ratio": self.mean("static.certified_ratio"),
            "fpir.instrument_s": self_s("fpir.instrument"),
            "fpir.compile_s": self_s("fpir.compile"),
            "fpir.compile.calls": calls("fpir.compile"),
            "core.w.evals": w_evals / ops,
            "core.w.eval_s": w_s / ops,
            "core.w.us_per_eval": 1e6 * w_s / w_evals if w_evals else 0.0,
            "mo.self_s": self_s("mo"),
            "analyses.rounds": rounds / ops,
            "analyses.round_s_p50": statistics.median(round_s) if round_s else 0.0,
            "analyses.useful_round_ratio": useful / rounds if rounds else 0.0,
            "api.session.submit_s": self_s("api.session.submit"),
            "api.session.queue_wait_s": statistics.fmean(waits) if waits else 0.0,
            "api.targets.resolve_s": self_s("api.targets.resolve"),
            "core.pool.crash_retries": sum(e.crash_retries for e in events) / ops,
            "trace.coverage": covered / wall if wall > 0 else 0.0,
            "trace.spans": len(self.spans) / ops,
        }
        for name in (
            "serve.submit_s",
            "serve.queue_wait_s",
            "serve.run_s",
            "serve.journal_bytes",
            "serve.http_errors",
        ):
            out[name] = self.mean(name)
        return out


class Op:
    """One operation's outcome."""

    __slots__ = ("latency", "ok", "why")

    def __init__(self, latency: float, ok: bool = True, why: str = "") -> None:
        self.latency = latency
        self.ok = ok
        self.why = why


class Workload:
    name = ""
    #: Latency percentile reported as the tail (see run.py).  A run
    #: makes at least :attr:`min_ops` operations, so that at least 10
    #: samples lie beyond it and the percentile never changes.
    tail_cap = 0.75
    #: The root spans: the workload's own calls into the program.
    roots: Tuple[str, ...] = ()

    def __init__(self, args: argparse.Namespace) -> None:
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.traced = bool(args.trace)
        self.work = args.work
        self.ops: List[Op] = []
        self.active_s = 0.0
        self.layers = Layers()
        self.events: List[Events] = []
        self.traffic: Dict[str, float] = {}
        self.overhead_frac = 0.0

    @property
    def min_ops(self) -> int:
        from run import samples_beyond

        n = 1
        while samples_beyond(n, self.tail_cap) < 10:
            n += 1
        return n

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def result(self) -> Dict[str, Any]:
        failures = [op.why for op in self.ops if not op.ok]
        out: Dict[str, Any] = {
            "latencies": [op.latency for op in self.ops],
            "attempted": len(self.ops),
            "failed": len(failures),
            "failures": failures[:10],
            "active_s": self.active_s,
            "tail_cap": self.tail_cap,
            "traffic": self.traffic,
        }
        if self.traced:
            layers = self.layers.metrics(self.roots, self.events)
            layers["trace.overhead_frac"] = self.overhead_frac
            out["per_layer"] = layers
        return out


# ---------------------------------------------------------------------------
# scan-cold
# ---------------------------------------------------------------------------


class ScanCold(Workload):
    """Cold serial scans of a fixed, twin-rich slice of ``examples/``.

    The whole tree takes ~55 s serial at the smoke budget, more than
    one run; the slice keeps the ``lintdemo`` C/Python twin pairs (hazard
    kernels) and the C ``fig`` kernels, which have no twin in it.  A run
    makes one pass per :attr:`PASS_S` seconds it is given, so its work is
    fixed and its time varies.  Set-up ends with a one-function scan, so
    lazy imports land in ``setup_s`` and not in the first pass.  Every
    pass copies the slice to a fresh directory, so no in-process lowering
    cache carries over, and scans it into a fresh store at the scan's
    default campaign seed, as CI runs it.  The work is therefore the same
    on every pass and seed; the seed only names the copies.
    """

    name = "scan-cold"
    tail_cap = 0.75
    roots = ("scan",)
    SOURCE = "examples"
    SLICE = ("c/fig.c", "c/lintdemo.c", "lintdemo_twin.py")
    #: The C file and its Python twin within the slice.
    TWINS = ("c/lintdemo.c", "lintdemo_twin.py")
    #: Nominal length of one pass on an idle 2-CPU host.
    PASS_S = 10.0

    def setup(self) -> None:
        from repro.scan import ScanConfig, scan_project

        missing = [
            rel for rel in self.SLICE if not os.path.isfile(os.path.join(self.SOURCE, rel))
        ]
        if missing:
            raise FileNotFoundError(f"examples slice missing: {missing}")
        self.rescorer = checks.Rescorer()
        self.certified: Dict[str, bool] = {}
        warm = os.path.join(self.work, "warm")
        os.makedirs(warm, exist_ok=True)
        with open(os.path.join(warm, "warm.py"), "w", encoding="utf-8") as fh:
            fh.write("def warm(x):\n    if x < 1.0:\n        return x * 2.0\n    return x\n")
        scan_project(
            warm,
            ScanConfig(
                analyses=ANALYSES,
                smoke=True,
                store_dir=os.path.join(self.work, "warm-store"),
            ),
        )

    def _fresh_copy(self, tag: str) -> str:
        root = os.path.join(self.work, tag, "examples")
        for rel in self.SLICE:
            os.makedirs(os.path.dirname(os.path.join(root, rel)), exist_ok=True)
            shutil.copyfile(os.path.join(self.SOURCE, rel), os.path.join(root, rel))
        return root

    def run(self) -> None:
        passes = max(2 if self.traced else 1, round(self.seconds / self.PASS_S))
        timed: Dict[bool, List[float]] = {False: [], True: []}
        index = 0
        while index < passes or len(self.ops) < self.min_ops:
            traced = self.traced and index % 2 == 1
            timed[traced].append(self._one_pass(index, traced))
            index += 1
        if self.traced:
            self.overhead_frac = sum(timed[True]) / len(timed[True]) / (
                sum(timed[False]) / len(timed[False])
            ) - 1.0

    def _one_pass(self, index: int, traced: bool) -> float:
        from repro.scan import ScanConfig, scan_project

        root = self._fresh_copy(f"s{self.seed}-pass{index}")
        tracer = tracing.Tracer() if traced else None
        events = Events(tracer, prefix=f"p{index}/")
        config = ScanConfig(
            analyses=ANALYSES,
            smoke=True,
            store_dir=os.path.join(self.work, f"scan-store-{index}"),
            on_event=events,
        )
        installed = []
        if tracer is not None:
            installed = [tracing.install(tracer), record_submits(events)]
            tracer.bind_op(f"p{index}/scan")
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("scan"):
                    report = scan_project(root, config)
            else:
                report = scan_project(root, config)
        finally:
            t1 = time.perf_counter()
            for item in reversed(installed):
                item.uninstall()
        elapsed = t1 - t0
        self.active_s += elapsed

        # The serial scan runs one job at a time, so a verdict's latency
        # is its own job, from JobStarted to JobFinished.
        latency = {
            (e.target, e.analysis): t - events.started[e.job_id]
            for t, e in events.finished
            if e.job_id in events.started
        }
        bad = self._check(report)
        # One operation is one function: its verdicts under every
        # analysis.  Per verdict, half the samples are fast boundary jobs
        # and half slow overflow jobs, so the median would fall in the
        # gap between the two and swing with the slowest boundary job.
        functions: Dict[str, List[Any]] = {}
        for result in report.results:
            functions.setdefault(result.target, []).append(result)
        for target, results in functions.items():
            keys = [(target, r.analysis) for r in results]
            whys = [bad[k] for k in keys if k in bad]
            whys += [f"{k[1]}: no JobFinished event" for k in keys if k not in latency]
            if len(results) != len(ANALYSES):
                whys.append(f"{len(results)} verdicts, expected {len(ANALYSES)}")
            took = sum(latency.get(k, 0.0) for k in keys)
            self.ops.append(Op(took, not whys, "; ".join(dict.fromkeys(whys))))

        keys = [(r.digest, r.analysis) for r in report.results]
        lowered = {r.target: r.digest for r in report.results}
        self.traffic = {
            "scan.dup_digest_share": checks.dup_digest_share(keys),
            "scan.store.hit_ratio": report.n_cached / max(len(report.results), 1),
            "static.certified_ratio": sum(self.certified.get(d, False) for d in lowered.values())
            / max(len(lowered), 1),
        }
        if tracer is not None:
            self.layers.add_spans(tracer.to_dict())
            self.layers.windows.append((t0, t1))
            self.layers.ops += len(functions)
            self.events.append(events)
            for name, value in self.traffic.items():
                self.layers.note(name, value)
            self.layers.note("scan.functions", len(report.discovered))
            self.layers.note(
                "lower.reject_ratio",
                len(report.skipped) / max(len(report.discovered), 1),
            )
            store_file = os.path.join(config.store_dir, "results.jsonl")
            self.layers.note("scan.store.bytes", os.path.getsize(store_file))
        return elapsed

    def _check(self, report: Any) -> Dict[Tuple[str, str], str]:
        """Failed (target, analysis) keys with the reason."""
        from repro.api.targets import parse_target_spec

        bad: Dict[Tuple[str, str], str] = {}
        if report.n_cached or report.n_proven:
            reason = f"not cold: {report.n_cached} cached, {report.n_proven} proven"
            return {(r.target, r.analysis): reason for r in report.results}
        for result, reason in checks.twin_mismatches(report.results, *self.TWINS):
            bad[(result.target, result.analysis)] = reason
        for result in report.results:
            key = (result.target, result.analysis)
            if result.error or result.partial:
                bad[key] = f"error/partial: {result.error}"
                continue
            program = parse_target_spec(result.target).resolve()
            if result.digest not in self.certified:
                self.certified[result.digest] = checks.overflow_certified(program)
            if result.analysis == "overflow" and self.certified[result.digest]:
                if any(f["kind"] == "overflow" for f in result.findings):
                    bad[key] = "certified overflow-safe yet has a finding"
            for finding in result.findings:
                if not self.rescorer.finding_ok(
                    result.digest, program, result.analysis, finding
                ):
                    bad[key] = f"finding {finding['label']} does not re-score W=0"
        return bad


# ---------------------------------------------------------------------------
# rescan-edit
# ---------------------------------------------------------------------------


class RescanEdit(Workload):
    """Incremental re-scans and lints of a generated project.

    The tree (``gen.Project``) has 54 files of 3 kernels: 162 functions
    against the ~45 of ``examples/``, more than the target cache's 128
    entries, so every step re-lowers the tree in both the scan and the
    lint (a property of the program this workload exposes).  Each step
    re-draws 4 in-subset kernels (~2.5%, half of them hazard kernels),
    re-scans with ``prove`` and a tiny engine budget, and lints the tree.
    """

    name = "rescan-edit"
    tail_cap = 0.75
    roots = ("scan", "lint")
    N_FILES = 54
    PER_FILE = 3
    EDITS = 4

    def setup(self) -> None:
        from repro.scan import ScanConfig, scan_project  # noqa: F401
        from repro.static import lint_paths  # noqa: F401

    def run(self) -> None:
        import gen
        from repro.scan import ScanConfig

        root = os.path.join(self.work, "project")
        self.project = gen.Project(root, self.seed, self.N_FILES, self.PER_FILE)
        self.project.write_all()
        self.kernels = {self.project.spec(rel, k): k for rel, k in self.project.kernels()}
        self.config = ScanConfig(
            analyses=ANALYSES,
            prove=True,
            starts=1,
            rounds=1,
            niter=3,
            store_dir=os.path.join(self.work, "rescan-store"),
        )
        self.rescorer = checks.Rescorer()
        # Warm the store before timing starts (not an operation).
        report, lint = self._step(None)
        why = self._check(report, lint, edited=())
        if why:
            raise RuntimeError(f"warm-up scan failed its checks: {why}")

        timed: Dict[bool, List[float]] = {False: [], True: []}
        step = 0
        while self.active_s < self.seconds or len(self.ops) < self.min_ops:
            traced = self.traced and step % 2 == 1
            edited = self.project.edit(self.EDITS)
            tracer = tracing.Tracer() if traced else None
            t0 = time.perf_counter()
            try:
                report, lint = self._step(tracer, f"step{step}")
            except Exception as exc:  # a failed operation, not a failed run
                traceback.print_exc()
                latency = time.perf_counter() - t0
                self.active_s += latency
                self.ops.append(Op(latency, False, f"{type(exc).__name__}: {exc}"))
                step += 1
                continue
            t1 = time.perf_counter()
            latency = t1 - t0
            self.active_s += latency
            timed[traced].append(latency)
            why = self._check(report, lint, edited)
            self.ops.append(Op(latency, not why, why))
            self._note_traffic(report)
            if tracer is not None:
                self.layers.add_spans(tracer.to_dict())
                self.layers.windows.append((t0, t1))
                self.layers.ops += 1
                for name, value in self.traffic.items():
                    self.layers.note(name, value)
                self.layers.note("scan.functions", len(report.discovered))
                self.layers.note(
                    "lower.reject_ratio",
                    len(report.skipped) / max(len(report.discovered), 1),
                )
                self.layers.note(
                    "scan.store.bytes",
                    os.path.getsize(os.path.join(self.config.store_dir, "results.jsonl")),
                )
            step += 1
        if self.traced and timed[True] and timed[False]:
            self.overhead_frac = (
                statistics.median(timed[True]) / statistics.median(timed[False]) - 1.0
            )

    def _step(self, tracer: Optional[tracing.Tracer], op: str = "warm") -> Tuple[Any, Any]:
        from repro.scan import scan_project
        from repro.static import lint_paths

        root = self.project.root
        if tracer is None:
            return scan_project(root, self.config), lint_paths(root)
        events = Events(tracer, prefix=f"{op}/")
        self.config.on_event = events
        installed = [tracing.install(tracer), record_submits(events)]
        tracer.bind_op(op)
        try:
            with tracer.span("scan"):
                report = scan_project(root, self.config)
            tracer.bind_op(op)
            with tracer.span("lint"):
                lint = lint_paths(root)
        finally:
            for item in reversed(installed):
                item.uninstall()
            self.config.on_event = None
        self.events.append(events)
        return report, lint

    def _note_traffic(self, report: Any) -> None:
        n = max(len(report.results), 1)
        self.traffic = {
            "scan.dup_digest_share": checks.dup_digest_share(
                [(r.digest, r.analysis) for r in report.results]
            ),
            "scan.store.hit_ratio": report.n_cached / n,
            "static.certified_ratio": report.n_proven / n,
        }

    def _check(self, report: Any, lint: Any, edited: Any) -> str:
        from repro.api.targets import parse_target_spec
        from repro.scan.report import FROM_ENGINE, FROM_PROOF, FROM_STORE

        found = {d.spec: d for d in report.discovered}
        for spec, kernel in self.kernels.items():
            d = found.get(spec)
            if d is None:
                return f"{spec} not discovered"
            if kernel.in_subset and not d.lowerable:
                return f"in-subset {spec} skipped: {d.skip_reason}"
            if not kernel.in_subset and (d.lowerable or not checks.is_located(d.skip_reason)):
                return f"decoy {spec} lacks a located skip reason: {d.skip_reason!r}"
        edited = set(edited)
        flagged = {spec for spec, h in lint.hazards if h.kind == "overflow"}
        for result in report.results:
            kernel = self.kernels[result.target]
            if result.error or result.partial:
                return f"{result.target} {result.analysis}: error/partial {result.error}"
            if result.target in edited and result.source == FROM_STORE:
                return f"edited {result.target} replayed a stale store record"
            if result.analysis == "overflow" and kernel.hazard and result.source == FROM_PROOF:
                return f"hazard kernel {result.target} certified overflow-safe"
            if result.source != FROM_ENGINE:
                continue
            program = parse_target_spec(result.target).resolve()
            for finding in result.findings:
                if not self.rescorer.finding_ok(
                    result.digest, program, result.analysis, finding
                ):
                    return f"{result.target} finding {finding['label']} does not re-score W=0"
        for spec, kernel in self.kernels.items():
            if kernel.hazard and spec not in flagged:
                return f"lint misses the overflow hazard in {spec}"
        return ""


# ---------------------------------------------------------------------------
# serve-closed
# ---------------------------------------------------------------------------


class ServeClosed(Workload):
    """Two closed-loop clients against ``repro serve --workers 2``.

    Jobs come from a seeded shuffle of a balanced menu (every target
    with both analyses), block after block, each with a seeded
    campaign seed, so every run sees the same mix.
    """

    name = "serve-closed"
    tail_cap = 0.9
    #: The client records each job's phases as spans; they are roots,
    #: so ``trace.coverage`` counts only the server's layer spans.
    roots = ("serve.op", "serve.submit", "serve.queue_wait", "serve.run")
    CLIENTS = 2
    #: Pool workers of the server, traced or not.
    WORKERS = 2
    #: Smoke jobs of similar cost (0.2-0.4 s serial for overflow), C and
    #: Python; ``scale_up`` has a real overflow finding to re-check.
    TARGETS = (
        "examples/python_targets.py::fig1a",
        "examples/c/fig.c::fig1b",
        "examples/c/proven.c::bounded_wave",
        "examples/proven_twin.py::scaled_diff",
        "examples/proven_twin.py::horner_cubic",
        "examples/c/lintdemo.c::scale_up",
    )

    def setup(self) -> None:
        from repro.serve.client import ServeClient  # noqa: F401

        self._menu_lock = threading.Lock()
        self.rng = random.Random(self.seed)
        self._queue: List[Dict[str, Any]] = []
        self.server: Optional[subprocess.Popen] = None
        self._start_server(traced=False)

    def _start_server(self, traced: bool) -> None:
        from repro.serve.client import ServeClient

        store = os.path.join(self.work, "serve-traced" if traced else "serve-store")
        self.store = store
        if traced:
            self.spans_path = os.path.join(self.work, "serve-spans.json")
            cmd = [
                sys.executable,
                os.path.join(HERE, "serve_launcher.py"),
                "--store", store,
                "--spans-out", self.spans_path,
            ]
        else:
            cmd = [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", str(self.WORKERS), "--store", store,
            ]
        self.server = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = self.server.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.strip().rsplit(" ", 1)[-1]
        client = ServeClient(self.url)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                if client.health().get("ok"):
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.02)

    def _stop_server(self) -> None:
        if self.server is None:
            return
        self.server.send_signal(signal.SIGINT)
        try:
            self.server.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None

    def teardown(self) -> None:
        self._stop_server()

    def _next_job(self) -> Dict[str, Any]:
        with self._menu_lock:
            if not self._queue:
                menu = [(a, t) for t in self.TARGETS for a in ANALYSES]
                self.rng.shuffle(menu)
                self._queue = [
                    {
                        "analysis": a,
                        "target": t,
                        "seed": self.rng.randrange(1 << 20),
                        "smoke": True,
                    }
                    for a, t in menu
                ]
            return self._queue.pop(0)

    def run(self) -> None:
        self.rescorer = checks.Rescorer()
        if not self.traced:
            self._phase(self.seconds, None, self.min_ops)
            return
        untraced = self._phase(self.seconds / 2, None, 0)
        self._stop_server()
        self._start_server(traced=True)
        tracer = tracing.Tracer()
        traced = self._phase(self.seconds / 2, tracer, 0)
        self._stop_server()
        self.layers.add_spans(tracer.to_dict())
        with open(self.spans_path, encoding="utf-8") as fh:
            server = json.load(fh)
        self.layers.add_spans(server)
        server_events = Events()
        server_events.started = server["started"]
        server_events.submitted = server["submitted"]
        self.events.append(server_events)
        self.overhead_frac = traced / untraced - 1.0

    def _phase(
        self, seconds: float, tracer: Optional[tracing.Tracer], min_ops: int
    ) -> float:
        """Run the closed loop for ``seconds`` and at least ``min_ops``
        jobs; returns the p50 latency."""
        from repro.serve.client import ServeClient

        # Every phase replays the same seeded job sequence, so the
        # untraced and traced halves of a traced run do the same work.
        self.rng = random.Random(self.seed)
        self._queue = []
        events = Events()
        done: List[Tuple[Op, Dict[str, Any], Optional[str]]] = []
        lock = threading.Lock()
        t_start = time.perf_counter()
        deadline = t_start + seconds
        errors: List[BaseException] = []

        def client_loop(index: int) -> None:
            client = ServeClient(self.url)
            try:
                while time.perf_counter() < deadline or len(done) < min_ops:
                    payload = self._next_job()
                    outcome = self._one_job(client, payload, events, tracer)
                    with lock:
                        done.append(outcome)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=client_loop, args=(i,), name=f"client{i}")
            for i in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170.0)
        if errors:
            raise errors[0]
        t_end = time.perf_counter()
        self.active_s += t_end - t_start

        client = ServeClient(self.url)
        latencies = []
        for op, payload, job_id in done:
            if op.ok and job_id is not None:
                op.why = self._check_report(client, payload, job_id)
                op.ok = not op.why
            self.ops.append(op)
            latencies.append(op.latency)
        journal = os.path.join(self.store, "journal.jsonl")
        if tracer is not None:
            self.layers.windows.append((t_start, t_end))
            self.layers.ops += len(done)
            self.events.append(events)
            self.layers.note(
                "serve.journal_bytes",
                os.path.getsize(journal) / max(len(done), 1),
            )
        return statistics.median(latencies) if latencies else 0.0

    def _one_job(
        self,
        client: Any,
        payload: Dict[str, Any],
        events: Events,
        tracer: Optional[tracing.Tracer],
    ) -> Tuple[Op, Dict[str, Any], Optional[str]]:
        from repro.serve.client import ServeError

        t0 = time.perf_counter()
        try:
            job = client.submit(payload)
        except ServeError as exc:
            if tracer is not None:
                self.layers.note("serve.http_errors", 1.0)
            return Op(time.perf_counter() - t0, False, f"HTTP {exc.status}"), payload, None
        except OSError as exc:
            return Op(time.perf_counter() - t0, False, f"submit: {exc}"), payload, None
        t_accepted = time.perf_counter()
        job_id = job["id"]
        t_started = t_finished = None
        finished = None
        try:
            for record in client.events(job_id):
                now = time.perf_counter()
                events(record, now=now, key=job_id)
                if record.get("event") == "JobStarted":
                    t_started = now
                elif record.get("event") == "JobFinished":
                    t_finished = now
                    finished = record
                    break
        except (ServeError, OSError) as exc:
            return Op(time.perf_counter() - t0, False, f"events: {exc}"), payload, job_id
        if finished is None or t_started is None:
            return Op(time.perf_counter() - t0, False, "stream ended early"), payload, job_id
        op = Op(t_finished - t0)
        if finished.get("error") or finished.get("cancelled") or finished.get("partial"):
            op.ok = False
            op.why = f"job {job_id} ended {finished.get('error') or 'cancelled/partial'}"
        if tracer is not None:
            self.layers.note("serve.http_errors", 0.0)
            self.layers.note("serve.submit_s", t_accepted - t0)
            self.layers.note("serve.queue_wait_s", t_started - t_accepted)
            self.layers.note("serve.run_s", t_finished - t_started)
            root = tracer.record("serve.op", t0, t_finished, op=job_id)
            tracer.record("serve.submit", t0, t_accepted, root, job_id)
            tracer.record("serve.queue_wait", t_accepted, t_started, root, job_id)
            tracer.record("serve.run", t_started, t_finished, root, job_id)
        return op, payload, job_id

    def _check_report(self, client: Any, payload: Dict[str, Any], job_id: str) -> str:
        from repro.api.targets import parse_target_spec
        from repro.scan.store import program_digest

        job = client.job(job_id)
        report = job.get("report") or {}
        if job.get("state") != "done" or report.get("partial"):
            return f"job {job_id} state {job.get('state')}"
        program = parse_target_spec(payload["target"]).resolve()
        digest = program_digest(program)
        for finding in report.get("findings", []):
            if not self.rescorer.finding_ok(digest, program, payload["analysis"], finding):
                return f"job {job_id} finding {finding['label']} does not re-score W=0"
        return ""


WORKLOADS = {cls.name: cls for cls in (ScanCold, RescanEdit, ServeClosed)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    workload = WORKLOADS[args.name](args)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        workload.run()
    finally:
        workload.teardown()
    if workload.traced and args.spans_out:
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            json.dump({"windows": workload.layers.windows, "spans": workload.layers.spans}, fh)
    print("RESULT " + json.dumps(workload.result()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
