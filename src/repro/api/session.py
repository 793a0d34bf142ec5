"""Persistent sessions: the worker-pool service behind the engine.

`Engine.run` answers one question synchronously.  A :class:`Session`
keeps the execution machinery — one persistent
:class:`~repro.core.pool.WorkerPool` whose warm workers cache compiled
weak distances by program content hash — alive across many questions,
and exposes asynchronous job submission with streaming progress
events::

    from repro.api import EngineConfig, Session
    from repro.api.events import RoundFinished

    with Session(EngineConfig(seed=1, n_workers=4)) as session:
        handle = session.submit("overflow", "gsl-bessel")
        other = session.submit("sat", "x < 1 && x + 1 >= 2")
        report = handle.result()          # blocks; raises on job error

    # Streaming progress:
    with Session(EngineConfig(n_workers=4), on_event=print) as session:
        session.run("coverage", "fig2")   # prints typed round events

* :meth:`Session.submit` returns a :class:`JobHandle` immediately; the
  job runs on a driver thread, fanning each round's starts across the
  shared pool.  ``handle.result()`` / ``.done()`` / ``.cancel()`` give
  the usual future surface — cancellation takes effect *mid-round*
  through the pool's cancel slots.
* Cancellation is lossless: the starts that finished before the flag
  landed are absorbed and ``handle.cancel(wait=True)`` /
  ``handle.partial_result()`` return a real
  :class:`~repro.api.report.AnalysisReport` flagged ``partial=True``.
* Jobs are self-healing: a worker crash mid-round keeps the completed
  sibling starts and resubmits only the lost ones (typed
  :class:`~repro.api.events.StartCrashed` /
  :class:`~repro.api.events.RoundRetried` events narrate each salvage
  cycle; ``EngineConfig.max_crash_retries`` bounds them per round).
* :meth:`Session.run_many` submits a whole campaign and gathers the
  reports; campaign-level and start-level parallelism compose under
  the one worker budget (`repro.core.batch` is built on it).
* Determinism is unchanged from the engine: per-start randomness is a
  pure function of ``(seed, round, start)`` and deterministic mode
  never races, so a serial run and a warm-pool ``n_workers=4`` run
  return identical verdicts and representatives — and a crash-healed
  or salvaged run replays its retried starts byte-identically.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Type,
    Union,
)

from repro.api.base import Analysis
from repro.api.engine import EngineConfig
from repro.api.events import (
    EventCallback,
    JobFinished,
    JobStarted,
    JsonlEventSink,
    RoundFinished,
    RoundRetried,
    RoundStarted,
    SessionEvent,
    StartCrashed,
)
from repro.api.registry import canonical_name, get_analysis
from repro.api.report import AnalysisReport, RoundTrace
from repro.core.parallel import run_multistart
from repro.core.pool import WorkerPool
from repro.mo.registry import resolve_backend
from repro.util.rng import derive_round_rngs

AnalysisRef = Union[str, Type[Analysis], Analysis]

#: Per-round checkpoint hook (``Session.submit(checkpoint=...)``):
#: called as ``checkpoint(round_index, outcome)`` from the job's driver
#: thread after round ``round_index``'s
#: :class:`~repro.core.parallel.MultiStartOutcome` has been absorbed
#: into the analysis state — exactly the record a later
#: ``resume_rounds=`` replay needs to reconstruct that state
#: bit-identically (:mod:`repro.serve.checkpoint` persists them).
#: Interrupted (cancelled mid-round) outcomes are never checkpointed:
#: a resumed job re-runs that round in full.
CheckpointCallback = Callable[[int, Any], None]


@dataclasses.dataclass
class JobRequest:
    """One unit of work for :meth:`Session.run_many`.

    ``config`` overrides the session's engine knobs (seed, backend,
    budgets) for this job only; execution resources (the pool, the
    worker budget) always come from the session.
    """

    analysis: AnalysisRef
    target: Any
    spec: Any = None
    options: Dict[str, Any] = dataclasses.field(default_factory=dict)
    config: Optional[EngineConfig] = None


class JobHandle:
    """Asynchronous handle for one submitted job."""

    def __init__(self, job_id: int, analysis: str, target: str) -> None:
        self.job_id = job_id
        self.analysis = analysis
        self.target = target
        self._stop = threading.Event()
        self._finished = threading.Event()
        self._report: Optional[AnalysisReport] = None
        self._error: Optional[BaseException] = None
        self._was_cancelled = False
        #: Serializes cancel() against completion, so a True cancel()
        #: always implies result() raises CancelledError.
        self._state_lock = threading.Lock()

    def done(self) -> bool:
        """True once the job has a result, an error, or was cancelled."""
        return self._finished.is_set()

    def cancelled(self) -> bool:
        return self._was_cancelled

    def cancel(self, wait: bool = False, timeout: Optional[float] = None):
        """Request cancellation; takes effect mid-round, losslessly.

        Plain ``cancel()`` returns False when the job had already
        finished, True otherwise.  After a successful cancel,
        :meth:`result` raises
        :class:`concurrent.futures.CancelledError` (unless the job
        failed first, in which case its error wins) — but the work done
        before the flag landed is *not* discarded: the driver salvages
        the starts and rounds that finished into an
        :class:`~repro.api.report.AnalysisReport` flagged
        ``partial=True``, available via :meth:`partial_result`.

        ``cancel(wait=True)`` is the blocking convenience: it requests
        cancellation and returns that salvaged partial report (or the
        full report, if the job beat the flag).
        """
        with self._state_lock:
            if self._finished.is_set():
                requested = False
            else:
                self._stop.set()
                requested = True
        if wait:
            return self.partial_result(timeout=timeout)
        return requested

    def partial_result(
        self, timeout: Optional[float] = None
    ) -> Optional[AnalysisReport]:
        """Block until the job settles and return whatever report exists.

        For a completed job this is the full report
        (``partial=False``); for a cancelled one it is the salvaged
        partial report (``partial=True``) covering the starts that
        finished before cancellation landed, or ``None`` when nothing
        was salvageable.  Raises the job's exception if it failed and
        :class:`TimeoutError` if ``timeout`` elapses first.
        """
        if not self._finished.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} ({self.analysis}) still running "
                f"after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._report

    def result(self, timeout: Optional[float] = None) -> AnalysisReport:
        """Block until the job finishes and return its report.

        Raises the job's exception if it failed,
        :class:`~concurrent.futures.CancelledError` if it was
        cancelled (the salvaged partial report stays available via
        :meth:`partial_result`), and :class:`TimeoutError` if
        ``timeout`` elapses first.
        """
        if not self._finished.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} ({self.analysis}) still running "
                f"after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        if self._was_cancelled:
            raise CancelledError(
                f"job {self.job_id} ({self.analysis} on {self.target}) "
                "was cancelled"
            )
        assert self._report is not None
        return self._report

    # -- driver-side completion (Session only) -----------------------------

    def _complete(
        self,
        report: Optional[AnalysisReport],
        error: Optional[BaseException],
        cancelled: bool,
    ) -> None:
        with self._state_lock:
            if not cancelled and error is None and self._stop.is_set():
                # A cancel() returned True while the last round was
                # wrapping up: honor its contract (result() raises
                # CancelledError) but keep the finished report — it is
                # complete salvage, served by partial_result().
                cancelled = True
            self._report = report
            self._error = error
            self._was_cancelled = cancelled
            self._finished.set()


class Session:
    """A long-lived execution service over one persistent worker pool.

    ``config`` supplies the default engine knobs *and* the execution
    policy: ``config.n_workers > 1`` makes the session build (and own)
    a :class:`~repro.core.pool.WorkerPool`; ``config.pool`` injects an
    externally owned pool instead (shared across sessions, never closed
    by this one).  ``on_event`` receives every job's typed progress
    events (see :mod:`repro.api.events`); ``event_sink`` additionally
    mirrors them machine-readably — pass a path/file to get a JSONL
    stream (:class:`~repro.api.events.JsonlEventSink`, owned and closed
    by the session) or any callback.  ``max_parallel_jobs`` caps how
    many submitted jobs drive rounds concurrently (default: the worker
    count).

    Targets are first-class (:mod:`repro.api.targets`): ``submit`` /
    ``run`` accept a suite program name, a Python callable or
    ``pkg.mod:fn`` / ``file.py::fn`` spec (lowered through the
    Python→FPIR frontend), a constraint string (``sat``), a ready
    Program/Formula, or an explicit :class:`~repro.api.targets.Target`.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        on_event: Optional[EventCallback] = None,
        max_parallel_jobs: Optional[int] = None,
        event_sink: Optional[Any] = None,
    ) -> None:
        self.config = config or EngineConfig()
        self._on_event = on_event
        # event_sink: a JSONL destination every event is mirrored to —
        # a path/file (wrapped in a JsonlEventSink owned and closed by
        # the session) or a ready callback (caller-owned).
        self._event_sink: Optional[EventCallback] = None
        self._owns_sink = False
        if event_sink is not None:
            if callable(event_sink):
                self._event_sink = event_sink
            else:
                self._event_sink = JsonlEventSink(event_sink)
                self._owns_sink = True
        if self.config.pool is not None:
            self._pool: Optional[WorkerPool] = self.config.pool
            self._owns_pool = False
        elif self.config.n_workers > 1:
            self._pool = WorkerPool(self.config.n_workers)
            self._owns_pool = True
        else:
            self._pool = None
            self._owns_pool = False
        if max_parallel_jobs is None:
            # An injected pool's worker count beats config.n_workers,
            # which stays at its default 1 when only pool= is set.
            if self._pool is not None:
                max_parallel_jobs = self._pool.n_workers
            else:
                max_parallel_jobs = self.config.n_workers
        self._max_parallel_jobs = max(1, max_parallel_jobs)
        self._threads: Optional[ThreadPoolExecutor] = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._closed = False
        self.n_jobs = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def pool(self) -> Optional[WorkerPool]:
        """The session's worker pool (None = serial in-process runs)."""
        return self._pool

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop accepting jobs, finish the running ones, free the pool."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads, self._threads = self._threads, None
        if threads is not None:
            threads.shutdown(wait=True)
        if self._owns_pool and self._pool is not None:
            self._pool.close()
        if self._owns_sink and self._event_sink is not None:
            self._event_sink.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission --------------------------------------------------------

    def submit(
        self,
        analysis: AnalysisRef,
        target: Any,
        spec: Any = None,
        config: Optional[EngineConfig] = None,
        on_event: Optional[EventCallback] = None,
        checkpoint: Optional[CheckpointCallback] = None,
        resume_rounds: Optional[Sequence[Any]] = None,
        **options: Any,
    ) -> JobHandle:
        """Queue one job and return its :class:`JobHandle` immediately.

        ``analysis``/``target``/``spec``/``options`` mean exactly what
        they mean for :meth:`repro.api.engine.Engine.run`.  ``config``
        overrides the session's engine knobs for this job; ``on_event``
        adds a per-job callback on top of the session-level one.

        ``checkpoint`` receives ``(round_index, outcome)`` after every
        completed round (see :data:`CheckpointCallback`);
        ``resume_rounds`` replays previously checkpointed
        :class:`~repro.core.parallel.MultiStartOutcome`\\ s — in round
        order, starting at round 0 — through the analysis state
        *without re-running them*, then continues the driver loop at
        the first un-checkpointed round.  Because per-round randomness
        is a pure function of ``(seed, round, start)`` and ``absorb``
        is deterministic, a resumed job's report is bit-identical to an
        uninterrupted run's (timing aside).
        """
        handle = self._make_handle(analysis, target)
        executor = self._ensure_threads()
        executor.submit(
            self._drive,
            handle,
            analysis,
            target,
            spec,
            options,
            config,
            on_event,
            checkpoint,
            resume_rounds,
        )
        return handle

    def run(
        self,
        analysis: AnalysisRef,
        target: Any,
        spec: Any = None,
        config: Optional[EngineConfig] = None,
        **options: Any,
    ) -> AnalysisReport:
        """Submit-and-wait, inline in the calling thread.

        The synchronous convenience `Engine.run` wraps; no driver
        thread is involved, so a serial one-shot session adds no
        overhead over the old engine loop.
        """
        handle = self._make_handle(analysis, target)
        self._drive(handle, analysis, target, spec, options, config, None)
        return handle.result()

    def run_many(
        self,
        jobs: Sequence[Union[JobRequest, tuple, dict]],
        capture_errors: bool = False,
    ) -> List[Any]:
        """Submit a campaign and gather the reports in job order.

        Each job is a :class:`JobRequest`, an ``(analysis, target)`` /
        ``(analysis, target, options)`` tuple, or a dict of
        :class:`JobRequest` fields.  With ``capture_errors=True`` a
        failed or cancelled job yields its exception object instead of
        aborting the gather — the batch driver's behavior.
        """
        handles = [self._submit_request(self._as_request(job)) for job in jobs]
        results: List[Any] = []
        for handle in handles:
            try:
                results.append(handle.result())
            except (Exception, CancelledError) as exc:
                # CancelledError derives from BaseException (3.8+), so
                # it needs naming for cancelled jobs to be captured.
                if not capture_errors:
                    raise
                results.append(exc)
        return results

    def stats(self) -> Dict[str, int]:
        """Session counters plus the pool's lifetime cache counters."""
        stats = {"jobs": self.n_jobs}
        if self._pool is not None:
            stats.update(self._pool.stats())
        return stats

    # -- internals ---------------------------------------------------------

    def _as_request(self, job: Union[JobRequest, tuple, dict]) -> JobRequest:
        if isinstance(job, JobRequest):
            return job
        if isinstance(job, dict):
            return JobRequest(**job)
        return JobRequest(*job)

    def _submit_request(self, request: JobRequest) -> JobHandle:
        return self.submit(
            request.analysis,
            request.target,
            spec=request.spec,
            config=request.config,
            **request.options,
        )

    def _make_handle(self, analysis: AnalysisRef, target: Any) -> JobHandle:
        with self._lock:
            if self._closed:
                raise RuntimeError("session is closed")
            job_id = next(self._ids)
            self.n_jobs += 1
        if isinstance(analysis, str):
            name = analysis
        else:
            name = getattr(analysis, "name", "") or str(analysis)
        from repro.api.targets import describe_target

        return JobHandle(job_id, str(name), describe_target(target))

    def _ensure_threads(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("session is closed")
            if self._threads is None:
                self._threads = ThreadPoolExecutor(
                    max_workers=self._max_parallel_jobs,
                    thread_name_prefix="repro-session",
                )
            return self._threads

    def _emit(
        self,
        event: SessionEvent,
        extra: Optional[EventCallback],
    ) -> None:
        if self._on_event is not None:
            self._on_event(event)
        if self._event_sink is not None:
            self._event_sink(event)
        if extra is not None:
            extra(event)

    def _drive(
        self,
        handle: JobHandle,
        analysis: AnalysisRef,
        target: Any,
        spec: Any,
        options: Dict[str, Any],
        config: Optional[EngineConfig],
        on_event: Optional[EventCallback],
        checkpoint: Optional[CheckpointCallback] = None,
        resume_rounds: Optional[Sequence[Any]] = None,
    ) -> None:
        """Run one job's driver loop to completion (any thread)."""
        cfg = config or self.config
        try:
            report, cancelled = self._execute(
                handle,
                analysis,
                target,
                spec,
                options,
                cfg,
                on_event,
                checkpoint,
                resume_rounds,
            )
        except BaseException as exc:
            self._emit(
                JobFinished(
                    job_id=handle.job_id,
                    analysis=handle.analysis,
                    target=handle.target,
                    verdict=None,
                    rounds=0,
                    n_evals=0,
                    elapsed_seconds=0.0,
                    error=f"{type(exc).__name__}: {exc}",
                ),
                on_event,
            )
            handle._complete(None, exc, False)
            return
        if not cancelled and handle._stop.is_set():
            # cancel() won the race against the final round; the
            # report is complete and survives as the salvage.
            cancelled = True
        self._emit(
            JobFinished(
                job_id=handle.job_id,
                analysis=handle.analysis,
                target=handle.target,
                verdict=report.verdict if report is not None else None,
                rounds=report.rounds if report is not None else 0,
                n_evals=report.n_evals if report is not None else 0,
                elapsed_seconds=report.elapsed_seconds if report is not None else 0.0,
                cancelled=cancelled,
                partial=report.partial if report is not None else False,
            ),
            on_event,
        )
        handle._complete(report, None, cancelled)

    def _execute(
        self,
        handle: JobHandle,
        analysis: AnalysisRef,
        target: Any,
        spec: Any,
        options: Dict[str, Any],
        cfg: EngineConfig,
        on_event: Optional[EventCallback],
        checkpoint: Optional[CheckpointCallback] = None,
        resume_rounds: Optional[Sequence[Any]] = None,
    ):
        """The shared driver loop (the engine's former `run` body)."""
        if isinstance(analysis, str):
            name = canonical_name(analysis)
            instance: Analysis = get_analysis(name)()
        elif isinstance(analysis, type):
            instance = analysis()
            name = instance.name or analysis.__name__
        else:
            instance = analysis
            name = instance.name or type(analysis).__name__
        handle.analysis = name
        t0 = time.perf_counter()
        resolved = instance.resolve_target(target)
        state = instance.prepare(resolved, spec, options, cfg)
        tuning = dict(instance.default_backend_options)
        tuning.update(cfg.backend_options)
        backend = resolve_backend(cfg.backend, **tuning)
        pool = self._pool

        def emit(event: SessionEvent) -> None:
            self._emit(event, on_event)

        emit(JobStarted(job_id=handle.job_id, analysis=name, target=handle.target))

        trace = []
        samples = []
        n_evals = 0
        n_crash_retries = 0
        round_index = 0
        cancelled = False
        # Replay checkpointed rounds: walk the driver loop with
        # `run_multistart` replaced by the stored outcome.  plan_round
        # and absorb are deterministic functions of the state, and the
        # label-set write-back below mirrors what merge_reports did in
        # the original run, so the state (and every later round's
        # randomness, a pure function of (seed, round, start)) evolves
        # exactly as it did before the restart.
        for outcome in resume_rounds or ():
            plan = instance.plan_round(state, round_index)
            if plan is None:
                break
            emit(
                RoundStarted(
                    job_id=handle.job_id,
                    analysis=name,
                    target=handle.target,
                    round_index=round_index,
                    n_starts=plan.n_starts,
                    note=plan.note,
                )
            )
            for set_name, labels in outcome.label_sets.items():
                plan.weak_distance.label_sets.setdefault(
                    set_name, set()
                ).update(labels)
            instance.absorb(state, round_index, outcome)
            n_crash_retries += outcome.n_crash_retries
            best = outcome.best
            trace.append(
                RoundTrace(
                    index=round_index,
                    n_starts=plan.n_starts,
                    n_evals=outcome.n_evals,
                    best_w=math.inf if best is None else best.f_star,
                    found_zero=best is not None and best.f_star == 0.0,
                    note=plan.note,
                )
            )
            emit(
                RoundFinished(
                    job_id=handle.job_id,
                    analysis=name,
                    target=handle.target,
                    round_index=round_index,
                    n_evals=outcome.n_evals,
                    best_w=math.inf if best is None else best.f_star,
                    found_zero=best is not None and best.f_star == 0.0,
                    note=plan.note,
                )
            )
            n_evals += outcome.n_evals
            if plan.record_samples:
                samples.extend(outcome.samples)
            round_index += 1
        while True:
            if handle._stop.is_set():
                cancelled = True
                break
            plan = instance.plan_round(state, round_index)
            if plan is None:
                break
            rngs = derive_round_rngs(cfg.seed, round_index, plan.n_starts)
            starts = [(plan.sampler(rng, plan.n_inputs), rng) for rng in rngs]
            emit(
                RoundStarted(
                    job_id=handle.job_id,
                    analysis=name,
                    target=handle.target,
                    round_index=round_index,
                    n_starts=plan.n_starts,
                    note=plan.note,
                )
            )

            def on_crash(notice, _round: int = round_index) -> None:
                emit(
                    StartCrashed(
                        job_id=handle.job_id,
                        analysis=name,
                        target=handle.target,
                        round_index=_round,
                        start_index=notice.start_index,
                        error=notice.error,
                    )
                )
                emit(
                    RoundRetried(
                        job_id=handle.job_id,
                        analysis=name,
                        target=handle.target,
                        round_index=_round,
                        n_lost=len(notice.lost),
                        attempt=notice.attempt,
                        max_attempts=notice.max_attempts,
                        error=notice.error,
                    )
                )

            outcome = run_multistart(
                plan.weak_distance,
                plan.n_inputs,
                backend=backend,
                starts=starts,
                record_samples=plan.record_samples,
                max_evals_per_start=plan.max_evals_per_start,
                stop_at_zero=plan.stop_at_zero,
                early_cancel=not cfg.deterministic,
                pool=pool,
                stop_event=handle._stop,
                max_crash_retries=cfg.max_crash_retries,
                on_crash=on_crash,
            )
            n_crash_retries += outcome.n_crash_retries
            interrupted = outcome.interrupted or handle._stop.is_set()
            # A cancelled round is *partial*, not worthless: absorb
            # the starts that finished before the flag landed, so the
            # salvaged report keeps their findings (boundary's BV
            # samples, coverage's arms, sat label sets).
            instance.absorb(state, round_index, outcome)
            if checkpoint is not None and not interrupted:
                # Interrupted outcomes cover only the starts that
                # finished; resuming must re-run that round in full, so
                # only completed rounds are checkpointable.
                checkpoint(round_index, outcome)
            best = outcome.best
            trace.append(
                RoundTrace(
                    index=round_index,
                    n_starts=plan.n_starts,
                    n_evals=outcome.n_evals,
                    best_w=math.inf if best is None else best.f_star,
                    found_zero=best is not None and best.f_star == 0.0,
                    note=plan.note,
                )
            )
            emit(
                RoundFinished(
                    job_id=handle.job_id,
                    analysis=name,
                    target=handle.target,
                    round_index=round_index,
                    n_evals=outcome.n_evals,
                    best_w=math.inf if best is None else best.f_star,
                    found_zero=best is not None and best.f_star == 0.0,
                    note=plan.note,
                    interrupted=interrupted,
                )
            )
            n_evals += outcome.n_evals
            if plan.record_samples:
                samples.extend(outcome.samples)
            round_index += 1
            if interrupted:
                cancelled = True
                break

        report: AnalysisReport = instance.finish(state)
        report.analysis = name
        report.partial = cancelled
        if not report.target:
            from repro.api.targets import Target

            if isinstance(target, str):
                report.target = target
            elif isinstance(target, Target):
                report.target = target.describe()
            else:
                report.target = instance.describe_target(resolved)
        report.n_evals = n_evals
        report.rounds = round_index
        report.trace = trace
        report.samples = samples
        report.elapsed_seconds = time.perf_counter() - t0
        report.seed = cfg.seed
        report.n_workers = pool.n_workers if pool is not None else cfg.n_workers
        report.n_crash_retries = n_crash_retries
        return report, cancelled
