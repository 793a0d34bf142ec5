"""Multi-start weak-distance minimization: the shared start loop.

Algorithm 2's multi-start loop is embarrassingly parallel: every start
explores F^N independently and the only coupling is the termination
rule — once *any* start samples ``W(x) == 0`` no smaller minimum can
exist (Section 4.4), so all other starts may stop.
:func:`run_multistart` runs the starts of one reduction either inline
(the serial loop) or across a persistent
:class:`repro.core.pool.WorkerPool`, whose
:meth:`~repro.core.pool.WorkerPool.run_round` is the one fan-out,
cancel and crash-salvage loop:

* **Shipping W.**  A live :class:`~repro.core.weak_distance.WeakDistance`
  is not picklable (its compiled form holds ``exec``-generated code
  objects), so the parent ships a label-free
  :class:`WeakDistancePayload` — the instrumented FPIR program
  (hook-free, see :class:`~repro.fpir.instrument.InstrumentationSpec`)
  and the executor settings.  The current label-set state travels with
  each task and is synced into the worker's cached W.

* **Determinism.**  The parent derives one child generator per start
  (:func:`repro.util.rng.derive_start_rngs`), samples the starting
  point itself, and ships the post-sampling generator with the task.
  A worker therefore replays exactly the evaluation sequence the serial
  loop would have produced for that start; both paths construct the
  objective through :func:`run_task`.

* **Merged bookkeeping.**  Per-start label-set *deltas* (labels a
  worker added on top of the shipped snapshot — in practice empty,
  since the drivers only grow label sets between rounds), recorded
  sampling sequences, and evaluation counts are merged back (in start
  order) into the parent's ``WeakDistance`` and the returned
  :class:`MultiStartOutcome`, so stateful analyses (Algorithm 3's set
  ``L``, coverage's set ``B``) keep converging across rounds.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.result import Sample
from repro.core.weak_distance import WeakDistance
from repro.fpir.instrument import InstrumentedProgram
from repro.mo.base import MOBackend, MOResult, Objective


#: Salvage cycles a round may spend resubmitting crashed starts before
#: giving up (see :class:`CrashNotice`); the default for
#: ``KernelConfig.max_crash_retries`` and
#: ``EngineConfig.max_crash_retries``.
DEFAULT_CRASH_RETRIES = 2

#: How often (seconds) a round waiting on its futures polls the
#: parent-side stop event (see :meth:`repro.core.pool.WorkerPool.run_round`).
STOP_POLL_SECONDS = 0.05

#: How often (seconds) a worker's parent-death watchdog polls
#: ``os.getppid()`` (see :func:`watch_parent`).
PARENT_WATCH_SECONDS = 1.0


def watch_parent(poll_seconds: float = PARENT_WATCH_SECONDS) -> None:
    """Hard-exit this worker process when its parent dies.

    A SIGKILLed parent can never close the pool's call-queue pipes for
    its workers: every fork-inherited fd (including the *write* ends
    the worker itself holds) stays open in the child, so the worker
    blocks on the queue forever instead of seeing EOF.  The orphan then
    leaks — together with everything else it inherited, such as a
    server's listening socket, which keeps the port bound and blocks a
    restart (``repro serve --resume``) on the same address.

    Called from the pool initializer, this starts a daemon thread that
    polls ``os.getppid()`` and ``os._exit``\\ s the moment the worker is
    re-parented (parent gone).  ``os._exit`` on purpose: the process is
    mid-task with a dead coordinator; running atexit/finalizers could
    block on the same dead pipes this is escaping.
    """
    parent = os.getppid()

    def _watch() -> None:
        while os.getppid() == parent:
            time.sleep(poll_seconds)
        os._exit(2)

    threading.Thread(
        target=_watch, name="repro-parent-watch", daemon=True
    ).start()


class WorkerCrashError(RuntimeError):
    """A multi-start worker died or raised and the retry budget ran out.

    Raised only once ``max_crash_retries`` salvage cycles (resubmitting
    the lost starts to a fresh executor) have failed to complete the
    round; completed sibling starts are never the casualty of a single
    crash.
    """

    def __init__(self, start_index: int, cause: BaseException) -> None:
        super().__init__(f"worker running start #{start_index} crashed: {cause!r}")
        self.start_index = start_index
        self.cause = cause


@dataclasses.dataclass(frozen=True)
class CrashNotice:
    """One salvage cycle, reported to ``run_multistart(on_crash=...)``.

    ``start_index`` is the start whose failure surfaced the crash;
    ``lost`` lists every start being resubmitted (a broken executor
    loses all of its in-flight siblings, not just the crashed one).
    """

    start_index: int
    lost: Tuple[int, ...]
    attempt: int
    max_attempts: int
    error: str


# ---------------------------------------------------------------------------
# Picklable weak-distance reconstruction
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class WeakDistancePayload:
    """Everything a worker needs to rebuild an executable W."""

    instrumented: InstrumentedProgram
    n_inputs: int
    use_compiler: bool
    exact: bool
    max_loop_steps: int
    #: Evaluation tier the rebuilt W runs in (``"compiled"``,
    #: ``"interpreter"`` or ``"vectorized"``).  Part of the payload —
    #: and therefore of the pool's content hash — because it
    #: selects a different executable: warm workers lower the batch
    #: bytecode once per (program, tier) digest.
    eval_mode: str = "compiled"


def snapshot_label_state(
    weak_distance: WeakDistance,
) -> Dict[str, FrozenSet[str]]:
    """Freeze the parent's runtime label sets for shipping."""
    return {
        name: frozenset(labels)
        for name, labels in weak_distance.label_sets.items()
    }


def make_payload(weak_distance: WeakDistance, n_inputs: int) -> WeakDistancePayload:
    """Snapshot ``weak_distance``'s program into a picklable payload.

    Label state is left out on purpose: it travels with each task, so
    the payload blob (and therefore its content hash) depends only on
    the program.
    """
    return WeakDistancePayload(
        instrumented=weak_distance.instrumented,
        n_inputs=n_inputs,
        use_compiler=weak_distance.use_compiler,
        exact=weak_distance.exact,
        max_loop_steps=weak_distance.max_loop_steps,
        eval_mode=weak_distance.eval_mode,
    )


def rebuild_weak_distance(payload: WeakDistancePayload) -> WeakDistance:
    """Reconstruct an executable W from a payload (worker side)."""
    return WeakDistance(
        payload.instrumented,
        use_compiler=payload.use_compiler,
        exact=payload.exact,
        max_loop_steps=payload.max_loop_steps,
        eval_mode=payload.eval_mode,
    )


def sync_label_state(
    weak_distance: WeakDistance, state: Dict[str, FrozenSet[str]]
) -> None:
    """Make ``weak_distance``'s runtime label sets match ``state``.

    Mutates the existing set objects in place: the compiled runtime and
    any live interpreter context hold references to them.
    """
    for name, labels in state.items():
        current = weak_distance.label_sets.setdefault(name, set())
        current.clear()
        current.update(labels)


def label_state_delta(
    weak_distance: WeakDistance, base: Dict[str, FrozenSet[str]]
) -> Dict[str, Set[str]]:
    """Labels present on ``weak_distance`` but absent from ``base``.

    This is what a worker ships back per start: in the common case the
    drivers only grow label sets *between* rounds (parent side), so the
    delta is empty and the merge payload stays tiny no matter how large
    the accumulated sets are.
    """
    delta: Dict[str, Set[str]] = {}
    for name, labels in weak_distance.label_sets.items():
        fresh = set(labels) - set(base.get(name, frozenset()))
        if fresh:
            delta[name] = fresh
    return delta


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class StartTask:
    """One start of a multi-start run, shipped to a worker."""

    index: int
    start: Tuple[float, ...]
    rng: np.random.Generator
    backend: MOBackend
    record_samples: bool = False
    max_evals: Optional[int] = None
    #: Stop this start as soon as it samples a zero (Section 4.4's
    #: termination rule).  Analyses that want *every* zero — boundary
    #: value analysis collects the whole BV set — turn this off.
    stop_at_zero: bool = True


@dataclasses.dataclass
class StartReport:
    """What a worker sends back for one start."""

    index: int
    #: ``None`` when the start was cancelled before its first evaluation.
    result: Optional[MOResult]
    n_evals: int
    #: Label-set *delta*: labels this worker's W accumulated on top of
    #: the state the parent shipped (usually empty — see
    #: :func:`label_state_delta`).
    label_state: Dict[str, Set[str]]
    samples: List[Sample]
    #: True when serving this start forced a worker-side payload
    #: rebuild (a pool cache miss).
    rebuilt: bool = False


def run_task(
    weak_distance: WeakDistance,
    n_inputs: int,
    task: StartTask,
    should_stop=None,
    already_stopped: bool = False,
) -> Tuple[Optional[MOResult], int, List[Sample]]:
    """Run one start against ``weak_distance`` (any execution context).

    Shared by the pool worker and the in-process serial loop, so both
    paths construct the objective identically — the heart of the
    serial == parallel determinism contract.  Returns ``(result,
    n_evals, samples)``; ``result`` is ``None`` when the start was
    cancelled before its first evaluation.
    """
    if already_stopped:
        return None, 0, []
    objective = Objective(
        weak_distance,
        n_dims=n_inputs,
        record_samples=task.record_samples,
        stop_at_zero=task.stop_at_zero,
        max_samples=task.max_evals,
        should_stop=should_stop,
    )
    try:
        result = task.backend.minimize(objective, task.start, task.rng)
    except RuntimeError:
        if objective.n_evals or should_stop is None or not should_stop():
            raise  # a genuine backend failure, not a cancellation
        # Cancelled between the pre-check and the first evaluation.
        result = None
    return result, objective.n_evals, list(objective.samples)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class MultiStartOutcome:
    """Merged result of fanning one reduction's starts across workers."""

    #: Per-start MO results in start order (cancelled-unevaluated
    #: starts are absent).
    attempts: List[MOResult]
    n_evals: int
    #: Union of every worker's label-set state (also merged in place
    #: into the parent ``WeakDistance``).
    label_sets: Dict[str, Set[str]]
    #: Recorded sampling sequences, concatenated in start order.
    samples: List[Sample]
    #: Starts that never ran because the race was already over.
    n_cancelled: int = 0
    #: Worker-side payload rebuilds this round forced (pool cache
    #: misses; 0 on the serial path).
    n_rebuilds: int = 0
    #: Crash-salvage cycles this round needed (lost starts resubmitted
    #: to a fresh executor; 0 = no worker ever crashed).
    n_crash_retries: int = 0
    #: True when a ``stop_event`` cancelled the round mid-flight: the
    #: outcome covers only the starts that finished before the flag
    #: landed (a *partial* round — still mergeable, see
    #: :func:`merge_reports`).
    interrupted: bool = False

    @property
    def best(self) -> Optional[MOResult]:
        """The winning attempt: minimal ``f_star``, earliest start on
        ties — the same representative a serial loop would pick."""
        if not self.attempts:
            return None
        return min(self.attempts, key=lambda r: r.f_star)


def pool_context() -> multiprocessing.context.BaseContext:
    """Fork when available (cheap, inherits imports); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def merge_reports(
    weak_distance: WeakDistance,
    reports: Sequence[StartReport],
    n_crash_retries: int = 0,
    interrupted: bool = False,
) -> MultiStartOutcome:
    """Fold per-start worker reports into one :class:`MultiStartOutcome`.

    Reports are merged in start order, and the label-set union is
    written back into the parent's ``WeakDistance`` so stateful
    analyses see exactly what a serial run would have accumulated.
    ``reports`` may cover only a subset of the round's starts — a
    cancelled or crash-salvaged round merges whatever finished, and
    the per-start determinism contract guarantees each merged report
    is byte-identical to its serial counterpart.
    """
    ordered = sorted(reports, key=lambda report: report.index)
    merged_labels: Dict[str, Set[str]] = {
        name: set(labels) for name, labels in weak_distance.label_sets.items()
    }
    samples: List[Sample] = []
    attempts: List[MOResult] = []
    n_evals = 0
    n_cancelled = 0
    n_rebuilds = 0
    for report in ordered:
        n_evals += report.n_evals
        if report.result is None:
            n_cancelled += 1
        else:
            attempts.append(report.result)
        for name, labels in report.label_state.items():
            merged_labels.setdefault(name, set()).update(labels)
        samples.extend(report.samples)
        if report.rebuilt:
            n_rebuilds += 1
    for name, labels in merged_labels.items():
        weak_distance.label_sets.setdefault(name, set()).update(labels)
    return MultiStartOutcome(
        attempts=attempts,
        n_evals=n_evals,
        label_sets=merged_labels,
        samples=samples,
        n_cancelled=n_cancelled,
        n_rebuilds=n_rebuilds,
        n_crash_retries=n_crash_retries,
        interrupted=interrupted,
    )


def _run_starts_serial(
    weak_distance: WeakDistance,
    n_inputs: int,
    tasks: Sequence[StartTask],
    early_cancel: bool,
    stop_event: Optional[threading.Event] = None,
) -> MultiStartOutcome:
    """In-process start loop with the same per-start semantics as the
    pool: one fresh :class:`Objective` per start, so a serial run and a
    parallel run with the same seed walk identical trajectories.

    ``early_cancel`` plays the role of the pool's racing cancellation:
    when set, a zero stops the remaining starts (Algorithm 2's serial
    loop); when clear, every start runs like the deterministic pool
    path, so attempts/eval counts/samples match it exactly.
    ``stop_event`` is the cooperative job-cancellation hook
    (:meth:`repro.api.session.JobHandle.cancel`); it never fires in an
    uncancelled run, so it cannot perturb determinism.
    """
    attempts: List[MOResult] = []
    samples: List[Sample] = []
    n_evals = 0
    interrupted = False
    should_stop = None if stop_event is None else stop_event.is_set
    for task in tasks:
        if stop_event is not None and stop_event.is_set():
            interrupted = True
            break
        result, task_evals, task_samples = run_task(
            weak_distance, n_inputs, task, should_stop=should_stop
        )
        if result is not None:
            attempts.append(result)
        n_evals += task_evals
        samples.extend(task_samples)
        if (
            task.stop_at_zero
            and early_cancel
            and result is not None
            and result.stopped_at_zero
        ):
            break
    if stop_event is not None and stop_event.is_set():
        interrupted = True
    return MultiStartOutcome(
        attempts=attempts,
        n_evals=n_evals,
        label_sets={
            name: set(labels)
            for name, labels in weak_distance.label_sets.items()
        },
        samples=samples,
        n_cancelled=0,
        interrupted=interrupted,
    )




def run_multistart(
    weak_distance: WeakDistance,
    n_inputs: int,
    backend: MOBackend,
    starts: Sequence[Tuple[Tuple[float, ...], np.random.Generator]],
    record_samples: bool = False,
    max_evals_per_start: Optional[int] = None,
    stop_at_zero: bool = True,
    early_cancel: bool = True,
    pool=None,
    stop_event: Optional[threading.Event] = None,
    max_crash_retries: Optional[int] = None,
    on_crash=None,
) -> MultiStartOutcome:
    """Run every ``(start, rng)`` pair through ``backend``.

    Without a ``pool`` the starts run inline, one fresh objective each.
    With a :class:`repro.core.pool.WorkerPool` they fan out across its
    warm workers (:meth:`~repro.core.pool.WorkerPool.run_round`), which
    cache rebuilt weak distances by payload content hash; the backend
    and the weak distance must then be picklable.

    ``stop_at_zero=False`` lets every start run to completion and keeps
    all zero-valued samples (boundary value analysis).  With
    ``early_cancel=False`` a zero still stops its *own* start but does
    not cancel the others: the merged outcome is then bit-identical to
    the serial outcome (same attempts, same representative), which is
    what :class:`repro.api.engine.Engine` runs by default; the racing
    default trades that exact reproducibility for wall-clock speed
    while preserving the verdict.

    ``stop_event`` (a :class:`threading.Event`) cancels the remaining
    work cooperatively — between starts on the serial path, mid-round
    through the pool's cancel slots on the pooled path.  A cancelled
    round returns a *partial* outcome (``interrupted=True``) holding
    every start that finished before the flag landed.

    ``max_crash_retries`` bounds the salvage cycles a pooled round may
    spend on crashed workers (``None`` = :data:`DEFAULT_CRASH_RETRIES`);
    ``on_crash`` receives a :class:`CrashNotice` per salvage cycle.
    """
    tasks = [
        StartTask(
            index=i,
            start=tuple(start),
            rng=rng,
            backend=backend,
            record_samples=record_samples,
            max_evals=max_evals_per_start,
            stop_at_zero=stop_at_zero,
        )
        for i, (start, rng) in enumerate(starts)
    ]
    if max_crash_retries is None:
        max_crash_retries = DEFAULT_CRASH_RETRIES
    if pool is None or not tasks:
        return _run_starts_serial(
            weak_distance, n_inputs, tasks, early_cancel, stop_event
        )
    round_result = pool.run_round(
        weak_distance,
        n_inputs,
        tasks,
        race=bool(stop_at_zero and early_cancel),
        stop_event=stop_event,
        max_crash_retries=max_crash_retries,
        on_crash=on_crash,
    )
    return merge_reports(
        weak_distance,
        round_result.reports,
        n_crash_retries=round_result.n_crash_retries,
        interrupted=round_result.interrupted,
    )
