"""The Reduction Kernel (paper Section 5.3): Algorithm 2 end-to-end.

Steps: (1) the Analysis Designer's spec is injected into the Client's
program (:mod:`repro.fpir.instrument`); (2) the instrumented program is
wrapped as an executable weak distance W; (3) W is minimized with an MO
backend, multi-start.  The kernel then interprets the outcome:

* ``W(x*) == 0``  → FOUND with the minimum point (after an optional
  membership re-check, the Remark under Limitation 2);
* minimum > 0     → NOT FOUND (correct when the backend reached the true
  minimum; otherwise *incompleteness* — Limitation 3, which the caller
  can mitigate by raising ``n_starts``).

Multi-start seeding derives one independent ``SeedSequence`` child per
start, so every start's randomness is a pure function of
``(config.seed, start index)``.  Setting ``KernelConfig.n_workers > 1``
races the starts on a transient :class:`~repro.core.pool.WorkerPool`
with identical per-start randomness — serial and parallel runs with the
same seed explore the same points and agree on the verdict.  This is
the paper's custom-designer API; the registered analyses run through
:class:`repro.api.session.Session` instead.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import List, Optional, Union

from repro.core.parallel import DEFAULT_CRASH_RETRIES, run_multistart
from repro.core.pool import WorkerPool
from repro.core.problem import AnalysisProblem
from repro.core.result import ReductionOutcome, Verdict
from repro.core.weak_distance import WeakDistance
from repro.fpir.instrument import InstrumentationSpec, instrument
from repro.mo.base import MOBackend, MOResult
from repro.mo.scipy_backends import BasinhoppingBackend
from repro.mo.starts import DEFAULT_SAMPLER, StartSampler
from repro.util.rng import derive_start_rngs


@dataclasses.dataclass
class KernelConfig:
    """Tunables for one reduction run."""

    n_starts: int = 8
    record_samples: bool = False
    start_sampler: StartSampler = DEFAULT_SAMPLER
    seed: Optional[int] = None
    #: Re-check x* against the problem's membership oracle when present.
    verify_membership: bool = True
    #: Race the starts on a transient pool of this many worker
    #: processes when > 1 (see :mod:`repro.core.pool`); 1 keeps the
    #: serial loop.
    n_workers: int = 1
    #: Optional per-start evaluation budget (serial and parallel).
    max_evals_per_start: Optional[int] = None
    #: Crash-salvage cycles a parallel round may spend resubmitting
    #: lost starts to a fresh executor before
    #: :class:`~repro.core.parallel.WorkerCrashError` aborts the run.
    #: Retried starts re-ship their untouched per-start generators, so
    #: a healed run stays byte-identical to a crash-free serial run.
    max_crash_retries: int = DEFAULT_CRASH_RETRIES
    #: Evaluation tier for W (``"compiled"`` or ``"interpreter"``;
    #: ``None`` = compiled).  The tiers are bit-identical, so the
    #: verdict and the sampled sequence are ``eval_mode``-invariant.
    eval_mode: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_starts < 1:
            raise ValueError(f"KernelConfig.n_starts must be >= 1, got {self.n_starts}")


class ReductionKernel:
    """Runs Algorithm 2 for a problem/designer pair."""

    def __init__(
        self,
        backend: Optional[Union[MOBackend, str]] = None,
        config: Optional[KernelConfig] = None,
    ) -> None:
        """``backend`` may be an instance or a registry name (e.g.
        ``"portfolio"``, see :mod:`repro.mo.registry`)."""
        if isinstance(backend, str):
            from repro.mo.registry import make_backend

            backend = make_backend(backend)
        self.backend = backend or BasinhoppingBackend()
        self.config = config or KernelConfig()

    # -- step 1+2: weak distance construction ---------------------------------

    def build_weak_distance(
        self, problem: AnalysisProblem, spec: InstrumentationSpec
    ) -> WeakDistance:
        """Instrument the Client's program with the Designer's spec."""
        return WeakDistance(
            instrument(problem.program, spec),
            eval_mode=self.config.eval_mode,
        )

    # -- step 3: minimization ---------------------------------------------------

    def minimize(
        self,
        weak_distance: WeakDistance,
        n_inputs: int,
        problem: Optional[AnalysisProblem] = None,
    ) -> ReductionOutcome:
        """Multi-start minimization of ``weak_distance``.

        Stops early as soon as a zero is found (the weak-distance
        termination rule of Section 4.4).  With ``n_workers > 1`` the
        starts race on a pool opened for this call and closed after
        it; the first zero cancels the others.
        """
        cfg = self.config
        starts = [
            (cfg.start_sampler(rng, n_inputs), rng)
            for rng in derive_start_rngs(cfg.seed, cfg.n_starts)
        ]
        transient = (
            WorkerPool(min(cfg.n_workers, len(starts)))
            if cfg.n_workers > 1 and len(starts) > 1
            else contextlib.nullcontext()
        )
        with transient as pool:
            merged = run_multistart(
                weak_distance,
                n_inputs,
                backend=self.backend,
                starts=starts,
                record_samples=cfg.record_samples,
                max_evals_per_start=cfg.max_evals_per_start,
                pool=pool,
                max_crash_retries=cfg.max_crash_retries,
            )
        return self._interpret(
            merged.attempts,
            n_evals=merged.n_evals,
            samples=merged.samples,
            problem=problem,
        )

    # -- outcome interpretation --------------------------------------------------

    def _interpret(
        self,
        attempts: List[MOResult],
        n_evals: int,
        samples: list,
        problem: Optional[AnalysisProblem],
    ) -> ReductionOutcome:
        """Algorithm 2's verdict from the per-start results.

        Ties prefer the earliest start, so serial and parallel runs pick
        the same representative when several starts reach the minimum.
        """
        cfg = self.config
        best = min(attempts, key=lambda r: r.f_star)
        outcome = ReductionOutcome(
            verdict=Verdict.NOT_FOUND,
            x_star=None,
            w_star=best.f_star,
            mo_result=best,
            n_evals=n_evals,
            rounds=len(attempts),
            attempts=attempts,
            samples=samples,
        )
        if best.f_star == 0.0:
            outcome.x_star = best.x_star
            outcome.verdict = Verdict.FOUND
            if (
                cfg.verify_membership
                and problem is not None
                and problem.membership is not None
                and not problem.membership(best.x_star)
            ):
                outcome.verdict = Verdict.SPURIOUS
        return outcome

    # -- Algorithm 2, one call ---------------------------------------------------

    def solve(
        self, problem: AnalysisProblem, spec: InstrumentationSpec
    ) -> ReductionOutcome:
        """Run Algorithm 2: build W for ⟨Prog; S⟩ and minimize it."""
        weak_distance = self.build_weak_distance(problem, spec)
        return self.minimize(weak_distance, problem.n_inputs, problem=problem)
