"""The paper's primary contribution: the reduction theory.

``repro.core`` implements Definitions 2.1 and 3.1, Algorithm 2, and the
three-layer architecture of Section 5:

* :class:`~repro.core.problem.AnalysisProblem` — the Client's ⟨Prog; S⟩;
* :class:`~repro.core.weak_distance.WeakDistance` — an executable W with
  Def. 3.1 law-checking helpers;
* :class:`~repro.core.kernel.ReductionKernel` — Algorithm 2
  (instrument → minimize → interpret), with the membership re-check
  that mitigates Limitation 2;
* :mod:`repro.core.parallel` — the multi-start loop: starts run inline
  or through a worker pool, with per-start determinism;
* :mod:`repro.core.pool` — the worker pool (warm workers, payload
  cache by content hash, cancel slots, crash salvage) behind
  :class:`repro.api.session.Session` and ``KernelConfig.n_workers``;
* :mod:`repro.core.batch` — concurrent analysis × program campaigns
  (and multi-formula SAT campaigns) over one shared session;
* :mod:`repro.core.adapters` — Limitation 1 adapters for non-F^N
  domains.
"""

from repro.core.adapters import adapt_int_param, map_solution_back
from repro.core.batch import (
    BatchJob,
    BatchResult,
    formula_jobs,
    read_formula_sources,
    run_batch,
    suite_jobs,
)
from repro.core.kernel import KernelConfig, ReductionKernel
from repro.core.parallel import (
    DEFAULT_CRASH_RETRIES,
    CrashNotice,
    MultiStartOutcome,
    WorkerCrashError,
    run_multistart,
)
from repro.core.pool import WorkerPool
from repro.core.problem import AnalysisProblem
from repro.core.result import ReductionOutcome, Verdict
from repro.core.weak_distance import WeakDistance

__all__ = [
    "AnalysisProblem",
    "BatchJob",
    "BatchResult",
    "CrashNotice",
    "DEFAULT_CRASH_RETRIES",
    "KernelConfig",
    "MultiStartOutcome",
    "ReductionKernel",
    "ReductionOutcome",
    "Verdict",
    "WeakDistance",
    "WorkerCrashError",
    "WorkerPool",
    "adapt_int_param",
    "map_solution_back",
    "formula_jobs",
    "read_formula_sources",
    "run_batch",
    "run_multistart",
    "suite_jobs",
]
