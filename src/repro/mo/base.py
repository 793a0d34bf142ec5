"""Mathematical-optimization backend abstraction.

The paper treats MO as "an off-the-shelf black-box technique that
produces a sampling sequence from a combination of local and global
optimization" (Section 4.1).  This module fixes the black-box interface:

* an :class:`Objective` wraps the weak distance, records the sampling
  sequence (the data behind the paper's Figs. 3(c), 4(c) and 9), and
  implements the weak-distance-specific termination rule — "if a
  minimum 0 is reached, MO should stop as no smaller minimum can be
  found" (Section 4.4, Remark);
* an :class:`MOBackend` minimizes an objective from a starting point and
  returns an :class:`MOResult`;
* starting points are drawn by pluggable samplers
  (:mod:`repro.mo.starts`), because exploring ``F^N`` requires
  magnitude-aware sampling rather than uniform boxes.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


class StopMinimization(Exception):
    """Raised inside an objective once a zero has been reached."""


@dataclasses.dataclass
class MOResult:
    """Outcome of one minimization run."""

    x_star: Tuple[float, ...]
    f_star: float
    n_evals: int
    backend: str
    #: True when the run was cut short because a zero was found.
    stopped_at_zero: bool = False


class Objective:
    """Callable wrapper around a weak distance ``f: F^N -> F``.

    * sanitizes NaN to ``+inf`` (keeps the objective nonnegative and
      MO-friendly even when the underlying program misbehaves),
    * tracks the best point seen across *all* evaluations — MO backends
      only report their final iterate, but Theorem 3.3 cares about any
      zero ever sampled,
    * optionally records the full sampling sequence,
    * raises :class:`StopMinimization` when a zero is sampled,
    * optionally polls an external ``should_stop`` predicate — the
      cooperative cancellation hook the parallel driver
      (:mod:`repro.core.parallel`) uses to stop the remaining workers
      once any of them has reached a zero.
    """

    def __init__(
        self,
        fn: Callable[[Sequence[float]], float],
        n_dims: int,
        record_samples: bool = False,
        stop_at_zero: bool = True,
        max_samples: Optional[int] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.fn = fn
        self.n_dims = n_dims
        self.record_samples = record_samples
        self.stop_at_zero = stop_at_zero
        self.max_samples = max_samples
        self.should_stop = should_stop
        self.samples: List[Tuple[Tuple[float, ...], float]] = []
        self.n_evals = 0
        self.best_x: Optional[Tuple[float, ...]] = None
        self.best_f = math.inf

    def __call__(self, x) -> float:
        xs = tuple(float(v) for v in np.atleast_1d(x))
        value = self.fn(xs)
        if value != value:  # NaN
            value = math.inf
        self.n_evals += 1
        if self.record_samples:
            self.samples.append((xs, value))
        if value < self.best_f:
            self.best_f = value
            self.best_x = xs
        if self.stop_at_zero and value <= 0.0:
            raise StopMinimization()
        if self.max_samples is not None and self.n_evals >= self.max_samples:
            raise StopMinimization()
        if self.should_stop is not None and self.should_stop():
            raise StopMinimization()
        return value

    def result(self, backend: str) -> MOResult:
        """Package the best point seen so far."""
        if self.best_x is None:
            raise RuntimeError("objective was never evaluated")
        return MOResult(
            x_star=self.best_x,
            f_star=self.best_f,
            n_evals=self.n_evals,
            backend=backend,
            stopped_at_zero=self.best_f <= 0.0,
        )


class MOBackend:
    """Interface all backends implement."""

    name = "abstract"

    def minimize(
        self,
        objective: Objective,
        start: Sequence[float],
        rng: np.random.Generator,
    ) -> MOResult:
        """Minimize ``objective`` from ``start``; never raises
        :class:`StopMinimization` (it is converted to a result)."""
        raise NotImplementedError

    def _run(
        self,
        objective: Objective,
        start: Sequence[float],
        rng: np.random.Generator,
    ) -> None:
        raise NotImplementedError

    def _guarded(
        self,
        objective: Objective,
        start: Sequence[float],
        rng: np.random.Generator,
    ) -> MOResult:
        try:
            self._run(objective, start, rng)
        except StopMinimization:
            pass
        return objective.result(self.name)
