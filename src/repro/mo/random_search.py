"""Pure random search — the degenerate baseline.

Section 5.3 observes that a characteristic-function weak distance is
flat almost everywhere, so "the optimization of this weak distance
degenerates into pure random testing".  This backend *is* that random
testing: it makes the degeneration measurable in the Fig. 7 ablation
and serves as the sanity baseline everywhere else.  Each point is drawn
from the sampler and scored before the next one is drawn.
"""

from __future__ import annotations

from repro.mo.base import MOBackend, Objective
from repro.mo.starts import DEFAULT_SAMPLER, StartSampler


class RandomSearchBackend(MOBackend):
    """Evaluate the objective at random points; keep the best."""

    name = "random-search"

    def __init__(
        self,
        n_samples: int = 2000,
        sampler: StartSampler = DEFAULT_SAMPLER,
    ) -> None:
        self.n_samples = n_samples
        self.sampler = sampler

    def minimize(self, objective, start, rng):
        return self._guarded(objective, start, rng)

    def _run(self, objective: Objective, start, rng) -> None:
        objective(tuple(start))
        for _ in range(self.n_samples - 1):
            objective(self.sampler(rng, objective.n_dims))
