"""A pure-Python MCMC basin-hopper.

This is a from-scratch implementation of the Monte-Carlo-minimization
scheme of Li & Scheraga [23] that Basinhopping popularized: a Markov
chain over *local minimum points*, each obtained by a derivative-free
local descent (compass/pattern search), with Metropolis acceptance.

It exists for two reasons: (i) the paper's CoverMe/XSat lineage ships
its own MCMC loop, so the reproduction should not silently depend on
SciPy internals for its headline results, and (ii) it lets the test
suite exercise the backend protocol without SciPy.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.mo.base import MOBackend, Objective


def _pattern_search(
    objective: Objective,
    x0: Tuple[float, ...],
    max_iters: int = 80,
) -> Tuple[Tuple[float, ...], float]:
    """Derivative-free local descent (compass search with step doubling).

    Steps are proportional to each coordinate's magnitude so the search
    is scale-free across the doubles; a small absolute step handles
    points near zero.  All of a coordinate's candidate probes are
    scored before the first improving one is taken, so every probe
    counts against the budget and lands in the recorded samples.
    """
    x = list(x0)
    fx = objective(x)
    rel_step = 0.25
    for _ in range(max_iters):
        improved = False
        for i in range(len(x)):
            base = abs(x[i])
            rel = rel_step * base if base > 0.0 else rel_step
            # Relative steps adapt to the coordinate's magnitude but
            # can neither cross nor escape zero; absolute steps and a
            # reflection candidate cover those cases.
            candidates = [
                x[i] + rel,
                x[i] - rel,
                x[i] + rel_step,
                x[i] - rel_step,
                -x[i],
            ]
            trials = []
            for value in candidates:
                if not math.isfinite(value):
                    continue
                trial = list(x)
                trial[i] = value
                trials.append(tuple(trial))
            if not trials:
                continue
            for trial, ft in zip(trials, [objective(t) for t in trials]):
                if ft < fx:
                    x, fx = list(trial), ft
                    improved = True
                    break
        if improved:
            rel_step = min(rel_step * 2.0, 0.5)
        else:
            rel_step *= 0.5
            if rel_step < 1e-12:
                break
    return tuple(x), fx


class PurePythonBasinhopping(MOBackend):
    """MCMC over local minima, entirely dependency-free."""

    name = "py-basinhopping"

    def __init__(
        self,
        niter: int = 60,
        temperature: float = 1.0,
        local_iters: int = 60,
    ) -> None:
        self.niter = niter
        self.temperature = temperature
        self.local_iters = local_iters

    def minimize(self, objective, start, rng):
        return self._guarded(objective, start, rng)

    def _run(self, objective: Objective, start, rng) -> None:
        x, fx = _pattern_search(objective, tuple(start), self.local_iters)
        for _ in range(self.niter):
            proposal = self._propose(x, rng)
            cand, fcand = _pattern_search(
                objective, proposal, self.local_iters
            )
            if fcand <= fx or self._accept(fx, fcand, rng):
                x, fx = cand, fcand

    def _propose(
        self, x: Tuple[float, ...], rng: np.random.Generator
    ) -> Tuple[float, ...]:
        out = []
        for xi in x:
            mode = rng.random()
            if mode < 0.5:
                xi = xi + rng.normal(0.0, 1.0 + abs(xi) * 0.5)
            elif mode < 0.9:
                xi = xi * 10.0 ** rng.uniform(-2.0, 2.0)
            else:
                xi = -xi * 10.0 ** rng.uniform(-1.0, 1.0)
            if not math.isfinite(xi):
                xi = math.copysign(1e308, xi)
            out.append(float(xi))
        return tuple(out)

    def _accept(
        self, fx: float, fcand: float, rng: np.random.Generator
    ) -> bool:
        if not math.isfinite(fcand):
            return False
        if not math.isfinite(fx):
            return True
        spread = abs(fx) + abs(fcand) + 1e-300
        delta = (fcand - fx) / (spread * self.temperature)
        return rng.random() < math.exp(-min(delta, 700.0))
