"""Mathematical-optimization backends (the paper's Section 4.1 black box).

``repro.mo`` provides the uniform :class:`~repro.mo.base.MOBackend`
interface, the three SciPy backends evaluated in the paper's Table 1
(Basinhopping, Differential Evolution, Powell), a from-scratch MCMC
basin-hopper, a random-search baseline, a racing portfolio, and
magnitude-aware starting-point samplers.  Every backend scores points
one at a time through :meth:`~repro.mo.base.Objective.__call__`.
"""

from repro.mo.base import MOBackend, MOResult, Objective, StopMinimization
from repro.mo.mcmc import PurePythonBasinhopping
from repro.mo.portfolio import PortfolioBackend
from repro.mo.random_search import RandomSearchBackend
from repro.mo.registry import (
    available_backends,
    make_backend,
    register_backend,
    resolve_backend,
)
from repro.mo.scipy_backends import (
    BasinhoppingBackend,
    DifferentialEvolutionBackend,
    PowellBackend,
)
from repro.mo.starts import (
    DEFAULT_SAMPLER,
    StartSampler,
    gaussian_sampler,
    uniform_sampler,
    wide_log_sampler,
)

__all__ = [
    "BasinhoppingBackend",
    "DEFAULT_SAMPLER",
    "DifferentialEvolutionBackend",
    "MOBackend",
    "MOResult",
    "Objective",
    "PortfolioBackend",
    "PowellBackend",
    "PurePythonBasinhopping",
    "RandomSearchBackend",
    "StartSampler",
    "StopMinimization",
    "available_backends",
    "gaussian_sampler",
    "make_backend",
    "register_backend",
    "resolve_backend",
    "uniform_sampler",
    "wide_log_sampler",
]
