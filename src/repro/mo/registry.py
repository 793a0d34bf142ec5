"""Name-based backend registry (Table 1 iterates over backend names).

Besides the raw name → factory map, this module is the *single* place
that turns a user-facing backend specification — a registry name, an
instance, or ``None`` — into a ready :class:`MOBackend`
(:func:`resolve_backend`).  The CLI, the :class:`repro.api.engine.
Engine` facade, and the batch driver all resolve through it, so tuning
knobs like ``niter`` are wired once instead of per subcommand.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Optional, Union

from repro.mo.base import MOBackend
from repro.mo.mcmc import PurePythonBasinhopping
from repro.mo.portfolio import PortfolioBackend
from repro.mo.random_search import RandomSearchBackend
from repro.mo.scipy_backends import (
    BasinhoppingBackend,
    DifferentialEvolutionBackend,
    PowellBackend,
)

_FACTORIES: Dict[str, Callable[[], MOBackend]] = {
    "basinhopping": BasinhoppingBackend,
    "differential_evolution": DifferentialEvolutionBackend,
    "portfolio": PortfolioBackend,
    "powell": PowellBackend,
    "py-basinhopping": PurePythonBasinhopping,
    "random-search": RandomSearchBackend,
}


def available_backends() -> list:
    """Names of all registered backends."""
    return sorted(_FACTORIES)


def make_backend(name: str, **kwargs) -> MOBackend:
    """Instantiate a backend by name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown MO backend {name!r}; known: {available_backends()}"
        ) from None
    return factory(**kwargs)


def resolve_backend(
    backend: Optional[Union[str, MOBackend]] = None,
    default: str = "basinhopping",
    **tuning,
) -> MOBackend:
    """Turn a backend specification into an instance.

    ``backend`` may be an :class:`MOBackend` (returned unchanged — the
    caller already tuned it), a registry name, or ``None`` (resolve
    ``default``).  ``tuning`` keyword arguments (e.g. ``niter``,
    ``local_maxiter``) are forwarded to the factory, silently dropping
    any the factory does not accept, so one call site can tune every
    backend family without knowing each constructor's signature.
    """
    if isinstance(backend, MOBackend):
        return backend
    name = backend or default
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown MO backend {name!r}; known: {available_backends()}"
        ) from None
    params = inspect.signature(factory).parameters
    accepts_kwargs = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )
    accepted = {
        key: value
        for key, value in tuning.items()
        if value is not None and (accepts_kwargs or key in params)
    }
    return factory(**accepted)


def register_backend(name: str, factory: Callable[[], MOBackend]) -> None:
    """Register a custom backend factory."""
    if name in _FACTORIES:
        raise ValueError(f"backend {name!r} already registered")
    _FACTORIES[name] = factory
