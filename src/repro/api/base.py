"""The `Analysis` protocol: spec-builder + driver hooks.

The paper's point is that five very different analyses are all *one*
reduction: build a weak distance, minimize it multi-start, interpret
the minimum — possibly over several stateful rounds (Algorithm 3's
set ``L``, coverage's set ``B``).  An :class:`Analysis` captures
exactly the parts that differ:

* **spec-building** — :meth:`prepare` instruments the target into one
  or more executable :class:`~repro.core.weak_distance.WeakDistance`
  objects and returns an opaque per-run state;
* **driving** — :meth:`plan_round` asks for the next multi-start round
  (or ``None`` when done) and :meth:`absorb` folds the merged round
  outcome back into the state (grow ``L``/``B``, record findings);
* **reporting** — :meth:`finish` interprets the state as an
  :class:`~repro.api.report.AnalysisReport`.

Everything else — per-round seed derivation, fanning starts across the
worker pool, trace/timing bookkeeping — is the
:class:`~repro.api.engine.Engine`'s job and is shared by all analyses.

The classmethod hooks (:meth:`configure_parser`,
:meth:`options_from_args`, :meth:`render`, :meth:`summarize`,
:meth:`metrics`) let the CLI and the batch driver be *generated* from
the registry instead of hand-wiring one subcommand per analysis.
"""

from __future__ import annotations

import abc
import argparse
import dataclasses
from typing import Any, ClassVar, Dict, Optional

from repro.core.parallel import MultiStartOutcome
from repro.core.weak_distance import WeakDistance
from repro.mo.starts import DEFAULT_SAMPLER, StartSampler


@dataclasses.dataclass
class RoundPlan:
    """What an analysis asks the engine to run for one round."""

    weak_distance: WeakDistance
    n_inputs: int
    n_starts: int
    sampler: StartSampler
    #: Stop each start at its first zero (Section 4.4).  Boundary value
    #: analysis turns this off: it wants every zero ever sampled.
    stop_at_zero: bool = True
    record_samples: bool = False
    max_evals_per_start: Optional[int] = None
    note: str = ""


class Analysis(abc.ABC):
    """One registered analysis (see :mod:`repro.api.registry`)."""

    #: Registry name (`Engine.run(name, ...)`, ``repro run <name>``).
    name: ClassVar[str] = ""
    #: One-line description, shown by ``repro list`` and ``--help``.
    help: ClassVar[str] = ""
    #: What kind of :class:`~repro.api.targets.Target` this analysis
    #: consumes: ``"program"`` (an FPIR program — suite name, Python
    #: function, or Program instance) or ``"formula"`` (the SAT
    #: instance's constraints).
    target_kind: ClassVar[str] = "program"
    #: Default starts per round when neither the caller nor the
    #: EngineConfig picks one.
    default_n_starts: ClassVar[int] = 8
    #: Default round budget (``None`` = analysis-specific rule).
    default_max_rounds: ClassVar[Optional[int]] = None
    #: Default starting-point sampler.
    default_sampler: ClassVar[StartSampler] = DEFAULT_SAMPLER
    #: Default backend tuning (forwarded to ``resolve_backend``).
    default_backend_options: ClassVar[Dict[str, Any]] = {}
    #: Default CLI target (used by ``repro run <name> --smoke``).
    smoke_target: ClassVar[str] = "fig2"
    #: Budget overrides applied by ``--smoke``.
    smoke_options: ClassVar[Dict[str, Any]] = {}

    # -- engine-side hooks ----------------------------------------------------

    def resolve_target(self, target: Any) -> Any:
        """Turn any accepted target form into the object
        :meth:`prepare` expects.

        The default routes everything through
        :func:`repro.api.targets.coerce_target`, so every analysis
        accepts a :class:`~repro.api.targets.Target`, a suite name, a
        Python callable, a ``pkg.mod:fn`` / ``file.py::fn`` spec
        string, or a ready Program/Formula.
        """
        from repro.api.targets import coerce_target

        return coerce_target(target, kind=self.target_kind).resolve()

    def describe_target(self, target: Any) -> str:
        """Human-readable target name for the report envelope."""
        entry = getattr(target, "entry", None)
        return entry if isinstance(entry, str) else str(target)

    @abc.abstractmethod
    def prepare(
        self,
        target: Any,
        spec: Any,
        options: Dict[str, Any],
        config,
    ) -> Any:
        """Instrument ``target`` and return the per-run state."""

    @abc.abstractmethod
    def plan_round(self, state: Any, round_index: int) -> Optional[RoundPlan]:
        """The next round to run, or ``None`` when the driver is done."""

    @abc.abstractmethod
    def absorb(
        self,
        state: Any,
        round_index: int,
        outcome: MultiStartOutcome,
    ) -> None:
        """Fold one round's merged outcome back into the state."""

    @abc.abstractmethod
    def finish(self, state: Any):
        """Interpret the state as an AnalysisReport (verdict, findings,
        detail); the engine fills in timing, trace and counters."""

    # -- CLI / batch hooks -----------------------------------------------------

    @classmethod
    def configure_parser(cls, parser: argparse.ArgumentParser) -> None:
        """Add analysis-specific arguments to a generated subcommand."""
        parser.add_argument(
            "target",
            nargs="?",
            default=cls.smoke_target,
            help=f"target (default: {cls.smoke_target})",
        )

    @classmethod
    def options_from_args(cls, args: argparse.Namespace) -> Dict[str, Any]:
        """Analysis-specific ``Engine.run`` options from parsed args."""
        return {}

    @classmethod
    def render(cls, report) -> str:
        """Multi-line human-readable rendering for the CLI."""
        lines = [
            f"{report.target}: verdict {report.verdict} "
            f"({report.n_evals} evaluations, {report.rounds} rounds)"
        ]
        for finding in report.findings:
            lines.append(f"  {finding.kind} {finding.label}")
        return "\n".join(lines)

    @classmethod
    def summarize(cls, report) -> str:
        """One-line summary (batch campaign tables)."""
        return f"{report.verdict} ({len(report.findings)} findings)"

    @classmethod
    def metrics(cls, report) -> Dict[str, float]:
        """Numeric metrics (batch campaign bookkeeping)."""
        return {
            "findings": float(len(report.findings)),
            "evals": float(report.n_evals),
        }

    @classmethod
    def batch_options(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        """Translate a :class:`repro.core.batch.BatchJob`'s generic
        budget knobs (``rounds``, ``max_samples``) into this analysis's
        ``Engine.run`` options."""
        return {}

    # -- shared helpers --------------------------------------------------------

    def starts_per_round(self, config, options: Dict[str, Any]) -> int:
        """Effective starts per round: explicit option, then the
        engine config, then the analysis default."""
        n = options.get("n_starts") or config.n_starts
        return int(n) if n else self.default_n_starts

    def round_budget(self, config, options: Dict[str, Any]) -> Optional[int]:
        """Effective round budget with the same precedence."""
        rounds = options.get("max_rounds") or config.max_rounds
        return int(rounds) if rounds else self.default_max_rounds

    def sampler(self, config, options: Dict[str, Any]) -> StartSampler:
        """Effective starting-point sampler with the same precedence."""
        return (
            options.get("start_sampler")
            or config.start_sampler
            or self.default_sampler
        )

    def eval_mode(self, config, options: Dict[str, Any]) -> Optional[str]:
        """Effective weak-distance evaluation tier (explicit option,
        then the engine config; ``None`` lets ``WeakDistance`` default
        to the compiled scalar tier)."""
        return options.get("eval_mode") or getattr(config, "eval_mode", None)
