"""Instance 1: boundary value analysis (paper Sections 2.2, 4.2, 6.2).

Boundary conditions are the equalities ``a == b`` underlying each
comparison ``a ⊳ b``.  The Analysis Designer's recipe (Fig. 3):

* ``w_init = 1``;
* before each labelled comparison, inject ``w = w * |a - b|``.

``W`` is then nonnegative and vanishes exactly when some executed
comparison sits on its boundary.  The paper also discusses (Fig. 7) the
*characteristic* alternative ``w = w * (a == b ? 0 : 1)`` — valid but
flat, hence useless to MO; both are available here for the ablation.

The analysis driver mirrors the GNU ``sin`` case study:

1. minimize ``W`` from many starting points, recording every sample;
2. filter the samples with ``W(x) == 0`` — the reported boundary-value
   set ``BV``;
3. *soundness check*: replay each ``x ∈ BV`` on a separately
   instrumented program that executes ``if (a == b) hits++`` before
   each comparison (Section 6.2(i)), and verify each replay hits a
   boundary condition;
4. group ``BV`` by triggered condition for the Table 2 rows.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.base import Analysis, RoundPlan
from repro.api.report import FOUND, NOT_FOUND, PARTIAL, AnalysisReport, Finding
from repro.core.parallel import MultiStartOutcome
from repro.core.result import Sample
from repro.core.weak_distance import WeakDistance
from repro.fpir.instrument import InstrumentationSpec, instrument
from repro.fpir.labels import CompareSite
from repro.fpir.nodes import (
    Assign,
    BinOp,
    Block,
    Call,
    Compare,
    Const,
    If,
    RecordEvent,
    Stmt,
    Ternary,
    Var,
)
from repro.fpir.program import Program
from repro.mo.starts import uniform_sampler

#: Event kind recorded by the hits-instrumented program.
HIT_EVENT = "boundary_hit"


def _abs_diff(lhs, rhs) -> Call:
    """``fabs(a - b)`` — works for float and int operands (C converts)."""
    return Call("fabs", (BinOp("fsub", lhs, rhs),))


SiteFilter = Callable[[CompareSite], bool]


def multiplicative_spec(
    w_var: str = "w", site_filter: Optional[SiteFilter] = None
) -> InstrumentationSpec:
    """The graded Fig. 3 weak distance: ``w *= |a - b|``.

    ``site_filter`` restricts instrumentation to selected comparison
    sites — the paper's sin case study instruments only the five
    ``if (k < c)`` branches of ``sin`` itself, not its kernels.
    """

    def before_compare(site: CompareSite, cmp: Compare) -> List[Stmt]:
        if site_filter is not None and not site_filter(site):
            return []
        return [
            Assign(
                w_var,
                BinOp("fmul", Var(w_var), _abs_diff(cmp.lhs, cmp.rhs)),
            )
        ]

    return InstrumentationSpec(w_var=w_var, w_init=1.0, before_compare=before_compare)


def characteristic_spec(
    w_var: str = "w", site_filter: Optional[SiteFilter] = None
) -> InstrumentationSpec:
    """The flat Fig. 7 weak distance: ``w *= (a == b ? 0 : 1)``."""

    def before_compare(site: CompareSite, cmp: Compare) -> List[Stmt]:
        if site_filter is not None and not site_filter(site):
            return []
        return [
            Assign(
                w_var,
                BinOp(
                    "fmul",
                    Var(w_var),
                    Ternary(
                        Compare("eq", cmp.lhs, cmp.rhs),
                        Const(0.0),
                        Const(1.0),
                    ),
                ),
            )
        ]

    return InstrumentationSpec(w_var=w_var, w_init=1.0, before_compare=before_compare)


def hits_spec(
    site_filter: Optional[SiteFilter] = None,
) -> InstrumentationSpec:
    """Soundness-check instrumentation: ``if (a == b) hits++``.

    Implemented with :class:`RecordEvent` counters keyed by the
    comparison label, mirroring the paper's manual ``hits++``.
    """

    def before_compare(site: CompareSite, cmp: Compare) -> List[Stmt]:
        if site_filter is not None and not site_filter(site):
            return []
        return [
            If(
                Compare("eq", cmp.lhs, cmp.rhs),
                Block((RecordEvent(HIT_EVENT, site.label),)),
                Block(()),
            )
        ]

    return InstrumentationSpec(
        w_var="_hits_w", w_init=0.0, before_compare=before_compare
    )


@dataclasses.dataclass
class ConditionStats:
    """Table 2 row: one boundary condition's triggering statistics."""

    label: str
    text: str
    hits: int = 0
    min_value: Optional[Tuple[float, ...]] = None
    max_value: Optional[Tuple[float, ...]] = None

    def update(self, x: Tuple[float, ...]) -> None:
        self.hits += 1
        if self.min_value is None or x < self.min_value:
            self.min_value = x
        if self.max_value is None or x > self.max_value:
            self.max_value = x


def build_hits_distance(
    program: Program, site_filter: Optional[SiteFilter] = None
) -> WeakDistance:
    """The soundness-replay program (``if (a == b) hits++``)."""
    return WeakDistance(instrument(program, hits_spec(site_filter=site_filter)))


def replay_hit_labels(hits_distance: WeakDistance, x: Sequence[float]) -> List[str]:
    """Labels of the boundary conditions that ``x`` triggers."""
    _, counters = hits_distance.replay(x)
    return [
        label
        for (kind, label), count in counters.items()
        if kind == HIT_EVENT and count > 0
    ]


@dataclasses.dataclass
class BoundaryReport:
    """Full outcome of a boundary value analysis run."""

    #: All MO samples (the ``Raw`` variable of Section 6.2).
    n_samples: int
    #: Samples attaining W == 0 (the ``BV`` set).
    boundary_values: List[Tuple[float, ...]]
    #: Per-condition statistics, keyed by comparison label.
    per_condition: Dict[str, ConditionStats]
    #: Result of the soundness replay: every BV sample hit a condition.
    sound: bool
    #: Sample index (1-based) at which each condition was first hit —
    #: the Fig. 9 progress curve.  Conditions never hit are absent.
    first_hit_at: Dict[str, int]

    @property
    def conditions_triggered(self) -> int:
        return sum(1 for s in self.per_condition.values() if s.hits > 0)


def assemble_boundary_report(
    samples: Sequence[Sample],
    n_evals: int,
    hits_distance: WeakDistance,
    index,
    site_filter: Optional[SiteFilter] = None,
) -> BoundaryReport:
    """Interpret a recorded sampling sequence as a BoundaryReport.

    :class:`BoundaryAnalysis`'s report step: filter the zero-valued
    samples (the ``BV`` set), soundness-replay each one, and fold the
    per-condition statistics.
    """
    boundary_values = [x for x, f in samples if f == 0.0]
    per_condition = {
        site.label: ConditionStats(label=site.label, text=site.text)
        for site in index.compares
        if site_filter is None or site_filter(site)
    }
    first_hit_at: Dict[str, int] = {}
    sound = True
    sample_no = 0
    for x, f in samples:
        sample_no += 1
        if f != 0.0:
            continue
        labels = replay_hit_labels(hits_distance, x)
        if not labels:
            sound = False
            continue
        for label in labels:
            per_condition[label].update(tuple(x))
            first_hit_at.setdefault(label, sample_no)
    return BoundaryReport(
        n_samples=n_evals,
        boundary_values=boundary_values,
        per_condition=per_condition,
        sound=sound,
        first_hit_at=first_hit_at,
    )


# ---------------------------------------------------------------------------
# The engine driver (repro.api)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _BoundaryState:
    """Per-run state of :class:`BoundaryAnalysis`."""

    program: Program
    weak_distance: WeakDistance
    hits: WeakDistance
    site_filter: Optional[SiteFilter]
    n_starts: int
    sampler: Any
    max_samples: Optional[int]
    outcome: Optional[MultiStartOutcome] = None


class BoundaryAnalysis(Analysis):
    """Instance 1 through the unified engine.

    One round of ``n_starts`` starts, every start running to completion
    with sample recording on (the BV set is *all* zeros ever sampled,
    so there is no early stop); a ``max_samples`` budget is split
    evenly across the starts so it is a pure function of the start
    index and serial/parallel runs collect identical sample sets.
    """

    name = "boundary"
    help = "boundary value analysis (Instance 1)"
    default_n_starts = 20
    default_sampler = uniform_sampler(-100.0, 100.0)
    smoke_target = "fig2"
    smoke_options = {"n_starts": 4, "max_samples": 4000}

    def prepare(
        self, target: Program, spec: Any, options: Dict[str, Any], config
    ) -> _BoundaryState:
        site_filter: Optional[SiteFilter] = spec
        if options.get("entry_only"):
            entry = target.entry
            site_filter = lambda site: site.function == entry  # noqa: E731
        builder = (
            characteristic_spec
            if options.get("characteristic")
            else multiplicative_spec
        )
        return _BoundaryState(
            program=target,
            weak_distance=WeakDistance(
                instrument(target, builder(site_filter=site_filter)),
                eval_mode=self.eval_mode(config, options),
            ),
            hits=build_hits_distance(target, site_filter),
            site_filter=site_filter,
            n_starts=self.starts_per_round(config, options),
            sampler=self.sampler(config, options),
            max_samples=options.get("max_samples"),
        )

    def plan_round(
        self, state: _BoundaryState, round_index: int
    ) -> Optional[RoundPlan]:
        if round_index > 0:
            return None
        per_start = None
        if state.max_samples is not None:
            per_start = max(1, state.max_samples // state.n_starts)
        return RoundPlan(
            weak_distance=state.weak_distance,
            n_inputs=state.program.num_inputs,
            n_starts=state.n_starts,
            sampler=state.sampler,
            stop_at_zero=False,
            record_samples=True,
            max_evals_per_start=per_start,
            note="collect BV samples",
        )

    def absorb(
        self,
        state: _BoundaryState,
        round_index: int,
        outcome: MultiStartOutcome,
    ) -> None:
        state.outcome = outcome

    def finish(self, state: _BoundaryState) -> AnalysisReport:
        outcome = state.outcome
        detail = assemble_boundary_report(
            outcome.samples if outcome else [],
            outcome.n_evals if outcome else 0,
            state.hits,
            state.weak_distance.instrumented.index,
            state.site_filter,
        )
        if not detail.boundary_values:
            verdict = NOT_FOUND
        elif detail.sound:
            verdict = FOUND
        else:
            verdict = PARTIAL
        findings = [
            Finding(
                kind="boundary-condition",
                label=label,
                x=stats.min_value,
                detail=f"{stats.text} ({stats.hits} hits)",
            )
            for label, stats in sorted(detail.per_condition.items())
            if stats.hits > 0
        ]
        return AnalysisReport(
            analysis=self.name,
            target="",
            verdict=verdict,
            findings=findings,
            detail=detail,
        )

    # -- CLI hooks -------------------------------------------------------------

    @classmethod
    def configure_parser(cls, parser) -> None:
        super().configure_parser(parser)
        parser.add_argument(
            "--samples",
            type=int,
            default=None,
            help="total sampling budget, split across starts "
            "(default 100000)",
        )
        parser.add_argument(
            "--entry-only",
            action="store_true",
            help="instrument only the entry function's comparisons",
        )
        parser.add_argument(
            "--characteristic",
            action="store_true",
            help="use the flat Fig. 7 weak distance (ablation)",
        )

    @classmethod
    def options_from_args(cls, args) -> Dict[str, Any]:
        options: Dict[str, Any] = {}
        if args.samples is not None:
            options["max_samples"] = args.samples
        elif not args.smoke:
            # The historical CLI default budget; under --smoke the
            # analysis's (smaller) smoke budget applies instead.
            options["max_samples"] = 100_000
        if args.entry_only:
            options["entry_only"] = True
        if args.characteristic:
            options["characteristic"] = True
        return options

    @classmethod
    def render(cls, report: AnalysisReport) -> str:
        from repro.util.tables import format_table

        detail: BoundaryReport = report.detail
        lines = [
            f"{report.target}: {len(detail.boundary_values)} boundary"
            f" values in {detail.n_samples} samples; "
            f"{detail.conditions_triggered} condition(s) triggered; "
            f"soundness replay {'OK' if detail.sound else 'FAILED'}"
        ]
        rows = []
        for label, stats in sorted(detail.per_condition.items()):
            rows.append(
                (
                    label,
                    stats.text,
                    stats.hits,
                    "-" if stats.min_value is None else f"{stats.min_value[0]:.6e}",
                    "-" if stats.max_value is None else f"{stats.max_value[0]:.6e}",
                )
            )
        lines.append(format_table(("cond", "comparison", "hits", "min", "max"), rows))
        return "\n".join(lines)

    @classmethod
    def summarize(cls, report: AnalysisReport) -> str:
        detail: BoundaryReport = report.detail
        return (
            f"{detail.conditions_triggered} condition(s) triggered in "
            f"{detail.n_samples} samples"
        )

    @classmethod
    def metrics(cls, report: AnalysisReport) -> Dict[str, float]:
        detail: BoundaryReport = report.detail
        return {
            "conditions": float(detail.conditions_triggered),
            "evals": float(detail.n_samples),
        }

    @classmethod
    def batch_options(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.mo.starts import wide_log_sampler

        return {
            "n_starts": params.get("rounds"),
            "max_samples": params.get("max_samples"),
            "start_sampler": wide_log_sampler(-12.0, 10.0),
        }
