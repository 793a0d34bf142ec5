"""Instance 3: floating-point overflow detection — Algorithm 3 / fpod.

The paper's Section 4.4, reproduced step for step:

1. Normalize the program so each elementary FP operation is one labelled
   instruction (``repro.fpir.normalize``), and instrument a global ``w``.
2. After each FP instruction ``l`` with assignee ``a``, inject::

       if (l is not in L) {
           w = (|a| < MAX) ? MAX - |a| : 0;
           if (w == 0) return;            // modelled as Halt
       }

   ``L`` is a *runtime* label set (no re-instrumentation between
   rounds).
3. ``W`` returns ``w`` with ``w_init = 1``.
4–8. Repeat: pick a random start, Basinhopping-minimize ``W``; when the
   minimum is 0 record the input; set ``target`` to the last executed
   not-in-``L`` probe and add it to ``L``.  Terminate once ``|L|``
   exceeds the instruction count.

The ``target`` heuristic makes each round chase one instruction — the
*last* uncovered probe overwrites ``w`` — and putting ``target`` in
``L`` even on failure guarantees termination in at most
``nFPProg + 1`` rounds.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.api.base import Analysis, RoundPlan
from repro.api.report import FOUND, NOT_FOUND, PARTIAL, AnalysisReport, Finding
from repro.core.parallel import MultiStartOutcome
from repro.core.weak_distance import WeakDistance
from repro.fp.ieee import DBL_MAX
from repro.fpir.instrument import InstrumentationSpec, instrument
from repro.fpir.labels import FpOpSite
from repro.fpir.nodes import (
    Assign,
    BinOp,
    Block,
    Call,
    Compare,
    Const,
    Halt,
    If,
    InLabelSet,
    RecordEvent,
    Stmt,
    Ternary,
    UnOp,
    Var,
)
from repro.fpir.program import Program

#: Name of Algorithm 3's runtime set of already-overflowed instructions.
L_SET = "L"

#: Event kind marking execution of a not-yet-covered probe.
PROBE_EVENT = "probe"


def overflow_spec(w_var: str = "w") -> InstrumentationSpec:
    """Algorithm 3 steps (1)–(3): the per-instruction probe."""

    def after_fp_assign(site: FpOpSite, stmt: Assign) -> List[Stmt]:
        a = Var(stmt.name)
        abs_a = Call("fabs", (a,))
        probe_value = Ternary(
            Compare("lt", abs_a, Const(DBL_MAX)),
            BinOp("fsub", Const(DBL_MAX), abs_a),
            Const(0.0),
        )
        body = Block(
            (
                RecordEvent(PROBE_EVENT, site.label),
                Assign(w_var, probe_value),
                If(
                    Compare("eq", Var(w_var), Const(0.0)),
                    Block((Halt(),)),
                    Block(()),
                ),
            )
        )
        guard = UnOp("not", InLabelSet(L_SET, site.label))
        return [If(guard, body, Block(()))]

    return InstrumentationSpec(
        w_var=w_var,
        w_init=1.0,
        after_fp_assign=after_fp_assign,
        normalize=True,
        label_sets=(L_SET,),
    )


@dataclasses.dataclass
class OverflowFinding:
    """One overflowed instruction and a triggering input (Table 4 row)."""

    label: str
    text: str
    function: str
    x_star: Tuple[float, ...]


@dataclasses.dataclass
class OverflowReport:
    """Result of a full Algorithm 3 run (feeds Tables 3 and 4)."""

    n_fp_ops: int
    findings: List[OverflowFinding]
    #: Instructions for which no overflow was triggered ("missed").
    missed: List[FpOpSite]
    rounds: int
    n_evals: int
    elapsed_seconds: float = 0.0

    @property
    def n_overflows(self) -> int:
        return len(self.findings)

    @property
    def inputs(self) -> List[Tuple[float, ...]]:
        return [f.x_star for f in self.findings]


def fp_op_sites(program: Program) -> List[FpOpSite]:
    """The labelled elementary FP operations of ``program``, exactly as
    the overflow instrumentation labels them (normalized order)."""
    wd = WeakDistance(instrument(program, overflow_spec()))
    return list(wd.instrumented.index.fp_ops)


# ---------------------------------------------------------------------------
# The engine driver (repro.api)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _OverflowState:
    """Per-run state of :class:`OverflowAnalysis` (Algorithm 3)."""

    program: Program
    weak_distance: WeakDistance
    covered: set
    sites: Dict[str, FpOpSite]
    n_fp_ops: int
    budget: int
    n_starts: int
    sampler: Any
    check_inconsistency: bool
    t0: float
    findings: List[OverflowFinding] = dataclasses.field(default_factory=list)
    found_labels: set = dataclasses.field(default_factory=set)
    rounds: int = 0
    n_evals: int = 0
    done: bool = False


class OverflowAnalysis(Analysis):
    """Algorithm 3 through the unified engine.

    Every round fans ``n_starts`` retries across the worker pool (the
    paper's "relaunch in case of incompleteness", Section 6.3.1); the
    chase-the-last-probe bookkeeping runs in the parent between rounds,
    so the runtime set ``L`` grows exactly as in the serial algorithm.
    """

    name = "overflow"
    help = "FP overflow detection (Algorithm 3 / the fpod tool)"
    default_n_starts = 3
    default_backend_options = {"niter": 40}
    smoke_target = "gsl-hyperg"
    smoke_options = {"n_starts": 3, "max_rounds": 6, "niter": 20}

    def prepare(
        self, target: Program, spec: Any, options: Dict[str, Any], config
    ) -> _OverflowState:
        weak_distance = WeakDistance(
            instrument(target, overflow_spec()),
            eval_mode=self.eval_mode(config, options),
        )
        covered = weak_distance.label_sets.setdefault(L_SET, set())
        covered.clear()
        index = weak_distance.instrumented.index
        n_fp_ops = len(index.fp_ops)
        budget = self.round_budget(config, options)
        return _OverflowState(
            program=target,
            weak_distance=weak_distance,
            covered=covered,
            sites={site.label: site for site in index.fp_ops},
            n_fp_ops=n_fp_ops,
            budget=budget if budget is not None else n_fp_ops + 1,
            n_starts=self.starts_per_round(config, options),
            sampler=self.sampler(config, options),
            check_inconsistency=bool(options.get("inconsistency")),
            t0=time.perf_counter(),
        )

    def plan_round(
        self, state: _OverflowState, round_index: int
    ) -> Optional[RoundPlan]:
        if (
            state.done
            or len(state.covered) > state.n_fp_ops
            or round_index >= state.budget
        ):
            return None
        return RoundPlan(
            weak_distance=state.weak_distance,
            n_inputs=state.program.num_inputs,
            n_starts=state.n_starts,
            sampler=state.sampler,
            note=f"chase uncovered probes ({len(state.covered)}"
            f"/{state.n_fp_ops} covered)",
        )

    def absorb(
        self,
        state: _OverflowState,
        round_index: int,
        outcome: MultiStartOutcome,
    ) -> None:
        state.rounds += 1
        state.n_evals += outcome.n_evals
        best = outcome.best
        if best is None:
            state.done = True
            return
        # Step (7): re-run W at the final iterate to observe the last
        # executed, not-yet-covered probe.
        state.weak_distance(best.x_star)
        target = state.weak_distance.last_events.get(PROBE_EVENT)
        if best.f_star == 0.0 and target is not None:
            site = state.sites[target]
            if target not in state.found_labels:
                state.found_labels.add(target)
                state.findings.append(
                    OverflowFinding(
                        label=target,
                        text=site.text,
                        function=site.function,
                        x_star=best.x_star,
                    )
                )
        if target is None:
            # No uncovered probe executed at all: every remaining
            # instruction is unreachable from this region; stop.
            state.done = True
            return
        state.covered.add(target)

    def finish(self, state: _OverflowState) -> AnalysisReport:
        index = state.weak_distance.instrumented.index
        missed = [site for site in index.fp_ops if site.label not in state.found_labels]
        detail = OverflowReport(
            n_fp_ops=state.n_fp_ops,
            findings=state.findings,
            missed=missed,
            rounds=state.rounds,
            n_evals=state.n_evals,
            elapsed_seconds=time.perf_counter() - state.t0,
        )
        findings = [
            Finding(
                kind="overflow",
                label=f.label,
                x=f.x_star,
                detail=f.text,
            )
            for f in state.findings
        ]
        if state.check_inconsistency and detail.inputs:
            from repro.analyses.inconsistency import InconsistencyChecker

            for item in InconsistencyChecker(state.program).sweep(detail.inputs):
                findings.append(
                    Finding(
                        kind="inconsistency",
                        label="status==SUCCESS, non-finite result",
                        x=item.x_star,
                        detail=f"val={item.val:.3g} err={item.err:.3g}",
                    )
                )
        if not state.findings:
            verdict = NOT_FOUND
        elif missed:
            verdict = PARTIAL
        else:
            verdict = FOUND
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
            "--retries",
            type=int,
            default=None,
            help="starts per round (alias of --starts)",
        )
        parser.add_argument(
            "--inconsistency",
            action="store_true",
            help="sweep findings for GSL-style inconsistencies",
        )

    @classmethod
    def options_from_args(cls, args) -> Dict[str, Any]:
        options: Dict[str, Any] = {}
        if args.inconsistency:
            options["inconsistency"] = True
        if args.retries:
            options["n_starts"] = args.retries
        return options

    @classmethod
    def render(cls, report: AnalysisReport) -> str:
        from repro.util.tables import format_table

        detail: OverflowReport = report.detail
        lines = [
            f"{report.target}: {detail.n_overflows}/{detail.n_fp_ops} "
            f"instructions overflowed in {detail.rounds} rounds "
            f"({report.elapsed_seconds:.1f}s, {report.n_evals} evals)"
        ]
        rows = [
            (f.label, f.text, ", ".join(f"{v:.3g}" for v in f.x_star))
            for f in detail.findings
        ]
        lines.append(format_table(("label", "instruction", "x*"), rows))
        if detail.missed:
            lines.append("missed: " + ", ".join(s.label for s in detail.missed))
        inconsistencies = [f for f in report.findings if f.kind == "inconsistency"]
        if inconsistencies:
            lines.append(
                f"\n{len(inconsistencies)} inconsistencies "
                "(status == GSL_SUCCESS, non-finite result):"
            )
            for finding in inconsistencies:
                point = ", ".join(f"{v:.6g}" for v in finding.x)
                lines.append(f"  x* = ({point}) {finding.detail}")
        return "\n".join(lines)

    @classmethod
    def summarize(cls, report: AnalysisReport) -> str:
        detail: OverflowReport = report.detail
        return f"{detail.n_overflows}/{detail.n_fp_ops} instructions overflowed"

    @classmethod
    def metrics(cls, report: AnalysisReport) -> Dict[str, float]:
        detail: OverflowReport = report.detail
        return {
            "found": float(detail.n_overflows),
            "sites": float(detail.n_fp_ops),
            "evals": float(report.n_evals),
        }

    @classmethod
    def batch_options(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"max_rounds": params.get("rounds")}
