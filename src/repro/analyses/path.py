"""Instance 2: path reachability (paper Sections 2.2, 4.3).

Given a path — here, a constraint on the directions of selected
branches — the designer's recipe (Fig. 4):

* ``w_init = 0``;
* before each constrained branch with condition ``a ⊳ b`` and wanted
  direction ``taken``, inject ``w = w + d`` where ``d`` is the *branch
  distance*: 0 when the wanted direction would be taken, else a
  measure of how far the operands are from flipping the comparison
  (for ``a <= b`` wanted true: ``(a <= b) ? 0 : a - b`` — exactly the
  paper's stub).

``W(x) == 0`` iff every constrained branch takes its wanted direction
on every dynamic occurrence (and branches that never execute contribute
0 — the path spec may therefore also require branches to *execute*,
which the driver checks during verification).

Branch distances for strict comparisons have the classic Limitation-2
caveat (``a < b`` wanted but ``a == b`` gives distance 0); the driver's
verification replay catches such spurious results, as the paper's
Remark suggests.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.base import Analysis, RoundPlan
from repro.api.report import FOUND, NOT_FOUND, PARTIAL, AnalysisReport, Finding
from repro.core.parallel import MultiStartOutcome
from repro.core.weak_distance import WeakDistance
from repro.fpir.instrument import InstrumentationSpec, instrument
from repro.fpir.labels import BranchSite
from repro.fpir.nodes import (
    Assign,
    BinOp,
    Call,
    Compare,
    Const,
    Expr,
    RecordEvent,
    Stmt,
    Ternary,
    Var,
)
from repro.fpir.program import Program
from repro.mo.starts import uniform_sampler

#: Event kinds recorded by the verification instrumentation.
ARM_EVENT = "arm"

#: op -> op of the negated comparison.
_NEGATE = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt", "eq": "ne", "ne": "eq"}


def branch_distance(cmp: Compare, wanted: bool) -> Expr:
    """Korel-style branch distance for driving ``cmp`` to ``wanted``.

    Always nonnegative and zero **iff** the comparison evaluates in the
    wanted direction.  For strict comparisons the raw operand
    difference would be 0 at equality even though the comparison is
    false (the paper's Limitation 2); one subnormal quantum is added,
    which is exact — FP subtraction of unequal finite doubles is never
    0 thanks to gradual underflow, so the padded distance has no false
    zeros.
    """
    from repro.fp.ieee import DBL_TRUE_MIN

    op = cmp.op if wanted else _NEGATE[cmp.op]
    a, b = cmp.lhs, cmp.rhs
    diff_ab = BinOp("fsub", a, b)
    diff_ba = BinOp("fsub", b, a)
    abs_diff = Call("fabs", (diff_ab,))
    zero = Const(0.0)
    one = Const(1.0)
    pad = Const(DBL_TRUE_MIN)
    if op == "le":
        # want a <= b: penalty a - b when on the wrong side (the
        # paper's Fig. 4 stub, verbatim).
        return Ternary(Compare(op, a, b), zero, diff_ab)
    if op == "lt":
        return Ternary(Compare(op, a, b), zero, BinOp("fadd", diff_ab, pad))
    if op == "ge":
        return Ternary(Compare(op, a, b), zero, diff_ba)
    if op == "gt":
        return Ternary(Compare(op, a, b), zero, BinOp("fadd", diff_ba, pad))
    if op == "eq":
        return abs_diff
    # op == "ne": flat unit penalty on the (measure-zero) equality set.
    return Ternary(Compare("ne", a, b), zero, one)


@dataclasses.dataclass(frozen=True)
class BranchConstraint:
    """One constrained branch of a path specification."""

    label: str
    taken: bool
    #: Require the branch to actually execute at least once.
    must_execute: bool = True


class PathSpec:
    """A path, as a set of branch-direction constraints.

    This models the paper's Fig. 4 goal ("trigger both branches") and
    generalizes to arbitrary subsets of a program's branch sites.
    """

    def __init__(self, constraints: Sequence[BranchConstraint]) -> None:
        self.constraints = list(constraints)
        self.by_label: Dict[str, BranchConstraint] = {c.label: c for c in constraints}

    @classmethod
    def all_true(cls, program_index) -> "PathSpec":
        """The Fig. 4 spec: every branch takes its true direction."""
        return cls(
            [BranchConstraint(site.label, True) for site in program_index.branches]
        )


def path_spec_instrumentation(path: PathSpec, w_var: str = "w") -> InstrumentationSpec:
    """Build the additive path weak distance + verification events."""

    def before_branch(site: BranchSite, stmt) -> List[Stmt]:
        constraint = path.by_label.get(site.label)
        if constraint is None:
            return []
        cond = stmt.cond
        if isinstance(cond, Compare):
            penalty = branch_distance(cond, constraint.taken)
        else:
            # Boolean conditions: fall back to the characteristic
            # penalty — 0 when cond matches the wanted direction, 1
            # otherwise (flat, like Fig. 7; still a valid distance).
            if constraint.taken:
                penalty = Ternary(cond, Const(0.0), Const(1.0))
            else:
                penalty = Ternary(cond, Const(1.0), Const(0.0))
        return [Assign(w_var, BinOp("fadd", Var(w_var), penalty))]

    def arm_prologue(site: BranchSite, taken: bool) -> List[Stmt]:
        suffix = "T" if taken else "F"
        return [RecordEvent(ARM_EVENT, f"{site.label}:{suffix}")]

    return InstrumentationSpec(
        w_var=w_var,
        w_init=0.0,
        before_branch=before_branch,
        arm_prologue=arm_prologue,
    )


def verify_path(
    weak_distance: WeakDistance, path: PathSpec, x: Sequence[float]
) -> bool:
    """Replay ``x`` and check the path constraints dynamically."""
    _, counters = weak_distance.replay(x)
    for constraint in path.constraints:
        direction = "T" if constraint.taken else "F"
        opposite = "F" if constraint.taken else "T"
        wanted = (ARM_EVENT, f"{constraint.label}:{direction}")
        unwanted = (ARM_EVENT, f"{constraint.label}:{opposite}")
        if counters.get(unwanted, 0) > 0:
            return False
        if constraint.must_execute and counters.get(wanted, 0) == 0:
            return False
    return True


def build_path_distance(
    program: Program,
    path: Optional[PathSpec] = None,
    eval_mode: Optional[str] = None,
) -> Tuple[WeakDistance, PathSpec, Any]:
    """Label ``program``, default the spec, build the additive W."""
    from repro.fpir.labels import assign_labels

    probe = program.clone()
    index = assign_labels(probe)
    path = path or PathSpec.all_true(index)
    spec = path_spec_instrumentation(path)
    return (
        WeakDistance(instrument(program, spec), eval_mode=eval_mode),
        path,
        index,
    )


@dataclasses.dataclass
class PathResult:
    """Outcome of a path reachability query."""

    found: bool
    x_star: Optional[Tuple[float, ...]]
    w_star: float
    n_evals: int
    #: Verified by replay: every constrained branch executed (when
    #: required) and always took the wanted direction.
    verified: bool = False


# ---------------------------------------------------------------------------
# The engine driver (repro.api)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _PathState:
    """Per-run state of :class:`PathAnalysis`."""

    program: Program
    weak_distance: WeakDistance
    path: PathSpec
    n_starts: int
    sampler: Any
    record_samples: bool = False
    outcome: Optional[MultiStartOutcome] = None


def parse_constraints(tokens: Sequence[str]) -> List[BranchConstraint]:
    """Parse CLI constraint tokens ``label:T`` / ``label:F``."""
    constraints = []
    for token in tokens:
        label, _, direction = token.partition(":")
        if direction not in ("T", "F") or not label:
            raise ValueError(
                f"bad path constraint {token!r}; expected label:T or label:F"
            )
        constraints.append(BranchConstraint(label, direction == "T"))
    return constraints


class PathAnalysis(Analysis):
    """Instance 2 through the unified engine: one multi-start round of
    the additive path weak distance, then a verification replay of the
    representative."""

    name = "path"
    help = "path reachability (Instance 2)"
    default_n_starts = 10
    default_sampler = uniform_sampler(-100.0, 100.0)
    smoke_target = "fig2"
    smoke_options = {"n_starts": 4}

    def prepare(
        self, target: Program, spec: Any, options: Dict[str, Any], config
    ) -> _PathState:
        path = spec
        constraints = options.get("constraints")
        if path is None and constraints:
            path = PathSpec(parse_constraints(constraints))
        weak_distance, path, _index = build_path_distance(
            target, path, eval_mode=self.eval_mode(config, options)
        )
        return _PathState(
            program=target,
            weak_distance=weak_distance,
            path=path,
            n_starts=self.starts_per_round(config, options),
            sampler=self.sampler(config, options),
            record_samples=bool(options.get("record_samples")),
        )

    def plan_round(self, state: _PathState, round_index: int) -> Optional[RoundPlan]:
        if round_index > 0:
            return None
        return RoundPlan(
            weak_distance=state.weak_distance,
            n_inputs=state.program.num_inputs,
            n_starts=state.n_starts,
            sampler=state.sampler,
            record_samples=state.record_samples,
            note="minimize path distance",
        )

    def absorb(
        self,
        state: _PathState,
        round_index: int,
        outcome: MultiStartOutcome,
    ) -> None:
        state.outcome = outcome

    def finish(self, state: _PathState) -> AnalysisReport:
        best = state.outcome.best if state.outcome else None
        found = best is not None and best.f_star == 0.0
        verified = found and verify_path(state.weak_distance, state.path, best.x_star)
        detail = PathResult(
            found=found,
            x_star=best.x_star if found else None,
            w_star=math.inf if best is None else best.f_star,
            n_evals=state.outcome.n_evals if state.outcome else 0,
            verified=verified,
        )
        if verified:
            verdict = FOUND
        elif found:
            verdict = PARTIAL  # a zero the replay rejected (Limitation 2)
        else:
            verdict = NOT_FOUND
        findings = (
            [
                Finding(
                    kind="path-witness",
                    label=",".join(
                        f"{c.label}:{'T' if c.taken else 'F'}"
                        for c in state.path.constraints
                    ),
                    x=best.x_star,
                    detail="verified" if verified else "unverified",
                )
            ]
            if found
            else []
        )
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
            "--constraint",
            action="append",
            default=None,
            metavar="LABEL:T|F",
            help="constrain one branch (repeatable; default: every "
            "branch in its true direction)",
        )

    @classmethod
    def options_from_args(cls, args) -> Dict[str, Any]:
        return {"constraints": args.constraint}

    @classmethod
    def render(cls, report: AnalysisReport) -> str:
        detail: PathResult = report.detail
        if detail.found:
            witness = ", ".join(f"{v:.6g}" for v in detail.x_star)
            status = "verified" if detail.verified else "NOT verified"
            return (
                f"{report.target}: path reached at x* = ({witness}), "
                f"{status} ({detail.n_evals} evaluations)"
            )
        return (
            f"{report.target}: path not reached; best W = "
            f"{detail.w_star:.6g} ({detail.n_evals} evaluations)"
        )

    @classmethod
    def summarize(cls, report: AnalysisReport) -> str:
        detail: PathResult = report.detail
        if detail.verified:
            return "path reached (verified)"
        if detail.found:
            return "path reached (unverified)"
        return f"path not reached (best W = {detail.w_star:.3g})"

    @classmethod
    def metrics(cls, report: AnalysisReport) -> Dict[str, float]:
        detail: PathResult = report.detail
        return {
            "found": 1.0 if detail.found else 0.0,
            "verified": 1.0 if detail.verified else 0.0,
            "evals": float(detail.n_evals),
        }

    @classmethod
    def batch_options(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"n_starts": params.get("rounds")}
