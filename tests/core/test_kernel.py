"""Algorithm 2 end-to-end: the ReductionKernel."""

import pytest

from repro.analyses.boundary import multiplicative_spec
from repro.core import (
    AnalysisProblem,
    KernelConfig,
    ReductionKernel,
    Verdict,
)
from repro.fpir.builder import FunctionBuilder, eq, fmul, gt, num, v
from repro.fpir.instrument import InstrumentationSpec
from repro.fpir.nodes import Assign, BinOp, Var
from repro.fpir.program import Program
from repro.mo.scipy_backends import BasinhoppingBackend
from repro.mo.starts import gaussian_sampler, uniform_sampler
from repro.programs import fig2


def _kernel(n_starts=6, seed=123, sampler=None) -> ReductionKernel:
    return ReductionKernel(
        backend=BasinhoppingBackend(niter=40),
        config=KernelConfig(
            n_starts=n_starts,
            seed=seed,
            start_sampler=sampler or uniform_sampler(-50.0, 50.0),
        ),
    )


class TestFound:
    def test_boundary_problem_solved(self):
        problem = AnalysisProblem(
            fig2.make_program(),
            description="boundary values of Fig. 2",
            membership=lambda x: fig2.reference_boundary_membership(x[0]),
        )
        outcome = _kernel().solve(problem, multiplicative_spec())
        assert outcome.verdict is Verdict.FOUND
        assert fig2.reference_boundary_membership(outcome.x_star[0])
        assert outcome.w_star == 0.0
        assert bool(outcome)

    def test_early_stop_on_zero(self):
        problem = AnalysisProblem(fig2.make_program())
        outcome = _kernel(n_starts=50).solve(
            problem, multiplicative_spec()
        )
        assert outcome.found
        # Stopped long before exhausting 50 starts.
        assert outcome.rounds < 50


class TestNotFound:
    def test_empty_s_reports_not_found(self):
        # Designer whose weak distance is W = x*x + 1: strictly
        # positive minimum, so S is provably empty (Lemma 3.2a).
        from repro.fpir.nodes import Const

        fb = FunctionBuilder("g", params=["x"])
        with fb.if_(gt(v("x"), num(0.0))):
            fb.let("t", num(1.0))
        fb.ret(num(0.0))
        program = Program([fb.build()], entry="g")

        def w_hook(site, cmp):
            sq = BinOp("fmul", Var("x"), Var("x"))
            return [Assign("w", BinOp("fadd", sq, Const(1.0)))]

        problem = AnalysisProblem(program)
        outcome = _kernel(n_starts=3).solve(
            problem,
            InstrumentationSpec(
                w_var="w", w_init=1.0, before_compare=w_hook
            ),
        )
        assert outcome.verdict is Verdict.NOT_FOUND
        assert outcome.w_star > 0.0
        assert outcome.x_star is None


class TestSpurious:
    def test_limitation2_flawed_designer_caught(self):
        # The paper's Section 5.2 example: w += x*x on `if (x == 0)`.
        # W(1e-200) == 0 by underflow, but 1e-200 is not in S; the
        # membership re-check must flag it.
        fb = FunctionBuilder("prog", params=["x"])
        with fb.if_(eq(v("x"), num(0.0))):
            fb.let("reached", num(1.0))
        fb.ret(num(0.0))
        program = Program([fb.build()], entry="prog")
        problem = AnalysisProblem(
            program,
            membership=lambda x: x[0] == 0.0,
        )

        def flawed(site, cmp):
            return [
                Assign(
                    "w",
                    BinOp(
                        "fadd",
                        Var("w"),
                        BinOp("fmul", cmp.lhs, cmp.lhs),
                    ),
                )
            ]

        spec = InstrumentationSpec(
            w_var="w", w_init=0.0, before_compare=flawed
        )
        kernel = _kernel(
            n_starts=8, sampler=gaussian_sampler(1e-180)
        )
        outcome = kernel.solve(problem, spec)
        # Either the minimizer lands on a spurious 1e-200-ish zero
        # (flagged) or exactly on 0.0 (genuinely found) — with
        # gaussian(1e-180) starts, exact zero is what it must NOT
        # silently claim from a spurious point.
        if outcome.x_star is not None and outcome.x_star[0] != 0.0:
            assert outcome.verdict is Verdict.SPURIOUS

    def test_verification_disabled(self):
        fb = FunctionBuilder("prog", params=["x"])
        with fb.if_(eq(v("x"), num(0.0))):
            fb.let("reached", num(1.0))
        fb.ret(num(0.0))
        program = Program([fb.build()], entry="prog")
        problem = AnalysisProblem(
            program, membership=lambda x: False  # reject everything
        )

        def flawed(site, cmp):
            return [
                Assign(
                    "w",
                    BinOp(
                        "fadd",
                        Var("w"),
                        BinOp("fmul", cmp.lhs, cmp.lhs),
                    ),
                )
            ]

        spec = InstrumentationSpec(
            w_var="w", w_init=0.0, before_compare=flawed
        )
        kernel = ReductionKernel(
            backend=BasinhoppingBackend(niter=30),
            config=KernelConfig(
                n_starts=6,
                seed=5,
                start_sampler=gaussian_sampler(1e-180),
                verify_membership=False,
            ),
        )
        outcome = kernel.solve(problem, spec)
        # Without the guard, a zero is reported as FOUND even though
        # membership would reject it.
        if outcome.w_star == 0.0:
            assert outcome.verdict is Verdict.FOUND


class TestConfigValidation:
    @pytest.mark.parametrize("n_starts", [0, -1])
    def test_non_positive_n_starts_rejected(self, n_starts):
        # Zero starts would leave Algorithm 2 with no attempt to
        # interpret; the config names the field instead.
        with pytest.raises(ValueError, match="n_starts"):
            ReductionKernel(config=KernelConfig(n_starts=n_starts)).solve(
                AnalysisProblem(fig2.make_program()), multiplicative_spec()
            )
