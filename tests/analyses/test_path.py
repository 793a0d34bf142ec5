"""Instance 2: path reachability."""

import pytest
from hypothesis import given

from repro.analyses.path import (
    BranchConstraint,
    PathSpec,
    branch_distance,
    build_path_distance,
    verify_path,
)
from repro.api import Engine, EngineConfig
from repro.fpir.builder import FunctionBuilder, gt, lt, num, v
from repro.fpir.nodes import Compare, Var
from repro.fpir.interpreter import Interpreter
from repro.fpir.program import Program
from repro.mo.scipy_backends import BasinhoppingBackend
from repro.mo.starts import uniform_sampler
from repro.programs import fig2
from tests.conftest import moderate_doubles


def _eval_distance(expr, env):
    """Evaluate a branch-distance expression with the interpreter."""
    from repro.fpir.nodes import Block, Return
    from repro.fpir.program import Function, Param

    fn = Function(
        "d", [Param(k) for k in env], Block((Return(expr),))
    )
    prog = Program([fn], entry="d")
    return Interpreter(prog).run([env[k] for k in env]).value


def _path(program, seed, backend, n_starts, sampler, path=None):
    """Path reachability through the engine; the detail result."""
    config = EngineConfig(
        seed=seed, backend=backend, n_starts=n_starts, start_sampler=sampler
    )
    return Engine(config).run("path", program, spec=path).detail


class TestBranchDistance:
    @given(moderate_doubles, moderate_doubles)
    def test_nonnegative_and_zero_when_satisfied(self, a, b):
        for op in ("lt", "le", "gt", "ge", "eq", "ne"):
            for wanted in (True, False):
                cmp = Compare(op, Var("a"), Var("b"))
                dist = branch_distance(cmp, wanted)
                value = _eval_distance(dist, {"a": a, "b": b})
                assert value >= 0.0
                holds = {
                    "lt": a < b, "le": a <= b, "gt": a > b,
                    "ge": a >= b, "eq": a == b, "ne": a != b,
                }[op]
                if holds == wanted:
                    assert value == 0.0

    def test_le_matches_paper_stub(self):
        # Paper Fig. 4: w += (a <= b) ? 0 : a - b.
        cmp = Compare("le", Var("a"), Var("b"))
        dist = branch_distance(cmp, True)
        assert _eval_distance(dist, {"a": 5.0, "b": 2.0}) == 3.0
        assert _eval_distance(dist, {"a": 1.0, "b": 2.0}) == 0.0


class TestFig2Paths:
    @pytest.mark.parametrize(
        "b1,b2,region",
        [
            (True, True, lambda x: x <= 1.0
             and (x + 1.0) * (x + 1.0) <= 4.0),
            (True, False, lambda x: x <= 1.0
             and (x + 1.0) * (x + 1.0) > 4.0),
            (False, True, lambda x: x > 1.0 and x * x <= 4.0),
            (False, False, lambda x: x > 1.0 and x * x > 4.0),
        ],
    )
    def test_every_branch_combination_reachable(self, b1, b2, region):
        spec = PathSpec(
            [BranchConstraint("b1", b1), BranchConstraint("b2", b2)]
        )
        result = _path(
            fig2.make_program(), seed=11,
            backend=BasinhoppingBackend(niter=40), n_starts=8,
            sampler=uniform_sampler(-50.0, 50.0), path=spec,
        )
        assert result.found, (b1, b2)
        assert result.verified
        assert region(result.x_star[0])

    def test_default_path_is_all_true(self):
        _, path, _ = build_path_distance(fig2.make_program())
        assert [(c.label, c.taken) for c in path.constraints] \
            == [("b1", True), ("b2", True)]

    def test_verify_rejects_wrong_input(self):
        weak_distance, path, _ = build_path_distance(fig2.make_program())
        assert verify_path(weak_distance, path, (0.0,))       # in [-3, 1]
        assert not verify_path(weak_distance, path, (10.0,))  # takes neither branch


class TestUnreachablePath:
    def test_contradictory_constraints_not_found(self):
        # if (x < 0) ...; if (x > 0) ...  both true is impossible.
        fb = FunctionBuilder("f", params=["x"])
        with fb.if_(lt(v("x"), num(0.0))):
            fb.let("a", num(1.0))
        with fb.if_(gt(v("x"), num(0.0))):
            fb.let("b", num(1.0))
        fb.ret(num(0.0))
        program = Program([fb.build()], entry="f")
        result = _path(
            program, seed=12, backend=BasinhoppingBackend(niter=20),
            n_starts=4, sampler=uniform_sampler(-10.0, 10.0),
        )
        # Either no zero found, or a zero (x == 0 gives distance 0 for
        # "<" wanted-true, the strict-comparison caveat) that replay
        # verification rejects.
        assert not (result.found and result.verified)
