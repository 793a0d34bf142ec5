"""Instance 4: branch-coverage testing (CoverMe)."""


from repro.analyses.coverage import (
    B_SET,
    all_branch_arms,
    coverage_spec,
    executed_arms,
)
from repro.api import Engine, EngineConfig
from repro.core.weak_distance import WeakDistance
from repro.fpir.builder import FunctionBuilder, lt, num, v
from repro.fpir.instrument import instrument
from repro.fpir.program import Program
from repro.mo.scipy_backends import BasinhoppingBackend
from repro.mo.starts import uniform_sampler
from repro.programs import fig2


def _unreachable_branch_program() -> Program:
    """if (x*x < 0) never takes the true arm."""
    fb = FunctionBuilder("f", params=["x"])
    from repro.fpir.builder import fmul

    fb.let("y", fmul(v("x"), v("x")))
    with fb.if_(lt(v("y"), num(0.0))):
        fb.let("dead", num(1.0))
    fb.ret(num(0.0))
    return Program([fb.build()], entry="f")


def _coverage(program, seed, backend, max_rounds, sampler):
    """One CoverMe loop through the engine; the detail report."""
    config = EngineConfig(
        seed=seed,
        backend=backend,
        max_rounds=max_rounds,
        start_sampler=sampler,
    )
    return Engine(config).run("coverage", program).detail


class TestCoverageWeakDistance:
    def test_zero_when_everything_new_is_covered_on_this_run(self):
        wd = WeakDistance(instrument(fig2.make_program(),
                                     coverage_spec()))
        # Fresh B: any input's own arms are "uncovered" but the input
        # covers them — the distance is the *other* arms' distances.
        value = wd((0.0,))
        assert value > 0.0  # the two false arms are uncovered & distant

    def test_covered_arms_stop_contributing(self):
        wd = WeakDistance(instrument(fig2.make_program(),
                                     coverage_spec()))
        before = wd((0.0,))
        covered = wd.label_sets.setdefault(B_SET, set())
        covered.update({"b1:F", "b2:F"})
        after = wd((0.0,))
        assert after == 0.0
        assert before > after


class TestCoverageLoop:
    def test_full_coverage_on_fig2(self):
        report = _coverage(
            fig2.make_program(), seed=31,
            backend=BasinhoppingBackend(niter=30), max_rounds=20,
            sampler=uniform_sampler(-50.0, 50.0),
        )
        assert report.coverage == 1.0
        assert report.total_arms == 4
        # Witnesses actually cover their arms.
        replay = WeakDistance(instrument(fig2.make_program(),
                                         coverage_spec()))
        for arm, witness in report.witnesses.items():
            assert arm in executed_arms(replay, witness)

    def test_unreachable_arm_reported_uncovered(self):
        program = _unreachable_branch_program()
        report = _coverage(
            program, seed=32,
            backend=BasinhoppingBackend(niter=15), max_rounds=6,
            sampler=uniform_sampler(-10.0, 10.0),
        )
        assert report.coverage < 1.0
        index = WeakDistance(
            instrument(program, coverage_spec())
        ).instrumented.index
        uncovered = set(all_branch_arms(index)) - report.covered_arms
        assert "b1:T" in uncovered

    def test_sin_dispatch_coverage(self, sin_program):
        from repro.mo.starts import wide_log_sampler

        report = _coverage(
            sin_program, seed=33,
            backend=BasinhoppingBackend(niter=50, local_maxiter=150),
            max_rounds=80,
            sampler=wide_log_sampler(-12.0, 10.0),
        )
        # The five high-word dispatch branches (b1..b5): all ten arms
        # are reachable with finite inputs; require at least nine so a
        # mildly unlucky seed change does not flake the suite.
        entry_arms = {
            a for a in report.covered_arms
            if a.startswith(("b1:", "b2:", "b3:", "b4:", "b5:"))
        }
        assert len(entry_arms) >= 9
