"""The multi-start loop (repro.core.parallel): serial vs pooled starts."""

import pickle

import pytest

from repro.analyses.boundary import multiplicative_spec
from repro.analyses.overflow import overflow_spec
from repro.core import (
    AnalysisProblem,
    KernelConfig,
    ReductionKernel,
    Verdict,
    WorkerCrashError,
)
from repro.core.parallel import run_multistart
from repro.core.pool import WorkerPool
from repro.core.weak_distance import WeakDistance
from repro.fpir.builder import FunctionBuilder, eq, fmul, gt, num, v
from repro.fpir.instrument import InstrumentationSpec, instrument
from repro.fpir.nodes import Assign, BinOp, Const, Var
from repro.fpir.program import Program
from repro.mo.base import MOBackend
from repro.mo.random_search import RandomSearchBackend
from repro.mo.starts import uniform_sampler, wide_log_sampler
from repro.programs import fig2
from repro.util.rng import derive_start_rngs


def _equality_program(target: float = 7.0) -> Program:
    """A program whose multiplicative boundary W is |x - target|."""
    fb = FunctionBuilder("prog", params=["x"])
    with fb.if_(eq(v("x"), num(target))):
        fb.let("reached", num(1.0))
    fb.ret(num(0.0))
    return Program([fb.build()], entry="prog")


def _square_plus_one_spec() -> InstrumentationSpec:
    """A designer whose W = x*x + 1 is strictly positive (empty S)."""

    def hook(site, cmp):
        sq = BinOp("fmul", Var("x"), Var("x"))
        return [Assign("w", BinOp("fadd", sq, Const(1.0)))]

    return InstrumentationSpec(w_var="w", w_init=1.0, before_compare=hook)


class PlantedSampler:
    """Start sampler that occasionally plants the exact zero of
    ``|x - 7|`` and otherwise starts far away."""

    def __call__(self, rng, n_dims):
        if rng.random() < 0.25:
            return (7.0,)
        return (float(rng.uniform(1e5, 1e6)),)


class CrashBackend(MOBackend):
    """A backend that dies mid-minimization."""

    name = "crash"

    def minimize(self, objective, start, rng):
        raise ValueError("backend exploded")


def _first_planted_index(seed, n_starts):
    sampler = PlantedSampler()
    for i, rng in enumerate(derive_start_rngs(seed, n_starts)):
        if sampler(rng, 1) == (7.0,):
            return i
    return None


class TestPayload:
    def test_pickle_round_trip_of_instrumented_program(self):
        instrumented = instrument(
            fig2.make_program(), multiplicative_spec()
        )
        clone = pickle.loads(pickle.dumps(instrumented))
        # Hooks are dropped in transit; the plain-data fields survive.
        assert clone.spec.before_compare is None
        assert clone.spec.w_var == instrumented.spec.w_var
        assert clone.spec.w_init == instrumented.spec.w_init
        original = WeakDistance(instrumented)
        rebuilt = WeakDistance(clone)
        for x in [(0.5,), (1.0,), (-3.0,), (1e8,), (2.0,)]:
            assert original(x) == rebuilt(x)

    def test_hook_stripped_spec_rejected_by_instrument(self):
        spec = pickle.loads(pickle.dumps(multiplicative_spec()))
        assert spec.hooks_dropped
        with pytest.raises(ValueError, match="lost its hooks"):
            instrument(fig2.make_program(), spec)


class TestVerdictEquivalence:
    """n_workers=4 must reproduce the serial verdicts (same seed)."""

    def _outcomes(self, problem, spec, backend=None, **config):
        outcomes = []
        for n_workers in (1, 4):
            kernel = ReductionKernel(
                backend=backend
                or RandomSearchBackend(
                    n_samples=400,
                    sampler=wide_log_sampler(-4.0, 4.0),
                ),
                config=KernelConfig(
                    n_starts=4, seed=1, n_workers=n_workers, **config
                ),
            )
            outcomes.append(kernel.solve(problem, spec))
        return outcomes

    def test_found_problem(self):
        from repro.mo.scipy_backends import BasinhoppingBackend

        problem = AnalysisProblem(
            fig2.make_program(),
            membership=lambda x: fig2.reference_boundary_membership(x[0]),
        )
        serial, parallel = self._outcomes(
            problem,
            multiplicative_spec(),
            backend=BasinhoppingBackend(niter=40),
            start_sampler=uniform_sampler(-50.0, 50.0),
        )
        assert serial.verdict is Verdict.FOUND
        assert parallel.verdict is Verdict.FOUND
        assert serial.w_star == parallel.w_star == 0.0

    def test_not_found_problem_matches_exactly(self):
        problem = AnalysisProblem(_equality_program())
        serial, parallel = self._outcomes(
            problem,
            _square_plus_one_spec(),
            start_sampler=uniform_sampler(-50.0, 50.0),
        )
        assert serial.verdict is Verdict.NOT_FOUND
        assert parallel.verdict is Verdict.NOT_FOUND
        # No early stop on either path: every start runs its full
        # deterministic trajectory, so the minima and the evaluation
        # counts agree exactly.
        assert serial.w_star == parallel.w_star
        assert serial.n_evals == parallel.n_evals

    def test_parallel_merges_recorded_samples_in_start_order(self):
        problem = AnalysisProblem(_equality_program())
        serial, parallel = self._outcomes(
            problem,
            _square_plus_one_spec(),
            start_sampler=uniform_sampler(-50.0, 50.0),
            record_samples=True,
        )
        assert serial.samples
        assert serial.samples == parallel.samples


class TestEarlyCancel:
    def test_zero_found_cancels_other_starts(self):
        n_starts, budget = 4, 200_000
        seed = next(
            s
            for s in range(100)
            if _first_planted_index(s, n_starts) is not None
        )
        weak_distance = WeakDistance(
            instrument(_equality_program(), multiplicative_spec())
        )
        kernel = ReductionKernel(
            backend=RandomSearchBackend(
                n_samples=budget,
                sampler=uniform_sampler(1e5, 1e6),
            ),
            config=KernelConfig(
                n_starts=n_starts,
                seed=seed,
                start_sampler=PlantedSampler(),
                n_workers=n_starts,
            ),
        )
        outcome = kernel.minimize(weak_distance, n_inputs=1)
        assert outcome.verdict is Verdict.FOUND
        assert outcome.x_star == (7.0,)
        # The planted start wins after one evaluation and cancels the
        # race; the others stop far short of their budgets.
        assert outcome.n_evals < 0.25 * n_starts * budget

    def test_serial_path_unaffected_by_planted_budget(self):
        # Sanity: an unlucky-only serial start burns its full budget.
        weak_distance = WeakDistance(
            instrument(_equality_program(), multiplicative_spec())
        )
        kernel = ReductionKernel(
            backend=RandomSearchBackend(
                n_samples=500, sampler=uniform_sampler(1e5, 1e6)
            ),
            config=KernelConfig(
                n_starts=2,
                seed=3,
                start_sampler=uniform_sampler(1e5, 1e6),
            ),
        )
        outcome = kernel.minimize(weak_distance, n_inputs=1)
        assert outcome.verdict is Verdict.NOT_FOUND
        assert outcome.n_evals == 2 * 500


class TestWorkerCrash:
    def test_crash_is_surfaced_with_start_index(self):
        weak_distance = WeakDistance(
            instrument(_equality_program(), multiplicative_spec())
        )
        kernel = ReductionKernel(
            backend=CrashBackend(),
            config=KernelConfig(
                n_starts=3,
                seed=1,
                start_sampler=uniform_sampler(-1.0, 1.0),
                n_workers=2,
            ),
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            kernel.minimize(weak_distance, n_inputs=1)
        assert 0 <= excinfo.value.start_index < 3
        assert "backend exploded" in str(excinfo.value)

    def test_one_shot_kill_heals_with_serial_parity(
        self, tmp_path, monkeypatch
    ):
        """The kernel's one-shot (per-call) pool heals a SIGKILLed
        worker: the round is salvaged, not failed, and matches a
        crash-free serial run start for start."""
        import repro.core.kernel as kernel_module
        from repro.testing import KillWorkerOnceBackend

        pools = []

        class RecordingPool(WorkerPool):
            def __init__(self, n_workers):
                super().__init__(n_workers)
                pools.append(self)

        monkeypatch.setattr(kernel_module, "WorkerPool", RecordingPool)

        def solve(n_workers):
            kernel = ReductionKernel(
                backend=KillWorkerOnceBackend(
                    tmp_path / "killed",
                    inner=RandomSearchBackend(
                        n_samples=40, sampler=uniform_sampler(10.0, 20.0)
                    ),
                ),
                config=KernelConfig(
                    n_starts=6,
                    seed=5,
                    start_sampler=uniform_sampler(10.0, 20.0),
                    n_workers=n_workers,
                ),
            )
            weak_distance = WeakDistance(
                instrument(_equality_program(), multiplicative_spec())
            )
            return kernel.minimize(weak_distance, n_inputs=1)

        serial = solve(1)
        healed = solve(2)
        assert (tmp_path / "killed").exists()
        assert len(pools) == 1 and pools[0].closed
        assert pools[0].n_crash_retries >= 1
        assert [r.x_star for r in serial.attempts] == [
            r.x_star for r in healed.attempts
        ]
        assert serial.n_evals == healed.n_evals


class TestLabelSetMerge:
    """Algorithm 3-style stateful runs keep converging in parallel."""

    def _overflow_distance(self):
        fb = FunctionBuilder("prog", params=["x"])
        fb.let("t", fmul(v("x"), v("x")))
        with fb.if_(gt(v("t"), num(0.0))):
            fb.let("u", fmul(v("t"), v("t")))
        fb.ret(v("t"))
        program = Program([fb.build()], entry="prog")
        return WeakDistance(instrument(program, overflow_spec()))

    def _minimize(self, weak_distance, n_workers, covered):
        weak_distance.label_sets["L"] = set(covered)
        kernel = ReductionKernel(
            backend=RandomSearchBackend(
                n_samples=300, sampler=wide_log_sampler(100.0, 308.0)
            ),
            config=KernelConfig(
                n_starts=3,
                seed=11,
                start_sampler=wide_log_sampler(100.0, 308.0),
                n_workers=n_workers,
            ),
        )
        return kernel.minimize(weak_distance, n_inputs=1)

    def test_covered_labels_respected_and_merged(self):
        serial_wd = self._overflow_distance()
        labels = sorted(
            site.label for site in serial_wd.instrumented.index.fp_ops
        )
        assert len(labels) == 2
        serial = self._minimize(serial_wd, 1, covered=[labels[0]])

        parallel_wd = self._overflow_distance()
        parallel = self._minimize(parallel_wd, 3, covered=[labels[0]])

        assert serial.verdict == parallel.verdict
        # The pre-covered label survives the round trip and the merge.
        assert parallel_wd.label_sets["L"] >= {labels[0]}
        assert parallel_wd.label_sets["L"] == serial_wd.label_sets["L"]

    def test_fully_covered_set_forces_not_found(self):
        weak_distance = self._overflow_distance()
        labels = [
            site.label
            for site in weak_distance.instrumented.index.fp_ops
        ]
        outcome = self._minimize(weak_distance, 3, covered=labels)
        # Every probe is suppressed, so W stays at w_init == 1.
        assert outcome.verdict is Verdict.NOT_FOUND
        assert outcome.w_star == 1.0


class TestRunMultistartDirect:
    def test_reports_in_start_order_and_counts_evals(self):
        weak_distance = WeakDistance(
            instrument(_equality_program(), multiplicative_spec())
        )
        rngs = derive_start_rngs(5, 3)
        sampler = uniform_sampler(10.0, 20.0)
        starts = [(sampler(rng, 1), rng) for rng in rngs]
        with WorkerPool(2) as pool:
            outcome = run_multistart(
                weak_distance,
                n_inputs=1,
                backend=RandomSearchBackend(
                    n_samples=50, sampler=uniform_sampler(10.0, 20.0)
                ),
                starts=starts,
                pool=pool,
            )
        assert len(outcome.attempts) == 3
        assert outcome.n_evals == 3 * 50
        assert outcome.n_cancelled == 0
        assert all(r.f_star > 0.0 for r in outcome.attempts)
