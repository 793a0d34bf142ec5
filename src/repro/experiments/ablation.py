"""Ablations around the paper's design discussion.

1. **Fig. 7 / Limitation 3** — graded ``|a-b|`` vs characteristic
   ``(a==b ? 0 : 1)`` boundary weak distance under the same budget: the
   characteristic distance is flat almost everywhere, so minimizing it
   degenerates into random testing and finds (near) nothing.
2. **Limitation 2 / ULP** — the naive vs ULP atom metric on the
   equality constraint ``x * x == 0``: the naive distance underflows
   (``W(1e-200) == 0`` though ``1e-200`` is no solution), the ULP
   metric does not.
3. **Coverage vs random testing** — the CoverMe-vs-fuzzing comparison
   shape: branch coverage of the Glibc ``sin`` port under weak-distance
   minimization vs random inputs with a comparable budget.
4. **Backend throughput** — interpreter vs compiled weak-distance
   evaluation (why the compiler backend exists).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.weak_distance import WeakDistance
from repro.experiments.common import ExperimentResult, run_analysis
from repro.fpir.instrument import instrument
from repro.mo.scipy_backends import BasinhoppingBackend
from repro.mo.starts import uniform_sampler
from repro.programs import fig2


def _boundary_budgeted(characteristic: bool, quick: bool, seed):
    report = run_analysis(
        "boundary",
        fig2.make_program(),
        seed=seed,
        backend_options={"niter": 15 if quick else 40},
        n_starts=3 if quick else 8,
        sampler=uniform_sampler(-50.0, 50.0),
        max_samples=3_000 if quick else 20_000,
        characteristic=characteristic,
    ).detail
    return sorted({x[0] for x in report.boundary_values}), report


def _limitation2_ablation():
    """The paper's Section 5.2 example, verbatim.

    Program ``if (x == 0) ...``; the flawed designer injects
    ``w += x * x`` (zero for every |x| < ~1e-162 by underflow), the
    careful designer injects the ULP distance.  The kernel's membership
    re-check flags the flawed distance's result as spurious.
    """
    from repro.core import AnalysisProblem, ReductionKernel, KernelConfig
    from repro.fpir.builder import (
        FunctionBuilder,
        call,
        eq as eq_,
        num as num_,
    )
    from repro.fpir.instrument import InstrumentationSpec
    from repro.fpir.nodes import Assign, BinOp, Var
    from repro.mo.starts import gaussian_sampler

    fb = FunctionBuilder("prog", params=["x"])
    with fb.if_(eq_(fb.arg("x"), num_(0.0))):
        fb.let("reached", num_(1.0))
    fb.ret(num_(0.0))
    from repro.fpir.program import Program

    program = Program([fb.build()], entry="prog")
    problem = AnalysisProblem(
        program,
        description="reach the branch x == 0",
        membership=lambda x: x[0] == 0.0,
    )

    def flawed_hook(site, cmp):
        sq = BinOp("fmul", cmp.lhs, cmp.lhs)
        return [Assign("w", BinOp("fadd", Var("w"), sq))]

    def ulp_hook(site, cmp):
        dist = call("__ulp_dist", cmp.lhs, cmp.rhs)
        return [Assign("w", BinOp("fadd", Var("w"), dist))]

    out = {}
    for name, hook in (("naive", flawed_hook), ("ulp", ulp_hook)):
        kernel = ReductionKernel(
            backend=BasinhoppingBackend(niter=30),
            config=KernelConfig(
                n_starts=6,
                seed=99,
                start_sampler=gaussian_sampler(1e-180),
            ),
        )
        spec = InstrumentationSpec(w_var="w", w_init=0.0, before_compare=hook)
        outcome = kernel.solve(problem, spec)
        out[name] = outcome
    return out


def _coverage_vs_random(quick: bool, seed):
    """CoverMe-vs-fuzzing shape: branch coverage on the Glibc sin port
    achieved by weak-distance minimization vs the same evaluation
    budget spent on random inputs."""
    from repro.libm import sin as glibc_sin
    from repro.mo.random_search import RandomSearchBackend
    from repro.mo.starts import wide_log_sampler

    sampler = wide_log_sampler(-12.0, 10.0)
    results = {}
    for name, backend in (
        ("weak-distance", BasinhoppingBackend(
            niter=20 if quick else 50,
            local_maxiter=80 if quick else 150)),
        ("random", RandomSearchBackend(
            n_samples=500 if quick else 2000, sampler=sampler)),
    ):
        results[name] = run_analysis(
            "coverage",
            glibc_sin.make_program(),
            seed=seed,
            backend=backend,
            n_starts=1,
            max_rounds=20 if quick else 60,
            sampler=sampler,
        ).detail
    return results


def _throughput(quick: bool):
    from repro.analyses.boundary import multiplicative_spec

    instrumented = instrument(fig2.make_program(), multiplicative_spec())
    n = 2_000 if quick else 20_000
    timings = {}
    for mode in ("compiled", "interpreter"):
        wd = WeakDistance(instrumented, eval_mode=mode)
        start = time.perf_counter()
        for i in range(n):
            wd((float(i % 17) - 8.0,))
        timings[mode] = n / (time.perf_counter() - start)
    return timings


def run(quick: bool = False, seed: Optional[int] = None) -> ExperimentResult:
    graded, graded_report = _boundary_budgeted(False, quick, seed)
    flat, flat_report = _boundary_budgeted(True, quick, seed)
    lim2 = _limitation2_ablation()
    coverage = _coverage_vs_random(quick, seed)
    speeds = _throughput(quick)

    rows = [
        (
            "fig7: graded |a-b| distance",
            f"{len(graded)} distinct BVs: " + ", ".join(f"{x:.17g}" for x in graded),
        ),
        (
            "fig7: characteristic distance",
            f"{len(flat)} distinct BVs (flat => random testing)",
        ),
        ("limitation2: w += x*x verdict", lim2["naive"].verdict.value),
        ("limitation2: w += ulp(x,0) verdict", lim2["ulp"].verdict.value),
        (
            "coverage: weak-distance MO",
            f"{100.0 * coverage['weak-distance'].coverage:.1f}% of arms",
        ),
        (
            "coverage: random testing (same harness)",
            f"{100.0 * coverage['random'].coverage:.1f}% of arms",
        ),
        ("throughput compiled (evals/s)", f"{speeds['compiled']:.0f}"),
        ("throughput interpreter (evals/s)", f"{speeds['interpreter']:.0f}"),
    ]
    return ExperimentResult(
        name="ablation",
        title="Ablations: Fig. 7 flat distance, ULP metric, executor" " throughput",
        headers=("ablation", "outcome"),
        rows=rows,
        data={
            "graded": graded,
            "flat": flat,
            "graded_report": graded_report,
            "flat_report": flat_report,
            "limitation2": lim2,
            "coverage_vs_random": coverage,
            "throughput": speeds,
        },
    )
