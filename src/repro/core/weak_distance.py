"""Weak distances (paper Definition 3.1).

A weak distance for ⟨Prog; S⟩ is a *program* ``W : dom(Prog) → F`` with

  (a) ``W(x) >= 0`` for all x,
  (b) ``W(x) == 0  ⇒  x ∈ S``,
  (c) ``x ∈ S  ⇒  W(x) == 0``.

Here a weak distance is an instrumented FPIR program plus the recipe
for reading the value of the instrumented variable ``w`` back out.  It
can execute through the compiler (fast path, default) or the reference
interpreter, and exposes the runtime label sets so stateful analyses
(Algorithm 3's set ``L``, branch coverage's set ``B``) can evolve the
distance between minimization rounds without re-instrumenting.

``eval_mode`` selects the tier — ``"compiled"`` (default) or
``"interpreter"`` — and both score one point per call, bit for bit
alike: MO samples W one point at a time (Section 4.1).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.fpir.compiler import CompiledProgram, compile_program
from repro.fpir.instrument import InstrumentedProgram
from repro.fpir.interpreter import (
    ExecutionContext,
    ExecutionResult,
    Interpreter,
    StepLimitExceeded,
)

#: Valid ``eval_mode`` values, in documentation order — the one list
#: the CLI and the serve wire check read.
EVAL_MODES = ("compiled", "interpreter")


class WeakDistance:
    """An executable weak distance W built from an instrumented program."""

    def __init__(
        self,
        instrumented: InstrumentedProgram,
        exact: bool = False,
        max_loop_steps: int = 2_000_000,
        eval_mode: Optional[str] = None,
    ) -> None:
        """``exact=True`` evaluates W's elementary FP operations over
        exact rationals (:mod:`repro.fpir.exact`) — the paper's §5.2
        higher-precision option, eliminating Limitation-2 rounding
        artifacts in W at ~10× interpreter cost.  Implies the
        interpreter backend.

        ``eval_mode`` is ``"compiled"`` (``None`` means the same) or
        ``"interpreter"``; ``exact`` always forces the (exact)
        interpreter.
        """
        if eval_mode is None:
            eval_mode = "compiled"
        if eval_mode not in EVAL_MODES:
            raise ValueError(
                f"unknown eval_mode {eval_mode!r}; expected one of "
                f"{EVAL_MODES}"
            )
        self.instrumented = instrumented
        self.program = instrumented.program
        self.w_var = instrumented.w_var
        self.exact = exact
        self.eval_mode = eval_mode
        self._use_compiler = eval_mode == "compiled" and not exact
        self._compiled: Optional[CompiledProgram] = None
        self._interpreter: Optional[Interpreter] = None
        self._runtime = None
        self.max_loop_steps = max_loop_steps
        #: Runtime label sets shared across evaluations (e.g. L, B).
        self.label_sets: Dict[str, Set[str]] = {
            name: set() for name in instrumented.spec.label_sets
        }
        #: Events observed during the most recent evaluation.
        self.last_events: Dict[str, str] = {}
        self.last_result: Optional[ExecutionResult] = None

    # -- execution ------------------------------------------------------------

    def _ensure_compiled(self) -> CompiledProgram:
        if self._compiled is None:
            self._compiled = compile_program(self.program)
        return self._compiled

    def execute(self, x: Sequence[float]) -> ExecutionResult:
        """Run the instrumented program on ``x`` and return the raw result."""
        if self._use_compiler:
            compiled = self._ensure_compiled()
            if self._runtime is None:
                self._runtime = compiled.new_runtime(self.max_loop_steps)
                self._runtime.sets = self.label_sets
            rt = self._runtime
            rt.events.clear()
            result = compiled.run(x, rt=rt)
        else:
            result = self._interpret(x)
        self.last_events = dict(result.events)
        self.last_result = result
        return result

    def _make_interpreter(self) -> Interpreter:
        if self.exact:
            from repro.fpir.exact import ExactInterpreter

            return ExactInterpreter(self.program)
        return Interpreter(self.program)

    def _interpret(self, x: Sequence[float]) -> ExecutionResult:
        if self._interpreter is None:
            self._interpreter = self._make_interpreter()
        ctx = ExecutionContext(
            label_sets=self.label_sets,
            max_steps=self.max_loop_steps,
        )
        return self._interpreter.run(x, ctx)

    def __call__(self, x: Sequence[float]) -> float:
        """Evaluate W(x): the final value of ``w`` (inf when the run
        diverges past the step budget or ``w`` ends up NaN)."""
        try:
            result = self.execute(x)
        except StepLimitExceeded:
            return math.inf
        raw = result.globals.get(self.w_var, math.inf)
        exact_nonzero = False
        if self.exact:
            from fractions import Fraction

            if isinstance(raw, Fraction):
                exact_nonzero = raw != 0
        try:
            value = float(raw)
        except (TypeError, ValueError, OverflowError):
            return math.inf
        if value != value:  # NaN
            return math.inf
        if value == 0.0 and exact_nonzero:
            # The exact value is strictly positive but below the
            # smallest subnormal: report the smallest positive double
            # so the zero test stays exact (Def. 3.1b in exact mode).
            return 5e-324
        return value

    def replay(
        self, x: Sequence[float]
    ) -> Tuple[ExecutionResult, Dict[Tuple[str, str], int]]:
        """Execute on ``x`` with *fresh* event counters.

        The verification replays (the paper's ``hits++`` soundness
        check, path verification, coverage collection) need per-run
        counters, while plain W evaluation lets them accumulate for
        speed; this method isolates one run.
        """
        if self._use_compiler:
            compiled = self._ensure_compiled()
            if self._runtime is None:
                self._runtime = compiled.new_runtime(self.max_loop_steps)
                self._runtime.sets = self.label_sets
            self._runtime.counters.clear()
            self._runtime.events.clear()
            result = self.execute(x)
            counters = dict(self._runtime.counters)
            self._runtime.counters.clear()
            return result, counters
        ctx = ExecutionContext(
            label_sets=self.label_sets, max_steps=self.max_loop_steps
        )
        if self._interpreter is None:
            self._interpreter = self._make_interpreter()
        result = self._interpreter.run(x, ctx)
        self.last_events = dict(result.events)
        self.last_result = result
        return result, dict(ctx.counters)

    # -- Definition 3.1 law checking -------------------------------------------

    def check_nonnegative(self, samples: Sequence[Sequence[float]]) -> bool:
        """Def. 3.1(a) on a sample set: W(x) >= 0 everywhere."""
        return all(self(x) >= 0.0 for x in samples)

    def check_zero_implies_member(
        self, samples: Sequence[Sequence[float]], membership
    ) -> bool:
        """Def. 3.1(b) on a sample set, given a membership oracle."""
        return all(membership(tuple(x)) for x in samples if self(x) == 0.0)

    def check_member_implies_zero(
        self, samples: Sequence[Sequence[float]], membership
    ) -> bool:
        """Def. 3.1(c) on a sample set, given a membership oracle."""
        return all(self(x) == 0.0 for x in samples if membership(tuple(x)))
