"""A tree-walking reference interpreter for FPIR.

The interpreter is the semantic ground truth: the FPIR→Python compiler
(:mod:`repro.fpir.compiler`) is differentially tested against it.  It
executes with C floating-point semantics (quiet inf/NaN — see
:mod:`repro.fp.arith`) and supports the instrumentation constructs
(:class:`~repro.fpir.nodes.InLabelSet`,
:class:`~repro.fpir.nodes.RecordEvent`, :class:`~repro.fpir.nodes.Halt`)
through an explicit :class:`ExecutionContext`.

Invariants:

* **Value parity.**  Result values, globals, events and counters are
  bit-identical to the compiled tier (:mod:`repro.fpir.compiler`); the
  test suite enforces this differentially.
* **Step accounting is the one sanctioned difference.**  ``max_steps``
  here budgets interpreted *statements* (each statement and each loop
  iteration increments the counter), whereas the compiled tier budgets
  loop *iterations* only.  The budgets exist to bound runaway loops,
  not to be comparable across tiers; programs that terminate within
  budget agree on both.
* **Errors are per point.**  Out-of-range array indexing and integer
  division by zero raise :class:`InterpreterError` for the offending
  input alone.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.fp import arith
from repro.fpir import externals
from repro.fpir.nodes import (
    ArrayIndex,
    Assign,
    BinOp,
    Block,
    Call,
    Compare,
    Const,
    Expr,
    Halt,
    If,
    InLabelSet,
    RecordEvent,
    Return,
    Stmt,
    Ternary,
    UnOp,
    Var,
    While,
)
from repro.fpir.program import Program


class InterpreterError(Exception):
    """Malformed program detected at runtime (unknown var, bad op...)."""


class StepLimitExceeded(InterpreterError):
    """The execution exceeded the configured step budget.

    MO backends explore the whole input space, including inputs that
    drive loops far beyond their intended trip counts; the budget keeps
    weak-distance evaluation total.
    """


class HaltExecution(Exception):
    """Raised by :class:`~repro.fpir.nodes.Halt` to stop the whole run."""


class _ReturnSignal(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


@dataclasses.dataclass
class ExecutionContext:
    """Mutable state shared by one or more executions.

    Attributes
    ----------
    globals:
        Current values of program globals (re-seeded from the program's
        declared initial values at each entry invocation unless
        ``reset_globals`` is False).
    label_sets:
        Named runtime label sets consulted by ``InLabelSet`` — e.g.
        Algorithm 3's set ``L`` of already-overflowed instructions.
    events:
        Last label recorded per event kind (``target`` heuristic).
    counters:
        Occurrence counts per (kind, label) — the paper's ``hits++``.
    max_steps:
        Statement budget per entry invocation.
    """

    globals: Dict[str, Any] = dataclasses.field(default_factory=dict)
    label_sets: Dict[str, Set[str]] = dataclasses.field(default_factory=dict)
    events: Dict[str, str] = dataclasses.field(default_factory=dict)
    counters: Dict[Tuple[str, str], int] = dataclasses.field(default_factory=dict)
    max_steps: int = 2_000_000
    reset_globals: bool = True
    steps: int = 0
    halted: bool = False

    def label_set(self, name: str) -> Set[str]:
        return self.label_sets.setdefault(name, set())

    def record(self, kind: str, label: str) -> None:
        self.events[kind] = label
        key = (kind, label)
        self.counters[key] = self.counters.get(key, 0) + 1


@dataclasses.dataclass
class ExecutionResult:
    """Outcome of one entry-function invocation."""

    value: Any
    halted: bool
    steps: int
    globals: Dict[str, Any]
    events: Dict[str, str]


_CMP: Dict[str, Callable[[Any, Any], bool]] = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
}


def _idiv(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


_BIN: Dict[str, Callable[[Any, Any], Any]] = {
    "fadd": arith.fadd,
    "fsub": arith.fsub,
    "fmul": arith.fmul,
    "fdiv": arith.fdiv,
    "iadd": lambda a, b: int(a) + int(b),
    "isub": lambda a, b: int(a) - int(b),
    "imul": lambda a, b: int(a) * int(b),
    "idiv": _idiv,
    "band": lambda a, b: int(a) & int(b),
    "bor": lambda a, b: int(a) | int(b),
    "bxor": lambda a, b: int(a) ^ int(b),
    "shl": lambda a, b: int(a) << int(b),
    "shr": lambda a, b: int(a) >> int(b),
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
}


class Interpreter:
    """Executes the entry function of a :class:`Program`."""

    def __init__(self, program: Program) -> None:
        self.program = program
        #: Binary-operator dispatch table; subclasses (e.g. the exact
        #: rational evaluator) substitute their own.
        self._bin_table = _BIN

    # -- public API ---------------------------------------------------------

    def run(
        self,
        args: Sequence[Any],
        ctx: Optional[ExecutionContext] = None,
    ) -> ExecutionResult:
        """Execute ``entry(*args)`` and return the result.

        A fresh context is created when ``ctx`` is None.  Program globals
        are (re-)initialized from their declared initial values unless
        ``ctx.reset_globals`` is False.
        """
        ctx = ctx if ctx is not None else ExecutionContext()
        if ctx.reset_globals:
            for name, init in self.program.globals.items():
                ctx.globals[name] = init
        else:
            for name, init in self.program.globals.items():
                ctx.globals.setdefault(name, init)
        ctx.steps = 0
        ctx.halted = False
        entry = self.program.entry_function
        if len(args) != len(entry.params):
            raise InterpreterError(
                f"{entry.name} expects {len(entry.params)} args, "
                f"got {len(args)}"
            )
        value = None
        try:
            value = self._call_function(entry.name, list(args), ctx)
        except HaltExecution:
            ctx.halted = True
        return ExecutionResult(
            value=value,
            halted=ctx.halted,
            steps=ctx.steps,
            globals=dict(ctx.globals),
            events=dict(ctx.events),
        )

    # -- function invocation -------------------------------------------------

    def _call_external(self, name: str, args: List[Any]) -> Any:
        """Invoke a registered external (subclass hook)."""
        return externals.lookup(name)(*args)

    def _call_function(self, name: str, args: List[Any], ctx: ExecutionContext) -> Any:
        fn = self.program.functions[name]
        env: Dict[str, Any] = dict(zip(fn.param_names, args))
        try:
            self._exec_block(fn.body, env, ctx)
        except _ReturnSignal as ret:
            return ret.value
        return None

    # -- statements ----------------------------------------------------------

    def _exec_block(
        self, blk: Block, env: Dict[str, Any], ctx: ExecutionContext
    ) -> None:
        for stmt in blk.stmts:
            self._exec_stmt(stmt, env, ctx)

    def _exec_stmt(
        self, stmt: Stmt, env: Dict[str, Any], ctx: ExecutionContext
    ) -> None:
        ctx.steps += 1
        if ctx.steps > ctx.max_steps:
            raise StepLimitExceeded(f"exceeded {ctx.max_steps} interpreted statements")
        cls = stmt.__class__
        if cls is Assign:
            value = self._eval(stmt.expr, env, ctx)
            if stmt.name in ctx.globals:
                ctx.globals[stmt.name] = value
            else:
                env[stmt.name] = value
        elif cls is If:
            if self._eval(stmt.cond, env, ctx):
                self._exec_block(stmt.then, env, ctx)
            else:
                self._exec_block(stmt.orelse, env, ctx)
        elif cls is While:
            while self._eval(stmt.cond, env, ctx):
                ctx.steps += 1
                if ctx.steps > ctx.max_steps:
                    raise StepLimitExceeded(
                        f"exceeded {ctx.max_steps} interpreted statements"
                    )
                self._exec_block(stmt.body, env, ctx)
        elif cls is Return:
            value = (
                self._eval(stmt.value, env, ctx)
                if stmt.value is not None
                else None
            )
            raise _ReturnSignal(value)
        elif cls is Block:
            self._exec_block(stmt, env, ctx)
        elif cls is RecordEvent:
            ctx.record(stmt.kind, stmt.label)
        elif cls is Halt:
            raise HaltExecution()
        else:
            raise InterpreterError(f"unknown statement {stmt!r}")

    # -- expressions ---------------------------------------------------------

    def _eval(self, expr: Expr, env: Dict[str, Any], ctx: ExecutionContext):
        cls = expr.__class__
        if cls is Const:
            return expr.value
        if cls is Var:
            name = expr.name
            if name in env:
                return env[name]
            if name in ctx.globals:
                return ctx.globals[name]
            raise InterpreterError(f"undefined variable {name!r}")
        if cls is BinOp:
            fn = self._bin_table.get(expr.op)
            if fn is None:
                raise InterpreterError(f"unknown operator {expr.op!r}")
            if expr.op == "and":
                return bool(self._eval(expr.lhs, env, ctx)) and bool(
                    self._eval(expr.rhs, env, ctx)
                )
            if expr.op == "or":
                return bool(self._eval(expr.lhs, env, ctx)) or bool(
                    self._eval(expr.rhs, env, ctx)
                )
            return fn(self._eval(expr.lhs, env, ctx), self._eval(expr.rhs, env, ctx))
        if cls is Compare:
            fn = _CMP.get(expr.op)
            if fn is None:
                raise InterpreterError(f"unknown comparison {expr.op!r}")
            return fn(self._eval(expr.lhs, env, ctx), self._eval(expr.rhs, env, ctx))
        if cls is UnOp:
            value = self._eval(expr.operand, env, ctx)
            if expr.op == "fneg":
                return -value
            if expr.op == "ineg":
                return -int(value)
            if expr.op == "not":
                return not value
            raise InterpreterError(f"unknown unary operator {expr.op!r}")
        if cls is Ternary:
            if self._eval(expr.cond, env, ctx):
                return self._eval(expr.then, env, ctx)
            return self._eval(expr.orelse, env, ctx)
        if cls is Call:
            args = [self._eval(a, env, ctx) for a in expr.args]
            if expr.func in self.program.functions:
                return self._call_function(expr.func, args, ctx)
            return self._call_external(expr.func, args)
        if cls is ArrayIndex:
            try:
                array = self.program.arrays[expr.name]
            except KeyError:
                raise InterpreterError(
                    f"unknown constant array {expr.name!r}"
                ) from None
            index = int(self._eval(expr.index, env, ctx))
            if not 0 <= index < len(array):
                raise InterpreterError(
                    f"index {index} out of range for array {expr.name!r} "
                    f"of length {len(array)}"
                )
            return array[index]
        if cls is InLabelSet:
            return expr.label in ctx.label_set(expr.set_name)
        raise InterpreterError(f"unknown expression {expr!r}")


def run_program(
    program: Program,
    args: Sequence[Any],
    ctx: Optional[ExecutionContext] = None,
) -> ExecutionResult:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    return Interpreter(program).run(args, ctx)
