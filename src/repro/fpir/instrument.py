"""Generic instrumentation engine (the Reduction Kernel's step 1).

The paper's architecture (Section 5) splits weak-distance construction
between the *Analysis Designer* — who chooses ``w_init`` and the update
stub ``update_w`` — and the *Reduction Kernel* — which injects the stub
into the program under analysis.  This module is the injection half: an
:class:`InstrumentationSpec` bundles the designer's callbacks, and
:func:`instrument` applies them to a (cloned) program:

* ``before_compare`` — code placed immediately before the statement
  containing a labelled comparison; receives the comparison's operand
  expressions.  Used by boundary value analysis
  (``w = w * |a - b|``, Fig. 3).
* ``before_branch`` — code placed before each ``if``/``while``
  (re-emitted at the end of loop bodies so every dynamic test is
  preceded by it).  Used by path reachability (Fig. 4).
* ``arm_prologue`` — code placed at the top of each branch arm.  Used
  by branch-coverage bookkeeping and the paper's ``hits++`` soundness
  counters (Section 6.2).
* ``after_fp_assign`` — code placed after each labelled elementary FP
  operation.  Used by overflow detection (Algorithm 3, step 2).
  Requires the program in three-address form (``normalize=True``).

The callbacks may re-evaluate comparison operands; they must therefore
be pure (the validator's restriction matches the paper's, whose injected
C expressions also re-evaluate operands).

The instrumentation variable never aliases program state: when the
program already uses the requested ``spec.w_var`` (as a global, local,
or parameter — e.g. ``fig7-characteristic`` declares its own global
``w``), :func:`instrument` alpha-renames the *program's* variable to a
fresh name on the clone before injecting, so the spec keeps its
requested name and the hooks' closed-over references stay correct.
(The inverse — renaming the injected code — is unsound: hooks embed
the program's own operand nodes and build ``Var`` nodes naming program
state, so no rewrite of hook output can tell accumulator references
from program references.)  Renames are recorded on
``InstrumentedProgram.renamed``.  Specs using ``after_fp_assign`` need
the program in three-address form (``normalize=True`` handles this).
The instrumented program runs on either tier — interpreter or
compiled — with identical ``w`` trajectories.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence, Union

from repro.fpir.labels import (
    BranchSite,
    CompareSite,
    FpOpSite,
    LabelIndex,
    assign_labels,
)
from repro.fpir.nodes import (
    Assign,
    BinOp,
    Block,
    Compare,
    FLOAT_OPS,
    If,
    Return,
    Stmt,
    Var,
    While,
)
from repro.fpir.normalize import normalize_program
from repro.fpir.program import Program
from repro.fpir.walk import iter_stmt_exprs, iter_stmts, iter_subexprs

#: before_compare(site, compare_expr) -> injected statements
CompareHook = Callable[[CompareSite, Compare], List[Stmt]]
#: before_branch(site, branch_stmt) -> injected statements
BranchHook = Callable[[BranchSite, Union[If, While]], List[Stmt]]
#: arm_prologue(site, taken) -> injected statements
ArmHook = Callable[[BranchSite, bool], List[Stmt]]
#: after_fp_assign(site, assign_stmt) -> injected statements
FpOpHook = Callable[[FpOpSite, Assign], List[Stmt]]


#: Spec fields holding designer callbacks.  The hooks are consumed when
#: :func:`instrument` runs; afterwards the spec only matters for its
#: plain-data fields (``w_var``, ``w_init``, ``label_sets``).
HOOK_FIELDS = (
    "before_compare",
    "before_branch",
    "arm_prologue",
    "after_fp_assign",
)


@dataclasses.dataclass
class InstrumentationSpec:
    """The Analysis Designer's parameters (w_init + update stubs).

    Specs pickle with their hooks *dropped* (hooks are usually closures,
    which cannot cross process boundaries).  That is sound for every
    post-instrumentation use — the injected code already sits inside the
    rewritten program — and is what lets an
    :class:`InstrumentedProgram` be shipped to the worker processes of
    :mod:`repro.core.parallel` and re-executed there.  A spec that has
    travelled through pickle can no longer be passed to
    :func:`instrument`.
    """

    w_var: str = "w"
    w_init: float = 0.0
    before_compare: Optional[CompareHook] = None
    before_branch: Optional[BranchHook] = None
    arm_prologue: Optional[ArmHook] = None
    after_fp_assign: Optional[FpOpHook] = None
    #: Normalize to three-address form first (required by after_fp_assign).
    normalize: bool = False
    #: Runtime label sets the instrumented code consults (e.g. ``L``).
    label_sets: Sequence[str] = ()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        had_hooks = any(state[field] is not None for field in HOOK_FIELDS)
        for field in HOOK_FIELDS:
            state[field] = None
        if had_hooks:
            state["_hooks_dropped"] = True
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @property
    def hooks_dropped(self) -> bool:
        """True when this spec lost its hooks in a pickle/copy round
        trip and must not be passed to :func:`instrument` again."""
        return getattr(self, "_hooks_dropped", False)


@dataclasses.dataclass
class InstrumentedProgram:
    """Result of :func:`instrument`: the rewritten program + metadata."""

    program: Program
    index: LabelIndex
    spec: InstrumentationSpec
    #: ``{old: new}`` alpha-renames applied to the *program's* own
    #: variables because they clashed with ``spec.w_var``.  Empty for
    #: the common no-collision case.
    renamed: dict = dataclasses.field(default_factory=dict)

    @property
    def w_var(self) -> str:
        return self.spec.w_var


class _Rewriter:
    def __init__(self, spec: InstrumentationSpec, index: LabelIndex) -> None:
        self.spec = spec
        self._compare_sites = {s.label: s for s in index.compares}
        self._branch_sites = {s.label: s for s in index.branches}
        self._fp_sites = {s.label: s for s in index.fp_ops}

    # -- helpers -------------------------------------------------------------

    def _compare_injections(self, stmt: Stmt) -> List[Stmt]:
        """Statements to inject before ``stmt`` for its comparisons."""
        hook = self.spec.before_compare
        if hook is None:
            return []
        injected: List[Stmt] = []
        for root in iter_stmt_exprs(stmt):
            for expr in iter_subexprs(root):
                if isinstance(expr, Compare) and expr.label is not None:
                    site = self._compare_sites.get(expr.label)
                    if site is not None:
                        injected.extend(hook(site, expr))
        return injected

    def _branch_injections(self, stmt: Union[If, While]) -> List[Stmt]:
        hook = self.spec.before_branch
        if hook is None or stmt.label is None:
            return []
        site = self._branch_sites.get(stmt.label)
        if site is None:
            return []
        return hook(site, stmt)

    def _arm_injections(self, stmt: Union[If, While], taken: bool) -> List[Stmt]:
        hook = self.spec.arm_prologue
        if hook is None or stmt.label is None:
            return []
        site = self._branch_sites.get(stmt.label)
        if site is None:
            return []
        return hook(site, taken)

    # -- rewriting -----------------------------------------------------------

    def block(self, blk: Block) -> Block:
        out: List[Stmt] = []
        for stmt in blk.stmts:
            out.extend(self.stmt(stmt))
        return Block(tuple(out))

    def stmt(self, stmt: Stmt) -> List[Stmt]:
        cls = stmt.__class__
        if cls is Assign:
            injected = self._compare_injections(stmt)
            out = injected + [stmt]
            expr = stmt.expr
            if (
                isinstance(expr, BinOp)
                and expr.op in FLOAT_OPS
                and expr.label is not None
                and self.spec.after_fp_assign is not None
            ):
                site = self._fp_sites.get(expr.label)
                if site is not None:
                    out.extend(self.spec.after_fp_assign(site, stmt))
            return out
        if cls is If:
            pre = self._compare_injections(stmt)
            pre += self._branch_injections(stmt)
            then = self._arm_injections(stmt, True) + list(self.block(stmt.then).stmts)
            orelse = self._arm_injections(stmt, False) + list(
                self.block(stmt.orelse).stmts
            )
            return pre + [
                If(stmt.cond, Block(tuple(then)), Block(tuple(orelse)), stmt.label)
            ]
        if cls is While:
            pre = self._compare_injections(stmt)
            pre += self._branch_injections(stmt)
            # Re-emit the pre-test updates at the end of the body so
            # every dynamic evaluation of the loop test is preceded by
            # the designer's update code.
            body = (
                self._arm_injections(stmt, True)
                + list(self.block(stmt.body).stmts)
                + list(pre)
            )
            return pre + [While(stmt.cond, Block(tuple(body)), stmt.label)]
        if cls is Return:
            return self._compare_injections(stmt) + [stmt]
        if cls is Block:
            return [self.block(stmt)]
        return [stmt]


def _used_names(program: Program) -> set:
    """Every name ``program`` already uses (capture-hazard set).

    Globals, arrays, function names, parameters, assignment targets and
    variable reads all count: adding an instrumentation global under
    any of them would silently alias program state (``Assign`` writes
    the global as soon as one exists, and ``Var`` falls through to the
    global when no local binding shadows it).
    """
    used = set(program.globals) | set(program.arrays)
    for fn in program.functions.values():
        used.add(fn.name)
        used.update(p.name for p in fn.params)
        for stmt in iter_stmts(fn.body):
            if isinstance(stmt, Assign):
                used.add(stmt.name)
            for root in iter_stmt_exprs(stmt):
                for expr in iter_subexprs(root):
                    if isinstance(expr, Var):
                        used.add(expr.name)
    return used


def _fresh_name(requested: str, used: set) -> str:
    """A name not in ``used``, derived from the requested one."""
    candidate = f"{requested}_"
    counter = 2
    while candidate in used:
        candidate = f"{requested}_{counter}"
        counter += 1
    return candidate


def _rename_program_var(prog: Program, old: str, new: str) -> None:
    """Alpha-rename the program's own binding(s) of ``old`` to ``new``.

    Mutates ``prog`` in place (callers pass the instrumentation clone).
    Follows the runtime resolution rules exactly — reads check locals
    before globals, writes hit the global as soon as one exists — so
    each occurrence is renamed iff it denotes the binding being moved:

    * ``old`` is a global: every ``Assign`` to it targets the global;
      ``Var`` reads do too, except inside functions where a parameter
      named ``old`` shadows the global.
    * ``old`` is function-local (parameter or assigned name, no global
      of that name): rename it within exactly those functions.
    """
    if old in prog.globals:
        prog.globals = {
            (new if name == old else name): init
            for name, init in prog.globals.items()
        }
        for fn in prog.functions.values():
            shadowed = any(p.name == old for p in fn.params)
            for stmt in iter_stmts(fn.body):
                if isinstance(stmt, Assign) and stmt.name == old:
                    stmt.name = new
                if shadowed:
                    continue
                for root in iter_stmt_exprs(stmt):
                    for expr in iter_subexprs(root):
                        if isinstance(expr, Var) and expr.name == old:
                            expr.name = new
        return
    for fn in prog.functions.values():
        local = any(p.name == old for p in fn.params) or any(
            isinstance(s, Assign) and s.name == old for s in iter_stmts(fn.body)
        )
        if not local:
            continue
        for param in fn.params:
            if param.name == old:
                param.name = new
        for stmt in iter_stmts(fn.body):
            if isinstance(stmt, Assign) and stmt.name == old:
                stmt.name = new
            for root in iter_stmt_exprs(stmt):
                for expr in iter_subexprs(root):
                    if isinstance(expr, Var) and expr.name == old:
                        expr.name = new


def instrument(program: Program, spec: InstrumentationSpec) -> InstrumentedProgram:
    """Apply ``spec`` to a clone of ``program`` (the original is untouched).

    The clone is (optionally) normalized, labelled, rewritten, and given
    the global ``spec.w_var`` initialized to ``spec.w_init``.  When the
    program already uses that name, its *own* variable is alpha-renamed
    to a fresh one first (recorded in ``InstrumentedProgram.renamed``)
    so the spec — whose hooks closed over the requested name — keeps
    it.  Renaming the program rather than the injected code is what
    keeps this sound: hook output may embed the program's own operand
    nodes and fresh ``Var`` nodes naming program state, which no
    rewrite of the injected statements could safely distinguish from
    accumulator references.
    """
    if spec.hooks_dropped:
        raise ValueError(
            "this InstrumentationSpec lost its hooks in a pickle/copy "
            "round trip; instrumenting with it would silently produce "
            "the constant weak distance W == w_init. Build a fresh "
            "spec instead."
        )
    prog = program.clone()
    if spec.normalize:
        prog = normalize_program(prog)

    renamed = {}
    used = _used_names(prog)
    if spec.w_var in used:
        fresh = _fresh_name(spec.w_var, used)
        _rename_program_var(prog, spec.w_var, fresh)
        renamed[spec.w_var] = fresh

    index = assign_labels(prog)
    rewriter = _Rewriter(spec, index)
    functions = []
    for fn in prog.functions.values():
        fn.body = rewriter.block(fn.body)
        functions.append(fn)

    prog.add_global(spec.w_var, spec.w_init)
    return InstrumentedProgram(
        program=prog, index=index, spec=spec, renamed=renamed
    )
