"""First-class analysis targets: what the Client layer hands the engine.

The paper's Client "provides the program under analysis" (§5.1).
Until this module, providing one meant registering a hand-built FPIR
program under a string name; everything else — `Engine.run`, the CLI,
the batch driver — only spoke those nine names.  A :class:`Target`
makes the program under analysis a value:

* :class:`ProgramTarget` — a suite-registry name or an FPIR
  :class:`~repro.fpir.program.Program` instance;
* :class:`PythonTarget` — any Python callable, ``pkg.mod:function``
  import spec, or ``file.py::function`` path spec, lowered through the
  Python→FPIR frontend (:mod:`repro.fpir.frontend`);
* :class:`CTarget` — a ``file.c::function`` path spec, lowered through
  the C frontend (:mod:`repro.cfront`);
* :class:`FormulaTarget` — a QF-FP constraint string or parsed
  :class:`~repro.sat.formula.Formula` (the SAT instance).

:func:`coerce_target` is the single entry point the engine, session,
CLI and batch driver use: it accepts a Target, a Program, a Formula, a
callable, or a spec string, and returns a Target of the requested
kind.  Spec-string grammar::

    fig2                        suite-registry program name
    examples/targets.py::fn     Python file  ::  function
    examples/c/bessel.c::fn     C file  ::  function
    mypkg.models:price          importable module : function
    "x < 1 && x + 1 >= 2"       constraint text (formula targets)

``::`` specs dispatch on the file suffix: ``.c`` files go through the
C frontend, everything else through the Python frontend.
"""

from __future__ import annotations

import abc
import dataclasses
import importlib
import importlib.util
import os
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

from repro.fpir.program import Program

#: The two target kinds analyses declare via ``Analysis.target_kind``.
PROGRAM_KIND = "program"
FORMULA_KIND = "formula"


class TargetError(ValueError):
    """A target spec/object could not be resolved."""


class Target(abc.ABC):
    """The program (or formula) under analysis, as a value.

    ``resolve()`` produces the object the analysis's ``prepare`` hook
    consumes — an FPIR :class:`Program` for program-kind analyses, a
    :class:`~repro.sat.formula.Formula` for the SAT instance — and is
    cached on the instance.  ``file.py::fn`` spec strings additionally
    memoize the *instance* by file mtime (:func:`parse_target_spec`),
    so a batch campaign crossing several analyses over one file spec
    reads and lowers the file once, not once per job.
    """

    #: Which analyses can consume this target (PROGRAM_KIND/FORMULA_KIND).
    kind: ClassVar[str] = PROGRAM_KIND

    _resolved: Any = None

    @abc.abstractmethod
    def _build(self) -> Any:
        """Construct the resolved object (uncached)."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Short human-readable name (report envelopes, event streams)."""

    def resolve(self) -> Any:
        """The object under analysis (built once, then cached)."""
        if self._resolved is None:
            self._resolved = self._build()
        return self._resolved

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


@dataclasses.dataclass
class ProgramTarget(Target):
    """A suite-registry program name, or a ready FPIR program."""

    name: Optional[str] = None
    program: Optional[Program] = None

    def __post_init__(self) -> None:
        if (self.name is None) == (self.program is None):
            raise TargetError("ProgramTarget takes exactly one of name= or program=")

    def _build(self) -> Program:
        if self.program is not None:
            return self.program
        from repro.programs import get_program

        return get_program(self.name)

    def describe(self) -> str:
        if self.name is not None:
            return self.name
        return self.program.entry


@dataclasses.dataclass
class PythonTarget(Target):
    """A Python function lowered to FPIR on first resolution.

    Exactly one source form:

    * ``fn`` — a live callable;
    * ``path`` + ``entry`` — a ``file.py::function`` spec;
    * ``module`` + ``entry`` — a ``pkg.mod:function`` import spec.
    """

    fn: Optional[Callable] = None
    path: Optional[str] = None
    module: Optional[str] = None
    entry: Optional[str] = None

    def __post_init__(self) -> None:
        sources = sum(x is not None for x in (self.fn, self.path, self.module))
        if sources != 1:
            raise TargetError(
                "PythonTarget takes exactly one of fn=, path=, or module="
            )
        if self.fn is None and not self.entry:
            raise TargetError(
                "PythonTarget needs entry= (the function name) with "
                "path= or module="
            )

    @classmethod
    def from_spec(cls, spec: str) -> "PythonTarget":
        """Parse ``file.py::fn`` or ``pkg.mod:fn``."""
        if "::" in spec:
            path, _, entry = spec.partition("::")
            if not path or not entry:
                raise TargetError(
                    f"malformed Python file target {spec!r}; expected "
                    "file.py::function"
                )
            return cls(path=path, entry=entry)
        module, _, entry = spec.partition(":")
        if not module or not entry:
            raise TargetError(
                f"malformed Python module target {spec!r}; expected "
                "pkg.mod:function"
            )
        return cls(module=module, entry=entry)

    def _build(self) -> Program:
        from repro.fpir.frontend import lower_callable, lower_file

        if self.fn is not None:
            return lower_callable(self.fn)
        if self.path is not None:
            return lower_file(self.path, self.entry)
        try:
            module = importlib.import_module(self.module)
        except ImportError as exc:
            raise TargetError(f"cannot import module {self.module!r}: {exc}") from exc
        try:
            fn = getattr(module, self.entry)
        except AttributeError:
            raise TargetError(
                f"module {self.module!r} has no function {self.entry!r}"
            ) from None
        return lower_callable(fn)

    def check(self) -> None:
        """Fail fast on an unresolvable source.

        File targets resolve fully (reading + lowering one file is
        cheap and the result is cached on this instance).  Module
        targets are located without executing the module itself —
        though, as with any import-machinery lookup, *parent packages*
        of a dotted path are imported to find it.  Entry-name typos in
        module targets therefore still surface at :meth:`resolve`
        time.
        """
        if self.path is not None:
            self.resolve()
        elif self.module is not None:
            try:
                found = importlib.util.find_spec(self.module)
            except (ImportError, ValueError) as exc:
                raise TargetError(
                    f"cannot locate module {self.module!r}: {exc}"
                ) from exc
            if found is None:
                raise TargetError(f"no module named {self.module!r}")

    def describe(self) -> str:
        if self.fn is not None:
            return getattr(self.fn, "__qualname__", repr(self.fn))
        if self.path is not None:
            return f"{self.path}::{self.entry}"
        return f"{self.module}:{self.entry}"


@dataclasses.dataclass
class CTarget(Target):
    """A C function lowered to FPIR on first resolution.

    The resolver behind ``file.c::function`` specs: the file goes
    through :mod:`repro.cfront` (lexer → parser → lowering →
    validation), producing the same FPIR the Python frontend emits for
    an equivalently-shaped Python function.  Lowering errors are
    located :class:`~repro.cfront.CFrontendError` diagnostics, which
    subclass the Python frontend's ``FrontendError`` so every existing
    catch site admits them unchanged.
    """

    path: str
    entry: str

    def __post_init__(self) -> None:
        if not self.path or not self.entry:
            raise TargetError("CTarget needs both path= and entry=")

    def _build(self) -> Program:
        from repro.cfront import lower_c_file

        return lower_c_file(self.path, self.entry)

    def check(self) -> None:
        """Fail fast: fully lower the file (cheap, cached on self)."""
        self.resolve()

    def describe(self) -> str:
        return f"{self.path}::{self.entry}"


@dataclasses.dataclass
class FormulaTarget(Target):
    """A QF-FP constraint for the SAT instance."""

    source: Optional[str] = None
    formula: Any = None

    kind: ClassVar[str] = FORMULA_KIND

    def __post_init__(self) -> None:
        if (self.source is None) == (self.formula is None):
            raise TargetError("FormulaTarget takes exactly one of source= or formula=")

    def _build(self):
        if self.formula is not None:
            return self.formula
        from repro.sat.parser import parse_formula

        return parse_formula(self.source)

    def describe(self) -> str:
        if self.source is not None:
            return self.source
        return str(self.formula)


#: ``file.py::fn`` / ``file.c::fn`` targets memoized by (abspath,
#: entry, mtime), so the many jobs of a campaign that all name one
#: file share one lowered Program.  An edited file gets a new mtime,
#: hence a fresh instance.
_FILE_TARGET_CACHE: Dict[Tuple[str, str, float], Target] = {}
_FILE_TARGET_CACHE_MAX = 128


def _fresh_file_target(path: str, entry: str) -> Target:
    """An uncached file target, dispatched on the file suffix."""
    if path.endswith(".c"):
        return CTarget(path=path, entry=entry)
    return PythonTarget(path=path, entry=entry)


def file_target(path: str, entry: str) -> Target:
    """The memoized ``file::fn`` target for ``path``/``entry``.

    Dispatches on the suffix — ``.c`` files produce a :class:`CTarget`
    (C frontend), everything else a :class:`PythonTarget` — then
    memoizes by ``(abspath, entry, mtime)``: editing the file bumps
    its mtime, so the next call returns a *fresh* instance that
    re-reads and re-lowers the source — the invalidation the batch
    driver and the project scanner (:mod:`repro.scan`) both rely on.

    **Caveat — mtime resolution.**  An edit landing within the same
    filesystem timestamp tick as the cached read (common on coarse
    filesystems, or in tests that rewrite a file immediately) produces
    an identical key and replays the stale lowered program.  Callers
    that rewrite files programmatically and need the fresh lowering in
    the same tick should bump the mtime explicitly (``os.utime``) or
    construct ``PythonTarget``/``CTarget`` directly, which never
    consults this cache.
    """
    try:
        mtime = os.path.getmtime(path)
    except OSError:
        # Missing file: an uncached instance whose resolve() reports it.
        return _fresh_file_target(path, entry)
    key = (os.path.abspath(path), entry, mtime)
    target = _FILE_TARGET_CACHE.get(key)
    if target is None:
        if len(_FILE_TARGET_CACHE) >= _FILE_TARGET_CACHE_MAX:
            _FILE_TARGET_CACHE.clear()
        target = _fresh_file_target(path, entry)
        _FILE_TARGET_CACHE[key] = target
    return target


#: ``pkg.mod:fn`` targets memoized like file targets, keyed by the
#: *module object's identity* once imported — an ``importlib.reload``
#: replaces the module object, which invalidates the entry.
_MODULE_TARGET_CACHE: Dict[Tuple[str, str, int], PythonTarget] = {}


def _module_target(module: str, entry: str) -> PythonTarget:
    import sys

    key = (module, entry, id(sys.modules.get(module)))
    target = _MODULE_TARGET_CACHE.get(key)
    if target is None:
        if len(_MODULE_TARGET_CACHE) >= _FILE_TARGET_CACHE_MAX:
            _MODULE_TARGET_CACHE.clear()
        target = PythonTarget(module=module, entry=entry)
        _MODULE_TARGET_CACHE[key] = target
    return target


def parse_target_spec(spec: str, kind: str = PROGRAM_KIND) -> Target:
    """Turn a CLI/batch spec string into a :class:`Target`.

    ``file.py::fn``, ``file.c::fn`` and ``pkg.mod:fn`` are frontend
    targets (Python or C by file suffix); any other string is a suite
    program name for program-kind analyses and constraint text for
    formula-kind ones.
    """
    if "::" in spec or _looks_like_module_spec(spec):
        if kind == FORMULA_KIND:
            raise TargetError(
                f"{spec!r} is a function spec, but this analysis "
                "takes constraint text (a formula), not a program"
            )
        if "::" in spec:
            path, _, entry = spec.partition("::")
            if not path or not entry:
                raise TargetError(
                    f"malformed file target {spec!r}; expected "
                    "file.py::function or file.c::function"
                )
            return file_target(path, entry)
        target = PythonTarget.from_spec(spec)
        return _module_target(target.module, target.entry)
    if kind == FORMULA_KIND:
        return FormulaTarget(source=spec)
    return ProgramTarget(name=spec)


def _looks_like_module_spec(spec: str) -> bool:
    """``pkg.mod:fn`` — a colon splitting two dotted identifiers.

    Constraint text also contains no ``:``, so this never misfires for
    formula strings; suite names contain ``-`` but never ``:``.
    """
    module, sep, entry = spec.partition(":")
    if not sep or not entry.isidentifier():
        return False
    return all(part.isidentifier() for part in module.split("."))


def coerce_target(obj: Any, kind: str = PROGRAM_KIND) -> Target:
    """The single target-intake path: anything → :class:`Target`.

    Accepts an existing Target (kind-checked), an FPIR Program, a
    parsed Formula, a Python callable, or a spec string.
    """
    if isinstance(obj, Target):
        if obj.kind != kind:
            raise TargetError(
                f"{type(obj).__name__} is a {obj.kind}-kind target; "
                f"this analysis takes {kind}-kind targets"
            )
        return obj
    if isinstance(obj, Program):
        if kind != PROGRAM_KIND:
            raise TargetError(f"an FPIR Program is not a {kind}-kind target")
        return ProgramTarget(program=obj)
    if isinstance(obj, str):
        return parse_target_spec(obj, kind=kind)
    if _is_formula(obj):
        if kind != FORMULA_KIND:
            raise TargetError(f"a Formula is not a {kind}-kind target")
        return FormulaTarget(formula=obj)
    if callable(obj):
        if kind != PROGRAM_KIND:
            raise TargetError(f"a Python callable is not a {kind}-kind target")
        return PythonTarget(fn=obj)
    raise TargetError(
        f"cannot interpret {obj!r} as an analysis target; expected a "
        "Target, Program, Formula, callable, or spec string"
    )


def _is_formula(obj: Any) -> bool:
    from repro.sat.formula import Formula

    return isinstance(obj, Formula)


def describe_target(obj: Any, kind: str = PROGRAM_KIND) -> str:
    """Best-effort short name for any accepted target form.

    Unlike :func:`coerce_target` this never raises — it is used for
    job/event labelling before resolution errors surface.
    """
    if isinstance(obj, str):
        return obj
    if isinstance(obj, Target):
        return obj.describe()
    if isinstance(obj, Program):
        return obj.entry
    if callable(obj) and not _is_formula(obj):
        return getattr(obj, "__qualname__", None) or str(obj)
    return str(obj)


def available_targets() -> List[str]:
    """Suite-registry names (the enumerable targets)."""
    from repro.programs import list_programs

    return list_programs()
