"""In-memory span recorder wrapped around the program's layer entry points.

The benchmark measures the program from outside: :func:`install`
replaces each layer's public function with a wrapper that records one
span per call (name, start, end, parent, operation id), and
:func:`uninstall` puts the originals back.  Nothing under ``src/``
knows about it.  Spans stay in memory and are written out once, when
the run ends.

W evaluations are too many to record one span each (a cold scan makes
~10^6 of them), so they are aggregated into the enclosing ``mo`` span
as two counters: ``w_evals`` and ``w_s`` (busy seconds).

A span's self time is its duration minus the time its direct children
(and, for ``mo`` spans, the aggregated W evaluations) cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name): every wrapped entry point.
#: A function imported by name into several modules is wrapped in each,
#: because the callers look it up there.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.scan.orchestrator", "walk_source_files", "scan.walk"),
    ("repro.static.lint", "walk_source_files", "scan.walk"),
    ("repro.scan.orchestrator", "discover_functions", "scan.classify"),
    ("repro.static.lint", "discover_functions", "scan.classify"),
    ("repro.scan.store", "ResultStore.__init__", "scan.store.open"),
    ("repro.scan.store", "ResultStore.get", "scan.store.get"),
    ("repro.scan.store", "ResultStore.put", "scan.store.put"),
    ("repro.scan.orchestrator", "program_digest", "util.digest"),
    ("repro.api.targets", "Target.resolve", "api.targets.resolve"),
    ("repro.fpir.frontend", "lower_file", "fpir.frontend.lower"),
    ("repro.cfront", "lower_c_file", "cfront.lower"),
    ("repro.static", "analyze", "static.analyze"),
    ("repro.static.lint", "analyze", "static.analyze"),
    ("repro.static", "find_hazards", "static.hazards"),
    ("repro.static.lint", "find_hazards", "static.hazards"),
    ("repro.static", "prove", "static.prove"),
    ("repro.analyses.boundary", "instrument", "fpir.instrument"),
    ("repro.analyses.overflow", "instrument", "fpir.instrument"),
    ("repro.core.weak_distance", "compile_program", "fpir.compile"),
    ("repro.core.parallel", "run_task", "mo"),
    ("repro.api.session", "Session.submit", "api.session.submit"),
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: Optional[str] = None
    thread: int = 0
    #: Aggregated W evaluations inside this span (``mo`` spans only).
    w_evals: int = 0
    w_s: float = 0.0


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Spans opened on a thread before it was bound to an operation.
        self._pending: Dict[int, List[int]] = {}
        #: W evaluations made outside any ``mo`` span.
        self.loose_w_evals = 0
        self.loose_w_s = 0.0

    # -- operation ids --------------------------------------------------------

    def bind_op(self, op: str) -> None:
        """Attribute this thread's spans to ``op``, including the ones it
        opened since the last :meth:`unbind_op`."""
        self._local.op = op
        tid = threading.get_ident()
        with self._lock:
            for index in self._pending.pop(tid, ()):
                self.spans[index].op = op

    def unbind_op(self) -> None:
        self._local.op = None

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        op = getattr(self._local, "op", None)
        tid = threading.get_ident()
        span = Span(
            name=name,
            start=time.perf_counter(),
            parent=stack[-1] if stack else -1,
            op=op,
            thread=tid,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
            if op is None:
                self._pending.setdefault(tid, []).append(index)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def record(
        self, name: str, start: float, end: float, parent: int = -1, op: Any = None
    ) -> int:
        """Add a finished span timed by the caller; returns its index."""
        with self._lock:
            self.spans.append(Span(name=name, start=start, end=end, parent=parent, op=op))
            return len(self.spans) - 1

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def add_w(self, seconds: float) -> None:
        stack = self._stack()
        if stack:
            span = self.spans[stack[-1]]
            span.w_evals += 1
            span.w_s += seconds
        else:
            self.loose_w_evals += 1
            self.loose_w_s += seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spans": [dataclasses.asdict(s) for s in self.spans],
            "loose_w_evals": self.loose_w_evals,
            "loose_w_s": self.loose_w_s,
        }


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> int:
        self.index = self.tracer.open(self.name)
        return self.index

    def __exit__(self, *exc_info: Any) -> None:
        self.tracer.close(self.index)


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _wrap_w(tracer: Tracer, fn: Callable) -> Callable:
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(self: Any, x: Any) -> float:
        t0 = clock()
        try:
            return fn(self, x)
        finally:
            tracer.add_w(clock() - t0)

    return wrapper


class Installation:
    """The wrappers one :func:`install` put in place."""

    def __init__(self) -> None:
        self.saved: List[Tuple[Any, str, Any]] = []
        # Forked pool workers inherit the wrappers; restore the
        # originals there, so worker-side W runs unperturbed.
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every entry point in :data:`ENTRY_POINTS` plus W itself."""
    installed = Installation()
    for module_name, path, name in ENTRY_POINTS:
        owner, attr = _resolve(module_name, path)
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        installed.saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, name, original))
    from repro.core.weak_distance import WeakDistance

    original = WeakDistance.__dict__["__call__"]
    installed.saved.append((WeakDistance, "__call__", original))
    WeakDistance.__call__ = _wrap_w(tracer, original)
    return installed


# -- derivation ---------------------------------------------------------------


def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus what its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    return [
        (s["end"] - s["start"]) - child_time[i] - s.get("w_s", 0.0)
        for i, s in enumerate(spans)
    ]


def layer_totals(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, summed self time, W evaluations."""
    totals: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(
            span["name"], {"calls": 0, "self_s": 0.0, "w_evals": 0, "w_s": 0.0}
        )
        entry["calls"] += 1
        entry["self_s"] += own
        entry["w_evals"] += span.get("w_evals", 0)
        entry["w_s"] += span.get("w_s", 0.0)
    return totals


def covered_time(
    spans: List[Dict[str, Any]], windows: List[Tuple[float, float]], roots: Tuple[str, ...]
) -> float:
    """Seconds of ``windows`` covered by spans other than the ``roots``.

    The root spans are the workload's own calls into the program (one
    scan, one lint) or its own record of an operation's phases (a serve
    job's submit, queue wait and run); what the layer spans cover, on
    any thread or process, is the time the layer split explains.
    """
    intervals = sorted((s["start"], s["end"]) for s in spans if s["name"] not in roots)
    merged: List[List[float]] = []
    for start, end in intervals:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    total = 0.0
    for w0, w1 in windows:
        for start, end in merged:
            total += max(0.0, min(end, w1) - max(start, w0))
    return total
