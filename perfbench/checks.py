"""Correctness checks that do not trust the tier that produced a finding.

A scan's findings come from compiled W.  Each check here re-derives
the claim independently:

* :func:`rescore_finding` rebuilds the analysis's weak distance and
  evaluates it with ``eval_mode="interpreter"`` at the finding's
  representative input; W must be exactly 0 there (Def. 3.1b);
* :func:`overflow_certified` asks the static tier for an overflow
  certificate, which must never coexist with an overflow finding;
* :func:`twin_mismatches` pairs each C kernel with its same-named
  Python twin: the two must lower to one program (equal digests) and
  agree on the verdict.
"""

from __future__ import annotations

import os
import re
from typing import Any, Dict, Iterable, List, Sequence, Tuple

_LOCATED = re.compile(r"\bline \d+\b|:\d+")


def is_located(reason: str) -> bool:
    """True when a skip reason names a source line."""
    return bool(_LOCATED.search(reason))


class Rescorer:
    """Interpreter-mode W per (program digest, analysis), built once."""

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, str], Any] = {}

    def _distance(self, digest: str, program: Any, analysis: str) -> Any:
        key = (digest, analysis)
        if key not in self._cache:
            from repro.analyses.boundary import multiplicative_spec
            from repro.analyses.overflow import overflow_spec
            from repro.core.weak_distance import WeakDistance
            from repro.fpir.instrument import instrument

            spec = multiplicative_spec() if analysis == "boundary" else overflow_spec()
            self._cache[key] = WeakDistance(
                instrument(program, spec), eval_mode="interpreter"
            )
        return self._cache[key]

    def rescore(
        self, digest: str, program: Any, analysis: str, finding: Dict[str, Any]
    ) -> float:
        """W at the finding's input, on the interpreter tier.

        Overflow's W is the probe of the last not-yet-covered operation
        executed, so every operation except the finding's own is marked
        covered: W is then 0 exactly when that operation overflows.
        """
        w = self._distance(digest, program, analysis)
        if analysis == "overflow":
            covered = w.label_sets["L"]
            covered.clear()
            covered.update(
                site.label
                for site in w.instrumented.index.fp_ops
                if site.label != finding["label"]
            )
        return w(tuple(float(v) for v in finding["x"]))

    def finding_ok(
        self, digest: str, program: Any, analysis: str, finding: Dict[str, Any]
    ) -> bool:
        if finding.get("x") is None:
            return False
        return self.rescore(digest, program, analysis, finding) == 0.0


def overflow_certified(program: Any) -> bool:
    """Whether the static tier certifies ``program`` overflow-safe."""
    from repro.static import analyze, prove

    result = analyze(program)
    if not result.complete:
        return False
    return prove(program, "overflow", result) is not None


def twin_mismatches(
    results: Iterable[Any], c_file: str, py_file: str
) -> List[Tuple[Any, str]]:
    """Results of twin pairs that disagree, each with the reason.

    A function of ``c_file`` and the same-named function of ``py_file``
    (paths relative to the scanned root) are twins.  A pair fails when
    one side has no result, the digests differ (the frontends lowered
    them differently) or the verdicts differ.
    """
    sides: Dict[str, Dict[Tuple[str, str], Any]] = {c_file: {}, py_file: {}}
    for result in results:
        path, _, function = result.target.rpartition("::")
        for rel, side in sides.items():
            if path.replace(os.sep, "/").endswith("/" + rel):
                side[(function, result.analysis)] = result
    bad: List[Tuple[Any, str]] = []
    c_side, py_side = sides[c_file], sides[py_file]
    for key in sorted(set(c_side) | set(py_side)):
        c_result, py_result = c_side.get(key), py_side.get(key)
        if c_result is None or py_result is None:
            reason = f"twin {key[0]} has no {key[1]} result on one side"
        elif c_result.digest != py_result.digest:
            reason = f"twins {key[0]} lower to different programs"
        elif c_result.verdict != py_result.verdict:
            reason = f"twins {key[0]} disagree on {key[1]}"
        else:
            continue
        bad.extend((r, reason) for r in (c_result, py_result) if r is not None)
    return bad


def dup_digest_share(keys: Sequence[Any]) -> float:
    """Share of jobs whose key an earlier job already had.

    With (digest, analysis) keys this is the share of a campaign that a
    perfect digest dedup would not need to run.
    """
    if not keys:
        return 0.0
    return 1.0 - len(set(keys)) / len(keys)
