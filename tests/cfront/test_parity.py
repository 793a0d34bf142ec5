"""Differential parity: the C frontend and the Python frontend are the
same frontend, observed through any analysis.

Each vendored kernel under ``examples/c/`` has a Python twin written
with the same names and expression shapes (``examples/gsl_twins.py``;
the ``fig.c`` twins predate this PR in ``examples/python_targets.py``).
FPIR labels derive deterministically from program structure, so the two
lowerings must be *dataclass-equal* — and therefore every analysis must
produce identical verdicts, representatives, eval counts, and samples
for the ``file.c::fn`` spec and its ``file.py::fn`` twin, serially and
on a warm 4-worker pool.
"""

import pytest

from repro.api import Engine, EngineConfig, Session
from repro.cfront import lower_c_file
from repro.fpir.frontend import lower_file

#: (c_spec_path, entry, python_twin_path) — the vendored-kernel matrix.
PAIRS = [
    ("examples/c/fig.c", "fig1a", "examples/python_targets.py"),
    ("examples/c/fig.c", "fig1b", "examples/python_targets.py"),
    ("examples/c/fig.c", "fig2", "examples/python_targets.py"),
    (
        "examples/c/bessel.c",
        "gsl_sf_bessel_J0_approx",
        "examples/gsl_twins.py",
    ),
    ("examples/c/airy.c", "airy_ai_approx", "examples/gsl_twins.py"),
    ("examples/c/trig.c", "sin_poly_folded", "examples/gsl_twins.py"),
]

_IDS = [entry for _, entry, _ in PAIRS]

#: Analysis × options, sized for CI (smoke-scale budgets — parity is
#: about *equality*, not depth); every registered program analysis.
ANALYSES = [
    ("boundary", {"n_starts": 4, "max_samples": 4000}),
    ("path", {"n_starts": 3, "niter": 15}),
    ("overflow", {"n_starts": 2, "max_rounds": 4, "niter": 10}),
    ("coverage", {"n_starts": 2, "max_rounds": 6, "niter": 10}),
]


def _fingerprint(report):
    """Everything the frontend choice must not change."""
    return (
        report.verdict,
        [(f.kind, f.label, f.x) for f in report.findings],
        report.n_evals,
        report.samples,
    )


class TestIRParity:
    """The lowered FPIR itself is dataclass-equal, function for
    function.  (``Program`` is not a dataclass — compare its parts.)"""

    @pytest.mark.parametrize("c_path,entry,py_path", PAIRS, ids=_IDS)
    def test_lowerings_are_dataclass_equal(self, c_path, entry, py_path):
        c_program = lower_c_file(c_path, entry)
        py_program = lower_file(py_path, entry)
        assert c_program.entry == py_program.entry
        assert list(c_program.functions) == list(py_program.functions)
        assert c_program.functions == py_program.functions


class TestEngineParity:
    @pytest.mark.parametrize("c_path,entry,py_path", PAIRS, ids=_IDS)
    @pytest.mark.parametrize(
        "analysis,options", ANALYSES, ids=[a for a, _ in ANALYSES]
    )
    def test_serial(self, analysis, options, c_path, entry, py_path):
        engine = Engine(EngineConfig(seed=13))
        from_c = engine.run(analysis, f"{c_path}::{entry}", **options)
        from_py = engine.run(analysis, f"{py_path}::{entry}", **options)
        assert _fingerprint(from_c) == _fingerprint(from_py)

    @pytest.mark.parametrize("c_path,entry,py_path", PAIRS, ids=_IDS)
    def test_warm_pool(self, c_path, entry, py_path):
        options = {"n_starts": 4, "max_samples": 4000}
        serial = Engine(EngineConfig(seed=13)).run(
            "boundary", f"{py_path}::{entry}", **options
        )
        with Session(EngineConfig(seed=13, n_workers=4)) as session:
            pooled = session.run(
                "boundary", f"{c_path}::{entry}", **options
            )
        assert _fingerprint(serial) == _fingerprint(pooled)
        assert pooled.n_workers == 4
