"""The concurrent batch campaign driver (repro.core.batch)."""

import pytest

from repro.core.batch import (
    BATCH_ANALYSES,
    BatchJob,
    formula_jobs,
    read_formula_sources,
    run_batch,
    suite_jobs,
)


def _tiny_jobs(analyses=("fpod", "coverage"), seed=9):
    return suite_jobs(
        analyses=analyses,
        targets=["fig2"],
        seed=seed,
        niter=10,
        rounds=4,
        max_samples=4000,
    )


class TestSuiteJobs:
    def test_cross_product_over_all_programs(self):
        from repro.programs import list_programs

        jobs = suite_jobs(analyses=["fpod", "coverage"])
        assert len(jobs) == 2 * len(list_programs())
        assert {j.analysis for j in jobs} == {"fpod", "coverage"}

    def test_unknown_analysis_rejected(self):
        with pytest.raises(ValueError, match="unknown analyses"):
            suite_jobs(analyses=["fpod", "mystery"])

    def test_default_analyses(self):
        jobs = suite_jobs(targets=["fig2"])
        assert [j.analysis for j in jobs] == list(BATCH_ANALYSES)

    def test_python_frontend_targets_cross(self):
        jobs = suite_jobs(
            analyses=["coverage"],
            targets=["fig2", "examples/python_targets.py::fig1a"],
        )
        assert [j.display for j in jobs] == [
            "fig2",
            "examples/python_targets.py::fig1a",
        ]

    def test_bad_targets_fail_before_any_job_runs(self, tmp_path):
        with pytest.raises(ValueError, match="unknown program"):
            suite_jobs(analyses=["coverage"], targets=["no-such-program"])
        with pytest.raises(ValueError, match="bad target"):
            suite_jobs(analyses=["coverage"], targets=["file.py::"])
        missing = str(tmp_path / "nope.py") + "::f"
        with pytest.raises(ValueError, match="bad target"):
            suite_jobs(analyses=["coverage"], targets=[missing])
        with pytest.raises(ValueError, match="bad target"):
            suite_jobs(analyses=["coverage"], targets=["no.such.module:f"])
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x):\n    return [x]\n")
        with pytest.raises(ValueError, match="bad target"):
            suite_jobs(analyses=["coverage"], targets=[f"{bad}::f"])


class TestRunBatch:
    def test_serial_campaign_runs_every_job(self):
        results = run_batch(_tiny_jobs(), n_workers=1)
        assert len(results) == 2
        assert all(r.ok for r in results)
        assert all(r.seconds > 0 for r in results)
        fpod = results[0]
        assert fpod.job.analysis == "fpod"
        assert "overflowed" in fpod.summary

    def test_parallel_matches_serial(self):
        serial = run_batch(_tiny_jobs(), n_workers=1)
        parallel = run_batch(_tiny_jobs(), n_workers=2)
        assert [r.summary for r in serial] == [
            r.summary for r in parallel
        ]
        assert [r.metrics for r in serial] == [
            r.metrics for r in parallel
        ]

    def test_failing_job_captured_not_fatal(self):
        jobs = [
            BatchJob(analysis="coverage", target="no-such-program"),
            _tiny_jobs(analyses=("coverage",))[0],
        ]
        results = run_batch(jobs, n_workers=2)
        assert not results[0].ok
        assert "no-such-program" in results[0].error
        assert results[1].ok

    def test_python_target_campaign_end_to_end(self):
        jobs = suite_jobs(
            analyses=("coverage",),
            targets=["examples/python_targets.py::fig2"],
            seed=9,
            niter=10,
            rounds=4,
        )
        results = run_batch(jobs, n_workers=1)
        assert results[0].ok
        assert "branch coverage" in results[0].summary

    def test_boundary_campaign(self):
        results = run_batch(
            _tiny_jobs(analyses=("boundary",)), n_workers=2
        )
        assert results[0].ok
        assert "condition(s) triggered" in results[0].summary

    def test_campaign_shares_one_session_pool(self):
        """Campaign-level and start-level parallelism compose: every
        job's starts fan across the same warm worker pool."""
        from repro.api import EngineConfig, Session

        jobs = _tiny_jobs(analyses=("fpod",)) * 2
        with Session(EngineConfig(n_workers=2)) as session:
            results = run_batch(jobs, session=session)
            stats = session.stats()
        assert all(r.ok for r in results)
        assert stats["jobs"] == 2
        # Both fpod jobs analyze fig2: one program, a rebuild per
        # worker at most — never one per job or per round.
        assert stats["programs"] == 1
        assert stats["rebuilds"] <= 2

    def test_racing_campaign_matches_deterministic_verdicts(self):
        deterministic = run_batch(_tiny_jobs(), n_workers=2)
        racing = run_batch(
            suite_jobs(
                analyses=("fpod", "coverage"),
                targets=["fig2"],
                seed=9,
                niter=10,
                rounds=4,
                max_samples=4000,
                racing=True,
            ),
            n_workers=2,
        )
        assert [r.ok for r in racing] == [r.ok for r in deterministic]


class TestResilienceAccounting:
    """Per-job crash/partial accounting in campaign summaries."""

    def test_cancelled_job_contributes_partial_result(self, monkeypatch):
        from repro.analyses.coverage import CoverageReport
        from repro.api import AnalysisReport, EngineConfig, Session
        from repro.api.session import JobHandle

        report = AnalysisReport(
            analysis="coverage",
            target="fig2",
            verdict="partial",
            partial=True,
            n_crash_retries=3,
            detail=CoverageReport(
                total_arms=4,
                covered_arms={"b1:T"},
                witnesses={"b1:T": (1.0,)},
                rounds=1,
                n_evals=10,
            ),
        )
        handle = JobHandle(0, "coverage", "fig2")
        handle._complete(report, None, True)
        session = Session(EngineConfig())
        monkeypatch.setattr(session, "submit", lambda *a, **k: handle)
        results = run_batch(
            [BatchJob("coverage", "fig2")], session=session
        )
        session.close()
        result = results[0]
        # The salvaged partial report counts as a result, not a loss.
        assert result.ok
        assert result.partial
        assert result.crash_retries == 3
        assert "1/4 arms" in result.summary

    def test_complete_jobs_report_no_partial_no_retries(self):
        results = run_batch(_tiny_jobs(analyses=("fpod",)), n_workers=1)
        assert all(r.ok for r in results)
        assert all(not r.partial for r in results)
        assert all(r.crash_retries == 0 for r in results)

    def test_cancelled_job_without_salvage_is_an_error(self, monkeypatch):
        from repro.api import EngineConfig, Session
        from repro.api.session import JobHandle

        handle = JobHandle(0, "coverage", "fig2")
        handle._complete(None, None, True)  # cancelled, nothing salvaged
        session = Session(EngineConfig())
        monkeypatch.setattr(session, "submit", lambda *a, **k: handle)
        results = run_batch(
            [BatchJob("coverage", "fig2")], session=session
        )
        session.close()
        assert not results[0].ok
        assert "cancelled" in results[0].error


class TestFormulaCampaigns:
    SAT_LINES = (
        "# smoke corpus\n"
        "x < 1 && x + 1 >= 2\n"
        "\n"
        "; unsat-shaped\n"
        "x > 1 && x < 0\n"
    )

    def test_read_formulas_from_file(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(self.SAT_LINES)
        sources = read_formula_sources(str(corpus))
        assert sources == [
            ("corpus:2", "x < 1 && x + 1 >= 2"),
            ("corpus:5", "x > 1 && x < 0"),
        ]

    def test_read_formulas_from_directory(self, tmp_path):
        (tmp_path / "a.smt2").write_text("; comment\nx == 3\n")
        (tmp_path / "b.smt2").write_text("x < 1 &&\nx + 1 >= 2\n")
        sources = read_formula_sources(str(tmp_path))
        assert sources == [
            ("a", "x == 3"),
            ("b", "x < 1 && x + 1 >= 2"),
        ]

    def test_missing_or_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_formula_sources(str(tmp_path / "nope.txt"))
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no constraints"):
            read_formula_sources(str(empty))

    def test_formula_campaign_through_session(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(self.SAT_LINES)
        jobs = formula_jobs(str(corpus), seed=12, niter=15, n_starts=5)
        assert [j.display for j in jobs] == ["corpus:2", "corpus:5"]
        results = run_batch(jobs, n_workers=2)
        assert all(r.ok for r in results)
        assert results[0].summary == "sat"
        assert results[0].metrics["sat"] == 1.0
        assert results[1].summary.startswith("unknown")
        assert results[1].metrics["sat"] == 0.0
