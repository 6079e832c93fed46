"""Regression tests for real bugs surfaced by the repro-lint rules.

Each test pins a concrete fix made while bringing the tree under
``python -m repro.analysis`` (see docs/determinism.md):

* RPL007 flagged NaN probes written as ``x == x`` / ``x != x`` float
  comparisons in the eval table renderers; those now use
  ``math.isnan`` and must keep rendering budget-exhausted cells as
  ``-`` / ``None`` instead of formatting ``nan``.
* RPL003 flagged benchmark artifacts written with bare
  ``Path.write_text`` — a kill mid-write would corrupt the persisted
  tables; they now route through ``repro._atomic``.
* The lint sweep also caught ``check_dimension_subset`` missing from
  ``repro._validation.__all__``.
"""

from __future__ import annotations

import math
from pathlib import Path
from types import SimpleNamespace

from repro._validation import __all__ as validation_all
from repro.analysis import lint_paths
from repro.eval.comparison import ComparisonRow, render_table
from repro.eval.harness import ExperimentResult
from repro.eval.sweeps import render_sweep

_REPO_ROOT = Path(__file__).resolve().parents[1]


def _cell(quality, *, completed=True, elapsed=1.0):
    return ExperimentResult(
        dataset="synthetic",
        algorithm="gen",
        elapsed_seconds=elapsed,
        quality=quality,
        completed=completed,
        result=SimpleNamespace(n_outliers=5),
    )


class TestNanFormatting:
    def test_experiment_row_nan_quality_is_none(self):
        row = _cell(float("nan")).row()
        assert row["quality"] is None

    def test_experiment_row_finite_quality_rounds(self):
        row = _cell(-2.34567).row()
        assert row["quality"] == -2.3457

    def test_render_table_nan_quality_is_dash(self):
        table = render_table(
            [
                ComparisonRow(
                    dataset="musk",
                    n_dims=160,
                    brute=None,
                    gen=_cell(float("nan")),
                    gen_opt=_cell(-1.5),
                )
            ]
        )
        assert "nan" not in table
        assert "-1.50" in table

    def test_render_sweep_nan_rows_are_dashes(self):
        rows = [
            {
                "k": 3,
                "quality": float("nan"),
                "best_coefficient": float("nan"),
                "n_outliers": 0,
                "n_projections_mined": 0,
                "elapsed_seconds": 0.5,
            }
        ]
        text = render_sweep(rows, "k")
        assert "nan" not in text
        assert text.count("-") >= 2

    def test_gen_opt_matches_brute_is_nan_safe(self):
        row = ComparisonRow(
            dataset="d",
            n_dims=10,
            brute=_cell(float("nan")),
            gen=_cell(-1.0),
            gen_opt=_cell(float("nan")),
        )
        assert row.gen_opt_matches_brute is False
        assert math.isnan(row.brute.quality)


class TestLintCaughtFixesStayFixed:
    def test_benchmarks_have_no_non_atomic_writes(self):
        """benchmarks/ persists tables; RPL003 must stay clean there."""
        result = lint_paths([_REPO_ROOT / "benchmarks"], select=["RPL003"])
        assert result.violations == []

    def test_eval_has_no_float_equality(self):
        result = lint_paths([_REPO_ROOT / "src" / "repro" / "eval"], select=["RPL007"])
        assert result.violations == []


def test_validation_all_exports_check_dimension_subset():
    assert "check_dimension_subset" in validation_all


class TestRpl011ExceptionContract:
    """RPL011 (PR 10) flagged ``RetryPolicy.__post_init__`` raising bare
    ``ValueError`` on a path reachable from the public API (then
    ``CountingBackend.retry_policy``) — breaking the library's
    promise that deliberate errors derive from ``ReproError``.  The
    raises are now ``ValidationError`` (which still IS-A ``ValueError``,
    so pre-existing callers keep working)."""

    def test_retry_policy_validation_is_typed(self):
        import pytest

        from repro.exceptions import ReproError, ValidationError
        from repro.resilience.retry import RetryPolicy

        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff=-1.0)
        # The typed error must remain catchable both ways.
        assert issubclass(ValidationError, ReproError)
        assert issubclass(ValidationError, ValueError)

    def test_rpl011_stays_clean_on_src(self):
        result = lint_paths([_REPO_ROOT / "src"], select=["RPL011"])
        assert result.violations == []
