"""Stress-suite runner: summary shape, determinism, and worker processes."""

from __future__ import annotations

import pytest

from immlab.bench import ALL_SUITES, SUITES, run_suite


def test_suite_registry_is_complete():
    assert set(ALL_SUITES) == set(SUITES)
    assert len(ALL_SUITES) == 11


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_each_suite_passes_a_few_seeds(suite):
    summary = run_suite(suite, count=3, start_seed=0)
    assert summary["suite"] == suite
    assert summary["passed"] == 3
    assert summary["failed"] == 0
    assert summary["violations"] == 0
    assert len(summary["reports"]) == 3
    assert all(r["ok"] for r in summary["reports"])


def test_run_suite_is_deterministic():
    a = run_suite("patterns", count=2, start_seed=5)
    b = run_suite("patterns", count=2, start_seed=5)
    assert a == b


def test_run_suite_parallel_matches_serial():
    serial = run_suite("two-clique", count=4, start_seed=0)
    parallel = run_suite("two-clique", count=4, start_seed=0, jobs=2)
    assert serial == parallel


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nonsense", count=1)


def test_oracle_agree_accepts_an_optimum_above_half():
    """Seed 67 draws a 7-vertex graph on which ``auto`` falls back to the
    oracle and returns the optimum, K5, above ceil(7/2) = 4."""
    report, = run_suite("oracle-agree", count=1, start_seed=67)["reports"]
    assert report["ok"], report
    assert report["method"] == "oracle" and report["order"] == report["optimum"] == 5
