"""The check suite computes each shared input once, and a NaN defect fails its check."""

import json
import math
from dataclasses import replace

import pytest

from bcsjj import checks, lattice, perturbation
from bcsjj.checks import CheckOptions, run_checks
from bcsjj.cli import main


def _clear_caches():
    for value in vars(checks).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_suite_solves_each_grid_and_builds_each_lattice_once(monkeypatch):
    _clear_caches()
    batches = _counting(monkeypatch, checks, "solve_batch")
    batches_first_order = _counting(monkeypatch, perturbation, "solve_batch")
    hamiltonians = _counting(monkeypatch, lattice, "_hamiltonian")
    results = run_checks()
    assert len(results) == 17 and all(r.passed for r in results)
    # standard grid, gauge, swap, proportionality, law grid, ccr, dynamics
    assert len(batches) == 7
    assert len(batches_first_order) == 3  # one per perturbation.slopes point
    assert [spec.n for spec, _ in hamiltonians] == [1, 2]


def test_certification_solves_each_plate_once(monkeypatch):
    gaps = _counting(monkeypatch, perturbation, "solve_gap")
    perturbation.certify_first_order(checks._standard_params(0.3, 1e-3, 0.3))
    assert len(gaps) == 2


def test_second_run_gives_equal_results():
    _clear_caches()
    assert run_checks() == run_checks()


def test_cached_grids_follow_the_options(capsys):
    run_checks(only="ness")  # fills the caches at the default options
    assert main(["check", "--only", "ness.steady", "--max-iter", "1"]) == 1
    assert "FAIL ness.steady_state" in capsys.readouterr().out
    assert all(r.passed for r in run_checks(only="ness", opts=CheckOptions()))


def test_memory_cap_reaches_the_cached_lattice_measurements(capsys):
    run_checks(only="finite-n")  # fills the cache without a cap
    cap = lattice.LatticeSpec(2).estimated_bytes
    assert main(["check", "--only", "finite-n", "--memory-cap", str(cap)]) == 0
    assert main(["check", "--only", "finite-n", "--memory-cap", str(cap - 1)]) == 4
    assert "exceeds the memory cap" in capsys.readouterr().err


@pytest.mark.parametrize("name", [name for name, _ in checks._ALL_CHECKS])
def test_each_check_runs_alone_from_cleared_caches(name):
    _clear_caches()
    (result,) = run_checks(only=name)
    assert result.name == name and result.passed


@pytest.fixture
def cleared_caches():
    """Empty check caches before the test and after it, so that a planted
    fault stays in its own test."""
    _clear_caches()
    yield
    _clear_caches()


def test_a_nan_fixed_point_defect_fails(monkeypatch, capsys, cleared_caches):
    gap_map = checks.gap_map
    monkeypatch.setattr(checks, "gap_map", lambda lam, p: math.nan if p.epsilon == 0.3 else gap_map(lam, p))
    result = checks.check_equilibrium_fixed_point(CheckOptions())
    assert not result.passed and math.isnan(result.measured), result
    # check JSON stays strict: the NaN prints as null
    assert main(["check", "--only", "equilibrium.fixed", "--format", "json"]) == 1
    (entry,) = json.loads(capsys.readouterr().out, parse_constant=lambda token: pytest.fail(f"bare {token}"))
    assert entry["measured"] is None and entry["passed"] is False


def test_a_nan_derivative_defect_fails(monkeypatch, cleared_caches):
    certify = perturbation.certify_first_order
    reports = []

    def planted(params):
        report = certify(params)
        if reports:  # the NaN comes after the first point's numbers
            report = replace(report, derivative_defects={**report.derivative_defects, "current": math.nan})
        reports.append(report)
        return report

    monkeypatch.setattr(perturbation, "certify_first_order", planted)
    result = checks.check_perturbation_slopes(CheckOptions())
    assert len(reports) == 3
    assert not result.passed and math.isnan(result.measured), result


def test_a_nan_in_the_current_operator_fails(monkeypatch, cleared_caches):
    build_current = lattice._current

    def planted(spec, gamma):
        current = build_current(spec, gamma)
        current.data[-1] = math.nan
        return current

    monkeypatch.setattr(lattice, "_current", planted)
    result = checks.check_finite_n_commutator(CheckOptions())
    assert not result.passed and math.isnan(result.measured), result
