"""Bulk self-consistency equation against an independent root finder."""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from bcsjj import equilibrium, spin
from bcsjj.equilibrium import (
    BulkParams,
    critical_beta,
    effective_hamiltonian,
    equilibrium_state,
    gap_map,
    solve_gap,
)
from bcsjj.spin import SIGMA_PLUS, expectation, gibbs_state


def mu_oracle(epsilon, beta):
    """Root of tanh(beta mu) - 2 mu on (epsilon, 1/2], or None."""
    f = lambda mu: math.tanh(beta * mu) - 2.0 * mu
    lo, hi = epsilon, 0.5
    if f(lo) <= 0.0:
        return None
    return brentq(f, lo, hi + 1e-9, xtol=1e-15)


def test_standard_point():
    sol = solve_gap(BulkParams(0.3, 1e4))
    assert sol.superconducting
    # beta this large is numerically zero temperature: lam = sqrt(1/4 - eps^2)
    assert abs(sol.lam - 0.4) < 1e-6
    assert abs(sol.mu - 0.5) < 1e-6
    assert abs(gap_map(sol.lam, BulkParams(0.3, 1e4)) - sol.lam) < 1e-11


def test_matches_brentq_oracle():
    rng = np.random.default_rng(23)
    for _ in range(40):
        epsilon = float(rng.uniform(0.02, 0.49))
        beta = float(rng.uniform(0.5, 200.0))
        sol = solve_gap(BulkParams(epsilon, beta))
        mu = mu_oracle(epsilon, beta)
        if mu is None:
            assert not sol.superconducting
            assert sol.lam == 0.0
            assert sol.mu == epsilon
        else:
            assert sol.superconducting
            assert abs(sol.mu - mu) < 1e-12
            assert abs(sol.lam - math.sqrt(mu**2 - epsilon**2)) < 1e-11


def test_fixed_point_defect_small():
    for epsilon in (0.1, 0.2, 0.3, 0.4, 0.45):
        for beta in (5.0, 50.0, 1e4):
            p = BulkParams(epsilon, beta)
            sol = solve_gap(p)
            assert abs(gap_map(sol.lam, p) - sol.lam) < 1e-11


def test_branch_threshold():
    """Ordered branch opens exactly where tanh(beta eps) crosses 2 eps."""
    for epsilon in (0.1, 0.2, 0.3, 0.4, 0.45):
        bc = critical_beta(epsilon)
        assert abs(math.tanh(bc * epsilon) - 2.0 * epsilon) < 1e-12
        assert solve_gap(BulkParams(epsilon, bc * 1.01)).superconducting
        assert not solve_gap(BulkParams(epsilon, bc * 0.99)).superconducting


def test_no_branch_above_half():
    for epsilon in (0.5, 0.6, 1.0, 3.0):
        assert math.isinf(critical_beta(epsilon))
        sol = solve_gap(BulkParams(epsilon, 1e6))
        assert not sol.superconducting
        assert sol.lam == 0.0


def test_warm_example_is_normal():
    # criterion tanh(2 * 0.3) = 0.537 < 0.6
    assert not solve_gap(BulkParams(0.3, 2.0)).superconducting


def test_monotonic_in_parameters():
    betas = (3.0, 6.0, 20.0, 1e3)
    lams = [solve_gap(BulkParams(0.3, b)).lam for b in betas]
    assert all(a <= b + 1e-14 for a, b in zip(lams, lams[1:]))
    epsilons = (0.05, 0.15, 0.25, 0.35, 0.45)
    lams = [solve_gap(BulkParams(e, 1e3)).lam for e in epsilons]
    assert all(a >= b - 1e-14 for a, b in zip(lams, lams[1:]))


def test_state_reproduces_order_parameter():
    for phi in (0.0, 0.7, -2.1):
        p = BulkParams(0.3, 1e4, phi)
        sol = solve_gap(p)
        pair_amp = expectation(sol.rho, SIGMA_PLUS)
        target = sol.lam * complex(math.cos(phi), math.sin(phi))
        assert abs(pair_amp - target) < 1e-11
        # and rho is the thermal state of its own effective hamiltonian
        h = effective_hamiltonian(p.epsilon, target)
        assert np.allclose(sol.rho, gibbs_state(h, p.beta), atol=1e-12)


def test_gauge_independence_of_moduli():
    base = solve_gap(BulkParams(0.25, 80.0, 0.0))
    for phi in (0.4, 2.0, -1.1):
        shifted = solve_gap(BulkParams(0.25, 80.0, phi))
        assert abs(shifted.lam - base.lam) < 1e-14
        assert abs(shifted.mu - base.mu) < 1e-14


def test_equilibrium_state_matches_solution_rho():
    p = BulkParams(0.2, 50.0, 1.2)
    assert np.allclose(equilibrium_state(p), solve_gap(p).rho, atol=1e-14)


def test_residual_is_the_gap_map_defect_of_its_own_state(monkeypatch):
    """The residual comes from the solve's one thermal Bloch vector and
    equals the defect under the independent gap map, ordered and normal
    plates alike."""
    for eps in (0.05, 0.2, 0.3, 0.45, 0.6):
        for beta in (1.0, 5.0, 50.0, 1e4):
            for phi in (0.0, 0.7, -2.5):
                p = BulkParams(eps, beta, phi)
                sol = solve_gap(p)
                assert sol.residual == abs(gap_map(sol.lam, p) - sol.lam), p
    calls = []
    real = spin._thermal_bloch

    def counted(n, beta):
        calls.append(beta)
        return real(n, beta)

    monkeypatch.setattr(spin, "_thermal_bloch", counted)
    solve_gap(BulkParams(0.3, 1e4))
    assert len(calls) == 1


def test_parameter_validation():
    with pytest.raises(ValueError):
        BulkParams(-0.1, 10.0)
    with pytest.raises(ValueError):
        BulkParams(0.3, 0.0)
    with pytest.raises(ValueError):
        BulkParams(0.3, float("nan"))


def test_solve_is_fast():
    p = BulkParams(0.3, 1e4)
    solve_gap(p)  # warm any caches
    best = min(
        _timed(lambda: solve_gap(p)) for _ in range(5)
    )
    assert best < 1e-3, f"solve_gap took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_solve_gap_builds_no_hamiltonian_or_gibbs_matrix(monkeypatch):
    """The state comes from the closed-form Bloch vector; no 2x2 round trip."""

    def forbidden(*args):
        raise AssertionError("solve_gap went through a 2x2 matrix")

    monkeypatch.setattr(equilibrium, "effective_hamiltonian", forbidden)
    monkeypatch.setattr(spin, "gibbs_state", forbidden)
    for eps, beta, phi in ((0.3, 1e4, 0.7), (0.45, 5.0, -2.5), (0.6, 50.0, 0.0)):
        sol = solve_gap(BulkParams(eps, beta, phi))
        assert sol.rho.shape == (2, 2)
