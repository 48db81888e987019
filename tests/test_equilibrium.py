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


@pytest.mark.filterwarnings("error")
def test_a_huge_epsilon_gives_the_polarized_normal_state():
    for eps in (1e200, 1e308):
        sol = solve_gap(BulkParams(eps, 1.0, 0.7))
        assert not sol.superconducting and sol.residual == 0.0
        assert np.array_equal(sol.rho, np.diag([0.0, 1.0]))


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


def test_solve_gap_builds_its_2x2_state_only_when_read(monkeypatch):
    """The solution holds the Bloch vector; ``rho`` is assembled on each read."""

    def forbidden(*args):
        raise AssertionError("solve_gap built a 2x2 matrix")

    monkeypatch.setattr(spin, "_from_bloch", forbidden)
    plates = [BulkParams(0.3, 1e4, 0.7), BulkParams(0.45, 5.0, -2.5), BulkParams(0.6, 50.0, 0.0)]
    solutions = [solve_gap(p) for p in plates]
    for sol in solutions:
        assert sol.bloch.shape == (3,) and sol.residual < 1e-12
        with pytest.raises(AssertionError, match="built a 2x2 matrix"):
            sol.rho
    monkeypatch.undo()
    for sol, p in zip(solutions, plates):
        assert np.array_equal(sol.rho, spin._from_bloch(0.5, sol.bloch))
        h = effective_hamiltonian(p.epsilon, sol.lam * np.exp(1j * p.phi))
        assert np.allclose(sol.rho, gibbs_state(h, p.beta), atol=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="near T_c, lam = sqrt(mu^2 - eps^2) magnifies the rounding of mu "
    "into a 7.9e-8 relative error (ROADMAP item 3)",
)
def test_gap_near_the_threshold_matches_a_60_digit_bisection():
    """Just above the ordering threshold, where mu - eps is ~7e-11, the bare
    gap root's lambda agrees with a 60-digit bisection of tanh(beta mu) = 2 mu
    on the same float inputs to 1e-8 relative.  It reads 8.356194009997372e-06
    against the bisection's 8.35619466676866e-06."""
    mpmath = pytest.importorskip("mpmath")
    epsilon, beta = 0.499, 6.920596039795692
    with mpmath.workdps(60):
        eps = mpmath.mpf(epsilon)
        lo, hi = eps, mpmath.mpf(0.5)
        while hi - lo > mpmath.mpf(10) ** -55:
            mid = (lo + hi) / 2
            if mpmath.tanh(beta * mid) - 2 * mid > 0:
                lo = mid
            else:
                hi = mid
        mu = (lo + hi) / 2
        lam = float(mpmath.sqrt(mu * mu - eps * eps))
    assert abs(equilibrium.gap_root(epsilon, beta)[0] - lam) <= 1e-8 * lam


# 2**-53, the unit roundoff of a double
UNIT = 2.0**-53
# the gap grid: epsilon up to just below 1/2, beta from 1e-12 to 1e4 above beta_c
GRID_EPSILONS = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49, 0.499)
GRID_OFFSETS = tuple(10.0**k for k in range(-12, 5))


def _mpmath_gap(epsilon, beta):
    """(lam, mu, |g'(mu)|) at the root of g(mu) = tanh(beta mu) - 2 mu in
    (epsilon, 1/2], to 50 digits on the same float inputs."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        eps, b = mpmath.mpf(epsilon), mpmath.mpf(beta)

        def g(mu):
            return mpmath.tanh(b * mu) - 2 * mu

        half = mpmath.mpf(0.5)
        mu = half if g(half) == 0 else mpmath.findroot(g, (eps, half), solver="anderson")
        slope = abs(b * (1 - mpmath.tanh(b * mu) ** 2) - 2)
        return mpmath.sqrt(mu * mu - eps * eps), mu, slope


class _CountingMath:
    """``math`` with its ``tanh`` calls counted."""

    def __init__(self):
        self.tanh_args = []

    @property
    def tanh_calls(self):
        return len(self.tanh_args)

    def tanh(self, x):
        self.tanh_args.append(x)
        return math.tanh(x)

    def __getattr__(self, name):
        return getattr(math, name)


def test_gap_root_matches_a_50_digit_root_in_few_tanh_calls(monkeypatch):
    """On a grid from 1e-12 above the threshold to deep in the ordered phase,
    mu is within 8 ulps of g(mu) divided by |g'(mu)| of the 50-digit root, and
    lam within what that and the rounding of sqrt(mu^2 - eps^2) allow.  From
    1e-2 above the threshold lam is right to 2e-13 relative (it reads at most
    1.1e-13; the bisection to 1e-14 that the Newton root replaced read
    9.2e-12, at epsilon = 0.499).  Each root, criterion included, takes at
    most 20 tanh calls (at most 15 here; the bisection took ~45)."""
    counting = _CountingMath()
    monkeypatch.setattr(equilibrium, "math", counting)
    for epsilon in GRID_EPSILONS:
        for offset in GRID_OFFSETS:
            beta = critical_beta(epsilon) * (1.0 + offset)
            counting.tanh_args.clear()
            lam, mu, superconducting = equilibrium.gap_root(epsilon, beta)
            assert superconducting and counting.tanh_calls <= 20, (epsilon, offset)
            lam_ref, mu_ref, slope = _mpmath_gap(epsilon, beta)
            mu_bound = 8 * UNIT * mu_ref / slope
            lam_bound = (mu_ref * mu_bound + 2 * UNIT * mu_ref**2) / lam_ref + 2 * UNIT * lam_ref
            assert abs(mu - mu_ref) <= mu_bound, (epsilon, offset)
            assert abs(lam - lam_ref) <= lam_bound, (epsilon, offset)
            if offset >= 1e-2:
                assert abs(lam - lam_ref) <= 2e-13 * lam_ref, (epsilon, offset)


def test_gap_root_bisects_where_a_newton_step_would_leave_the_bracket(monkeypatch):
    """On the small-epsilon side, one ulp of beta above the threshold, the
    root lies 7e-15 above epsilon, where g'(mu) is only -3e-4.  Rounding
    then carries a plain Newton step from mu = 1/2 below epsilon, out of the
    bracket; the safeguard bisects (epsilon, mu) instead, and the root stays
    inside (epsilon, 1/2] and agrees with a 50-digit root."""
    epsilon, beta = 0.0076703741709189125, 2.000156914530545
    assert math.tanh(beta * epsilon) > 2.0 * epsilon  # ordered, just
    mu, inside = 0.5, 0.5
    for _ in range(30):
        t = math.tanh(beta * mu)
        mu = mu - (t - 2.0 * mu) / (beta * (1.0 - t * t) - 2.0)
        if not mu > epsilon:
            break
        inside = mu
    assert not mu > epsilon  # the unguarded iteration leaves the bracket
    counting = _CountingMath()
    monkeypatch.setattr(equilibrium, "math", counting)
    lam, mu, superconducting = equilibrium.gap_root(epsilon, beta)
    assert beta * (0.5 * (epsilon + inside)) in counting.tanh_args  # the bisection ran
    lam_ref, mu_ref, slope = _mpmath_gap(epsilon, beta)
    assert superconducting and epsilon < mu <= 0.5
    assert abs(mu - mu_ref) <= 8 * UNIT * mu_ref / slope
