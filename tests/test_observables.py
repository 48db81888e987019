"""Current, contact normal modes, commutators, and their dynamics."""

import math
from dataclasses import replace

import numpy as np

from bcsjj.equilibrium import BulkParams
from bcsjj.ness import JunctionParams, boundary_hamiltonian, solve_ness
from bcsjj.observables import (
    ccr_defect,
    fluctuation_variances,
    goldstone_dynamics_residual,
    goldstone_frequencies,
    goldstone_operators,
    josephson_current,
)
from bcsjj import spin
from bcsjj.spin import evolve_heisenberg, expectation, is_hermitian, pauli_components


def junction(gamma=1e-3, delta=0.3, eps=0.3, beta=1e4):
    return JunctionParams(
        bulk_I=BulkParams(eps, beta, delta),
        bulk_II=BulkParams(eps, beta, 0.0),
        gamma=gamma,
    )


def test_current_sign_and_magnitude():
    p = junction(delta=0.3)
    sol = solve_ness(p)
    j = josephson_current(sol, p.gamma)
    # leading order: -4 gamma lam^2 sin(delta), negative for delta > 0
    expected = -4.0 * p.gamma * 0.4 * 0.4 * math.sin(0.3)
    assert j < 0.0
    assert abs(j - expected) < abs(expected) * 1e-2


def test_current_is_odd_in_bias():
    for delta in (0.2, 0.9, 1.4):
        fwd = solve_ness(junction(delta=delta))
        bwd = solve_ness(junction(delta=-delta))
        j_f = josephson_current(fwd, 1e-3)
        j_b = josephson_current(bwd, 1e-3)
        assert abs(j_f + j_b) < 1e-14


def test_current_vanishes_at_alignment():
    sol = solve_ness(junction(delta=0.0))
    assert abs(josephson_current(sol, 1e-3)) < 1e-15


def test_current_antisymmetric_between_plates():
    # what flows out of plate I flows into plate II
    sol = solve_ness(junction(delta=0.5))
    j = josephson_current(sol, 1e-3)
    swapped = JunctionParams(
        bulk_I=junction(delta=0.5).bulk_II,
        bulk_II=junction(delta=0.5).bulk_I,
        gamma=1e-3,
    )
    assert abs(josephson_current(solve_ness(swapped), 1e-3) + j) < 1e-14


def test_ccr_decoupled_value():
    # 4 lam^2 / mu = 4 * 0.16 / 0.5 = 1.28 at the standard point
    sol = solve_ness(junction(gamma=0.0))
    pair = goldstone_operators("I_b", sol)
    assert abs(pair.ccr_exact - 1.28j) < 1e-6
    assert ccr_defect(pair) < 1e-12


def test_ccr_defect_vanishes_linearly():
    rel = {}
    for gamma in (1e-3, 1e-4):
        sol = solve_ness(junction(gamma=gamma))
        pair = goldstone_operators("I_b", sol)
        rel[gamma] = ccr_defect(pair) / abs(pair.ccr_formula)
    assert rel[1e-3] <= 1e-2
    assert rel[1e-4] <= 1e-3
    ratio = rel[1e-3] / rel[1e-4]
    assert 5.0 < ratio < 20.0


def test_mode_operators_geometry():
    sol = solve_ness(junction())
    for region in ("I_b", "II_b"):
        pair = goldstone_operators(region, sol)
        assert is_hermitian(pair.Q) and is_hermitian(pair.P)
        _, q = pauli_components(pair.Q)
        _, p = pauli_components(pair.P)
        h = boundary_hamiltonian(
            region,
            sol.params,
            Lambda_b_I=sol.Lambda_b_I,
            Lambda_b_II=sol.Lambda_b_II,
        )
        _, n = pauli_components(h)
        # orthogonal to each other and to the axis, equal lengths
        assert abs(np.dot(q.real, p.real)) < 1e-12
        assert abs(np.dot(q.real, n.real)) < 1e-12
        assert abs(np.dot(p.real, n.real)) < 1e-12
        assert abs(np.linalg.norm(q.real) - np.linalg.norm(p.real)) < 1e-12


def test_mode_rotation():
    sol = solve_ness(junction())
    for region in ("I_b", "II_b"):
        pair = goldstone_operators(region, sol)
        h = boundary_hamiltonian(
            region,
            sol.params,
            Lambda_b_I=sol.Lambda_b_I,
            Lambda_b_II=sol.Lambda_b_II,
        )
        period = 2.0 * math.pi / pair.frequency
        times = np.linspace(0.0, 2.0 * period, 32)
        assert goldstone_dynamics_residual(pair, h, times) < 1e-10


def test_frequencies_from_solution():
    sol = solve_ness(junction())
    nu_i, nu_ii = goldstone_frequencies(sol)
    assert nu_i == 2.0 * sol.mu_t_I
    assert abs(nu_i - 1.00061) < 1e-4  # 1 + 4 gamma lam^2 cos(0.3)
    assert abs(goldstone_operators("I_b", sol).frequency - nu_i) < 1e-15
    assert abs(goldstone_operators("II_b", sol).frequency - nu_ii) < 1e-15


def test_frequency_shift_follows_cosine():
    shifts = {}
    for delta in (0.0, 1.0):
        sol = solve_ness(junction(delta=delta))
        shifts[delta] = 2.0 * sol.mu_t_I - 1.0
    assert shifts[0.0] > shifts[1.0] > 0.0
    ratio = shifts[1.0] / shifts[0.0]
    assert abs(ratio - math.cos(1.0)) < 1e-2


def test_variances_match_formula():
    sol = solve_ness(junction())
    for row, (region, rho) in enumerate((("I_b", sol.rho_b_I), ("II_b", sol.rho_b_II))):
        pair = goldstone_operators(region, sol)
        var_q, var_p = fluctuation_variances(pair.q, pair.p, sol.contact[:, row])
        field = sol.field_I if region == "I_b" else sol.field_II
        mu_t = sol.mu_t_I if region == "I_b" else sol.mu_t_II
        expected = abs(field) ** 2 / mu_t**2
        assert abs(var_q - expected) < 1e-10
        assert (pair.var_Q, pair.var_P) == (var_q, var_p)
        # the mode coordinates are centered in the contact state
        assert abs(expectation(rho, pair.Q)) < 1e-13
        assert abs(expectation(rho, pair.P)) < 1e-13


def test_ccr_matches_operator_commutator():
    sol = solve_ness(junction())
    pair = goldstone_operators("I_b", sol)
    direct = expectation(sol.rho_b_I, pair.Q @ pair.P - pair.P @ pair.Q)
    assert abs(direct - pair.ccr_exact) < 1e-14


def test_normal_phase_gives_zero_modes():
    p = JunctionParams(BulkParams(0.3, 2.0), BulkParams(0.3, 2.0), 1e-3)
    sol = solve_ness(p)
    for region in ("I_b", "II_b"):
        pair = goldstone_operators(region, sol)
        assert np.max(np.abs(pair.Q)) < 1e-13
        assert np.max(np.abs(pair.P)) < 1e-13
        assert abs(pair.ccr_exact) < 1e-13
        assert pair.var_Q < 1e-13
        # zero operators rotate trivially, even under a Hamiltonian with zero axis
        assert goldstone_dynamics_residual(pair, spin.IDENTITY, np.linspace(0.0, 9.0, 8)) == 0.0
    ordered = goldstone_operators("I_b", solve_ness(junction()))
    with np.testing.assert_raises_regex(ValueError, "nonzero axis"):
        goldstone_dynamics_residual(ordered, spin.IDENTITY, [0.0, 1.0])


def test_modes_live_on_contact_rows_only():
    import pytest

    sol = solve_ness(junction(gamma=0.0))
    with pytest.raises(ValueError):
        goldstone_operators("I_a", sol)
    with pytest.raises(ValueError):
        goldstone_operators("nowhere", sol)


def test_gauge_shift_leaves_spectra():
    from bcsjj.ness import gauge_shift

    p = junction()
    base = solve_ness(p)
    shifted = solve_ness(gauge_shift(p, 1.1))
    for sol_pair in zip(
        goldstone_frequencies(base), goldstone_frequencies(shifted)
    ):
        assert abs(sol_pair[0] - sol_pair[1]) < 1e-12
    pair_base = goldstone_operators("I_b", base)
    pair_shift = goldstone_operators("I_b", shifted)
    assert abs(abs(pair_base.ccr_exact) - abs(pair_shift.ccr_exact)) < 1e-12
    assert abs(pair_base.var_Q - pair_shift.var_Q) < 1e-12


def test_dynamics_residual_detects_wrong_frequency():
    sol = solve_ness(junction())
    pair = goldstone_operators("I_b", sol)
    h = boundary_hamiltonian(
        "I_b", sol.params, Lambda_b_I=sol.Lambda_b_I, Lambda_b_II=sol.Lambda_b_II
    )
    times = np.linspace(0.0, 4.0 * math.pi / pair.frequency, 32)
    wrong = replace(pair, frequency=pair.frequency * 1.001)
    assert goldstone_dynamics_residual(wrong, h, times) > 1e-4


def _dynamics_residual_per_time(pair, hamiltonian, times):
    """The 2x2 reference: one Heisenberg evolution of Q and of P per time."""
    _, n = pauli_components(np.asarray(hamiltonian, dtype=complex))
    _, q = pauli_components(pair.Q)
    _, p = pauli_components(pair.P)
    s = 1.0 if float(np.dot(-np.cross(n.real, q.real), p.real)) >= 0.0 else -1.0
    worst = 0.0
    for t in times:
        theta = pair.frequency * t
        q_ref = pair.Q * np.cos(theta) + s * pair.P * np.sin(theta)
        p_ref = -s * pair.Q * np.sin(theta) + pair.P * np.cos(theta)
        q_t = evolve_heisenberg(pair.Q, hamiltonian, t)
        p_t = evolve_heisenberg(pair.P, hamiltonian, t)
        worst = max(worst, np.abs(q_t - q_ref).max(), np.abs(p_t - p_ref).max())
    return worst


def test_dynamics_residual_is_the_per_time_reference(monkeypatch):
    """One Heisenberg evolution per operator covers the whole time grid,
    and the residual equals the per-time 2x2 loop bit for bit."""
    calls = []

    def counted(op, hamiltonian, t):
        calls.append(np.shape(t))
        return evolve_heisenberg(op, hamiltonian, t)

    for gamma, delta in ((0.0, 0.5), (1e-3, 0.3), (1e-2, -1.2)):
        sol = solve_ness(junction(gamma=gamma, delta=delta))
        for region in ("I_b", "II_b"):
            pair = goldstone_operators(region, sol)
            h = boundary_hamiltonian(
                region, sol.params, Lambda_b_I=sol.Lambda_b_I, Lambda_b_II=sol.Lambda_b_II
            )
            times = np.linspace(0.0, 4.0 * math.pi / pair.frequency, 32)
            for candidate in (pair, replace(pair, frequency=pair.frequency * 1.001)):
                expected = _dynamics_residual_per_time(candidate, h, times)
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(spin, "evolve_heisenberg", counted)
                    assert goldstone_dynamics_residual(candidate, h, times) == expected
                assert calls == [(32,), (32,)]
