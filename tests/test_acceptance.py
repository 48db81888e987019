"""End-to-end acceptance runs, one verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; plain pytest shows them only on failure.
"""

import cmath
import math
import time
from dataclasses import replace

import numpy as np

from bcsjj import cli
from bcsjj.checks import run_checks
from bcsjj.equilibrium import BulkParams, critical_beta, gap_map, solve_gap
from bcsjj.lattice import LatticeSpec, build_current, build_hamiltonian, build_relative_number, product_state_expectation
from bcsjj.ness import JunctionParams, boundary_hamiltonian, closed_form_rhs, gauge_shift, ness_map, solve_ness, verify_steady
from bcsjj.observables import ccr_defect, goldstone_dynamics_residual, goldstone_operators, josephson_current
from bcsjj.perturbation import certify_first_order, lambda_first_order, printed_first_order
from bcsjj.spin import pauli_components

BETA = 1e4
DELTA_GRID_17 = np.linspace(-math.pi / 2, math.pi / 2, 17)
DELTA_GRID_33 = np.linspace(-math.pi / 2, math.pi / 2, 33)


def junction(eps=0.3, gamma=1e-3, delta=0.0):
    return JunctionParams(
        bulk_I=BulkParams(eps, BETA, delta),
        bulk_II=BulkParams(eps, BETA, 0.0),
        gamma=gamma,
    )


def verdict(number, name, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {number:2d} ({name}): {detail}")
    return ok


def test_criterion_01_bulk_gap():
    p = BulkParams(0.3, BETA)
    solve_gap(p)
    start = time.perf_counter()
    sol = solve_gap(p)
    elapsed = time.perf_counter() - start
    defect = abs(gap_map(sol.lam, p) - sol.lam)
    ok = abs(sol.lam - 0.4) < 1e-6 and defect < 1e-11 and elapsed < 1e-3
    assert verdict(
        1, "bulk gap", ok,
        f"lambda {sol.lam:.9f}, defect {defect:.2e}, {elapsed * 1e6:.0f} us",
    )


def test_criterion_02_branch_threshold():
    misplaced = 0
    for eps in (0.1, 0.2, 0.3, 0.4, 0.45):
        bc = critical_beta(eps)
        if not solve_gap(BulkParams(eps, bc * 1.01)).superconducting:
            misplaced += 1
        if solve_gap(BulkParams(eps, bc * 0.99)).superconducting:
            misplaced += 1
    for eps in (0.5, 0.6, 1.0):
        if solve_gap(BulkParams(eps, 1e6)).superconducting:
            misplaced += 1
    ok = misplaced == 0
    assert verdict(
        2, "ordering threshold", ok, f"{misplaced} misplaced branch openings"
    )


def test_criterion_03_steady_state_oracle():
    worst_eq = 0.0
    worst_steady = 0.0
    for eps in (0.2, 0.3):
        for gamma in (1e-4, 1e-3, 1e-2):
            for delta in DELTA_GRID_17:
                p = junction(eps=eps, gamma=gamma, delta=float(delta))
                sol = solve_ness(p)
                assert sol.converged
                guess = (sol.Lambda_b_I, sol.Lambda_b_II)
                rhs = closed_form_rhs(guess, p)
                mapped = ness_map(guess, p)
                worst_eq = max(
                    worst_eq,
                    abs(rhs[0] - guess[0]),
                    abs(rhs[1] - guess[1]),
                    abs(mapped[0] - rhs[0]),
                    abs(mapped[1] - rhs[1]),
                )
                worst_steady = max(worst_steady, verify_steady(sol))
    ok = worst_eq < 1e-11 and worst_steady < 1e-12
    assert verdict(
        3, "steady-state oracle", ok,
        f"closed-form defect {worst_eq:.2e}, stationarity {worst_steady:.2e}",
    )


def _law_deviation(eps, gamma):
    bulk = solve_gap(BulkParams(eps, BETA))
    lam2 = bulk.lam**2
    nu0 = 2.0 * bulk.mu
    currents, current_law, shifts, shift_law = [], [], [], []
    for delta in DELTA_GRID_33:
        sol = solve_ness(junction(eps=eps, gamma=gamma, delta=float(delta)))
        currents.append(josephson_current(sol, gamma).j)
        current_law.append(-4.0 * gamma * lam2 * math.sin(delta))
        shifts.append(2.0 * sol.mu_t_I - nu0)
        shift_law.append(4.0 * gamma * lam2 * math.cos(delta) / nu0)
    sine = np.max(np.abs(np.array(currents) - current_law)) / np.max(
        np.abs(current_law)
    )
    cosine = np.max(np.abs(np.array(shifts) - shift_law)) / np.max(
        np.abs(shift_law)
    )
    return float(sine), float(cosine)


def test_criterion_04_sine_law():
    start = time.perf_counter()
    err_m3, _ = _law_deviation(0.3, 1e-3)
    elapsed = time.perf_counter() - start
    err_m4, _ = _law_deviation(0.3, 1e-4)
    ratio = err_m3 / err_m4
    ok = err_m3 <= 1e-2 and 5.0 <= ratio <= 20.0 and elapsed < 1.0
    assert verdict(
        4, "sine law", ok,
        f"rel error {err_m3:.2e}, gamma-ratio {ratio:.1f}, {elapsed:.2f} s",
    )


def test_criterion_05_cosine_law():
    _, err_m3 = _law_deviation(0.3, 1e-3)
    _, err_m4 = _law_deviation(0.3, 1e-4)
    ratio = err_m3 / err_m4
    half = [
        2.0 * solve_ness(junction(gamma=1e-3, delta=float(d))).mu_t_I
        for d in np.linspace(0.0, math.pi / 2, 9)
    ]
    decreasing = all(a >= b - 1e-13 for a, b in zip(half, half[1:]))
    evenness = 0.0
    for delta in (0.3, 0.9, 1.4):
        fwd = solve_ness(junction(gamma=1e-3, delta=delta))
        bwd = solve_ness(junction(gamma=1e-3, delta=-delta))
        evenness = max(evenness, abs(2.0 * fwd.mu_t_I - 2.0 * bwd.mu_t_I))
    ok = (
        err_m3 <= 1e-2
        and 5.0 <= ratio <= 20.0
        and decreasing
        and evenness < 1e-11
    )
    assert verdict(
        5, "cosine law", ok,
        f"rel error {err_m3:.2e}, gamma-ratio {ratio:.1f}, evenness {evenness:.1e}",
    )


def test_criterion_06_first_order_certification():
    worst = 0.0
    for delta in (0.0, 0.3, -0.8):
        report = certify_first_order(junction(delta=delta))
        for key, defect in report.derivative_defects.items():
            scale = max(abs(report.slopes_analytic[key]), 1e-3)
            worst = max(worst, defect / scale)
    # the historical printed block must be tabulated and its slope disagree
    p = junction(delta=0.0)
    printed_far = abs(printed_first_order(p)[0] - lambda_first_order(p)[0]) / p.gamma > 0.1
    ok = worst < 1e-6 and printed_far
    assert verdict(
        6, "first-order slopes", ok,
        f"worst relative slope defect {worst:.2e}, printed block tabulated",
    )


def test_criterion_07_commutator_values():
    sol0 = solve_ness(junction(gamma=0.0))
    pair0 = goldstone_operators("I_b", sol0)
    zero_defect = ccr_defect(pair0)
    value_ok = abs(pair0.ccr_exact - 1.28j) < 1e-6
    rels = {}
    for gamma in (1e-3, 1e-4):
        pair = goldstone_operators("I_b", solve_ness(junction(gamma=gamma)))
        rels[gamma] = ccr_defect(pair) / abs(pair.ccr_formula)
    ok = (
        zero_defect < 1e-12
        and value_ok
        and rels[1e-3] <= 1e-2
        and rels[1e-4] <= 1e-3
    )
    assert verdict(
        7, "canonical commutator", ok,
        f"decoupled defect {zero_defect:.1e}, rel defect {rels[1e-3]:.1e} "
        f"at 1e-3 / {rels[1e-4]:.1e} at 1e-4",
    )


def test_criterion_08_mode_dynamics():
    worst_resid = 0.0
    worst_geo = 0.0
    for gamma in (0.0, 1e-3):
        sol = solve_ness(junction(gamma=gamma, delta=0.5))
        for region in ("I_b", "II_b"):
            pair = goldstone_operators(region, sol)
            h = boundary_hamiltonian(
                region, sol.params,
                Lambda_b_I=sol.Lambda_b_I, Lambda_b_II=sol.Lambda_b_II,
            )
            period = 2.0 * math.pi / pair.frequency
            times = np.linspace(0.0, 2.0 * period, 32)
            worst_resid = max(
                worst_resid, goldstone_dynamics_residual(pair, h, times)
            )
            _, q = pauli_components(pair.Q)
            _, p = pauli_components(pair.P)
            _, axis = pauli_components(h)
            worst_geo = max(
                worst_geo,
                abs(float(np.dot(q.real, axis.real))),
                abs(float(np.dot(p.real, axis.real))),
                abs(float(np.linalg.norm(q.real) - np.linalg.norm(p.real))),
            )
    normal = solve_ness(
        JunctionParams(BulkParams(0.3, 2.0), BulkParams(0.3, 2.0), 1e-3)
    )
    normal_zero = max(
        float(np.max(np.abs(op)))
        for region in ("I_b", "II_b")
        for op in (
            goldstone_operators(region, normal).Q,
            goldstone_operators(region, normal).P,
        )
    )
    ok = worst_resid < 1e-10 and worst_geo < 1e-12 and normal_zero < 1e-15
    assert verdict(
        8, "mode dynamics", ok,
        f"rotation residual {worst_resid:.1e}, geometry {worst_geo:.1e}, "
        f"normal-phase modes {normal_zero:.1e}",
    )


def test_criterion_09_small_lattice_identities():
    start = time.perf_counter()
    worst_comm = 0.0
    worst_cons = 0.0
    worst_cur = 0.0
    for n in (1, 2):
        spec = LatticeSpec(n)
        p = junction(gamma=1e-3, delta=0.3)
        h = build_hamiltonian(spec, p)
        q = build_relative_number(spec)
        j = build_current(spec, p.gamma)
        worst_comm = max(worst_comm, float(abs(1j * (h @ q - q @ h) - j).max()))
        h0 = build_hamiltonian(spec, replace(p, gamma=0.0))
        worst_cons = max(worst_cons, float(abs(h0 @ q - q @ h0).max()))
        bulk_i = solve_gap(p.bulk_I)
        bulk_ii = solve_gap(p.bulk_II)
        states = [bulk_i.rho] * spec.sites_per_plate + [bulk_ii.rho] * spec.sites_per_plate
        measured = product_state_expectation(j, states).real / n
        expected = -4.0 * p.gamma * bulk_i.lam * bulk_ii.lam * math.sin(0.3)
        worst_cur = max(worst_cur, abs(measured - expected))
    elapsed = time.perf_counter() - start
    ok = (
        worst_comm < 1e-13
        and worst_cons < 1e-13
        and worst_cur < 1e-12
        and elapsed < 10.0
    )
    assert verdict(
        9, "small-lattice identities", ok,
        f"commutator {worst_comm:.1e}, conservation {worst_cons:.1e}, "
        f"current {worst_cur:.1e}, {elapsed:.2f} s",
    )


def test_criterion_10_gauge_covariance():
    base_params = junction(gamma=1e-3, delta=0.4)
    base = solve_ness(base_params)
    base_pair = goldstone_operators("I_b", base)
    worst_inv = 0.0
    worst_phase = 0.0
    for delta in (0.7, 2.0, -1.3, 5.9):
        shifted = solve_ness(gauge_shift(base_params, delta))
        pair = goldstone_operators("I_b", shifted)
        worst_inv = max(
            worst_inv,
            abs(abs(shifted.Lambda_b_I) - abs(base.Lambda_b_I)),
            abs(abs(shifted.Lambda_b_II) - abs(base.Lambda_b_II)),
            abs(shifted.mu_t_I - base.mu_t_I),
            abs(shifted.mu_t_II - base.mu_t_II),
            abs(
                josephson_current(shifted, 1e-3).j
                - josephson_current(base, 1e-3).j
            ),
            abs(abs(pair.ccr_exact) - abs(base_pair.ccr_exact)),
        )
        rotation = cmath.exp(1j * delta)
        worst_phase = max(
            worst_phase,
            abs(shifted.Lambda_b_I - base.Lambda_b_I * rotation),
            abs(shifted.Lambda_b_II - base.Lambda_b_II * rotation),
        )
    ok = worst_inv < 1e-11 and worst_phase < 1e-11
    assert verdict(
        10, "gauge covariance", ok,
        f"invariants drift {worst_inv:.1e}, phase transport {worst_phase:.1e}",
    )


def test_criterion_11_reproducibility(tmp_path):
    args = ("sweep", "--count", "7", "--gamma", "1e-3")
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main([*args, "--output", str(first)]) == 0
    assert cli.main([*args, "--output", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    results = run_checks()
    all_green = all(r.passed for r in results)
    ok = identical and all_green
    assert verdict(
        11, "reproducibility", ok,
        f"byte-identical={identical}, {len(results)} invariants green={all_green}",
    )


if __name__ == "__main__":
    import pytest as _pytest

    raise SystemExit(_pytest.main([__file__, "-v", "-s"]))
