"""First-order expansions in the contact coupling, certified numerically."""

import pytest

from bcsjj.equilibrium import BulkParams
from bcsjj.ness import JunctionParams, solve_ness
from bcsjj.observables import josephson_current
from bcsjj.perturbation import (
    certify_first_order,
    current_first_order,
    frequency_first_order,
    lambda_first_order,
    printed_first_order,
)


def standard(gamma=1e-3, delta=0.0):
    return JunctionParams(
        bulk_I=BulkParams(0.3, 1e4, delta),
        bulk_II=BulkParams(0.3, 1e4, 0.0),
        gamma=gamma,
    )


def test_lambda_expansion_value():
    # 0.4 + 1e-3 * 0.4 * (0.09 / 0.25) = 0.400144 at aligned phases
    lam_i, lam_ii = lambda_first_order(standard())
    assert abs(lam_i - 0.400144) < 1e-6
    assert abs(lam_ii - 0.400144) < 1e-6


def test_current_expansion_value():
    j = current_first_order(standard(delta=0.1))
    assert abs(j - (-6.389338665e-5)) < 1e-12


def test_frequency_expansion_value():
    nu_i, nu_ii = frequency_first_order(standard())
    assert abs(nu_i - 1.00064) < 1e-5
    assert nu_i == nu_ii


def test_expansions_match_solver_to_first_order():
    for delta in (0.0, 0.3, -0.8):
        p = standard(gamma=1e-4, delta=delta)
        sol = solve_ness(p)
        lam_i, lam_ii = lambda_first_order(p)
        assert abs(abs(sol.Lambda_b_I) - lam_i) < 5e-8  # O(gamma^2)
        assert abs(abs(sol.Lambda_b_II) - lam_ii) < 5e-8
        nu_i, _ = frequency_first_order(p)
        assert abs(2.0 * sol.mu_t_I - nu_i) < 5e-8
        j = josephson_current(sol, p.gamma).j
        assert abs(j - current_first_order(p)) < 5e-8


def test_certified_slopes():
    report = certify_first_order(standard(delta=0.3))
    for key, defect in report.derivative_defects.items():
        scale = max(abs(report.slopes_analytic[key]), 1e-3)
        assert defect / scale < 1e-6, f"slope mismatch for {key}"


def test_remainder_ratio_brackets_quadratic():
    """Defect against the linear law grows ~100x when gamma grows 10x."""
    remainders = {}
    for gamma in (1e-3, 1e-2):
        p = standard(gamma=gamma, delta=0.3)
        sol = solve_ness(p)
        remainders[gamma] = {
            "lambda_t_I": abs(abs(sol.Lambda_b_I) - lambda_first_order(p)[0]),
            "current": abs(
                josephson_current(sol, gamma).j - current_first_order(p)
            ),
            "nu_t_I": abs(2.0 * sol.mu_t_I - frequency_first_order(p)[0]),
        }
    for key in remainders[1e-3]:
        ratio = remainders[1e-2][key] / remainders[1e-3][key]
        assert 50.0 < ratio < 200.0, f"remainder for {key}: ratio {ratio:.1f}"


def test_remainder_constants_bound_unprobed_gamma():
    report = certify_first_order(standard(delta=0.3), gammas=(1e-3, 1e-2))
    gamma = 5e-3  # between the probed values
    p = standard(gamma=gamma, delta=0.3)
    sol = solve_ness(p)
    probes = {
        "lambda_t_I": abs(sol.Lambda_b_I),
        "current": josephson_current(sol, gamma).j,
        "nu_t_I": 2.0 * sol.mu_t_I,
    }
    linear = {
        "lambda_t_I": lambda_first_order(p)[0],
        "current": current_first_order(p),
        "nu_t_I": frequency_first_order(p)[0],
    }
    for key in probes:
        defect = abs(probes[key] - linear[key])
        bound = report.remainder_constants[key] * gamma**2
        assert defect <= 1.5 * bound + 1e-14, f"{key}: {defect} vs {bound}"


def test_printed_block_disagrees():
    """The legacy printed expansion differs from the certified one."""
    p = standard(gamma=1e-2, delta=0.0)
    printed = printed_first_order(p)
    certified = lambda_first_order(p)
    # plate I: printed slope is negative, certified is positive
    assert printed[0] < 0.4 < certified[0]
    assert abs(printed[0] - certified[0]) > 1e-3
    # and the solver sides with the certified form
    sol = solve_ness(p)
    assert abs(abs(sol.Lambda_b_I) - certified[0]) < 1e-4
    assert abs(abs(sol.Lambda_b_I) - printed[0]) > 1e-3


def test_normal_phase_rejected():
    p = JunctionParams(BulkParams(0.3, 2.0), BulkParams(0.3, 1e4), 1e-3)
    with pytest.raises(ValueError):
        lambda_first_order(p)
    with pytest.raises(ValueError):
        certify_first_order(p)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gammas", [(), (0.0, 1e-3), (1e-3, -0.0)])
def test_certification_rejects_empty_or_zero_probes(gammas):
    with pytest.raises(ValueError, match="gamma"):
        certify_first_order(standard(), gammas=gammas)

