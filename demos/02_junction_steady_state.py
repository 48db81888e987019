"""
Pair current through a weakly coupled junction
==============================================

Two ordered plates with a phase bias drive a steady pair current
across the contact.  The full construction solves for the contact
order parameters self-consistently; at small coupling the current
follows the sine law j = -4 gamma lambda_I lambda_II sin(dphi).
"""

import math

import numpy as np

from bcsjj import (
    BulkParams,
    JunctionParams,
    josephson_current,
    solve_ness,
    verify_steady,
)

gamma = 1e-3
beta = 1e4


def junction(delta):
    return JunctionParams(
        bulk_I=BulkParams(0.3, beta, delta),
        bulk_II=BulkParams(0.3, beta, 0.0),
        gamma=gamma,
    )


# One point in detail: the contact order parameters sit slightly above
# the bulk value and lock their phases to the local mean field.
sol = solve_ness(junction(0.3))
print("junction at dphi = 0.3, gamma = 1e-3")
print(f"  bulk order parameter     {sol.lambda_bulk_I:.9f}")
print(f"  contact order parameter  {abs(sol.Lambda_b_I):.9f}")
print(f"  contact phases           {np.angle(sol.Lambda_b_I):+.6f}, "
      f"{np.angle(sol.Lambda_b_II):+.6f}")
print(f"  converged in {sol.iterations} iterations, "
      f"stationarity {verify_steady(sol):.2e}")
print()

# The current-phase relation.  The third column is the small-coupling
# sine law; the agreement is at the gamma^2 level.
lam2 = sol.lambda_bulk_I * sol.lambda_bulk_II
print(f"{'dphi':>8}  {'current':>13}  {'sine law':>13}  {'defect':>9}")
for delta in np.linspace(-math.pi / 2, math.pi / 2, 9):
    s = solve_ness(junction(float(delta)))
    j = josephson_current(s, gamma)
    law = -4.0 * gamma * lam2 * math.sin(delta)
    print(f"{delta:>8.3f}  {j:>13.6e}  {law:>13.6e}  {abs(j - law):>9.1e}")
print()

# The current is what plate II gains and plate I loses; swapping the
# plates flips its sign exactly.
swapped = JunctionParams(
    bulk_I=junction(0.3).bulk_II, bulk_II=junction(0.3).bulk_I, gamma=gamma
)
print(f"swap antisymmetry: {josephson_current(sol, gamma):+.6e} vs "
      f"{josephson_current(solve_ness(swapped), gamma):+.6e}")
