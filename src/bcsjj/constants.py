"""Shared numerical tolerances.

Every fixed tolerance used by the library lives here so the contracts
stay consistent across modules.  Values are absolute unless noted.
"""

# Input validation is deliberately loose: matrices that went through
# downstream arithmetic must still be accepted as Hermitian / density
# inputs.
VALIDATION_ATOL = 1e-10

# Scalar gap bisection width on the spectral gap mu.
GAP_BISECTION_TOL = 1e-14

# Steady-state fixed point: a junction point stops iterating, converged,
# once its map defect max |f(x) - x| is below this.
NESS_CHANGE_TOL = 1e-13

# Central-difference step for derivative certification at gamma = 0.
CENTRAL_DIFF_STEP = 1e-5

# Krylov propagation tolerance (also the allowed truncated mass when a
# mixed product state is expanded into pure product terms).
KRYLOV_TOL = 1e-10
