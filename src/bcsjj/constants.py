"""Shared numerical tolerances.

Every fixed tolerance used by the library lives here so the contracts
stay consistent across modules.  Values are absolute unless noted.
"""

# Input validation is deliberately loose: matrices that went through
# downstream arithmetic must still be accepted as Hermitian / density
# inputs.
VALIDATION_ATOL = 1e-10

# Steady-state fixed point: a junction point stops iterating, converged,
# once its map defect max |f(x) - x| is below this.
NESS_CHANGE_TOL = 1e-13

# Central-difference step for derivative certification at gamma = 0.
CENTRAL_DIFF_STEP = 1e-5

# Weight a product state may leave outside its one product vector (the
# sites' top eigenvectors joined) when lattice time evolution runs on the
# sparse path; a state leaving more raises.  The vector is propagated by a
# Chebyshev series that stops once its rigorous tail bound is below
# double-precision roundoff, independent of this tolerance.
KRYLOV_TOL = 1e-10

# Finite-lattice identities (`finite-n`, finite_n.* checks): entrywise defects of
# i[H, Q] - J and [H(gamma = 0), Q]; product-state current against the sine law.
FINITE_N_COMMUTATOR_TOL = 1e-13
FINITE_N_CONSERVATION_TOL = 1e-13
FINITE_N_CURRENT_TOL = 1e-12
