"""Exactly solvable two-plate BCS junction.

Bulk gap equation, driven steady states of the contact region,
Josephson current, boundary Goldstone modes, and exact small-lattice
cross-checks, all on analytically tractable 2x2 building blocks.
"""

from .equilibrium import (
    BulkParams,
    BulkSolution,
    critical_beta,
    effective_hamiltonian,
    gap_map,
    solve_gap,
)
from .lattice import (
    FiniteNReport,
    LatticeSpec,
    ResourceLimitError,
    build_current,
    build_hamiltonian,
    build_relative_number,
    commutator_defect,
    finite_n_report,
    product_state_current,
    product_state_expectation,
    time_evolve_expectation,
)
from .ness import (
    JunctionParams,
    NessSolution,
    WeakContactWarning,
    boundary_hamiltonian,
    closed_form_rhs,
    gauge_shift,
    ness_map,
    solve_batch,
    solve_ness,
    verify_steady,
)
from .observables import (
    CurrentValue,
    GoldstonePair,
    ccr_defect,
    ccr_values,
    fluctuation_variances,
    goldstone_dynamics_residual,
    goldstone_frequencies,
    goldstone_operators,
    josephson_current,
)
from .perturbation import (
    FirstOrderReport,
    certify_first_order,
    current_first_order,
    frequency_first_order,
    lambda_first_order,
    printed_first_order,
)
from .spin import (
    commutant_projection,
    evolve_heisenberg,
    expectation,
    gibbs_state,
)
from .sweep import RunConfig, SweepRow, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BulkParams",
    "BulkSolution",
    "CurrentValue",
    "FiniteNReport",
    "FirstOrderReport",
    "GoldstonePair",
    "JunctionParams",
    "LatticeSpec",
    "NessSolution",
    "ResourceLimitError",
    "RunConfig",
    "SweepRow",
    "WeakContactWarning",
    "boundary_hamiltonian",
    "build_current",
    "build_hamiltonian",
    "build_relative_number",
    "ccr_defect",
    "ccr_values",
    "certify_first_order",
    "closed_form_rhs",
    "commutant_projection",
    "commutator_defect",
    "critical_beta",
    "current_first_order",
    "effective_hamiltonian",
    "evolve_heisenberg",
    "expectation",
    "finite_n_report",
    "fluctuation_variances",
    "frequency_first_order",
    "gap_map",
    "gauge_shift",
    "gibbs_state",
    "goldstone_dynamics_residual",
    "goldstone_frequencies",
    "goldstone_operators",
    "josephson_current",
    "lambda_first_order",
    "ness_map",
    "printed_first_order",
    "product_state_current",
    "product_state_expectation",
    "run_sweep",
    "solve_batch",
    "solve_gap",
    "solve_ness",
    "time_evolve_expectation",
    "verify_steady",
]
