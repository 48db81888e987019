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
    equilibrium_state,
    gap_map,
    solve_gap,
)
from .lattice import (
    LatticeSpec,
    ResourceLimitError,
    build_current,
    build_hamiltonian,
    build_relative_number,
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
    bloch_decompose,
    bloch_reconstruct,
    commutant_projection,
    commutator,
    evolve_heisenberg,
    expectation,
    gibbs_state,
    pauli,
)
from .sweep import RunConfig, SweepRow, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BulkParams",
    "BulkSolution",
    "CurrentValue",
    "FirstOrderReport",
    "GoldstonePair",
    "JunctionParams",
    "LatticeSpec",
    "NessSolution",
    "ResourceLimitError",
    "RunConfig",
    "SweepRow",
    "WeakContactWarning",
    "bloch_decompose",
    "bloch_reconstruct",
    "boundary_hamiltonian",
    "build_current",
    "build_hamiltonian",
    "build_relative_number",
    "ccr_defect",
    "certify_first_order",
    "closed_form_rhs",
    "commutant_projection",
    "commutator",
    "critical_beta",
    "current_first_order",
    "effective_hamiltonian",
    "equilibrium_state",
    "evolve_heisenberg",
    "expectation",
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
    "pauli",
    "printed_first_order",
    "product_state_expectation",
    "run_sweep",
    "solve_batch",
    "solve_gap",
    "solve_ness",
    "time_evolve_expectation",
    "verify_steady",
]
