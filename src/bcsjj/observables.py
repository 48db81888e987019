"""Physical observables of the junction steady state.

The pair current through the contact (per contact site) is

    j = -4 gamma lambda_b_I lambda_b_II sin(phi_b_I - phi_b_II)

in terms of the contact order parameters.  On each contact row the
broken gauge symmetry leaves a soft mode; its normal coordinates are the
one-site generators

    Q = (|F|^2 / mu_t^2) sigma_z + (eps / mu_t^2)(conj(F) sigma_plus + F sigma_minus)
    P = (i / mu_t)(conj(F) sigma_plus - F sigma_minus)

built from the contact effective field F.  Q is exactly the component
of the gauge generator sigma_z perpendicular to the contact Hamiltonian
axis, so the Heisenberg motion is a pure rotation in the (Q, P) plane at
frequency nu_t = 2 mu_t.  Both have zero mean in the contact state; the
expected commutator tends to 4i lambda_b^2 / mu_t as gamma -> 0 and is
reported exactly, alongside that formula and its effective-field
variant, because the two readings split at first order in gamma.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import spin


@dataclass(frozen=True)
class CurrentValue:
    """Pair current per contact site, positive toward plate I."""

    j: float


@dataclass(frozen=True, eq=False)
class GoldstonePair:
    """Soft-mode normal coordinates of one contact row."""

    region: str
    Q: np.ndarray
    P: np.ndarray
    ccr_exact: complex
    ccr_formula: complex
    ccr_formula_field: complex
    var_Q: float
    var_P: float
    frequency: float


def josephson_current(sol, gamma):
    """Steady pair current per contact site.

    Evaluates 4 gamma Im(conj(Lambda_b_I) Lambda_b_II), which equals
    -4 gamma |Lambda_b_I||Lambda_b_II| sin(phi_b_I - phi_b_II) without
    any branch-cut trouble at vanishing order parameters.
    """
    j = 4.0 * gamma * (np.conj(sol.Lambda_b_I) * sol.Lambda_b_II).imag
    return CurrentValue(float(j))


def _region_data(region, sol):
    if region == "I_b":
        return (
            sol.params.bulk_I.epsilon,
            sol.field_I,
            sol.mu_t_I,
            sol.rho_b_I,
            sol.Lambda_b_I,
        )
    if region == "II_b":
        return (
            sol.params.bulk_II.epsilon,
            sol.field_II,
            sol.mu_t_II,
            sol.rho_b_II,
            sol.Lambda_b_II,
        )
    raise ValueError(f"region must be 'I_b' or 'II_b', got {region!r}")


def goldstone_operators(region, sol):
    """Normal coordinates, commutator data and variances of one contact.

    In the normal phase the effective field vanishes and both operators
    are identically zero (a valid degenerate case, not an error).
    """
    eps, field, mu_t, rho_b, lambda_b = _region_data(region, sol)
    f = complex(field)
    q_op = (abs(f) ** 2 / mu_t**2) * spin.SIGMA_Z + (eps / mu_t**2) * (
        np.conj(f) * spin.SIGMA_PLUS + f * spin.SIGMA_MINUS
    )
    p_op = (1j / mu_t) * (np.conj(f) * spin.SIGMA_PLUS - f * spin.SIGMA_MINUS)
    ccr_exact = spin.expectation(rho_b, spin.commutator(q_op, p_op))
    var_q, var_p = _variances(q_op, p_op, rho_b)
    return GoldstonePair(
        region=region,
        Q=q_op,
        P=p_op,
        ccr_exact=ccr_exact,
        ccr_formula=4j * abs(lambda_b) ** 2 / mu_t,
        ccr_formula_field=4j * abs(f) ** 2 / mu_t,
        var_Q=var_q,
        var_P=var_p,
        frequency=2.0 * mu_t,
    )


def ccr_defect(pair):
    """Distance between the exact commutator mean and the gap formula."""
    return abs(pair.ccr_exact - pair.ccr_formula)


def ccr_defect_bloch(axis, contact, lambda_b, mu_t):
    """:func:`ccr_defect` from Bloch vectors, elementwise over arrays.

    Q = q.sigma and P = p.sigma have q x p = -(|F|^2 / mu_t^3) n on the
    contact axis n, so Tr(rho_b [Q, P]) = 4i b.(q x p) for rho_b = 1/2 + b.sigma.
    """
    field2 = axis[0] * axis[0] + axis[1] * axis[1]
    b_dot_n = contact[0] * axis[0] + contact[1] * axis[1] + contact[2] * axis[2]
    exact = -4.0 * field2 * b_dot_n / (mu_t * mu_t * mu_t)
    formula = 4.0 * (lambda_b.real * lambda_b.real + lambda_b.imag * lambda_b.imag) / mu_t
    return np.abs(exact - formula)


def goldstone_dynamics_residual(pair, hamiltonian, times):
    """Worst deviation from pure (Q, P)-plane rotation over the times.

    The rotation orientation is computed from the Bloch geometry, not
    assumed: s is the sign making dQ/dt = s * nu * P at t = 0.
    Zero operators (normal phase) give zero residual trivially.
    """
    q_op, p_op = pair.Q, pair.P
    if spin.max_abs(q_op) == 0.0 and spin.max_abs(p_op) == 0.0:
        return 0.0
    _, nvec = spin.pauli_components(np.asarray(hamiltonian, dtype=complex))
    n = nvec.real
    norm = float(np.linalg.norm(n))
    _, qvec = spin.pauli_components(q_op)
    _, pvec = spin.pauli_components(p_op)
    if norm == 0.0:
        raise ValueError("contact Hamiltonian must have a nonzero axis")
    initial_rate = -np.cross(n / norm, qvec.real)
    s = 1.0 if float(np.dot(initial_rate, pvec.real)) >= 0.0 else -1.0
    worst = 0.0
    for t in np.asarray(times, dtype=float):
        theta = pair.frequency * t
        q_t = spin.evolve_heisenberg(q_op, hamiltonian, t)
        p_t = spin.evolve_heisenberg(p_op, hamiltonian, t)
        q_ref = q_op * math.cos(theta) + s * p_op * math.sin(theta)
        p_ref = -s * q_op * math.sin(theta) + p_op * math.cos(theta)
        worst = max(worst, spin.max_abs(q_t - q_ref), spin.max_abs(p_t - p_ref))
    return worst


def goldstone_frequencies(sol):
    """Contact mode frequencies (nu_t_I, nu_t_II) = 2 mu_t."""
    return (2.0 * sol.mu_t_I, 2.0 * sol.mu_t_II)


def fluctuation_variances(pair, rho_b):
    """Per-site variances of (Q, P) in the given contact state.

    For product states these equal the variances of the central-limit
    normal coordinates; both vanish in the normal phase.
    """
    return _variances(pair.Q, pair.P, rho_b)


def _variances(q_op, p_op, rho_b):
    mean_q = spin.expectation(rho_b, q_op).real
    mean_p = spin.expectation(rho_b, p_op).real
    var_q = spin.expectation(rho_b, q_op @ q_op).real - mean_q**2
    var_p = spin.expectation(rho_b, p_op @ p_op).real - mean_p**2
    return (float(var_q), float(var_p))
