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


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


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

    Q = q.sigma, P = p.sigma with q = (eps Re F, eps Im F, |F|^2) / mu_t^2 and
    p = (Im F, -Re F, 0) / mu_t.  In the normal phase F = 0 and both operators
    vanish identically (a valid degenerate case, not an error).
    """
    eps, field, mu_t, rho_b, lambda_b = _region_data(region, sol)
    f = complex(field)
    scale = eps / mu_t**2
    q = np.array([scale * f.real, scale * f.imag, abs(f) ** 2 / mu_t**2])
    p = (1.0 / mu_t) * np.array([f.imag, -f.real, 0.0])
    b = spin.pauli_components(rho_b)[1].real
    var_q, var_p = _variances(q, p, b)
    # Tr(rho_b [Q, P]) = 4i b.(q x p), for rho_b = 1/2 + b.sigma
    return GoldstonePair(
        region=region,
        Q=spin.bloch_reconstruct(spin.BlochForm(0.0, q)),
        P=spin.bloch_reconstruct(spin.BlochForm(0.0, p)),
        ccr_exact=4j * _dot(b, np.cross(q, p)),
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

    q x p = -(|F|^2 / mu_t^3) n on the contact axis n, so the identity 4i b.(q x p)
    of :func:`goldstone_operators` reads -4i |F|^2 (b.n) / mu_t^3 here.
    """
    field2 = axis[0] * axis[0] + axis[1] * axis[1]
    exact = -4.0 * field2 * _dot(contact, axis) / (mu_t * mu_t * mu_t)
    formula = 4.0 * (lambda_b.real * lambda_b.real + lambda_b.imag * lambda_b.imag) / mu_t
    return np.abs(exact - formula)


def goldstone_dynamics_residual(pair, hamiltonian, times):
    """Worst deviation from pure (Q, P)-plane rotation over the times.

    The rotation orientation is computed from the Bloch geometry, not
    assumed: s is the sign making dQ/dt = s * nu * P at t = 0.
    Zero operators (normal phase) give zero residual trivially.
    """
    q_op, p_op = pair.Q, pair.P
    n, q, p = (spin.pauli_components(np.asarray(op, dtype=complex))[1].real
               for op in (hamiltonian, q_op, p_op))
    if not (q.any() or p.any()):
        return 0.0
    if not n.any():
        raise ValueError("contact Hamiltonian must have a nonzero axis")
    s = 1.0 if _dot(np.cross(q, n), p) >= 0.0 else -1.0  # dQ/dt = -nu n_hat x q
    times = np.asarray(times, dtype=float)
    theta = (pair.frequency * times)[:, None, None]
    cos, sin = np.cos(theta), np.sin(theta)
    q_ref = q_op * cos + s * p_op * sin
    p_ref = -s * q_op * sin + p_op * cos
    q_t = spin.evolve_heisenberg(q_op, hamiltonian, times)
    p_t = spin.evolve_heisenberg(p_op, hamiltonian, times)
    return float(max(np.abs(q_t - q_ref).max(initial=0.0), np.abs(p_t - p_ref).max(initial=0.0)))


def goldstone_frequencies(sol):
    """Contact mode frequencies (nu_t_I, nu_t_II) = 2 mu_t."""
    return (2.0 * sol.mu_t_I, 2.0 * sol.mu_t_II)


def fluctuation_variances(pair, rho_b):
    """Per-site variances of (Q, P) in the given contact state.

    For product states these equal the variances of the central-limit
    normal coordinates; both vanish in the normal phase.
    """
    b = spin.pauli_components(np.asarray(rho_b))[1].real
    q, p = (spin.pauli_components(op)[1].real for op in (pair.Q, pair.P))
    return _variances(q, p, b)


def _variances(q, p, b):
    """Variances |v|^2 - (2 b.v)^2 of v.sigma in rho = 1/2 + b.sigma, for v = q, p."""
    return tuple(float(_dot(v, v) - (2.0 * _dot(b, v)) ** 2) for v in (q, p))
