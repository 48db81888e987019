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

Every function here reads the solver's own arrays (``Lambda_b``,
``field``, ``mu_t``, the contact axis n and the contact Bloch vector b of
:class:`~bcsjj.ness.NessSolution`) and works elementwise, on one point or
on a whole batch.  Q and P are 2x2 only when read; only
:func:`goldstone_dynamics_residual` takes a 2x2 matrix, the caller's
contact Hamiltonian, as the independent side of the mode dynamics.
"""

from dataclasses import dataclass

import numpy as np

from . import spin
from .spin import _dot, _from_bloch


@dataclass(frozen=True)
class CurrentValue:
    """Pair current per contact site, positive toward plate I."""

    j: float


@dataclass(frozen=True, eq=False)
class GoldstonePair:
    """Soft-mode normal coordinates of one contact row.

    ``q`` and ``p`` are the Bloch vectors of Q = q.sigma and P = p.sigma;
    ``Q`` and ``P`` assemble the 2x2 operators on demand.
    """

    region: str
    q: np.ndarray
    p: np.ndarray
    ccr_exact: complex
    ccr_formula: complex
    ccr_formula_field: complex
    var_Q: float
    var_P: float
    frequency: float

    Q = property(lambda self: _from_bloch(0.0, self.q), doc="2x2 operator q.sigma")
    P = property(lambda self: _from_bloch(0.0, self.p), doc="2x2 operator p.sigma")


def josephson_current(sol, gamma):
    """Steady pair current per contact site, elementwise over the points.

    Evaluates 4 gamma Im(conj(Lambda_b_I) Lambda_b_II), which equals
    -4 gamma |Lambda_b_I||Lambda_b_II| sin(phi_b_I - phi_b_II) without
    any branch-cut trouble at vanishing order parameters.  ``gamma`` is
    one coupling or one per point.
    """
    lam_i, lam_ii = sol.Lambda_b
    return CurrentValue(4.0 * gamma * (lam_i.real * lam_ii.imag - lam_i.imag * lam_ii.real))


def ccr_values(sol):
    """Tr(rho_b [Q, P]) = i c of both contacts, and c by its two formulas.

    Returns the real (exact, formula, formula_field), each of shape
    ``(2, ...)``.  For rho_b = 1/2 + b.sigma the exact mean is
    4i b.(q x p), and q x p = -(|F|^2 / mu_t^3) n on the contact axis n,
    so c = -4 |F|^2 (b.n) / mu_t^3.  The formulas are 4 |Lambda_b|^2 / mu_t
    and 4 |F|^2 / mu_t.
    """
    n, lam_b, mu_t = sol.axis, sol.Lambda_b, sol.mu_t
    field2 = n[0] * n[0] + n[1] * n[1]
    exact = -4.0 * field2 * _dot(sol.contact, n) / (mu_t * mu_t * mu_t)
    formula = 4.0 * (lam_b.real * lam_b.real + lam_b.imag * lam_b.imag) / mu_t
    return exact, formula, 4.0 * field2 / mu_t


def goldstone_operators(region, sol):
    """Normal coordinates, commutator data and variances of one contact.

    Q = q.sigma, P = p.sigma with q = (eps Re F, eps Im F, |F|^2) / mu_t^2 and
    p = (Im F, -Re F, 0) / mu_t, elementwise over the points of ``sol``.  In
    the normal phase F = 0 and both operators vanish identically (a valid
    degenerate case, not an error).
    """
    if region not in ("I_b", "II_b"):
        raise ValueError(f"region must be 'I_b' or 'II_b', got {region!r}")
    row = 0 if region == "I_b" else 1
    f, mu_t = sol.field[row], sol.mu_t[row]
    # x * x and hypot, not x**2 and np.abs: those round one point otherwise than an array
    mu2 = mu_t * mu_t
    scale = sol.axis[2, row] / mu2
    norm = np.hypot(f.real, f.imag)
    q = np.array([scale * f.real, scale * f.imag, norm * norm / mu2])
    p = (1.0 / mu_t) * np.array([f.imag, -f.real, np.zeros_like(mu_t)])
    var_q, var_p = fluctuation_variances(q, p, sol.contact[:, row])
    exact, formula, formula_field = (1j * value[row] for value in ccr_values(sol))
    return GoldstonePair(
        region=region,
        q=q,
        p=p,
        ccr_exact=exact,
        ccr_formula=formula,
        ccr_formula_field=formula_field,
        var_Q=var_q,
        var_P=var_p,
        frequency=2.0 * mu_t,
    )


def ccr_defect(pair):
    """Distance between the exact commutator mean and the gap formula, elementwise."""
    return np.abs(pair.ccr_exact - pair.ccr_formula)


def goldstone_dynamics_residual(pair, hamiltonian, times):
    """Worst deviation of one point's pair from (Q, P)-plane rotation over the times.

    The rotation orientation is computed from the Bloch geometry, not
    assumed: s is the sign making dQ/dt = s * nu * P at t = 0.
    Zero operators (normal phase) give zero residual trivially.
    """
    q, p = pair.q, pair.p
    n = spin.pauli_components(np.asarray(hamiltonian, dtype=complex))[1].real
    if not (q.any() or p.any()):
        return 0.0
    if not n.any():
        raise ValueError("contact Hamiltonian must have a nonzero axis")
    s = 1.0 if _dot(np.cross(q, n), p) >= 0.0 else -1.0  # dQ/dt = -nu n_hat x q
    q_op, p_op = pair.Q, pair.P
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


def fluctuation_variances(q, p, b):
    """Variances |v|^2 - (2 b.v)^2 of v.sigma in rho = 1/2 + b.sigma, for v = q, p.

    Elementwise over Bloch vectors of shape ``(3, ...)``.  For product
    states these equal the variances of the central-limit normal
    coordinates; both vanish in the normal phase.
    """

    def variance(v):
        mean = 2.0 * _dot(b, v)  # <v.sigma> in rho
        return _dot(v, v) - mean * mean

    return variance(q), variance(p)
