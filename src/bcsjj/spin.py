"""Closed-form algebra on 2x2 complex operators.

One-site objects (Hamiltonians, density matrices, fluctuation generators)
are real Bloch vectors in the core and 2x2 matrices in the API.  All spectral
manipulation goes through the decomposition

    A = s * 1 + v . sigma

with ``s`` the half-trace and ``v`` the coefficient 3-vector in the
Pauli basis.  Thermal states, dephasing projections and Heisenberg
evolution are then exact one-liners (hyperbolic functions of |v| and
axis rotations), so no generic eigensolver enters anywhere and every
result is deterministic to floating-point rounding.
"""

from typing import NamedTuple

import numpy as np

from .constants import VALIDATION_ATOL

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

_BY_NAME = {
    "plus": SIGMA_PLUS,
    "minus": SIGMA_MINUS,
    "x": SIGMA_X,
    "y": SIGMA_Y,
    "z": SIGMA_Z,
    "id": IDENTITY,
}


class BlochForm(NamedTuple):
    """Half-trace and Pauli coefficient vector of a Hermitian 2x2 matrix."""

    scalar: float
    vector: np.ndarray  # shape (3,), real


def pauli(name):
    """Return a fresh copy of the named basis matrix.

    Parameters
    ----------
    name : str
        One of ``plus``, ``minus``, ``x``, ``y``, ``z``, ``id``.
    """
    try:
        return _BY_NAME[name].copy()
    except KeyError:
        raise ValueError(
            f"unknown operator name {name!r}, expected one of {sorted(_BY_NAME)}"
        ) from None


def commutator(a, b):
    return a @ b - b @ a


def max_abs(op):
    """Entrywise max-norm, the operator norm used for defect reporting."""
    return float(np.max(np.abs(op)))


def is_hermitian(op, atol=VALIDATION_ATOL):
    op = np.asarray(op)
    return bool(np.max(np.abs(op - op.conj().T)) <= atol)


def _require_hermitian(op, what):
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"{what} must be a 2x2 matrix, got shape {op.shape}")
    if not is_hermitian(op):
        raise ValueError(f"{what} must be Hermitian")
    return op


def pauli_components(op):
    """Complex (scalar, vector) Pauli components of any 2x2 matrix."""
    a, b = op[0, 0], op[0, 1]
    c, d = op[1, 0], op[1, 1]
    s = 0.5 * (a + d)
    v = np.array([0.5 * (b + c), 0.5j * (b - c), 0.5 * (a - d)], dtype=complex)
    return s, v


def bloch_decompose(op):
    """Decompose a Hermitian 2x2 matrix into its ``BlochForm``.

    Raises ``ValueError`` when the input is not Hermitian (the real form
    would silently drop the anti-Hermitian part otherwise).
    """
    op = _require_hermitian(op, "operator")
    s, v = pauli_components(op)
    return BlochForm(float(s.real), v.real.copy())


def bloch_reconstruct(form):
    """Inverse of :func:`bloch_decompose`."""
    return _assemble(float(form.scalar), np.asarray(form.vector, dtype=float))


def _assemble(scalar, vector):
    # complex-coefficient variant of bloch_reconstruct, no validation;
    # a (..., 3) stack of vectors gives a (..., 2, 2) stack of matrices
    x, y, z = (np.asarray(vector)[..., k, None, None] for k in range(3))
    return scalar * IDENTITY + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z


def _from_bloch(scalar, v):
    """scalar * 1 + v.sigma for vectors ``v`` of shape ``(3, ...)``, as ``(..., 2, 2)``."""
    return _assemble(scalar, np.moveaxis(v, 0, -1))


def _dot(u, v):
    """u.v over the leading axis of Bloch vectors (any trailing shape)."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _thermal_bloch(n, beta):
    """a = -1/2 tanh(beta |n|) n/|n| of exp(-beta n.sigma)/Z = 1/2 + a.sigma (0 at n = 0)."""
    norm = float(np.linalg.norm(n))
    if norm == 0.0:
        return np.zeros(3)
    return -0.5 * np.tanh(beta * norm) * (n / norm)


def gibbs_state(hamiltonian, beta):
    """Thermal state exp(-beta H) / Tr exp(-beta H) of a Hermitian H.

    Closed form: with H = s*1 + n.sigma the state is
    (1 - tanh(beta |n|) n_hat . sigma) / 2; the scalar part cancels.
    H with zero traceless part gives the maximally mixed state.
    """
    hamiltonian = _require_hermitian(hamiltonian, "Hamiltonian")
    if not (np.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and positive, got {beta}")
    _, v = pauli_components(hamiltonian)
    return _assemble(0.5, _thermal_bloch(v.real, beta))


def commutant_projection(rho, hamiltonian):
    """Project a density matrix onto the commutant of a Hermitian H.

    This is the infinite-time dephasing average: the Bloch vector of
    ``rho`` is projected onto the H axis, which kills all off-diagonal
    matrix elements in the H eigenbasis while preserving the trace.
    A degenerate H (zero traceless part) leaves ``rho`` unchanged.
    """
    rho = _require_hermitian(rho, "density matrix")
    hamiltonian = _require_hermitian(hamiltonian, "Hamiltonian")
    s, v = pauli_components(rho)
    a = v.real  # rho = s*1 + a.sigma, eigenvalues s +- |a|
    if abs(s.real - 0.5) > VALIDATION_ATOL:
        raise ValueError("density matrix must have unit trace")
    if s.real - float(np.linalg.norm(a)) < -VALIDATION_ATOL:
        raise ValueError("density matrix must be positive semidefinite")
    _, w = pauli_components(hamiltonian)
    n = w.real
    norm = float(np.linalg.norm(n))
    if norm == 0.0:
        return rho.copy()
    n_hat = n / norm
    projected = np.dot(a, n_hat) * n_hat
    return _assemble(s.real, projected)


def evolve_heisenberg(op, hamiltonian, t):
    """Heisenberg evolution exp(i t H) op exp(-i t H), closed form.

    The adjoint action of exp(-i t H) rotates the Pauli coefficient
    vector of ``op`` about the H axis; the formula extends linearly to
    complex coefficient vectors, so ``op`` need not be Hermitian.  An
    array of times gives the ``t.shape + (2, 2)`` stack from one rotation.
    """
    hamiltonian = _require_hermitian(hamiltonian, "Hamiltonian")
    op = np.asarray(op, dtype=complex)
    t = np.asarray(t, dtype=float)
    s, a = pauli_components(op)
    _, w = pauli_components(hamiltonian)
    n = w.real
    norm = float(np.linalg.norm(n))
    if norm == 0.0:
        return np.broadcast_to(op, t.shape + (2, 2)).copy()
    n_hat = n / norm
    theta = (2.0 * norm * t)[..., None]
    # d a / d t = -2 n x a  =>  rotation by -theta about n_hat
    cross = np.cross(n_hat, a)
    axial = np.dot(n_hat, a) * n_hat  # bilinear, no conjugation
    rotated = a * np.cos(theta) - cross * np.sin(theta) + axial * (1.0 - np.cos(theta))
    return _assemble(s, rotated)


def expectation(rho, op):
    """Tr(rho op) as a complex number."""
    rho = np.asarray(rho)
    op = np.asarray(op)
    return complex(
        rho[0, 0] * op[0, 0]
        + rho[0, 1] * op[1, 0]
        + rho[1, 0] * op[0, 1]
        + rho[1, 1] * op[1, 1]
    )
