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

import functools
import math

from ._numpy import np
from .constants import VALIDATION_ATOL


# The entries of the module's 2x2 constants (``spin.SIGMA_Z``, ``from
# bcsjj.spin import IDENTITY``), which __getattr__ serves as complex
# arrays built on first use, so that importing this module loads no numpy.
_MATRIX_ENTRIES = {
    "SIGMA_X": [[0.0, 1.0], [1.0, 0.0]],
    "SIGMA_Y": [[0.0, -1.0j], [1.0j, 0.0]],
    "SIGMA_Z": [[1.0, 0.0], [0.0, -1.0]],
    "SIGMA_PLUS": [[0.0, 1.0], [0.0, 0.0]],
    "SIGMA_MINUS": [[0.0, 0.0], [1.0, 0.0]],
    "IDENTITY": [[1.0, 0.0], [0.0, 1.0]],
}


@functools.cache
def _matrices():
    """The 2x2 constants by name, built once: callers must not modify them."""
    return {name: np.array(entries, dtype=complex) for name, entries in _MATRIX_ENTRIES.items()}


def __getattr__(name):
    # only the constants' names: the import system probes other ones (``__path__``)
    if name in _MATRIX_ENTRIES:
        return _matrices()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_MATRIX_ENTRIES])


__all__ = [
    *_MATRIX_ENTRIES,
    "commutant_projection",
    "evolve_heisenberg",
    "expectation",
    "gibbs_state",
    "is_hermitian",
    "pauli_components",
]


def is_hermitian(op, atol=VALIDATION_ATOL):
    """Whether a matrix, or every matrix of a stack, is Hermitian to ``atol``."""
    op = np.asarray(op)
    return bool(np.max(np.abs(op - np.swapaxes(op.conj(), -1, -2))) <= atol)


def _require_hermitian(op, what, stack=False):
    op = np.asarray(op, dtype=complex)
    if op.shape[-2:] != (2, 2) or (op.ndim > 2 and not stack):
        raise ValueError(f"{what} must be a 2x2 matrix{' stack' if stack else ''}, got shape {op.shape}")
    if not is_hermitian(op):
        raise ValueError(f"{what} must be Hermitian")
    return op


def pauli_components(op):
    """Complex (scalar, vector) Pauli components of any 2x2 matrix, or of a
    ``(..., 2, 2)`` stack as ``(...)`` scalars and ``(3, ...)`` vectors."""
    half = 0.5 * op  # halved first, so that sums of entries near the float maximum fit
    a, b = half[..., 0, 0], half[..., 0, 1]
    c, d = half[..., 1, 0], half[..., 1, 1]
    v = np.array([b + c, 1j * (b - c), a - d], dtype=complex)
    return a + d, v


def _from_bloch(scalar, v):
    """scalar * 1 + v.sigma for Bloch vectors ``v`` of shape ``(3, ...)``, as ``(..., 2, 2)``.

    No validation; ``v`` may be complex.
    """
    m = _matrices()
    x, y, z = (np.asarray(v)[k, ..., None, None] for k in range(3))
    return scalar * m["IDENTITY"] + x * m["SIGMA_X"] + y * m["SIGMA_Y"] + z * m["SIGMA_Z"]


def _dot(u, v):
    """u.v over the leading axis of Bloch vectors (any trailing shape)."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _unit(n):
    """``(|n|, n/|n|)`` of a real 3-vector ``n`` on Python floats; n/|n| is None at n = 0.

    ``math.hypot`` never squares, so only a norm past the float maximum
    overflows: only then is n rescaled, to max |n_i| = 1, for its direction.
    """
    x, y, z = map(float, n)
    norm = math.hypot(x, y, z)
    if norm == math.inf:
        scale = max(abs(x), abs(y), abs(z))
        return norm, _unit((x / scale, y / scale, z / scale))[1]
    return norm, (x / norm, y / norm, z / norm) if norm else None


def _thermal_bloch(n, beta):
    """a = -1/2 tanh(beta |n|) n/|n| of exp(-beta n.sigma)/Z = 1/2 + a.sigma, as floats (0 at n = 0).

    n/|n| comes first: tanh(beta |n|)/|n| is subnormal for a field near
    the float maximum and would round the polarized a_z off -1/2.
    """
    norm, unit = _unit(n)
    if unit is None:
        return 0.0, 0.0, 0.0
    factor = -0.5 * math.tanh(beta * norm)
    return factor * unit[0], factor * unit[1], factor * unit[2]


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
    return _from_bloch(0.5, _thermal_bloch(v.real, beta))


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
    _, unit = _unit(pauli_components(hamiltonian)[1].real)
    if unit is None:
        return rho.copy()
    n_hat = np.array(unit)
    projected = np.dot(a, n_hat) * n_hat
    return _from_bloch(s.real, projected)


def evolve_heisenberg(op, hamiltonian, t):
    """Heisenberg evolution exp(i t H) op exp(-i t H), closed form.

    The adjoint action of exp(-i t H) rotates the Pauli coefficient
    vector of ``op`` about the H axis; the formula extends linearly to
    complex coefficient vectors, so ``op`` need not be Hermitian.  ``op``
    and ``hamiltonian`` may be ``(..., 2, 2)`` stacks; their stack shapes
    and ``t``'s broadcast into the result's ``(..., 2, 2)``.
    """
    hamiltonian = _require_hermitian(hamiltonian, "Hamiltonian", stack=True)
    s, a = pauli_components(np.asarray(op, dtype=complex))
    n = pauli_components(hamiltonian)[1].real
    norm = np.sqrt(_dot(n, n))
    n_hat = n / np.where(norm == 0.0, 1.0, norm)  # a zero axis: n_hat = 0, theta = 0, op unchanged
    axial = _dot(n_hat, a)[..., None]  # bilinear, no conjugation
    theta = 2.0 * norm * np.asarray(t, dtype=float)
    cos, sin = np.cos(theta)[..., None], np.sin(theta)[..., None]
    # d a / d t = -2 n x a  =>  rotation by -theta about n_hat
    a, n_hat = np.moveaxis(a, 0, -1), np.moveaxis(n_hat, 0, -1)
    rotated = a * cos - np.cross(n_hat, a) * sin + axial * n_hat * (1.0 - cos)
    return _from_bloch(s[..., None, None], np.moveaxis(rotated, -1, 0))


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
