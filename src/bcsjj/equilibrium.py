"""Bulk self-consistency of a single strongly coupled plate.

In the thermodynamic limit each plate is described by one two-level
system in the mean pairing field of all the others.  The one-site
Hamiltonian for pairing field Lambda = lam * exp(i phi) is

    h = epsilon * sigma_z - (conj(Lambda) sigma_plus + Lambda sigma_minus)

with spectrum +-mu, mu = sqrt(epsilon^2 + |Lambda|^2).  Self-consistency
of the thermal state fixes |Lambda| through the scalar condition
tanh(beta mu) = 2 mu, which has a unique root mu in (epsilon, 1/2]
exactly when tanh(beta epsilon) > 2 epsilon; the phase phi is free
(broken gauge symmetry).  Otherwise only the normal solution lam = 0
survives.
"""

import math
from dataclasses import dataclass

from . import spin
from ._numpy import np
from .constants import GAP_BISECTION_TOL


@dataclass(frozen=True)
class BulkParams:
    """One plate: on-site energy, inverse temperature, condensate phase."""

    epsilon: float
    beta: float
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")


@dataclass(frozen=True, eq=False)
class BulkSolution:
    """Self-consistent bulk data: gap, spectral scale, thermal state's Bloch vector."""

    lam: float
    mu: float
    superconducting: bool
    bloch: "numpy.ndarray"
    residual: float

    rho = property(lambda self: spin._from_bloch(0.5, self.bloch), doc="2x2 state 1/2 + bloch.sigma")


def effective_hamiltonian(epsilon, field):
    """One-site mean-field Hamiltonian for a complex pairing field.

    Elementwise: arrays of epsilons and fields give a ``(..., 2, 2)`` stack.
    """
    eps, f = (np.asarray(v)[..., None, None] for v in (epsilon, field))
    return eps * spin.SIGMA_Z - f.conj() * spin.SIGMA_PLUS - f * spin.SIGMA_MINUS


def gap_map(lam, params):
    """One iteration of the bulk gap map.

    Returns |Tr(rho sigma_plus)| for the thermal state of the effective
    Hamiltonian at pairing amplitude ``lam``; analytically this equals
    (lam / (2 mu)) tanh(beta mu).  Fixed points are self-consistent gaps.
    """
    field = lam * np.exp(1j * params.phi)
    rho = spin.gibbs_state(effective_hamiltonian(params.epsilon, field), params.beta)
    return abs(spin.expectation(rho, spin.SIGMA_PLUS))


def critical_beta(epsilon):
    """Inverse temperature where the ordered branch opens.

    Solves tanh(beta epsilon) = 2 epsilon; infinite for epsilon >= 1/2
    (no ordered phase at any temperature).
    """
    if epsilon >= 0.5:
        return math.inf
    return math.atanh(2.0 * epsilon) / epsilon


def gap_root(epsilon, beta):
    """The bare gap of one plate: ``(lam, mu, superconducting)``.

    The ordered branch exists iff tanh(beta epsilon) > 2 epsilon, in
    which case tanh(beta mu) / mu is strictly decreasing so the root of
    tanh(beta mu) = 2 mu is unique; plain bisection on (epsilon, 1/2]
    brackets it from the sign change.  Returns the ordered branch when
    it exists, otherwise the normal solution ``(0.0, epsilon, False)``.
    """
    if math.tanh(beta * epsilon) > 2.0 * epsilon:
        lo, hi = epsilon, 0.5
        # f(lo) > 0 by the criterion, f(0.5) = tanh(beta/2) - 1 < 0
        while hi - lo > GAP_BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            if math.tanh(beta * mid) - 2.0 * mid > 0.0:
                lo = mid
            else:
                hi = mid
        mu = 0.5 * (lo + hi)
        return math.sqrt(max(mu * mu - epsilon * epsilon, 0.0)), mu, True
    return 0.0, epsilon, False


def solve_gap(params):
    """Solve the bulk self-consistency for one plate.

    The gap is :func:`gap_root`'s; ``bloch`` is the Bloch vector of the
    closed-form thermal state of the one-site Hamiltonian at that gap,
    and ``residual`` its gap-map defect ||<sigma_plus>| - lam|.  No 2x2
    matrix is built until ``rho`` is read.
    """
    eps, beta = params.epsilon, params.beta
    lam, mu, superconducting = gap_root(eps, beta)
    field = lam * np.exp(1j * params.phi)
    # the thermal state on the axis (-Re F, -Im F, eps); <sigma_plus> = a_x + i a_y
    a = spin._thermal_bloch(np.array([-field.real, -field.imag, eps]), beta)
    return BulkSolution(
        lam=lam, mu=mu, superconducting=superconducting,
        bloch=a, residual=abs(abs(complex(a[0], a[1])) - lam),
    )
