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

import cmath
import math
from dataclasses import dataclass

from . import spin
from ._numpy import np


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
    bloch_xyz: tuple
    residual: float

    bloch = property(lambda self: np.array(self.bloch_xyz), doc="the Bloch vector as a (3,) array")
    rho = property(lambda self: spin._from_bloch(0.5, self.bloch_xyz), doc="2x2 state 1/2 + bloch.sigma")


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
    field = lam * cmath.exp(1j * params.phi)
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
    g(mu) = tanh(beta mu) - 2 mu in (epsilon, 1/2] is unique.  g is
    concave there, so Newton steps from mu = 1/2, where g <= 0, descend
    monotonically onto the root.  The bracket (lo, hi) starts as
    (epsilon, 1/2] and keeps the last points with g > 0 and g < 0; a step
    that would leave it bisects it instead.  The descent stops at g = 0,
    at a step below half an ulp, or where rounding lets a Newton step
    cross the root: the step back from there is the last.  Every mu tried
    lies strictly inside the bracket, which shrinks at each step, so the
    loop ends for any floats, infinite and NaN ones included.  Returns
    the ordered branch when it exists, otherwise the normal solution
    ``(0.0, epsilon, False)``.
    """
    if math.tanh(beta * epsilon) > 2.0 * epsilon:
        lo, mu, hi = epsilon, 0.5, 0.5
        newton = True  # mu came from a Newton step
        while True:
            t = math.tanh(beta * mu)
            g = t - 2.0 * mu
            step = mu - g / (beta * (1.0 - t * t) - 2.0)
            if g < 0.0:
                hi = mu
            elif g > 0.0 and not newton:
                lo = mu
            else:
                # g = 0 (or NaN), or a Newton step crossed the root
                if g > 0.0 and lo < step < hi:
                    mu = step
                break
            if step == mu:
                break
            newton = lo < step < hi
            if not newton:
                step = 0.5 * (lo + hi)
                if not lo < step < hi:
                    break
            mu = step
        return math.sqrt(max(mu * mu - epsilon * epsilon, 0.0)), mu, True
    return 0.0, epsilon, False


def solve_gap(params):
    """Solve the bulk self-consistency for one plate.

    The gap is :func:`gap_root`'s; ``bloch`` is the Bloch vector of the
    closed-form thermal state of the one-site Hamiltonian at that gap,
    and ``residual`` its gap-map defect ||<sigma_plus>| - lam|, all on
    Python floats: no array is built until ``bloch`` or ``rho`` is read.
    """
    eps, beta = params.epsilon, params.beta
    lam, mu, superconducting = gap_root(eps, beta)
    field = lam * cmath.exp(1j * params.phi)
    # the thermal state on the axis (-Re F, -Im F, eps); <sigma_plus> = a_x + i a_y
    a = spin._thermal_bloch((-field.real, -field.imag, eps), beta)
    residual = abs(abs(complex(a[0], a[1])) - lam)
    return BulkSolution(lam=lam, mu=mu, superconducting=superconducting, bloch_xyz=a, residual=residual)
