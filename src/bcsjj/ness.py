"""Steady state of two tunnel-coupled superconducting plates.

With a weak tunneling coupling gamma between the contact rows of two
plates, the long-time state is translation invariant within four site
classes: the deep interior of each plate (I_a, II_a) and the two contact
rows (I_b, II_b).  Interior sites keep their bulk equilibrium states.
Each contact site feels an effective pairing field made of its own
plate's bulk field plus gamma times the contact order parameter of the
*other* plate,

    field_I = lam_I exp(i phi_I) + gamma * Lambda_b_II,

and its state is the part of the bulk state that survives dephasing
under the local Hamiltonian built from that field (the commutant
projection).  The contact order parameters Lambda_b = <sigma_plus> must
then reproduce themselves, a fixed point of two coupled complex
equations.

All of this is algebra on real Bloch 3-vectors.  A one-site state is
rho = 1/2 + a.sigma, and the Hamiltonian with pairing field F is n.sigma
with axis n = (-Re F, -Im F, eps).  A plate's bulk state has
a = -1/2 tanh(beta |n|) n / |n|.  Dephasing keeps the part
(a.n) n / |n|^2 along the contact axis, whose <sigma_plus> is

    -(a.n) F / (eps^2 + |F|^2).

:func:`solve_batch` iterates this map on arrays of junction points.  It
contracts at rate O(gamma), so a few undamped steps reach rounding
level; a point stops once its map defect |f(x) - x| is below the
tolerance, and the iteration cap (``converged`` false) is the only
fallback.  It returns one :class:`NessSolution` holding the solver's
arrays with a trailing point axis; :func:`solve_ness` is one point of
it, ``solve_batch([params])[0]``.  2x2 matrices (the contact states
``rho_b_*``) are built only when read.

The same fixed point has a closed rational form (used as a
cross-check, never as the defining construction):

    Lambda_b_I = field_I * (eps_I^2 + lam_I * Re(exp(-i phi_I) field_I))
                 / (eps_I^2 + |field_I|^2)

and symmetrically for II, with the contact phase locking onto
arg(field).
"""

import cmath
import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import spin
from .constants import NESS_CHANGE_TOL
from .equilibrium import BulkParams, effective_hamiltonian, gap_root, solve_gap
from .spin import _dot, _from_bloch

REGIONS = ("I_a", "I_b", "II_b", "II_a")


class WeakContactWarning(UserWarning):
    """gamma is not small against the plates' epsilon."""


def warn_strong_contact(points, stacklevel=2):
    """One WeakContactWarning for the points with |gamma| > 0.1 min(epsilon).

    Names the worst point, the one with the largest |gamma| / min(epsilon),
    and how many of ``points`` are over the bound.
    """

    def eps_min(p):
        return min(p.bulk_I.epsilon, p.bulk_II.epsilon)

    over = [p for p in points if abs(p.gamma) > 0.1 * eps_min(p)]
    if not over:
        return
    worst = max(over, key=lambda p: abs(p.gamma) / eps_min(p))
    count = f" ({len(over)} of {len(points)} points)" if len(points) > 1 else ""
    warnings.warn(
        f"gamma = {worst.gamma} is not small against min(epsilon) = "
        f"{eps_min(worst)}{count}; the junction treatment assumes a weak contact",
        WeakContactWarning,
        stacklevel=stacklevel,
    )


@dataclass(frozen=True)
class JunctionParams:
    """Two plates plus the tunneling coupling between their contact rows."""

    bulk_I: BulkParams
    bulk_II: BulkParams
    gamma: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        warn_strong_contact([self], stacklevel=4)

    @property
    def delta_phi(self):
        """Bulk phase bias phi_I - phi_II."""
        return self.bulk_I.phi - self.bulk_II.phi


def _row(name, row):
    """Property reading plate I (row 0) or plate II (row 1) of an array field."""
    return property(lambda self: getattr(self, name)[row], doc=f"``{name}[{row}]``")


@dataclass(frozen=True, eq=False)
class NessSolution:
    """Junction steady states, held as arrays with a trailing point axis.

    Arrays of shape ``(2, ...)`` hold plate I in row 0 and plate II in
    row 1: the bulk gaps ``lambda_bulk``, the contact order parameters
    ``Lambda_b`` = <sigma_plus>, the effective pairing fields ``field``
    of the contact Hamiltonians and their spectral scales
    ``mu_t`` = sqrt(eps^2 + |field|^2).  ``axis`` and ``contact`` are
    the ``(3, 2, ...)`` Bloch vectors of the contact Hamiltonians and
    of the contact states.  ``residual`` is the :func:`verify_steady`
    defect in Bloch form (it includes the map defect), and
    ``iterations`` counts map evaluations up to the one that met the
    stop rule.

    ``sol[k]`` is point ``k`` alone: the point axis is dropped, so
    ``points`` becomes that point's :class:`JunctionParams` and
    ``residual``, ``iterations`` and ``converged`` plain numbers.  The
    per-plate properties (``Lambda_b_I``, ``mu_t_II``, ...) read one
    row, and ``rho_b_*`` assemble the 2x2 contact states on demand.
    """

    points: tuple
    lambda_bulk: np.ndarray
    Lambda_b: np.ndarray
    field: np.ndarray
    mu_t: np.ndarray
    axis: np.ndarray
    contact: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray

    def __getitem__(self, k):
        values = (getattr(self, f.name)[..., k] for f in fields(self)[1:])  # all but points
        return NessSolution(self.points[k], *(v.item() if v.ndim == 0 else v for v in values))

    params = property(lambda self: self.points, doc="The junction parameters, per point.")
    lambda_bulk_I, lambda_bulk_II = _row("lambda_bulk", 0), _row("lambda_bulk", 1)
    Lambda_b_I, Lambda_b_II = _row("Lambda_b", 0), _row("Lambda_b", 1)
    field_I, field_II = _row("field", 0), _row("field", 1)
    mu_t_I, mu_t_II = _row("mu_t", 0), _row("mu_t", 1)
    rho_b_I = property(lambda self: _from_bloch(0.5, self.contact[:, 0]), doc="2x2 contact state")
    rho_b_II = property(lambda self: _from_bloch(0.5, self.contact[:, 1]), doc="2x2 contact state")


def gauge_shift(params, delta):
    """Shift both condensate phases by the same angle."""
    return JunctionParams(
        bulk_I=replace(params.bulk_I, phi=params.bulk_I.phi + delta),
        bulk_II=replace(params.bulk_II, phi=params.bulk_II.phi + delta),
        gamma=params.gamma,
    )


def _axis(field, epsilon):
    """Bloch axis (-Re F, -Im F, eps) of the Hamiltonian with field F."""
    return np.array([-field.real, -field.imag, epsilon])


def _commutator_norm(n, v):
    """Entrywise max-norm of [n.sigma, v.sigma] = 2i (n x v).sigma."""
    cx = n[1] * v[2] - n[2] * v[1]
    cy = n[2] * v[0] - n[0] * v[2]
    cz = n[0] * v[1] - n[1] * v[0]
    return 2.0 * np.maximum(np.abs(cz), np.sqrt(cx * cx + cy * cy))


def _plates(points):
    """Bulk data of both plates at every point, as ``(2, N)`` arrays.

    Returns the bulk gaps, the bulk order parameters, the epsilons, the
    ``(3, 2, N)`` bulk Bloch vectors and the ``(N,)`` couplings.  The
    bare gap root runs once per distinct (epsilon, beta) plate.
    """
    gaps = {}
    lam, order, eps, scale = [], [], [], []
    for p in points:
        for bulk in (p.bulk_I, p.bulk_II):
            key = (bulk.epsilon, bulk.beta)
            if key not in gaps:
                gap = gap_root(*key)[0]
                norm = math.hypot(bulk.epsilon, gap)
                gaps[key] = (gap, -0.5 * math.tanh(bulk.beta * norm) / norm)
            gap, s = gaps[key]
            lam.append(gap)
            order.append(cmath.rect(gap, bulk.phi))
            eps.append(bulk.epsilon)
            scale.append(s)
    lam, order, eps, scale = (
        np.array(v).reshape(len(points), 2).T for v in (lam, order, eps, scale)
    )
    gamma = np.array([p.gamma for p in points], dtype=float)
    return lam, order, eps, scale * _axis(order, eps), gamma


def _contact_map(x, order, eps, bulk_vec, gamma):
    """<sigma_plus> of the contact states for contact order parameters x.

    Returns it with the contact fields, their Bloch axes n and the
    factor c = (a.n) / |n|^2 that makes c n the contact Bloch vector.
    """
    field = order + gamma * x[::-1]
    n = _axis(field, eps)
    c = _dot(bulk_vec, n) / _dot(n, n)
    return -c * field, field, n, c


def _map_defect(f, x):
    d = f - x
    return np.sqrt(np.max(d.real * d.real + d.imag * d.imag, axis=0))


def solve_batch(points, damping=1.0, tol=NESS_CHANGE_TOL, max_iter=100_000, seed=None):
    """Solve the junction fixed point at every point of a sequence.

    Iterates x <- x + damping (f(x) - x) on the contact order parameters
    of all points at once, from the bulk order parameters or from a
    caller ``seed`` (Lambda_b_I, Lambda_b_II) shared by all points.  A
    point stops after the first step whose map defect max |f(x) - x| was
    below ``tol``, or after ``max_iter`` steps, exactly as it would
    alone; it is ``converged`` when the defect of the returned x is
    below ``tol``.  Never raises on non-convergence.
    """
    if not (0.0 < damping <= 1.0):
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    points = tuple(points)
    lam, order, eps, bulk_vec, gamma = _plates(points)
    x = order.copy()
    if seed is not None:
        x[0], x[1] = complex(seed[0]), complex(seed[1])
    iterations = np.zeros(len(points), dtype=int)
    active = np.arange(len(points))
    for _ in range(int(max_iter)):
        xa = x[:, active]
        fa = _contact_map(
            xa, order[:, active], eps[:, active], bulk_vec[:, :, active], gamma[active]
        )[0]
        iterations[active] += 1
        x[:, active] = xa + damping * (fa - xa)
        active = active[_map_defect(fa, xa) >= tol]
        if not active.size:
            break

    f, field, n, c = _contact_map(x, order, eps, bulk_vec, gamma)
    contact = c * n
    map_defect = _map_defect(f, x)
    # Four-region stationarity; the contact self-consistency defect
    # |Lambda_b - <sigma_plus>| is the map defect itself.
    stationarity = np.maximum(
        _commutator_norm(_axis(order, eps), bulk_vec), _commutator_norm(n, contact)
    ).max(axis=0)
    return NessSolution(
        points=points,
        lambda_bulk=lam,
        Lambda_b=x,
        field=field,
        mu_t=np.sqrt(_dot(n, n)),
        axis=n,
        contact=contact,
        residual=stationarity + map_defect,
        iterations=iterations,
        converged=map_defect < tol,
    )


def solve_ness(params, damping=1.0, tol=NESS_CHANGE_TOL, max_iter=100_000, seed=None):
    """Solve the junction fixed point at one point: :func:`solve_batch` of one.

    Undamped by default, from the bulk order parameters or a caller
    seed (for branch exploration).  Never raises on non-convergence:
    the solution carries ``converged``, the steady-state ``residual``
    and the ``iterations`` taken instead.
    """
    return solve_batch([params], damping, tol, max_iter, seed)[0]


def boundary_hamiltonian(region, params, Lambda_b_I=0j, Lambda_b_II=0j):
    """Effective one-site Hamiltonian of the given region.

    Interior regions (``I_a``, ``II_a``) see only their bulk field, for
    any gamma.  Contact regions (``I_b``, ``II_b``) see their bulk field
    plus gamma times the opposite contact order parameter.
    """
    if region not in REGIONS:
        raise ValueError(f"unknown region {region!r}, expected one of {REGIONS}")
    bulk = params.bulk_I if region.startswith("I_") else params.bulk_II
    lam = gap_root(bulk.epsilon, bulk.beta)[0]
    return _region_hamiltonian(region, params, lam, Lambda_b_I, Lambda_b_II)


def _region_hamiltonian(region, params, lam, Lambda_b_I, Lambda_b_II):
    """:func:`boundary_hamiltonian` with the region's bulk gap ``lam`` given."""
    if region.startswith("I_"):
        bulk, other = params.bulk_I, Lambda_b_II
    else:
        bulk, other = params.bulk_II, Lambda_b_I
    field = lam * cmath.exp(1j * bulk.phi)
    if region.endswith("_b"):
        field += params.gamma * complex(other)
    return effective_hamiltonian(bulk.epsilon, field)


def ness_map(guess, params):
    """One self-consistency update of the contact order parameters.

    Builds the contact fields from the guessed (Lambda_b_I,
    Lambda_b_II), dephases each plate's bulk state in them, and reads
    back <sigma_plus>.  Fixed points are junction steady states.
    """
    _, order, eps, bulk_vec, gamma = _plates([params])
    x = np.array([[complex(guess[0])], [complex(guess[1])]])
    f = _contact_map(x, order, eps, bulk_vec, gamma)[0]
    return (complex(f[0, 0]), complex(f[1, 0]))


def closed_form_rhs(guess, params):
    """Closed rational form of the self-consistency right-hand side.

    Valid on the ordered branch, where the bulk state satisfies
    tanh(beta mu) = 2 mu; agrees with :func:`ness_map` to rounding and
    is kept as an independent cross-check of the projection route.
    """
    lb_i, lb_ii = complex(guess[0]), complex(guess[1])
    out = []
    for bulk, other in ((params.bulk_I, lb_ii), (params.bulk_II, lb_i)):
        eps = bulk.epsilon
        lam = gap_root(eps, bulk.beta)[0]
        field = lam * cmath.exp(1j * bulk.phi) + params.gamma * other
        aligned = (cmath.exp(-1j * bulk.phi) * field).real
        numerator = eps * eps + lam * aligned
        out.append(field * numerator / (eps * eps + abs(field) ** 2))
    return (out[0], out[1])


def verify_steady(sol, params=None):
    """Steady-state defect of one point's solution, rebuilt from scratch.

    Sums the worst commutator max-norm [h_x, rho_x] over the four
    regions with the worst contact self-consistency defect
    |Lambda_b - Tr(rho_b sigma_plus)|.  Small only for genuine steady
    states: perturbing a converged Lambda_b by 1e-3 pushes this above
    1e-5 immediately.  This is the 2x2 matrix reference for the Bloch
    form that :func:`solve_batch` reports as ``residual``.
    """
    p = params if params is not None else sol.params
    gap_i, gap_ii = solve_gap(p.bulk_I), solve_gap(p.bulk_II)
    lam_b = (sol.Lambda_b_I, sol.Lambda_b_II)
    regions = (
        (_region_hamiltonian("I_a", p, gap_i.lam, *lam_b), gap_i.rho),
        (_region_hamiltonian("II_a", p, gap_ii.lam, *lam_b), gap_ii.rho),
        (_region_hamiltonian("I_b", p, gap_i.lam, *lam_b), sol.rho_b_I),
        (_region_hamiltonian("II_b", p, gap_ii.lam, *lam_b), sol.rho_b_II),
    )
    worst_comm = max(spin.max_abs(spin.commutator(h, rho)) for h, rho in regions)
    defect_i = abs(sol.Lambda_b_I - spin.expectation(sol.rho_b_I, spin.SIGMA_PLUS))
    defect_ii = abs(sol.Lambda_b_II - spin.expectation(sol.rho_b_II, spin.SIGMA_PLUS))
    return float(worst_comm + max(defect_i, defect_ii))
