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

:func:`solve_batch` finds this fixed point on arrays of junction points
by Newton steps, with the map's Jacobian in closed form, and returns one
:class:`NessSolution` holding the solver's arrays with a trailing point
axis; :func:`solve_ness` is ``solve_batch([params])[0]``.  2x2 matrices
(the contact states ``rho_b_*``) are built only when read.

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

from .constants import NESS_CHANGE_TOL
from .equilibrium import BulkParams, effective_hamiltonian, gap_root
from .spin import _from_bloch

REGIONS = ("I_a", "I_b", "II_b", "II_a")


class WeakContactWarning(UserWarning):
    """gamma is not small against the plates' epsilon."""


def warn_strong_contact(points):
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
        stacklevel=3,  # the caller of solve_batch
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
    ``iterations`` counts the solver's Newton steps, up to and including
    the one whose map defect met the stop rule.

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


def _map_constants(bulk_vec, eps):
    """The contact map's per-point constants conj(m), m = -(a_x + i a_y), a_z eps and eps^2."""
    return bulk_vec[1] * 1j - bulk_vec[0], bulk_vec[2] * eps, eps * eps


def _contact_map(x, order, gamma, conj_m, az_eps, eps_sq):
    """<sigma_plus> of the contact states for contact order parameters x.

    Returns it with the contact fields F, F conj(m), the factor c = (a.n) / |n|^2
    that makes c n the contact Bloch vector, and |n|^2, for the axes
    n = (-Re F, -Im F, eps); a.n = Re(F conj(m)) + a_z eps.
    """
    field = order + gamma * x[::-1]
    fm = field * conj_m
    norm_sq = (field * field.conj()).real + eps_sq
    c = (fm.real + az_eps) / norm_sq
    return -c * field, field, fm, c, norm_sq


def _newton_step(x, order, gamma, conj_m, az_eps, eps_sq, m):
    """One Newton step on x - f(x): returns d = f(x) - x and adds to x, in
    place, the delta that solves (I - Df) delta = d.

    A plate's f reads x only through F = order + gamma x_other, so Df maps
    the other plate's dx to p dx + q conj(dx), with p = -(gamma/2)
    (F conj(m) + 2 c eps^2) / |n|^2 and q = -(gamma/2) F (m - 2 c F) / |n|^2.
    Eliminating the other plate's delta leaves alpha delta - beta conj(delta)
    = r in each row (``[::-1]`` swaps the plates), solved in closed form; a
    singular I - Df has its determinant read as 1.
    """
    f, field, fm, c, norm_sq = _contact_map(x, order, gamma, conj_m, az_eps, eps_sq)
    d = f - x
    scale = -0.5 * gamma / norm_sq
    p = scale * (fm + (c + c) * eps_sq)
    q = scale * field * (m + f + f)
    p_o, q_o = p[::-1], q[::-1]
    alpha = 1.0 - (p * p_o + q * q_o.conj())
    beta = p * q_o + q * p_o.conj()
    r = d + p * d[::-1] + q * d[::-1].conj()
    alpha_c = alpha.conj()
    det = (alpha * alpha_c - beta * beta.conj()).real
    det[det == 0.0] = 1.0
    x += (alpha_c * r + beta * r.conj()) / det
    return d


def _map_defect(d):
    """max |d| over both plates, per point."""
    return np.maximum(*np.abs(d))


def solve_batch(points, tol=NESS_CHANGE_TOL, max_iter=100_000, seed=None):
    """Solve the junction fixed point at every point of a sequence.

    Takes Newton steps (:func:`_newton_step`) on the contact order
    parameters of all points at once, from the bulk order parameters or
    a caller ``seed`` (Lambda_b_I, Lambda_b_II) shared by all points.  A
    point stops after the first step whose map defect max |f(x) - x| was
    below ``tol``, that step applied, or after ``max_iter`` steps, exactly
    as it would alone; it is ``converged`` when the defect of the returned
    x is below ``tol``.  ``max_iter`` must be at least 1.  Never raises
    on non-convergence; warns once, with :class:`WeakContactWarning`, if
    some contact is not weak.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    max_iter = int(max_iter)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    points = tuple(points)
    warn_strong_contact(points)
    lam, order, eps, bulk_vec, gamma = _plates(points)
    constants = _map_constants(bulk_vec, eps)
    x = order.astype(complex)
    if seed is not None:
        x[0], x[1] = complex(seed[0]), complex(seed[1])
    iterations = np.zeros(len(points), dtype=int)
    # The points still iterating, by index, and their slices of the map's
    # inputs.  Until a point stops these are the full arrays, and x is
    # updated in place; the working set is compacted only on a step
    # where some point stops, after writing back the points that stop.
    left = np.arange(len(points))
    work = (x, order, gamma, *constants, constants[0].conj())  # ..., conj(m), a_z eps, eps^2, m
    for step in range(1, max_iter + 1):
        xw = work[0]
        d = _newton_step(*work)
        go_on = _map_defect(d) >= tol
        if step == max_iter:  # the cap stops every point left
            go_on[:] = False
        if left.size and go_on.all():
            continue
        stop = ~go_on
        iterations[left[stop]] = step
        if xw is not x:
            x[:, left[stop]] = xw[:, stop]
        if not go_on.any():
            break
        left = left[go_on]
        work = tuple(v[..., go_on] for v in work)

    f, field, _, c, norm_sq = _contact_map(x, order, gamma, *constants)
    n = _axis(field, eps)
    contact = c * n
    map_defect = _map_defect(f - x)
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
        mu_t=np.sqrt(norm_sq),
        axis=n,
        contact=contact,
        residual=stationarity + map_defect,
        iterations=iterations,
        converged=map_defect < tol,
    )


def solve_ness(params, tol=NESS_CHANGE_TOL, max_iter=100_000, seed=None):
    """Solve the junction fixed point at one point: :func:`solve_batch` of one.

    Starts from the bulk order parameters or a caller seed (for branch
    exploration); the solution carries ``converged``, the steady-state
    ``residual`` and the ``iterations`` taken.
    """
    return solve_batch([params], tol, max_iter, seed)[0]


def _region_hamiltonians(order, eps, gamma, lam_b):
    """``(4, N, 2, 2)`` Hamiltonians of the regions I_a, II_a (bulk field) and I_b,
    II_b (bulk field plus gamma times the other plate's contact order parameter)."""
    field = np.concatenate((order, order + gamma * lam_b[::-1]))
    return effective_hamiltonian(np.concatenate((eps, eps)), field)


def boundary_hamiltonian(region, params, Lambda_b_I=0j, Lambda_b_II=0j):
    """Effective one-site Hamiltonian of the given region.

    Interior regions (``I_a``, ``II_a``) see only their bulk field, for
    any gamma.  Contact regions (``I_b``, ``II_b``) see their bulk field
    plus gamma times the opposite contact order parameter.  Elementwise:
    one :class:`JunctionParams` gives the 2x2 matrix, and N points with
    ``(N,)`` order parameters the ``(N, 2, 2)`` stack, a point's matrix
    the same bits either way.  The plates come from the solver's gather,
    which runs the bare gap root once per distinct (epsilon, beta).
    """
    if region not in REGIONS:
        raise ValueError(f"unknown region {region!r}, expected one of {REGIONS}")
    points, single = _point_axis(params)
    _, order, eps, _, gamma = _plates(points)
    lam_b = np.array(np.broadcast_arrays(Lambda_b_I, Lambda_b_II, gamma)[:2], dtype=complex)
    h = _region_hamiltonians(order, eps, gamma, lam_b)[("I_a", "II_a", "I_b", "II_b").index(region)]
    return h[0] if single else h


def ness_map(guess, params):
    """One self-consistency update of the contact order parameters.

    Builds the contact fields from the guessed (Lambda_b_I,
    Lambda_b_II), dephases each plate's bulk state in them, and reads
    back <sigma_plus>.  Fixed points are junction steady states.
    """
    _, order, eps, bulk_vec, gamma = _plates([params])
    x = np.array([[complex(guess[0])], [complex(guess[1])]])
    f = _contact_map(x, order, gamma, *_map_constants(bulk_vec, eps))[0]
    return (complex(f[0, 0]), complex(f[1, 0]))


def _point_axis(points):
    """(points as a tuple, whether a lone JunctionParams was given)."""
    if isinstance(points, JunctionParams):
        return (points,), True
    return tuple(points), False


def closed_form_rhs(guess, params):
    """Closed rational form of the self-consistency right-hand side.

    Valid on the ordered branch, where the bulk state satisfies
    tanh(beta mu) = 2 mu; agrees with :func:`ness_map` to rounding and
    is kept as an independent cross-check of the projection route.

    Elementwise over points: ``guess`` (Lambda_b_I, Lambda_b_II) and one
    :class:`JunctionParams` give the pair of values, and a ``(2, N)``
    guess with N points gives a ``(2, N)`` array.  One point runs as a
    batch of one, so a point's value is the same bits either way.  The
    plates come from the solver's gather (one bare gap root per distinct
    (epsilon, beta)), and lam Re(exp(-i phi) field) is read off the bulk
    order parameter as Re(conj(order) field).
    """
    points, single = _point_axis(params)
    x = np.asarray(guess, dtype=complex).reshape(2, len(points))
    _, order, eps, _, gamma = _plates(points)
    field = order + gamma * x[::-1]
    aligned = (order.conj() * field).real
    eps_sq = eps * eps
    field_abs = np.hypot(field.real, field.imag)
    out = field * (eps_sq + aligned) / (eps_sq + field_abs * field_abs)
    return (complex(out[0, 0]), complex(out[1, 0])) if single else out


def verify_steady(sol):
    """Steady-state defect of a solution, checked on 2x2 matrices.

    Sums the worst commutator max-norm [h_x, rho_x] over the four
    regions with the worst contact self-consistency defect
    |Lambda_b - Tr(rho_b sigma_plus)|.  Small only for genuine steady
    states: perturbing a converged Lambda_b by 1e-3 pushes this above
    1e-5 immediately.  This is the 2x2 matrix reference for the Bloch
    form that :func:`solve_batch` reports as ``residual``.

    Elementwise over the point axis: a batch gives one defect per point
    and one point (``batch[k]``) a float, computed as a batch of one, so
    ``verify_steady(batch)[k] == verify_steady(batch[k])`` bit for bit.
    The states are the solver's Bloch vectors made 2x2: the bulk ones
    from the solver's plate gather (one bare gap root per distinct
    (epsilon, beta)), the contact ones ``sol.contact``.  The Hamiltonians
    are rebuilt from the points and ``sol.Lambda_b``.  Both are
    ``(4, N, 2, 2)`` stacks (regions I_a, II_a, I_b, II_b), and the
    commutators are matrix products.
    """
    points, single = _point_axis(sol.points)
    n_points = len(points)
    lam_b = sol.Lambda_b.reshape(2, n_points)
    _, order, eps, bulk_vec, gamma = _plates(points)
    hamiltonians = _region_hamiltonians(order, eps, gamma, lam_b)
    states = _from_bloch(0.5, np.concatenate((bulk_vec, sol.contact.reshape(3, 2, n_points)), axis=1))
    commutators = hamiltonians @ states - states @ hamiltonians
    worst_comm = np.hypot(commutators.real, commutators.imag).max(axis=(0, 2, 3))
    # Tr(rho sigma_plus) is the (1, 0) entry of rho; rows 2 and 3 are the contacts
    defect = lam_b - states[2:, :, 1, 0]
    worst = worst_comm + np.hypot(defect.real, defect.imag).max(axis=0)
    return float(worst[0]) if single else worst
