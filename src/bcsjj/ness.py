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

:func:`solve_batch` finds this fixed point by Newton steps, with the
map's Jacobian in closed form.  Its kernel is written once, in real
arithmetic with only ``+ - * /`` and ``sqrt`` on each plate's real and
imaginary parts, read from one operand table.  That table is gathered
from the seven inputs held as columns (:func:`_plate_rows`), each a list
over the points or one number that every point shares; a plate whose
columns a sweep holds fixed takes its gap root, Bloch scale and order
parameter once.  Exactly one point runs on Python floats, any other
number in one masked loop over ``(2, N)`` arrays of plate rows; both
round alike, fail alike (every maximum propagates NaN, so a
defect turned NaN stops a point, unconverged; a NaN's sign may differ) and
print no warning on overflow.  Seeds must be finite and epsilon^3 nonzero.
The result is one :class:`NessSolution` holding the solver's arrays
with a trailing point axis; :func:`solve_ness` is ``solve_batch([params])[0]``.
A lone point's fields stay Python numbers until :func:`solve_batch` packs
them, so :mod:`bcsjj.sweep` builds a lone point's row without numpy.
2x2 matrices (the contact states ``rho_b_*``) are built only when read.

The same fixed point has a closed rational form (used as a
cross-check, never as the defining construction):

    Lambda_b_I = field_I * (eps_I^2 + lam_I * Re(exp(-i phi_I) field_I))
                 / (eps_I^2 + |field_I|^2)

and symmetrically for II, with the contact phase locking onto
arg(field).
"""

import cmath
import math
import os
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass, fields, replace

from ._numpy import np
from .constants import NESS_CHANGE_TOL
from .equilibrium import BulkParams, effective_hamiltonian, gap_root
from .spin import _from_bloch

REGIONS = ("I_a", "I_b", "II_b", "II_a")

# a junction point's seven inputs, in the order of the solver's input columns
POINT_FIELDS = ("epsilon_I", "epsilon_II", "beta_I", "beta_II", "gamma", "phi_I", "phi_II")


class WeakContactWarning(UserWarning):
    """gamma is not small against the plates' epsilon."""


def warn_strong_contact(eps, gamma):
    """One WeakContactWarning for the points with |gamma| > 0.1 min(epsilon).

    Reads the plate table: ``eps`` the pair of epsilon lists (plate I,
    plate II) and ``gamma`` the list of couplings.  Names the worst point,
    the first with the largest |gamma| / min(epsilon), and how many of the
    points are over the bound.  The warning points at the first caller
    outside bcsjj.
    """
    eps_min = list(map(min, *eps))
    over = [k for k, g in enumerate(gamma) if abs(g) > 0.1 * eps_min[k]]
    if not over:
        return
    worst = max(over, key=lambda k: abs(gamma[k]) / eps_min[k])
    count = f" ({len(over)} of {len(gamma)} points)" if len(gamma) > 1 else ""
    warnings.warn(
        f"gamma = {gamma[worst]} is not small against min(epsilon) = "
        f"{eps_min[worst]}{count}; the junction treatment assumes a weak contact",
        WeakContactWarning,
        stacklevel=_outside_stacklevel(),
    )


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _outside_stacklevel():
    """The ``stacklevel`` that names the first frame outside bcsjj (or
    ``python -m bcsjj``'s ``__main__``), for a warning issued by this
    function's caller: the default filter then shows it once per call
    site in the user's code, not once per bcsjj line."""
    frame, level = sys._getframe(2), 2
    while (
        frame.f_back is not None
        and frame.f_code.co_filename.startswith(_PACKAGE_DIR)
        and frame.f_globals.get("__name__") != "__main__"
    ):
        frame, level = frame.f_back, level + 1
    return level


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
    lambda_bulk: "numpy.ndarray"
    Lambda_b: "numpy.ndarray"
    field: "numpy.ndarray"
    mu_t: "numpy.ndarray"
    axis: "numpy.ndarray"
    contact: "numpy.ndarray"
    residual: "numpy.ndarray"
    iterations: "numpy.ndarray"
    converged: "numpy.ndarray"

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


def _commutator_norm(n, v, sqrt, maximum):
    """Entrywise max-norm of [n.sigma, v.sigma] = 2i (n x v).sigma."""
    cx = n[1] * v[2] - n[2] * v[1]
    cy = n[2] * v[0] - n[0] * v[2]
    cz = n[0] * v[1] - n[1] * v[0]
    return 2.0 * maximum(abs(cz), sqrt(cx * cx + cy * cy))


def _modulus(re, im, sqrt):
    """|re + i im|, rounded alike on floats and arrays (unlike hypot)."""
    return sqrt(re * re + im * im)


def _nan_max(a, b):
    """max(a, b) of two floats, NaN if either is NaN, as np.maximum."""
    return a if a >= b or a != a else b


class _BulkScales(dict):
    """A plate's bulk gap and Bloch scale s = -tanh(beta |n|) / (2 |n|),
    |n| = hypot(epsilon, gap), by (epsilon, beta); the bare gap root runs
    once per key.  It rejects a plate whose epsilon^3 underflows to 0 (the
    contact map divides by epsilon^2 + |F|^2, the commutator by mu_t^3)."""

    def __missing__(self, key):
        if key[0] * key[0] * key[0] == 0.0:
            raise ValueError(f"junction epsilon = {key[0]} is too small: its cube underflows to 0")
        gap = gap_root(*key)[0]
        norm = math.hypot(key[0], gap)
        value = self[key] = (gap, -0.5 * math.tanh(key[1] * norm) / norm)
        return value


def _columns(points):
    """The seven inputs of a sequence of JunctionParams as columns in
    ``POINT_FIELDS`` order: lists over the points, or a lone point's seven
    numbers."""
    if len(points) == 1:
        return _inputs(points[0])
    bulk_I, bulk_II = [p.bulk_I for p in points], [p.bulk_II for p in points]
    return (
        [b.epsilon for b in bulk_I], [b.epsilon for b in bulk_II],
        [b.beta for b in bulk_I], [b.beta for b in bulk_II],
        [p.gamma for p in points], [b.phi for b in bulk_I], [b.phi for b in bulk_II],
    )


def _inputs(params):
    """One point's seven inputs in ``POINT_FIELDS`` order: the columns of a
    lone point, each fixed."""
    bulk_I, bulk_II = params.bulk_I, params.bulk_II
    return (
        bulk_I.epsilon, bulk_II.epsilon, bulk_I.beta, bulk_II.beta,
        params.gamma, bulk_I.phi, bulk_II.phi,
    )


def _full(column, n):
    """A column's values at n points: a list as it is, and a fixed column,
    one number shared by every point, that number n times."""
    return column if isinstance(column, list) else [column] * n


def _plate_rows(columns, n):
    """Bulk data of both plates at n points, as Python numbers.

    ``columns`` holds the seven inputs in ``POINT_FIELDS`` order, each a
    list over the points or one number fixed at every point (a sweep
    varies one).  Returns the bulk gaps, the bulk order parameters, the
    epsilons and the bulk Bloch scales s, each a pair of lists (plate I,
    plate II) over the points, and the list of couplings: the one operand
    table that :func:`_operands` reads.  The bare gap root runs once per
    distinct (epsilon, beta) plate, plate I first and each plate in point
    order.  A plate whose epsilon and beta are fixed takes its gap and
    scale once, and its order parameter ``cmath.rect(gap, phi)`` too where
    phi is fixed; the per-point work is only where the plate varies.
    """
    eps_I, eps_II, beta_I, beta_II, gamma, phi_I, phi_II = columns
    table = _BulkScales()
    rows = []
    for eps, beta, phi in ((eps_I, beta_I, phi_I), (eps_II, beta_II, phi_II)):
        if isinstance(eps, list) or isinstance(beta, list):
            data = list(map(table.__getitem__, zip(_full(eps, n), _full(beta, n))))
            lam, scale = [gap for gap, _ in data], [s for _, s in data]
            order = list(map(cmath.rect, lam, _full(phi, n)))
        else:
            gap, s = table[eps, beta]
            lam, scale = [gap] * n, [s] * n
            order = list(map(cmath.rect, lam, phi)) if isinstance(phi, list) else [cmath.rect(gap, phi)] * n
        rows.append((lam, order, _full(eps, n), scale))
    lam, order, eps, scale = zip(*rows)
    return lam, order, eps, scale, _full(gamma, n)


def _operands(order_r, order_i, eps, scale, gamma):
    """A plate's bulk Bloch vector a = s (-Re order, -Im order, eps) and its
    :func:`_contact_map` operands (order, gamma, m = -(a_x + i a_y), a_z eps,
    eps^2) in (Re, Im) parts, on one plate's floats or on ``(2, N)`` rows."""
    m_r, m_i, a_z = scale * order_r, scale * order_i, scale * eps
    return (-m_r, -m_i, a_z), (order_r, order_i, gamma, m_r, m_i, a_z * eps, eps * eps)


def _plate_arrays(rows):
    """The plate table of :func:`_plate_rows` as ``(2, N)`` arrays.

    Returns the bulk gaps, the bulk order parameters, the epsilons, the
    ``(3, 2, N)`` bulk Bloch vectors, the ``(N,)`` couplings and the
    contact map's operands of :func:`_operands`.  A huge plate's operands
    (eps^2) may overflow, so numpy's overflow and invalid warnings are off
    here, as on Python floats, for every caller of the gather.
    """
    lam, order, eps, scale, gamma = rows
    order, gamma = np.array(order, dtype=complex), np.array(gamma, dtype=float)
    eps, scale = np.array(eps, dtype=float), np.array(scale, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        bulk_vec, plate = _operands(
            order.real.copy(), order.imag.copy(), eps, scale, np.array((gamma, gamma))
        )
    return np.array(lam, dtype=float), order, eps, np.array(bulk_vec), gamma, plate


def _plates(points):
    """:func:`_plate_arrays` of a sequence of JunctionParams: the gather of
    the 2x2 references."""
    return _plate_arrays(_plate_rows(_columns(points), len(points)))


def _contact_map(xo_r, xo_i, order_r, order_i, gamma, m_r, m_i, az_eps, eps_sq):
    """<sigma_plus> f of one plate's contact state at the other plate's
    contact order parameter x_o.

    Returns f as (Re f, Im f) with the contact field F = order + gamma x_o,
    the factor c = (a.n) / |n|^2 that makes c n the contact Bloch vector,
    and |n|^2, for the axis n = (-Re F, -Im F, eps); a.n = Re(F conj(m)) +
    a_z eps, and f = -c F.  A field whose square overflows gives an
    infinite |n|^2 and a NaN c: the factor |n|^2 / |n|^2 is exactly 1 for
    every finite |n|^2, and NaN for an infinite one.
    """
    field_r = order_r + gamma * xo_r
    field_i = order_i + gamma * xo_i
    norm_sq = field_r * field_r + field_i * field_i + eps_sq
    c = (field_r * m_r + field_i * m_i + az_eps) / norm_sq * (norm_sq / norm_sq)
    neg_c = -c
    return neg_c * field_r, neg_c * field_i, field_r, field_i, c, norm_sq


def _linearize(x_r, x_i, xo_r, xo_i, *plate):
    """One plate's map defect d = f(x) - x and its block B of Df.

    f reads x only through F = order + gamma x_o.  On (Re, Im) parts,
    df/dF = -c I - F w^T / |n|^2 with w = m - 2 c F = m + 2 f, so the block
    of Df acting on the other plate's dx_o is B = gamma df/dF.  Returns d
    and then B row by row, six real numbers or arrays.
    """
    _, _, gamma, m_r, m_i, _, _ = plate
    f_r, f_i, field_r, field_i, c, norm_sq = _contact_map(xo_r, xo_i, *plate)
    scale = -gamma / norm_sq
    s_r = scale * field_r
    s_i = scale * field_i
    w_r = m_r + f_r + f_r
    w_i = m_i + f_i + f_i
    gc = gamma * c
    return f_r - x_r, f_i - x_i, s_r * w_r - gc, s_r * w_i, s_i * w_r, s_i * w_i - gc


def _newton_delta(d_r, d_i, b00, b01, b10, b11, do_r, do_i, o00, o01, o10, o11, where):
    """One plate's Newton update delta, from its (d, B) and the other
    plate's (d_o, B_o), B_o's entries named o.

    The updates solve delta = d + B delta_o and delta_o = d_o + B_o delta,
    so (I - B B_o) delta = d + B d_o, a real 2x2 system solved in closed
    form.  Where I - B B_o is exactly singular (its determinant is 0) the
    update is half the map step, d / 2, which breaks the two-cycle of the
    plain map at a symmetric point such as B = B_o = I.  ``where`` is
    :func:`_pick` on floats and ``numpy.where`` on arrays.
    """
    r_r = d_r + (b00 * do_r + b01 * do_i)
    r_i = d_i + (b10 * do_r + b11 * do_i)
    # I - B B_o = [[m00, -p01], [-p10, m11]]
    m00 = 1.0 - (b00 * o00 + b01 * o10)
    p01 = b00 * o01 + b01 * o11
    p10 = b10 * o00 + b11 * o10
    m11 = 1.0 - (b10 * o01 + b11 * o11)
    det = m00 * m11 - p01 * p10
    singular = det == 0.0
    det = det + singular  # 1 where singular, so nothing divides by 0
    return (
        where(singular, 0.5 * d_r, (m11 * r_r + p01 * r_i) / det),
        where(singular, 0.5 * d_i, (m00 * r_i + p10 * r_r) / det),
    )


def _pick(condition, a, b):
    """``numpy.where`` of one float condition."""
    return a if condition else b


def _contact_state(x_r, x_i, xo_r, xo_i, bulk_vec, eps, plate, sqrt, maximum):
    """One plate's solution data at its contact order parameter x.

    Returns the contact field (Re, Im), mu_t = |n|, the contact axis n and
    Bloch vector c n as 3-tuples, the map defect |f(x) - x|, and the
    stationarity of the bulk and contact states, the larger commutator
    norm [n.sigma, v.sigma] of the two.
    """
    f_r, f_i, field_r, field_i, c, norm_sq = _contact_map(xo_r, xo_i, *plate)
    n = (-field_r, -field_i, eps)
    contact = (c * n[0], c * n[1], c * n[2])
    stationarity = maximum(
        _commutator_norm((-plate[0], -plate[1], eps), bulk_vec, sqrt, maximum),
        _commutator_norm(n, contact, sqrt, maximum),
    )
    defect = _modulus(f_r - x_r, f_i - x_i, sqrt)
    return field_r, field_i, sqrt(norm_sq), n, contact, defect, stationarity


def _complex(re, im):
    """The complex array re + i im, bit for bit."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def solve_batch(points, tol=NESS_CHANGE_TOL, max_iter=100_000, seed=None):
    """Solve the junction fixed point at every point of a sequence.

    Takes Newton steps (:func:`_linearize`, :func:`_newton_delta`) on the
    contact order parameters of all points at once, from the bulk order
    parameters or a caller ``seed`` (Lambda_b_I, Lambda_b_II) shared by
    all points.  A point stops after the first step whose map defect
    max |f(x) - x| was not at or above ``tol`` (below it, or NaN), that
    step applied, or after ``max_iter`` steps, exactly as it would alone;
    it is ``converged`` when the defect of the returned x is below
    ``tol``.  Never raises on non-convergence; warns once, with
    :class:`WeakContactWarning`, if some contact is not weak.  Raises
    ValueError on a ``max_iter`` below 1, a non-finite ``seed``, or a
    plate whose epsilon^3 underflows to 0, before any warning.  One point
    runs on Python floats, any other number on ``(2, N)`` arrays.
    """
    points = tuple(points)
    solution = _solve(_columns(points), len(points), tol, max_iter, seed, points)
    return _packed(solution) if isinstance(solution, _PointSolution) else solution


def _solve(columns, n, tol, max_iter, seed, points=None):
    """:func:`solve_batch` of n points given as :func:`_plate_rows` columns:
    its input checks, the plate table (which rejects an epsilon whose cube
    underflows), the solve and the warning, in that order.

    Returns one point as a :class:`_PointSolution` of Python numbers and
    any other number of points as a :class:`NessSolution`, with ``points``
    as its ``points``.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    max_iter = int(max_iter)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if seed is not None:
        seed = (complex(seed[0]), complex(seed[1]))
        if not (cmath.isfinite(seed[0]) and cmath.isfinite(seed[1])):
            raise ValueError(f"seed must be finite, got {seed}")
    rows = _plate_rows(columns, n)
    solution = (_solve_point if n == 1 else _solve_rows)(rows, tol, max_iter, seed, points)
    _, _, eps, _, gamma = rows
    warn_strong_contact(eps, gamma)
    return solution


# One point's NessSolution fields as Python numbers: each (2, ...) array a
# pair (plate I, plate II), each (3, 2, ...) array three such pairs, and
# residual, iterations and converged plain numbers.
_PointSolution = namedtuple("_PointSolution", [f.name for f in fields(NessSolution)])


def _packed(point):
    """A :class:`_PointSolution` as a :class:`NessSolution` of one point."""
    return NessSolution(point.points, *(np.array(value)[..., None] for value in point[1:]))


def _solve_point(rows, tol, max_iter, seed, points):
    """:func:`solve_batch` of one point's plate table, on Python floats: a
    :class:`_PointSolution`."""
    lam, order, eps, scale, (gamma,) = rows
    (bulk_I, plate_I), (bulk_II, plate_II) = (
        _operands(z.real, z.imag, e, s, gamma) for (z,), (e,), (s,) in zip(order, eps, scale)
    )
    x_I, x_II = seed or (order[0][0], order[1][0])
    x0r, x0i, x1r, x1i = x_I.real, x_I.imag, x_II.real, x_II.imag
    for step in range(1, max_iter + 1):
        own = _linearize(x0r, x0i, x1r, x1i, *plate_I)
        other = _linearize(x1r, x1i, x0r, x0i, *plate_II)
        dx0r, dx0i = _newton_delta(*own, *other, _pick)
        dx1r, dx1i = _newton_delta(*other, *own, _pick)
        x0r, x0i, x1r, x1i = x0r + dx0r, x0i + dx0i, x1r + dx1r, x1i + dx1i
        if not _nan_max(_modulus(*own[:2], math.sqrt), _modulus(*other[:2], math.sqrt)) >= tol:
            break
    state_I = _contact_state(x0r, x0i, x1r, x1i, bulk_I, eps[0][0], plate_I, math.sqrt, _nan_max)
    state_II = _contact_state(x1r, x1i, x0r, x0i, bulk_II, eps[1][0], plate_II, math.sqrt, _nan_max)
    field_r, field_i, mu_t, n, contact, map_defect, stationarity = zip(state_I, state_II)
    map_defect = _nan_max(*map_defect)
    return _PointSolution(
        points=points,
        lambda_bulk=(lam[0][0], lam[1][0]),
        Lambda_b=(complex(x0r, x0i), complex(x1r, x1i)),
        field=(complex(field_r[0], field_i[0]), complex(field_r[1], field_i[1])),
        mu_t=mu_t,
        axis=tuple(zip(*n)),
        contact=tuple(zip(*contact)),
        residual=_nan_max(*stationarity) + map_defect,
        iterations=step,
        converged=map_defect < tol,
    )


def _solve_rows(rows, tol, max_iter, seed, points):
    """:func:`solve_batch` of a plate table on ``(2, N)`` float arrays, one
    row per plate.

    One masked loop: each step is computed at every point (the other
    plate's operands as contiguous swapped copies) and taken by the points
    still ``going``.  Stopped points, and the operands of huge plates, may
    overflow, so numpy's overflow and invalid warnings are off, as on
    Python floats.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lam, _, eps, bulk_vec, gamma, plate = _plate_arrays(rows)
        x_r, x_i = plate[0].copy(), plate[1].copy()
        if seed is not None:
            x_r[0], x_i[0], x_r[1], x_i[1] = seed[0].real, seed[0].imag, seed[1].real, seed[1].imag
        iterations = np.full(len(gamma), max_iter)
        going = np.ones(len(gamma), dtype=bool)
        for step in range(1, max_iter + 1):
            own = np.array(_linearize(x_r, x_i, x_r[::-1].copy(), x_i[::-1].copy(), *plate))
            delta_r, delta_i = _newton_delta(*own, *own[:, ::-1].copy(), np.where)
            x_r = np.where(going, x_r + delta_r, x_r)
            x_i = np.where(going, x_i + delta_i, x_i)
            defect = _modulus(own[0], own[1], np.sqrt)
            going_on = np.maximum(defect[0], defect[1]) >= tol
            iterations[going & ~going_on] = step
            going &= going_on
            if not going.any():
                break
        field_r, field_i, mu_t, n, contact, map_defect, stationarity = _contact_state(
            x_r, x_i, x_r[::-1].copy(), x_i[::-1].copy(), bulk_vec, eps, plate, np.sqrt, np.maximum
        )
    map_defect = np.maximum(map_defect[0], map_defect[1])
    return NessSolution(
        points=points,
        lambda_bulk=lam,
        Lambda_b=_complex(x_r, x_i),
        field=_complex(field_r, field_i),
        mu_t=mu_t,
        axis=np.array(n),
        contact=np.array(contact),
        residual=np.maximum(stationarity[0], stationarity[1]) + map_defect,
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
    _, order, eps, _, gamma, _ = _plates(points)
    lam_b = np.array(np.broadcast_arrays(Lambda_b_I, Lambda_b_II, gamma)[:2], dtype=complex)
    h = _region_hamiltonians(order, eps, gamma, lam_b)[("I_a", "II_a", "I_b", "II_b").index(region)]
    return h[0] if single else h


def ness_map(guess, params):
    """One self-consistency update of the contact order parameters.

    Builds the contact fields from the guessed (Lambda_b_I,
    Lambda_b_II), dephases each plate's bulk state in them, and reads
    back <sigma_plus>.  Fixed points are junction steady states.  Runs
    the solver's own kernel on Python floats, so its bits are the
    solver's map bits.
    """
    _, order, eps, scale, (gamma,) = _plate_rows(_inputs(params), 1)
    (_, plate_I), (_, plate_II) = (
        _operands(z.real, z.imag, e, s, gamma) for (z,), (e,), (s,) in zip(order, eps, scale)
    )
    x_I, x_II = complex(guess[0]), complex(guess[1])
    f_I = _contact_map(x_II.real, x_II.imag, *plate_I)
    f_II = _contact_map(x_I.real, x_I.imag, *plate_II)
    return complex(f_I[0], f_I[1]), complex(f_II[0], f_II[1])


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
    order parameter as Re(conj(order) field).  Where eps^2 or |field|^2
    overflows, nothing warns, as in the solver.
    """
    points, single = _point_axis(params)
    x = np.asarray(guess, dtype=complex).reshape(2, len(points))
    _, order, eps, _, gamma, _ = _plates(points)
    with np.errstate(over="ignore", invalid="ignore"):
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
    _, order, eps, bulk_vec, gamma, _ = _plates(points)
    hamiltonians = _region_hamiltonians(order, eps, gamma, lam_b)
    states = _from_bloch(0.5, np.concatenate((bulk_vec, sol.contact.reshape(3, 2, n_points)), axis=1))
    commutators = hamiltonians @ states - states @ hamiltonians
    worst_comm = np.hypot(commutators.real, commutators.imag).max(axis=(0, 2, 3))
    # Tr(rho sigma_plus) is the (1, 0) entry of rho; rows 2 and 3 are the contacts
    defect = lam_b - states[2:, :, 1, 0]
    worst = worst_comm + np.hypot(defect.real, defect.imag).max(axis=0)
    return float(worst[0]) if single else worst
