"""Named invariant checks over the whole pipeline.

Each check measures a defect on a built-in standard grid and compares
it with a fixed threshold.  The `check` CLI subcommand prints one line
per entry; tests call :func:`run_checks` directly.

Each junction grid is solved by one :func:`~bcsjj.ness.solve_batch`
call, and the observables (current, mode frequencies, commutator
values) run on the whole batch at once.  So do the 2x2 references,
which work elementwise on stacks of 2x2 matrices: the closed form,
:func:`~bcsjj.ness.verify_steady` and the mode dynamics, whose contact
Hamiltonians :func:`~bcsjj.ness.boundary_hamiltonian` rebuilds for the
whole batch, one call per contact row.  Their states come from the
solver's Bloch vectors; the Hamiltonians and commutators are rebuilt as
2x2 matrices, not read off the solver's Bloch algebra.

Nothing is computed twice in a run: the standard grid (three checks)
and the law grid (two) sit in one-entry caches keyed on the frozen
:class:`CheckOptions`, and the three ``finite_n.*`` checks share one
:func:`~bcsjj.lattice.finite_n_report` per lattice size.
"""

import functools
import math
from dataclasses import dataclass, replace

from . import lattice, observables, perturbation, spin
from ._numpy import np
from .constants import (
    FINITE_N_COMMUTATOR_TOL, FINITE_N_CONSERVATION_TOL, FINITE_N_CURRENT_TOL, NESS_CHANGE_TOL,
)
from .equilibrium import BulkParams, critical_beta, gap_map, solve_gap
from .ness import JunctionParams, boundary_hamiltonian, closed_form_rhs, gauge_shift, solve_batch, verify_steady
from .spin import _dot

STANDARD_EPSILONS = (0.2, 0.3)
STANDARD_BETA = 1e4
STANDARD_GAMMAS = (1e-4, 1e-3, 1e-2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    note: str = ""


@dataclass(frozen=True)
class CheckOptions:
    tolerance: float = NESS_CHANGE_TOL
    max_iter: int = 100_000
    memory_cap: int | None = None


def _standard_params(eps, gamma, delta, beta=STANDARD_BETA):
    return JunctionParams(
        bulk_I=BulkParams(eps, beta, delta),
        bulk_II=BulkParams(eps, beta, 0.0),
        gamma=gamma,
    )


def _worst(defects):
    """The largest of ``defects`` as a float, NaN if any is NaN (Python's
    ``max`` drops a NaN that comes after a number)."""
    return float(np.max(defects))


def _solve_all(points, opts):
    return solve_batch(points, tol=opts.tolerance, max_iter=opts.max_iter)


def check_equilibrium_fixed_point(opts):
    defects = []
    for eps in (0.1, 0.2, 0.3, 0.4, 0.45):
        for beta in (5.0, 50.0, STANDARD_BETA):
            p = BulkParams(eps, beta)
            sol = solve_gap(p)
            defects.append(abs(gap_map(sol.lam, p) - sol.lam))
    worst = _worst(defects)
    return CheckResult("equilibrium.fixed_point", worst < 1e-11, worst, 1e-11)


def check_equilibrium_threshold(opts):
    violations = 0
    for eps in (0.1, 0.2, 0.3, 0.4, 0.45):
        bc = critical_beta(eps)
        if not solve_gap(BulkParams(eps, bc * 1.01)).superconducting:
            violations += 1
        if solve_gap(BulkParams(eps, bc * 0.99)).superconducting:
            violations += 1
    for eps in (0.5, 0.7, 1.3):
        if solve_gap(BulkParams(eps, 1e6)).superconducting:
            violations += 1
    return CheckResult(
        "equilibrium.threshold", violations == 0, float(violations), 0.5,
        note="branch openings misplaced" if violations else "",
    )


def check_equilibrium_gauge(opts):
    defects = []
    for eps in STANDARD_EPSILONS:
        reference = solve_gap(BulkParams(eps, STANDARD_BETA, 0.0))
        for phi in (0.4, 2.0, -1.1):
            shifted = solve_gap(BulkParams(eps, STANDARD_BETA, phi))
            defects += [abs(shifted.lam - reference.lam), abs(shifted.mu - reference.mu)]
    worst = _worst(defects)
    return CheckResult("equilibrium.gauge", worst < 1e-13, worst, 1e-13)


@functools.lru_cache(maxsize=1)
def _standard_grid(opts):
    """The 102-point grid (epsilon x gamma x 17 phase biases), solved at once."""
    deltas = np.linspace(-math.pi / 2, math.pi / 2, 17)
    points = [
        _standard_params(eps, gamma, float(delta))
        for eps in STANDARD_EPSILONS
        for gamma in STANDARD_GAMMAS
        for delta in deltas
    ]
    return _solve_all(points, opts)


def check_ness_oracle(opts):
    batch = _standard_grid(opts)
    worst = float(np.abs(closed_form_rhs(batch.Lambda_b, batch.points) - batch.Lambda_b).max())
    return CheckResult("ness.oracle_equivalence", worst < 1e-11, worst, 1e-11)


def check_ness_steady(opts):
    batch = _standard_grid(opts)
    worst = float(verify_steady(batch).max())
    converged = bool(batch.converged.all())
    return CheckResult(
        "ness.steady_state", converged and worst < 1e-12, worst, 1e-12,
        note="" if converged else "solver failed to converge somewhere",
    )


def check_ness_gauge(opts):
    base = _standard_params(0.3, 1e-3, 0.3)
    deltas = np.array([0.7, 2.1, -1.3, 2.0 * math.pi])
    batch = _solve_all([base] + [gauge_shift(base, float(d)) for d in deltas], opts)
    lam_b, shifted = batch.Lambda_b[:, :1], batch.Lambda_b[:, 1:]
    mu_t, shifted_mu_t = batch.mu_t[:, :1], batch.mu_t[:, 1:]
    worst = _worst([
        np.abs(np.abs(shifted) - np.abs(lam_b)).max(),
        np.abs(shifted_mu_t - mu_t).max(),
        np.abs(shifted * np.exp(-1j * deltas) - lam_b).max(),
    ])
    return CheckResult("ness.gauge_covariance", worst < 1e-11, worst, 1e-11)


def check_ness_swap(opts):
    params = JunctionParams(
        bulk_I=BulkParams(0.2, STANDARD_BETA, 0.4),
        bulk_II=BulkParams(0.3, STANDARD_BETA, 0.1),
        gamma=1e-3,
    )
    swapped = replace(params, bulk_I=params.bulk_II, bulk_II=params.bulk_I)
    batch = _solve_all([params, swapped], opts)
    worst = _worst([
        np.abs(batch.Lambda_b[:, 0] - batch.Lambda_b[::-1, 1]).max(),
        np.abs(batch.mu_t[:, 0] - batch.mu_t[::-1, 1]).max(),
    ])
    return CheckResult("ness.swap_symmetry", worst < 1e-12, worst, 1e-12)


def check_ness_phase_locking(opts):
    batch = _standard_grid(opts)
    ordered = batch.Lambda_b != 0.0
    lam_b, field = batch.Lambda_b[ordered], batch.field[ordered]
    distance = np.abs(np.exp(1j * np.angle(lam_b)) - np.exp(1j * np.angle(field)))
    worst = float(distance.max(initial=0.0))
    return CheckResult("ness.phase_locking", worst < 1e-12, worst, 1e-12)


def check_ness_phase_proportionality(opts):
    """How far phi_t_I - phi_t_II strays from the imposed bias."""
    gamma = 1e-3
    deltas = np.linspace(0.1, math.pi / 2 - 0.05, 9)
    batch = _solve_all(
        [_standard_params(eps, gamma, float(d)) for eps in STANDARD_EPSILONS for d in deltas],
        opts,
    )
    observed = np.angle(batch.Lambda_b[0]) - np.angle(batch.Lambda_b[1])
    worst = float(np.abs(observed.reshape(len(STANDARD_EPSILONS), -1) / deltas - 1.0).max())
    return CheckResult(
        "ness.phase_proportionality", worst < 20.0 * gamma, worst, 20.0 * gamma,
        note="contact bias tracks the bulk bias only to O(gamma)",
    )


def check_perturbation_slopes(opts):
    defects = []
    for eps, delta in ((0.3, 0.3), (0.2, 0.8), (0.3, -0.4)):
        params = _standard_params(eps, 1e-3, delta)
        report = perturbation.certify_first_order(params)
        for key, defect in report.derivative_defects.items():
            scale = max(abs(report.slopes_analytic[key]), 1e-3)
            defects.append(defect / scale)
    worst = _worst(defects)
    return CheckResult("perturbation.slopes", worst < 1e-6, worst, 1e-6)


@functools.lru_cache(maxsize=1)
def _law_errors(opts):
    """Worst sup-normalized deviations (sine, cosine) of the current and
    frequency laws over the standard epsilons, solved once for both."""
    gamma = 1e-3
    deltas = np.linspace(-math.pi / 2, math.pi / 2, 33)
    shape = (len(STANDARD_EPSILONS), len(deltas))
    points = [_standard_params(eps, gamma, float(d)) for eps in STANDARD_EPSILONS for d in deltas]
    batch = _solve_all(points, opts)
    currents = observables.josephson_current(batch, gamma).reshape(shape)
    bulks = [solve_gap(BulkParams(eps, STANDARD_BETA)) for eps in STANDARD_EPSILONS]
    lam2 = np.array([[bulk.lam * bulk.lam] for bulk in bulks])
    nu0 = np.array([[2.0 * bulk.mu] for bulk in bulks])
    current_law = -4.0 * gamma * lam2 * np.sin(deltas)
    shift_law = 4.0 * gamma * lam2 * np.cos(deltas) / nu0
    shifts = 2.0 * batch.mu_t[0].reshape(shape) - nu0
    sine_err = np.abs(currents - current_law).max(axis=1) / np.abs(current_law).max(axis=1)
    cosine_err = np.abs(shifts - shift_law).max(axis=1) / np.abs(shift_law).max(axis=1)
    return float(sine_err.max()), float(cosine_err.max())


def check_sine_law(opts):
    worst, _ = _law_errors(opts)
    return CheckResult("observables.sine_law", worst <= 1e-2, worst, 1e-2)


def check_cosine_law(opts):
    _, worst = _law_errors(opts)
    return CheckResult("observables.cosine_law", worst <= 1e-2, worst, 1e-2)


def check_ccr(opts):
    params = _standard_params(0.3, 0.0, 0.3)
    bounds = ((1e-3, 1e-2), (1e-4, 1e-3))
    batch = _solve_all([params] + [replace(params, gamma=gamma) for gamma, _ in bounds], opts)
    pairs = [observables.goldstone_operators(region, batch) for region in ("I_b", "II_b")]
    zero_defect = float(observables.ccr_defect(pairs[0])[0])
    rel = np.array([observables.ccr_defect(pair) / np.abs(pair.ccr_formula) for pair in pairs])
    worst_rel = float((rel[:, 1:] / [bound for _, bound in bounds]).max())
    passed = zero_defect < 1e-12 and worst_rel <= 1.0
    measured = _worst([zero_defect / 1e-12, worst_rel])
    return CheckResult(
        "observables.ccr", passed, measured, 1.0,
        note="measured is the worst bound ratio (gamma = 0 and linear-vanishing)",
    )


def check_dynamics(opts):
    batch = _solve_all(
        [_standard_params(eps, gamma, 0.5) for eps in STANDARD_EPSILONS for gamma in (0.0, 1e-3)],
        opts,
    )
    resid, geo = [], []
    for region in ("I_b", "II_b"):
        pair = observables.goldstone_operators(region, batch)
        h = boundary_hamiltonian(region, batch.points, *batch.Lambda_b)
        times = np.linspace(0.0, 4.0 * math.pi / pair.frequency, 32, axis=-1)  # two periods
        resid.append(observables.goldstone_dynamics_residual(pair, h, times))
        q, p, n = pair.q, pair.p, spin.pauli_components(h)[1].real
        geo += [_dot(q, p), _dot(q, n), _dot(p, n), np.sqrt(_dot(q, q)) - np.sqrt(_dot(p, p))]
    worst_resid, worst_geo = float(np.max(resid)), float(np.abs(geo).max())
    passed = worst_resid < 1e-10 and worst_geo < 1e-12
    return CheckResult(
        "observables.dynamics", passed, worst_resid, 1e-10,
        note=f"bloch geometry defect {worst_geo:.2e} (threshold 1e-12)",
    )


@functools.lru_cache(maxsize=1)
def _finite_n_defects(memory_cap):
    """Worst (commutator, conservation, current) defects over n = 1, 2:
    one finite_n_report per size (its conservation defect is read off the
    plate part, H(gamma = 0) bit for bit), and a second product current."""
    commutator, conservation, current = [], [], []
    for n in (1, 2):
        spec = lattice.LatticeSpec(n, memory_cap=memory_cap)
        report = lattice.finite_n_report(spec, _standard_params(0.3, 1e-3, 0.3))
        measured, expected = lattice.product_state_current(spec, _standard_params(0.2, 1e-2, -0.7))
        commutator.append(report.commutator_defect)
        conservation.append(report.bulk_conservation_defect)
        current += [report.current_defect, abs(measured - expected)]
    return _worst(commutator), _worst(conservation), _worst(current)


def check_finite_n_commutator(opts):
    worst, _, _ = _finite_n_defects(opts.memory_cap)
    tol = FINITE_N_COMMUTATOR_TOL
    return CheckResult("finite_n.commutator_identity", worst < tol, worst, tol)


def check_finite_n_bulk_conservation(opts):
    _, worst, _ = _finite_n_defects(opts.memory_cap)
    tol = FINITE_N_CONSERVATION_TOL
    return CheckResult("finite_n.bulk_conservation", worst < tol, worst, tol)


def check_finite_n_current(opts):
    _, _, worst = _finite_n_defects(opts.memory_cap)
    tol = FINITE_N_CURRENT_TOL
    return CheckResult("finite_n.product_current", worst < tol, worst, tol)


_ALL_CHECKS = (
    ("equilibrium.fixed_point", check_equilibrium_fixed_point),
    ("equilibrium.threshold", check_equilibrium_threshold),
    ("equilibrium.gauge", check_equilibrium_gauge),
    ("ness.oracle_equivalence", check_ness_oracle),
    ("ness.steady_state", check_ness_steady),
    ("ness.gauge_covariance", check_ness_gauge),
    ("ness.swap_symmetry", check_ness_swap),
    ("ness.phase_locking", check_ness_phase_locking),
    ("ness.phase_proportionality", check_ness_phase_proportionality),
    ("perturbation.slopes", check_perturbation_slopes),
    ("observables.sine_law", check_sine_law),
    ("observables.cosine_law", check_cosine_law),
    ("observables.ccr", check_ccr),
    ("observables.dynamics", check_dynamics),
    ("finite_n.commutator_identity", check_finite_n_commutator),
    ("finite_n.bulk_conservation", check_finite_n_bulk_conservation),
    ("finite_n.product_current", check_finite_n_current),
)


def _normalize(text):
    return text.replace("-", "_").replace(".", "_").lower()


def run_checks(only=None, opts=None):
    """Run the invariant suite, optionally filtered by name fragment.

    ``only`` matches check names with hyphens, underscores and dots
    interchangeable, so ``--only finite-n`` selects the small-lattice
    identities and ``--only ness`` the steady-state family.
    """
    opts = opts if opts is not None else CheckOptions()
    needle = _normalize(only) if only else None
    results = []
    for name, func in _ALL_CHECKS:
        if needle is not None and needle not in _normalize(name):
            continue
        results.append(func(opts))
    return results
