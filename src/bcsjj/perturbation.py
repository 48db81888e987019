"""First order in the tunneling coupling.

Expanding the junction fixed point around gamma = 0 gives closed
formulas for the contact gaps, the pair current and the mode
frequencies, all certified here against central-difference derivatives
of the full solver:

    lambda_b_I  = lam_I + gamma * lam_II * (eps_I / mu_I)^2 cos(dphi) + O(gamma^2)
    j           = -4 gamma lam_I lam_II sin(dphi)            + O(gamma^2)
    nu_t_I      = nu_I + 4 gamma lam_I lam_II cos(dphi) / nu_I + O(gamma^2)

with dphi = phi_I - phi_II and nu = 2 mu.  A historically printed
variant of the contact-gap expansion (no cosine, asymmetric powers) is
kept verbatim in :func:`printed_first_order` purely so reports can
tabulate its discrepancy against the certified formula; it does not
match the solver derivative and is never used elsewhere.

Each zeroth-order value and gamma-slope is written once, in
``_expansion``; the ``*_first_order`` functions and
:func:`certify_first_order` read from it, so a certification solves
each plate's gap once.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import CENTRAL_DIFF_STEP
from .equilibrium import solve_gap
from .ness import solve_batch
from .observables import goldstone_frequencies, josephson_current


@dataclass(frozen=True)
class FirstOrderReport:
    """Certification of the first-order formulas against the solver.

    ``slopes_*`` map quantity names (``lambda_t_I``, ``lambda_t_II``,
    ``current``, ``nu_t_I``, ``nu_t_II``) to d/dgamma at gamma = 0;
    ``derivative_defects`` are |analytic - numeric|;
    ``remainder_constants`` bound |full - linear| / gamma^2 over the
    probed gammas.  The linearized values are what the
    ``*_first_order`` functions return.
    """

    slopes_analytic: dict
    slopes_numeric: dict
    derivative_defects: dict
    remainder_constants: dict


def _expansion(params):
    """Every first-order formula, stated once: each quantity's value and
    gamma-slope at gamma = 0, and the printed variant's two contact-gap
    slopes, as (zeroth, slopes, printed) dicts."""
    sol_i, sol_ii = solve_gap(params.bulk_I), solve_gap(params.bulk_II)
    if not (sol_i.superconducting and sol_ii.superconducting):
        raise ValueError(
            "first-order junction formulas need both plates on the ordered "
            "branch; at least one side is normal here"
        )
    cos_dphi = math.cos(params.delta_phi)
    sin_dphi = math.sin(params.delta_phi)
    eps_i, eps_ii = params.bulk_I.epsilon, params.bulk_II.epsilon
    zeroth = {
        "lambda_t_I": sol_i.lam,
        "lambda_t_II": sol_ii.lam,
        "current": 0.0,
        "nu_t_I": 2.0 * sol_i.mu,
        "nu_t_II": 2.0 * sol_ii.mu,
    }
    slopes = {
        "lambda_t_I": sol_ii.lam * (eps_i / sol_i.mu) ** 2 * cos_dphi,
        "lambda_t_II": sol_i.lam * (eps_ii / sol_ii.mu) ** 2 * cos_dphi,
        "current": -4.0 * sol_i.lam * sol_ii.lam * sin_dphi,
        "nu_t_I": 4.0 * sol_i.lam * sol_ii.lam * cos_dphi / (2.0 * sol_i.mu),
        "nu_t_II": 4.0 * sol_i.lam * sol_ii.lam * cos_dphi / (2.0 * sol_ii.mu),
    }
    printed = {
        "lambda_t_I": -sol_i.lam**2 * sol_ii.lam / sol_i.mu**2,
        "lambda_t_II": sol_i.lam**2 * eps_ii**2 / sol_ii.mu**2,
    }
    return zeroth, slopes, printed


def _linear(zeroth, slopes, gamma, *keys):
    """zeroth + gamma * slope for each of ``keys``, as a tuple."""
    return tuple(zeroth[k] + gamma * slopes[k] for k in keys)


def lambda_first_order(params):
    """Contact gaps to first order in gamma."""
    zeroth, slopes, _ = _expansion(params)
    return _linear(zeroth, slopes, params.gamma, "lambda_t_I", "lambda_t_II")


def printed_first_order(params):
    """Legacy printed form of the contact-gap expansion, verbatim.

    Disagrees with :func:`lambda_first_order` (and with the solver
    derivative): the phase dependence is missing and the powers are
    asymmetric between the plates.  Kept only for discrepancy tables.
    """
    zeroth, _, printed = _expansion(params)
    return _linear(zeroth, printed, params.gamma, "lambda_t_I", "lambda_t_II")


def current_first_order(params):
    """Pair current to first order: -4 gamma lam_I lam_II sin(dphi)."""
    zeroth, slopes, _ = _expansion(params)
    return _linear(zeroth, slopes, params.gamma, "current")[0]


def frequency_first_order(params):
    """Contact mode frequencies to first order in gamma."""
    zeroth, slopes, _ = _expansion(params)
    return _linear(zeroth, slopes, params.gamma, "nu_t_I", "nu_t_II")


def certify_first_order(params, gammas=(1e-4, 1e-3, 1e-2)):
    """Certify the analytic gamma-slopes against the full solver.

    Central differences at gamma = 0 (step scaled from
    ``CENTRAL_DIFF_STEP``) give the numeric slopes; the probed nonzero
    ``gammas`` bound the quadratic remainder of each linearization.
    """
    if not gammas or not all(gammas):
        raise ValueError(f"need nonzero gammas to probe the remainder, got {gammas}")
    _, analytic, _ = _expansion(params)
    step = CENTRAL_DIFF_STEP * max(1.0, *(abs(g) for g in gammas))
    probes = np.array((step, -step, 0.0, *gammas), dtype=float)
    batch = solve_batch([replace(params, gamma=float(g)) for g in probes])
    lambda_t = np.hypot(batch.Lambda_b.real, batch.Lambda_b.imag)  # |z| as abs(z) rounds it
    values = dict(zip(analytic, (  # each quantity at every probe, in key order
        *lambda_t, josephson_current(batch, probes).j, *goldstone_frequencies(batch)
    )))
    numeric = {k: float((v[0] - v[1]) / (2.0 * step)) for k, v in values.items()}
    defects = {k: abs(analytic[k] - numeric[k]) for k in analytic}
    g = probes[3:]
    remainders = {
        k: float((np.abs(v[3:] - (v[2] + analytic[k] * g)) / g**2).max()) for k, v in values.items()
    }

    return FirstOrderReport(
        slopes_analytic=analytic,
        slopes_numeric=numeric,
        derivative_defects=defects,
        remainder_constants=remainders,
    )
