"""Independent checks of the program's outputs.

Nothing here imports bcsjj: each check re-derives the number from the
printed output with its own Bloch-vector algebra and compares it with a
threshold the repository already uses.  Every function returns a list
of failure messages, empty when the output is correct.
"""

import cmath
import csv
import io
import math

# Thresholds, each as used by the repository's own checks.
RESIDUAL_MAX = 1e-12       # NESS_CONVERGED_DEFECT; ness.steady_state
FIXED_POINT_TOL = 1e-11    # ness.oracle_equivalence
GAP_TOL = 1e-11            # equilibrium.fixed_point
KRYLOV_TOL = 1e-10         # bcsjj.constants.KRYLOV_TOL


def _truthy(value):
    return value is True or value == "true"


def bulk_bloch(epsilon, beta, lam, phi):
    """Bloch vector a of the thermal state rho = 1/2 + a.sigma.

    The one-site Hamiltonian eps sz - (conj(L) s+ + L s-) with
    L = lam e^{i phi} is n.sigma with n = (-Re L, -Im L, eps), so the
    Gibbs state has a = -tanh(beta |n|) n / (2 |n|).
    """
    n = (-lam * math.cos(phi), -lam * math.sin(phi), epsilon)
    norm = math.sqrt(n[0] ** 2 + n[1] ** 2 + n[2] ** 2)
    scale = -0.5 * math.tanh(beta * norm) / norm
    return tuple(scale * c for c in n)


def contact_sigma_plus(a, epsilon, field):
    """<sigma_plus> after projecting Bloch vector a onto the contact axis.

    The contact Hamiltonian has axis m = (-Re F, -Im F, eps); the
    dephased state keeps (a.m) m / |m|^2, whose <sigma_plus> is
    -(a.m) F / (eps^2 + |F|^2).
    """
    m = (-field.real, -field.imag, epsilon)
    dot = a[0] * m[0] + a[1] * m[1] + a[2] * m[2]
    return -dot * field / (epsilon * epsilon + abs(field) ** 2)


def is_ordered(epsilon, beta):
    """The ordered branch exists iff tanh(beta eps) > 2 eps."""
    return math.tanh(beta * epsilon) > 2.0 * epsilon


def gap_defect(epsilon, beta, lam):
    """|g(lam) - lam| for the gap map g(lam) = lam tanh(beta mu) / (2 mu)."""
    mu = math.hypot(epsilon, lam)
    return abs(lam * math.tanh(beta * mu) / (2.0 * mu) - lam)


def check_row(row):
    """Failures of one junction row (a CSV row or a `ness` JSON payload)."""
    failures = []
    if not _truthy(row["converged"]):
        failures.append("row not converged")
    residual = float(row["residual"])
    if not residual <= RESIDUAL_MAX:
        failures.append(f"residual {residual:.3e} > {RESIDUAL_MAX:.0e}")
    gamma = float(row["gamma"])
    contact = {}
    for side in ("I", "II"):
        eps = float(row[f"epsilon_{side}"])
        beta = float(row[f"beta_{side}"])
        lam = float(row[f"lambda_{side}"])
        defect = gap_defect(eps, beta, lam)
        if (lam > 0.0) != is_ordered(eps, beta):
            failures.append(f"bulk {side} on the wrong branch (lambda = {lam!r})")
        if not defect <= GAP_TOL:
            failures.append(f"bulk gap {side} defect {defect:.3e}")
        contact[side] = cmath.rect(float(row[f"lambda_t_{side}"]), float(row[f"phi_t_{side}"]))
    for side, other in (("I", "II"), ("II", "I")):
        eps = float(row[f"epsilon_{side}"])
        lam = float(row[f"lambda_{side}"])
        phi = float(row[f"phi_{side}"])
        a = bulk_bloch(eps, float(row[f"beta_{side}"]), lam, phi)
        field = cmath.rect(lam, phi) + gamma * contact[other]
        defect = abs(contact_sigma_plus(a, eps, field) - contact[side])
        if not defect <= FIXED_POINT_TOL:
            failures.append(f"contact {side} fixed-point defect {defect:.3e}")
    return failures


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def check_ness(payload):
    failures = check_row(payload)
    steady = float(payload["steady_residual"])
    if not steady <= RESIDUAL_MAX:
        failures.append(f"steady_residual {steady:.3e} > {RESIDUAL_MAX:.0e}")
    return failures


def check_gap(payload, point):
    """A `gap --format json` report against the gap equation."""
    eps, beta = point["epsilon"], point["beta"]
    ordered = is_ordered(eps, beta)
    branch = payload["superconducting_branch"]
    if ordered != (branch is not None):
        return [f"ordered branch {'missing' if ordered else 'spurious'} at eps={eps}, beta={beta}"]
    if branch is None:
        return []
    defect = gap_defect(eps, beta, float(branch["lambda"]))
    if not defect <= GAP_TOL:
        return [f"gap defect {defect:.3e} at eps={eps}, beta={beta}"]
    return []


def check_suite(text):
    """(result lines, summary failures) of a `check` text report.

    Each result line starts with PASS or FAIL; the last line must say
    that 0 checks failed.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    results = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    if not results or not lines[-1].endswith(" 0 failed"):
        return results, [f"unexpected check summary {lines[-1:]!r}"]
    return results, []


def check_evolution(dense, krylov):
    """Dense and Krylov <J(t)> at the same time must agree."""
    failures = []
    if not abs(dense - krylov) <= KRYLOV_TOL:
        failures.append(f"dense {dense!r} vs Krylov {krylov!r}")
    return failures + check_real(dense) + check_real(krylov)


def check_real(value):
    """<J(t)> of a Hermitian J is real up to the propagation tolerance."""
    if not abs(value.imag) <= KRYLOV_TOL:
        return [f"<J(t)> has imaginary part {value.imag:.3e}"]
    return []
