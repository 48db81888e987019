"""Seeded inputs of the three benchmark workloads.

Everything here is plain Python (no numpy, no bcsjj), so the parent
process can build and describe a workload without importing the
program.  The same seed always gives the same inputs; the program only
ever sees the generated argv lists and call arguments.

The value ranges keep the cost of a pass nearly independent of the
seed: the seed moves parameters inside fixed ranges, while the number
of rows, points and calls, and the share of rows on each side of the
ordering threshold, are fixed by design.
"""

import math
import random

from oracles import is_ordered

WORKLOADS = ("junction", "certify", "lattice")

# junction: sweep axis -> number of rows.  ~880 sweep rows plus
# NESS_POINTS single points give the ROADMAP's ~1000 distinct points.
SWEEP_ROWS = {
    "delta_phi": 240,
    "gamma": 120,
    "beta_I": 160,
    "beta_II": 120,
    "epsilon_I": 120,
    "epsilon_II": 120,
}
NESS_POINTS = 120
GAP_POINTS = 120

# lattice: <J(t)> rows on the default (dense) path at n = 2, and
# single Krylov evaluations at n = 2 at the same and further times.
DENSE_ROWS = 40
KRYLOV_POINTS = 120

# JunctionParams warns above gamma = 0.1 * min(epsilon); stay just below.
WEAK_CONTACT = 0.098


def critical_beta(epsilon):
    """Inverse temperature where tanh(beta eps) = 2 eps (inf for eps >= 1/2)."""
    if epsilon >= 0.5:
        return math.inf
    return math.atanh(2.0 * epsilon) / epsilon


def linspace(start, stop, count):
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _point_flags(p):
    """argv flags of one junction point."""
    flags = (
        ("--epsilon-i", "epsilon_I"), ("--epsilon-ii", "epsilon_II"),
        ("--beta-i", "beta_I"), ("--beta-ii", "beta_II"),
        ("--gamma", "gamma"), ("--phi-i", "phi_I"), ("--phi-ii", "phi_II"),
    )
    argv = []
    for flag, key in flags:
        argv += [flag, repr(float(p[key]))]
    return argv


def junction(seed):
    """Sweeps over every axis plus single `ness` points.

    Returns ``{"sweeps": [(argv, points)], "points": [(argv, point)]}``
    where each point is the dict of the seven junction inputs.
    """
    rng = _rng("junction", seed)
    base = {
        "epsilon_I": rng.uniform(0.27, 0.33),
        "epsilon_II": rng.uniform(0.19, 0.23),
        "beta_I": 10 ** rng.uniform(2.0, 4.0),
        "beta_II": 10 ** rng.uniform(2.0, 4.0),
        "gamma": 10 ** rng.uniform(-3.5, -2.7),
        "phi_I": rng.uniform(-math.pi, math.pi),
        "phi_II": rng.uniform(-math.pi, math.pi),
    }
    eps_min = min(base["epsilon_I"], base["epsilon_II"])
    ranges = {
        "delta_phi": (-math.pi, math.pi),
        "gamma": (rng.uniform(1e-4, 2e-4), WEAK_CONTACT * eps_min),
        "beta_I": (0.8 * critical_beta(base["epsilon_I"]), 1.25 * critical_beta(base["epsilon_I"])),
        "beta_II": (0.8 * critical_beta(base["epsilon_II"]), 1.25 * critical_beta(base["epsilon_II"])),
        "epsilon_I": (rng.uniform(0.22, 0.24), rng.uniform(0.40, 0.42)),
        "epsilon_II": (rng.uniform(0.15, 0.16), rng.uniform(0.25, 0.27)),
    }
    sweeps = []
    for axis, count in SWEEP_ROWS.items():
        start, stop = ranges[axis]
        argv = ["sweep", "--axis", axis, "--start", repr(start), "--stop", repr(stop),
                "--count", str(count), "--format", "csv"] + _point_flags(base)
        points = []
        for value in linspace(start, stop, count):
            p = dict(base)
            if axis == "delta_phi":
                p["phi_II"] = p["phi_I"] - value
            else:
                p[axis] = value
            points.append(p)
        sweeps.append((argv, points))

    singles = []
    for _ in range(NESS_POINTS):
        eps_i = rng.uniform(0.15, 0.45)
        eps_ii = rng.uniform(0.15, 0.45)
        p = {
            "epsilon_I": eps_i,
            "epsilon_II": eps_ii,
            "beta_I": 10 ** rng.uniform(0.0, 4.0),
            "beta_II": 10 ** rng.uniform(0.0, 4.0),
            "gamma": 10 ** rng.uniform(-4.0, math.log10(WEAK_CONTACT * min(eps_i, eps_ii))),
            "phi_I": rng.uniform(-math.pi, math.pi),
            "phi_II": rng.uniform(-math.pi, math.pi),
        }
        singles.append((["ness", "--format", "json"] + _point_flags(p), p))
    return {"sweeps": sweeps, "points": singles}


def certify(seed):
    """The full `check` suite plus seeded single-plate `gap` points.

    The check suite runs on its built-in grid; only the gap points
    depend on the seed.  Betas within 1e-6 of the threshold are
    redrawn so that the branch verdict is not a rounding question.
    """
    rng = _rng("certify", seed)
    points = []
    while len(points) < GAP_POINTS:
        p = {
            "epsilon": rng.uniform(0.05, 0.6),
            "beta": 10 ** rng.uniform(0.0, 5.0),
            "phi": rng.uniform(-math.pi, math.pi),
        }
        bc = critical_beta(p["epsilon"])
        if math.isfinite(bc) and abs(p["beta"] / bc - 1.0) < 1e-6:
            continue
        argv = ["gap", "--epsilon", repr(p["epsilon"]), "--beta", repr(p["beta"]),
                "--phi", repr(p["phi"]), "--format", "json"]
        points.append((argv, p))
    return {"check": ["check"], "points": points}


def lattice(seed):
    """`finite-n` at n = 2 and 3, then <J(t)> of the bulk product state.

    ``times[0]`` is the one seeded time at which <J(t)> is evaluated
    three ways (dense n = 2, Krylov n = 2, Krylov n = 3).  Times stay
    in [0.1, 0.5], where the Krylov cost at n = 3 is nearly flat.
    """
    rng = _rng("lattice", seed)
    params = {
        "epsilon_I": 0.3,
        "epsilon_II": 0.3,
        "beta_I": 1e4,
        "beta_II": 1e4,
        "gamma": 10 ** rng.uniform(-3.3, -2.7),
        "phi_I": rng.uniform(0.2, 1.2),
        "phi_II": 0.0,
    }
    finite_n = [["finite-n", "--n", str(n), "--format", "json"] + _point_flags(params)
                for n in (2, 3)]
    times = [rng.uniform(0.1, 0.5) for _ in range(KRYLOV_POINTS)]
    return {"finite_n": finite_n, "params": params, "times": times}


def census(seed):
    """Shares of `junction` points with the properties a change may rely on."""
    spec = junction(seed)
    points = [p for _, pts in spec["sweeps"] for p in pts] + [p for _, p in spec["points"]]
    total = len(points)

    def near_critical(eps, beta):
        bc = critical_beta(eps)
        return math.isfinite(bc) and abs(beta / bc - 1.0) <= 0.05

    keys = ("epsilon_I", "epsilon_II", "beta_I", "beta_II", "gamma", "phi_I", "phi_II")
    return {
        "points": total,
        "normal_plate": sum(
            not (is_ordered(p["epsilon_I"], p["beta_I"]) and is_ordered(p["epsilon_II"], p["beta_II"]))
            for p in points) / total,
        "near_critical_beta": sum(
            near_critical(p["epsilon_I"], p["beta_I"]) or near_critical(p["epsilon_II"], p["beta_II"])
            for p in points) / total,
        "gamma_ge_1e-2": sum(p["gamma"] >= 1e-2 for p in points) / total,
        "distinct": len({tuple(p[k] for k in keys) for p in points}) / total,
    }
