"""Parameter sweeps over the junction with a stable tabular schema.

One row per grid point: inputs, bulk and contact gaps, contact phases
and spectral scales, pair current, mode frequencies, commutator defects
and solver diagnostics.  Rendering is deterministic (17 significant
digits, LF endings) so reruns of the same config are byte-identical.
"""

import json
import math
import operator
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from .constants import NESS_CHANGE_TOL
from .equilibrium import BulkParams
from .ness import JunctionParams, solve_batch
from .observables import ccr_values, goldstone_frequencies, josephson_current

SWEEP_AXES = (
    "delta_phi",
    "gamma",
    "beta_I",
    "beta_II",
    "epsilon_I",
    "epsilon_II",
)

FORMATS = ("csv", "json")

POINT_FIELDS = ("epsilon_I", "epsilon_II", "beta_I", "beta_II", "gamma", "phi_I", "phi_II")


@dataclass
class SweepRow:
    """One grid point: the CSV columns, then the solver's map evaluations.

    A plain record: not frozen, since a frozen dataclass pays one
    ``object.__setattr__`` per field on every row built.
    """

    epsilon_I: float
    epsilon_II: float
    beta_I: float
    beta_II: float
    gamma: float
    phi_I: float
    phi_II: float
    lambda_I: float
    lambda_II: float
    lambda_t_I: float
    lambda_t_II: float
    phi_t_I: float
    phi_t_II: float
    mu_t_I: float
    mu_t_II: float
    current: float
    nu_t_I: float
    nu_t_II: float
    ccr_defect_I: float
    ccr_defect_II: float
    residual: float
    converged: bool
    iterations: int


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))[:-1]  # all but iterations


@dataclass(frozen=True)
class RunConfig:
    """Everything one junction run or sweep needs.

    The sweep axis replaces the like-named fixed field at each grid
    point; ``delta_phi`` holds ``phi_I`` fixed and sets
    ``phi_II = phi_I - delta`` so the axis value is the bias
    phi_I - phi_II appearing in the current law.  Only ``delta_phi``
    has a default range, ``DELTA_PHI_RANGE``; a sweep on any other
    axis needs both ``start`` and ``stop``.
    """

    epsilon_I: float = 0.3
    epsilon_II: float = 0.3
    beta_I: float = 1e4
    beta_II: float = 1e4
    gamma: float = 1e-3
    phi_I: float = 0.0
    phi_II: float = 0.0
    axis: str = "delta_phi"
    start: float | None = None
    stop: float | None = None
    count: int = 33
    output: str | None = None
    format: str = "csv"
    tolerance: float = NESS_CHANGE_TOL
    max_iter: int = 100_000
    seed_lambda: tuple | None = None
    seed_phi: tuple | None = None
    lattice_n: int = 2
    memory_cap: int | None = None

    def __post_init__(self):
        # files, flags and direct construction all pass here
        for key in _FIELD_TYPES:
            object.__setattr__(self, key, _typed(key, getattr(self, key)))
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.format!r}")
        if self.count < 1:
            raise ValueError(f"count must be a positive integer, got {self.count!r}")


_FIELD_TYPES = {f.name: typing.get_args(f.type) or (f.type,) for f in fields(RunConfig)}
# The types a config value may have for each field type; a bool is never a number.
_ACCEPTED = {float: (int, float), int: (int,), str: (str,), tuple: (int, float)}


def _typed(key, value):
    """``value`` for the field ``key``, or a ValueError naming the key.

    The seeds take one number or a list of them and become a tuple of floats.
    """
    kinds = _FIELD_TYPES[key]
    if value is None and type(None) in kinds:
        return None
    seeds = kinds[0] is tuple
    items = value if seeds and isinstance(value, (list, tuple)) else (value,)
    accepted = _ACCEPTED[kinds[0]]
    for v in items:
        if not isinstance(v, accepted) or isinstance(v, bool):
            names = " or ".join(t.__name__ for t in accepted)
            raise ValueError(f"config key {key!r} must be {names}, got {value!r}")
    return tuple(map(float, items)) if seeds else value


# The defaults, validated once: a frozen instance is safe to share.
DEFAULT_CONFIG = RunConfig()
DELTA_PHI_RANGE = (-math.pi / 2, math.pi / 2)


def config_from_mapping(mapping):
    """Build a RunConfig from a dict, e.g. a parsed JSON config file.

    Unknown keys are rejected here and mistyped values by RunConfig;
    missing ones take their ``DEFAULT_CONFIG`` values.
    """
    unknown = set(mapping) - set(_FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return replace(DEFAULT_CONFIG, **mapping)


def _seed_from_config(config):
    if config.seed_lambda is None and config.seed_phi is None:
        return None
    lams = config.seed_lambda if config.seed_lambda is not None else (0.0,)
    phis = config.seed_phi if config.seed_phi is not None else (0.0,)
    if len(lams) == 1:
        lams = (lams[0], lams[0])
    if len(phis) == 1:
        phis = (phis[0], phis[0])
    if len(lams) != 2 or len(phis) != 2:
        raise ValueError("seed_lambda / seed_phi take one or two values")
    return (
        lams[0] * complex(math.cos(phis[0]), math.sin(phis[0])),
        lams[1] * complex(math.cos(phis[1]), math.sin(phis[1])),
    )


def params_at(config, value=None, base=None):
    """Junction parameters at the configured point, or at ``value`` on its axis.

    ``base``, the configured point ``params_at(config)``, lends the
    result each plate the axis leaves alone, so a grid builds only its
    swept plate per value.
    """
    point = {key: getattr(config, key) for key in POINT_FIELDS}
    swept = ""
    if value is not None and config.axis == "delta_phi":
        swept = "phi_II"
        point[swept] = point["phi_I"] - value
    elif value is not None:
        swept = config.axis
        point[swept] = value
    bulk_I, bulk_II = (None, None) if base is None else (base.bulk_I, base.bulk_II)
    if bulk_I is None or swept.endswith("_I"):
        bulk_I = BulkParams(point["epsilon_I"], point["beta_I"], point["phi_I"])
    if bulk_II is None or swept.endswith("_II"):
        bulk_II = BulkParams(point["epsilon_II"], point["beta_II"], point["phi_II"])
    return JunctionParams(bulk_I=bulk_I, bulk_II=bulk_II, gamma=point["gamma"])


def evaluate_point(params, tolerance=NESS_CHANGE_TOL, max_iter=100_000, seed=None):
    """Full pipeline at one parameter point: :func:`run_sweep` of one point."""
    return _evaluate([params], tolerance, max_iter, seed)[0]


def run_sweep(config):
    """Evaluate the configured grid, in order, one SweepRow per point."""
    grid = np.linspace(*_sweep_range(config), config.count)
    base = params_at(config)
    points = [params_at(config, float(value), base) for value in grid]
    seed = _seed_from_config(config)
    return _evaluate(points, config.tolerance, config.max_iter, seed)


def _sweep_range(config):
    """(start, stop) of the grid: as configured, or ``DELTA_PHI_RANGE``
    filling in on the delta_phi axis."""
    start, stop = config.start, config.stop
    if config.axis == "delta_phi":
        default_start, default_stop = DELTA_PHI_RANGE
        start = default_start if start is None else start
        stop = default_stop if stop is None else stop
    elif start is None or stop is None:
        raise ValueError(
            f"a sweep on the {config.axis} axis needs both --start and --stop "
            "(only delta_phi has a default range)"
        )
    return start, stop


def _evaluate(points, tolerance, max_iter, seed):
    """One batched solve, then each SweepRow from the solution arrays."""
    batch = solve_batch(points, tol=tolerance, max_iter=max_iter, seed=seed)
    current = josephson_current(batch, np.array([p.gamma for p in batch.points], dtype=float)).j
    exact, formula, _ = ccr_values(batch)
    columns = zip(
        batch.points,
        batch.lambda_bulk.T.tolist(),
        batch.Lambda_b.T.tolist(),
        batch.mu_t.T.tolist(),
        current.tolist(),
        zip(*(nu.tolist() for nu in goldstone_frequencies(batch))),
        np.abs(exact - formula).T.tolist(),  # ccr_defect of both contacts
        batch.residual.tolist(),
        batch.converged.tolist(),
        batch.iterations.tolist(),
    )
    return [
        SweepRow(
            epsilon_I=p.bulk_I.epsilon,
            epsilon_II=p.bulk_II.epsilon,
            beta_I=p.bulk_I.beta,
            beta_II=p.bulk_II.beta,
            gamma=p.gamma,
            phi_I=p.bulk_I.phi,
            phi_II=p.bulk_II.phi,
            lambda_I=lam[0],
            lambda_II=lam[1],
            lambda_t_I=abs(lb[0]),
            lambda_t_II=abs(lb[1]),
            phi_t_I=math.atan2(lb[0].imag, lb[0].real),
            phi_t_II=math.atan2(lb[1].imag, lb[1].real),
            mu_t_I=mu[0],
            mu_t_II=mu[1],
            current=j,
            nu_t_I=nu[0],
            nu_t_II=nu[1],
            ccr_defect_I=ccr_pair[0],
            ccr_defect_II=ccr_pair[1],
            residual=residual,
            converged=converged,
            iterations=iterations,
        )
        for p, lam, lb, mu, j, nu, ccr_pair, residual, converged, iterations in columns
    ]


# One row: every number at 17 significant digits, then the last column,
# converged, as true or false.
_CSV_ROW = ",".join(["%.17g"] * (len(CSV_COLUMNS) - 1) + ["%s"])
_CSV_NUMBERS = operator.attrgetter(*CSV_COLUMNS[:-1])


def render_csv(rows):
    lines = [",".join(CSV_COLUMNS)]
    lines += [
        _CSV_ROW % (*_CSV_NUMBERS(row), "true" if row.converged else "false") for row in rows
    ]
    return "\n".join(lines) + "\n"


def render_json(rows):
    payload = [{col: getattr(row, col) for col in CSV_COLUMNS} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def render(rows, fmt):
    if fmt == "csv":
        return render_csv(rows)
    if fmt == "json":
        return render_json(rows)
    raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
