"""Parameter sweeps over the junction with a stable tabular schema.

One row per grid point: inputs, bulk and contact gaps, contact phases
and spectral scales, pair current, mode frequencies, commutator defects
and solver diagnostics.  A lone point's row (``ness``, or a one-point
sweep) is computed on Python floats, from the solve to the row, and a
larger grid's from ``(N,)`` arrays, by the same formulas and to the same
bits.  A grid point changes only the swept field of the configured point.
Rendering is deterministic (17 significant digits, LF endings) so reruns
of the same config are byte-identical.  A CSV table formats a column that
holds one finite nonzero value in every row once, as text in its row
template: equal finite nonzero floats have one bit pattern, so the bytes
are those of formatting every cell.
"""

import contextlib
import json
import math
import operator
import typing
from dataclasses import dataclass, fields

import numpy as np

from .constants import NESS_CHANGE_TOL
from .equilibrium import BulkParams
from .ness import JunctionParams, NessSolution, _solve
from .observables import _ccr, goldstone_frequencies, josephson_current

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

    The seeds take one finite number or a list of them and become a tuple
    of floats.
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
        if seeds and not math.isfinite(v):
            raise ValueError(f"config key {key!r} must be finite, got {value!r}")
    return tuple(map(float, items)) if seeds else value


DELTA_PHI_RANGE = (-math.pi / 2, math.pi / 2)


def config_from_mapping(mapping):
    """Build a RunConfig from a dict, e.g. a parsed JSON config file.

    Unknown keys are rejected here and mistyped values by RunConfig;
    missing ones take the RunConfig defaults.
    """
    unknown = set(mapping) - set(_FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**mapping)


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


def params_at(config, value=None):
    """Junction parameters at the configured point, or at ``value`` on its axis."""
    point = JunctionParams(
        BulkParams(config.epsilon_I, config.beta_I, config.phi_I),
        BulkParams(config.epsilon_II, config.beta_II, config.phi_II),
        config.gamma,
    )
    return point if value is None else _axis_points(config.axis, point)(value)


def _axis_points(axis, point):
    """The function from a value on ``axis`` to ``point`` with only the swept
    field changed: a new plate where the axis is a plate's, and ``point``'s
    other plate and gamma as they are.  ``delta_phi`` holds phi_I and sets
    phi_II = phi_I - value."""
    bulk_I, bulk_II, gamma = point.bulk_I, point.bulk_II, point.gamma
    eps_I, beta_I, phi_I = bulk_I.epsilon, bulk_I.beta, bulk_I.phi
    eps_II, beta_II, phi_II = bulk_II.epsilon, bulk_II.beta, bulk_II.phi
    return {
        "delta_phi": lambda v: JunctionParams(bulk_I, BulkParams(eps_II, beta_II, phi_I - v), gamma),
        "gamma": lambda v: JunctionParams(bulk_I, bulk_II, v),
        "beta_I": lambda v: JunctionParams(BulkParams(eps_I, v, phi_I), bulk_II, gamma),
        "beta_II": lambda v: JunctionParams(bulk_I, BulkParams(eps_II, v, phi_II), gamma),
        "epsilon_I": lambda v: JunctionParams(BulkParams(v, beta_I, phi_I), bulk_II, gamma),
        "epsilon_II": lambda v: JunctionParams(bulk_I, BulkParams(v, beta_II, phi_II), gamma),
    }[axis]


def evaluate_point(params, tolerance=NESS_CHANGE_TOL, max_iter=100_000, seed=None):
    """Full pipeline at one parameter point: :func:`run_sweep` of one point,
    on Python floats."""
    return _evaluate([params], tolerance, max_iter, seed)[0]


def run_sweep(config):
    """Evaluate the configured grid, in order, one SweepRow per point."""
    start, stop = _sweep_range(config)
    grid = np.linspace(start, stop, config.count).tolist()
    grid[0] = start  # linspace forms start + 0 * step, which drops the sign of a -0.0 start
    points = list(map(_axis_points(config.axis, params_at(config)), grid))
    seed = _seed_from_config(config)
    return _evaluate(points, config.tolerance, config.max_iter, seed)


def _sweep_range(config):
    """(start, stop) of the grid: as configured, or ``DELTA_PHI_RANGE``
    filling in on the delta_phi axis.  Both and their difference must be
    finite, so that the grid is."""
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
    for key, value in (("start", start), ("stop", stop)):
        if not math.isfinite(value):
            raise ValueError(f"config key {key!r} must be finite, got {value!r}")
    if not math.isfinite(stop - start):
        raise ValueError(f"config keys 'start' and 'stop' must differ by a finite amount, got {start!r} and {stop!r}")
    return start, stop


def _evaluate(points, tolerance, max_iter, seed):
    """One solve, then each SweepRow from :func:`_row_values`."""
    sol = _solve(points, tolerance, max_iter, seed)
    return [
        SweepRow(
            p.bulk_I.epsilon, p.bulk_II.epsilon, p.bulk_I.beta, p.bulk_II.beta,
            p.gamma, p.bulk_I.phi, p.bulk_II.phi, *values,
        )
        for p, values in zip(sol.points, _row_values(sol))
    ]


def _hypot(z):
    """|z| at each element of a complex array, rounded as abs() rounds a Python
    complex (np.abs may not); a NaN keeps its sign, where abs() gives +NaN."""
    return np.hypot(z.real, z.imag)


# math.atan2 at each element of two arrays: np.arctan2 may round otherwise
_atan2_each = np.frompyfunc(math.atan2, 2, 1)


def _row_values(sol):
    """The SweepRow fields after the seven inputs, one tuple per point.

    One set of formulas serves both routes of the solve: a lone point's
    :class:`~bcsjj.ness._PointSolution` of Python numbers, read with abs and
    math.atan2, and a :class:`NessSolution`'s ``(N,)`` rows, read with
    their elementwise twins of the same rounding, with numpy's overflow
    and invalid warnings off, as on Python floats.
    """
    batch = isinstance(sol, NessSolution)
    if batch:
        gamma = np.array([p.gamma for p in sol.points], dtype=float)
        modulus, atan2 = _hypot, _atan2_each
        quiet = np.errstate(over="ignore", invalid="ignore")
    else:
        gamma, modulus, atan2, quiet = sol.points[0].gamma, abs, math.atan2, contextlib.nullcontext()
    lam_b, mu_t = sol.Lambda_b, sol.mu_t
    lambda_t, phi_t, ccr_defect = [], [], []
    with quiet:
        for row in (0, 1):
            n, b = [v[row] for v in sol.axis], [v[row] for v in sol.contact]
            exact, formula = _ccr(n, b, lam_b[row], mu_t[row])
            lambda_t.append(modulus(lam_b[row]))
            phi_t.append(atan2(lam_b[row].imag, lam_b[row].real))
            ccr_defect.append(abs(exact - formula))
        columns = (
            *sol.lambda_bulk, *lambda_t, *phi_t, *mu_t, josephson_current(sol, gamma),
            *goldstone_frequencies(sol), *ccr_defect, sol.residual, sol.converged, sol.iterations,
        )
    return zip(*(column.tolist() for column in columns)) if batch else [columns]


_CSV_VALUES = operator.attrgetter(*CSV_COLUMNS)


def render_csv(rows):
    """The header, then one line per row: every number at 17 significant
    digits and converged as true or false.

    A number column whose first value is finite and nonzero and equal in
    every row is formatted once, as text in the table's row template, and
    ``%`` formats only the other columns.  Equal finite nonzero floats have
    one bit pattern, so the bytes do not change.  0.0 and -0.0 compare
    equal but print apart, so a zero column stays per row, as does a NaN or
    infinite one.
    """
    lines = [",".join(CSV_COLUMNS)]
    if rows:
        *numbers, converged = zip(*map(_CSV_VALUES, rows))
        cells, varying = [], []
        for column in numbers:
            first = column[0]
            if first and math.isfinite(first) and column.count(first) == len(column):
                cells.append("%.17g" % first)
            else:
                cells.append("%.17g")
                varying.append(column)
        template = ",".join(cells) + ",%s"
        flags = ["true" if c else "false" for c in converged]
        lines += map(template.__mod__, zip(*varying, flags))
    return "\n".join(lines) + "\n"


def json_number(value):
    """A finite number as is, and NaN or +-inf as None, which JSON prints as
    null: strict JSON has no token for them."""
    return value if math.isfinite(value) else None


def render_json(rows):
    payload = [{col: json_number(getattr(row, col)) for col in CSV_COLUMNS} for row in rows]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def render(rows, fmt):
    if fmt == "csv":
        return render_csv(rows)
    if fmt == "json":
        return render_json(rows)
    raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
