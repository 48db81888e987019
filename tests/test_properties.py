"""Property tests of the batched junction solver and the bare gap root.

Points cover ordered and normal plates (beta below the ordering
threshold), weak contacts up to the warning bound, and caller seeds.
Each test pins its examples with its own ``@seed``, so every run checks
the same points, and an edit to a test's source does not swap them (a
derandomized run seeds itself from a hash of that source).  Points a
past example set hit are kept as ``@example``.
"""

import cmath
import math
from dataclasses import fields

import hypothesis
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcsjj.equilibrium import BulkParams, critical_beta, gap_root, solve_gap
from bcsjj.ness import (
    JunctionParams,
    NessSolution,
    gauge_shift,
    solve_batch,
    solve_ness,
    verify_steady,
)
from bcsjj.observables import (
    GoldstonePair,
    ccr_defect,
    goldstone_frequencies,
    goldstone_operators,
    josephson_current,
)
from bcsjj.sweep import (
    SWEEP_AXES,
    _seed_from_config,
    config_from_mapping,
    evaluate_point,
    params_at,
    run_sweep,
)

PROPERTY = settings(max_examples=60, deadline=None, database=None)

EPSILON = st.floats(0.15, 0.45)
# beta <= 2 is below critical_beta(eps) >= 2.06 on this range: a normal plate
BETA = st.floats(0.5, 2.0) | st.floats(0.4, 4.0).map(lambda e: 10.0**e)
PHI = st.floats(-math.pi, math.pi)
# gamma stays below the weak-contact warning for every epsilon drawn
GAMMA = st.floats(0.0, 0.098 * 0.15)
SEED = st.none() | st.tuples(
    st.builds(cmath.rect, st.floats(0.0, 0.5), PHI),
    st.builds(cmath.rect, st.floats(0.0, 0.5), PHI),
)
AXIS_VALUES = {
    "delta_phi": PHI,
    "gamma": GAMMA,
    "beta_I": BETA,
    "beta_II": BETA,
    "epsilon_I": EPSILON,
    "epsilon_II": EPSILON,
}


@st.composite
def junctions(draw):
    return JunctionParams(
        bulk_I=BulkParams(draw(EPSILON), draw(BETA), draw(PHI)),
        bulk_II=BulkParams(draw(EPSILON), draw(BETA), draw(PHI)),
        gamma=draw(GAMMA),
    )


@st.composite
def sweep_configs(draw):
    axis = draw(st.sampled_from(SWEEP_AXES))
    mapping = {
        "epsilon_I": draw(EPSILON),
        "epsilon_II": draw(EPSILON),
        "beta_I": draw(BETA),
        "beta_II": draw(BETA),
        "gamma": draw(GAMMA),
        "phi_I": draw(PHI),
        "phi_II": draw(PHI),
        "axis": axis,
        "start": draw(AXIS_VALUES[axis]),
        "stop": draw(AXIS_VALUES[axis]),
        "count": draw(st.integers(1, 6)),
        "damping": draw(st.sampled_from((1.0, 0.7))),
    }
    if draw(st.booleans()):
        mapping["seed_lambda"] = draw(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=2))
        mapping["seed_phi"] = draw(st.lists(PHI, min_size=1, max_size=2))
    return config_from_mapping(mapping)


@st.composite
def plates(draw):
    """A plate on either side of its ordering threshold, or one with
    epsilon >= 1/2, which has no ordered phase at any beta."""
    epsilon = draw(st.floats(0.02, 0.7, exclude_min=True, exclude_max=True))
    beta_c = critical_beta(epsilon)
    if math.isinf(beta_c):
        beta = 10.0 ** draw(st.floats(-1.0, 5.0))
    else:
        beta = beta_c * 2.0 ** draw(st.floats(-4.0, 4.0))
    return BulkParams(epsilon, beta, draw(PHI))


def _rotated(seed, delta):
    if seed is None:
        return None
    return (seed[0] * cmath.exp(1j * delta), seed[1] * cmath.exp(1j * delta))


@PROPERTY
@hypothesis.seed(101)
@given(config=sweep_configs())
def test_sweep_rows_equal_single_point_rows(config):
    seed = _seed_from_config(config)
    expected = [
        evaluate_point(
            params_at(config, float(value)),
            damping=config.damping,
            tolerance=config.tolerance,
            max_iter=config.max_iter,
            seed=seed,
        )
        for value in np.linspace(config.start, config.stop, config.count)
    ]
    assert run_sweep(config) == expected


@PROPERTY
@hypothesis.seed(102)
@given(params=junctions(), seed=SEED)
def test_row_matches_matrix_observables(params, seed):
    row = evaluate_point(params, seed=seed)
    sol = solve_ness(params, seed=seed)
    assert row.current == josephson_current(sol, params.gamma).j
    for side in ("I", "II"):
        pair = goldstone_operators(f"{side}_b", sol)
        assert getattr(row, f"nu_t_{side}") == pair.frequency
        assert getattr(row, f"ccr_defect_{side}") == ccr_defect(pair)


def _names(cls):
    """Every dataclass field and every property of ``cls``."""
    properties = [name for name, v in vars(cls).items() if isinstance(v, property)]
    return [f.name for f in fields(cls)] + properties


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


# a point where pow(mu_t, 2) on one point rounds otherwise than mu_t * mu_t on arrays
ROUNDING_POINT = JunctionParams(
    BulkParams(0.3333333333333333, 100.0), BulkParams(0.3924940264049931, 0.5), 0.004050263094858067
)


@PROPERTY
@hypothesis.seed(103)
@given(points=st.lists(junctions(), min_size=1, max_size=6), seed=SEED)
@example(points=[ROUNDING_POINT], seed=None)
def test_batch_point_equals_single_solve(points, seed):
    """solve_batch(points)[k] is solve_ness(points[k]) bit for bit, and the
    observables of the whole batch are their per-point values."""
    batch = solve_batch(points, seed=seed)
    current = josephson_current(batch, np.array([p.gamma for p in points])).j
    frequencies = goldstone_frequencies(batch)
    pairs = [goldstone_operators(region, batch) for region in ("I_b", "II_b")]
    for k, params in enumerate(points):
        sol = solve_ness(params, seed=seed)
        for name in _names(NessSolution):
            value, expected = getattr(batch[k], name), getattr(sol, name)
            if name in ("points", "params"):
                assert value == expected
            else:
                assert _same_bits(value, expected), name
        assert _same_bits(current[k], josephson_current(sol, params.gamma).j)
        for nu, expected in zip(frequencies, goldstone_frequencies(sol)):
            assert _same_bits(nu[k], expected)
        for pair in pairs:
            expected = goldstone_operators(pair.region, sol)
            for name in _names(GoldstonePair):
                value = getattr(pair, name)
                # Q and P are (points, 2, 2) stacks; the rest keep the point axis last
                if name != "region":
                    value = value[k] if name in ("Q", "P") else value[..., k]
                assert _same_bits(value, getattr(expected, name)), (pair.region, name)


@PROPERTY
@hypothesis.seed(104)
@given(params=junctions(), seed=SEED)
def test_bloch_residual_matches_matrix_reference(params, seed):
    sol = solve_ness(params, seed=seed)
    assert sol.converged
    assert sol.residual <= 1e-12
    assert abs(sol.residual - verify_steady(sol)) <= 1e-15


@PROPERTY
@hypothesis.seed(105)
@given(params=junctions(), delta=st.floats(-10.0, 10.0), seed=SEED)
def test_gauge_covariance(params, delta, seed):
    sol = solve_ness(params, seed=seed)
    shifted = solve_ness(gauge_shift(params, delta), seed=_rotated(seed, delta))
    rotation = cmath.exp(1j * delta)
    assert abs(shifted.Lambda_b_I - sol.Lambda_b_I * rotation) < 1e-11
    assert abs(shifted.Lambda_b_II - sol.Lambda_b_II * rotation) < 1e-11
    assert abs(shifted.mu_t_I - sol.mu_t_I) < 1e-11
    assert abs(shifted.mu_t_II - sol.mu_t_II) < 1e-11


@PROPERTY
@hypothesis.seed(106)
@given(params=junctions(), seed=SEED)
def test_swap_symmetry(params, seed):
    a = solve_ness(params, seed=seed)
    swapped = JunctionParams(bulk_I=params.bulk_II, bulk_II=params.bulk_I, gamma=params.gamma)
    b = solve_ness(swapped, seed=None if seed is None else seed[::-1])
    assert abs(a.Lambda_b_I - b.Lambda_b_II) < 1e-12
    assert abs(a.Lambda_b_II - b.Lambda_b_I) < 1e-12
    assert abs(a.mu_t_I - b.mu_t_II) < 1e-12
    assert abs(a.mu_t_II - b.mu_t_I) < 1e-12


@PROPERTY
@hypothesis.seed(107)
@given(plate=plates())
@example(plate=BulkParams(0.3, 1e4, 0.7))  # ordered
@example(plate=BulkParams(0.3, 1.0, 0.0))  # normal, below the threshold
@example(plate=BulkParams(0.5, 1e4, 0.0))  # no ordered phase at any beta
def test_solve_gap_takes_its_gap_from_the_bare_root(plate):
    sol = solve_gap(plate)
    lam, mu, superconducting = gap_root(plate.epsilon, plate.beta)
    assert _same_bits(sol.lam, lam) and _same_bits(sol.mu, mu)
    assert sol.superconducting is superconducting
