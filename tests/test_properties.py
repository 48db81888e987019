"""Property tests of the batched junction solver over random points.

Points cover ordered and normal plates (beta below the ordering
threshold), weak contacts up to the warning bound, and caller seeds.
Examples are derandomized so every run checks the same points.
"""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsjj.equilibrium import BulkParams
from bcsjj.ness import JunctionParams, gauge_shift, solve_ness, verify_steady
from bcsjj.observables import ccr_defect, goldstone_operators, josephson_current
from bcsjj.sweep import (
    SWEEP_AXES,
    _seed_from_config,
    config_from_mapping,
    evaluate_point,
    params_at,
    run_sweep,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

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


def _rotated(seed, delta):
    if seed is None:
        return None
    return (seed[0] * cmath.exp(1j * delta), seed[1] * cmath.exp(1j * delta))


@PROPERTY
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
@given(params=junctions(), seed=SEED)
def test_row_matches_matrix_observables(params, seed):
    row = evaluate_point(params, seed=seed)
    sol = solve_ness(params, seed=seed)
    assert row.current == josephson_current(sol, params.gamma).j
    for side in ("I", "II"):
        pair = goldstone_operators(f"{side}_b", sol)
        assert getattr(row, f"nu_t_{side}") == pair.frequency
        assert abs(getattr(row, f"ccr_defect_{side}") - ccr_defect(pair)) <= 1e-14


@PROPERTY
@given(params=junctions(), seed=SEED)
def test_bloch_residual_matches_matrix_reference(params, seed):
    sol = solve_ness(params, seed=seed)
    assert sol.converged
    assert sol.residual <= 1e-12
    assert abs(sol.residual - verify_steady(sol)) <= 1e-15


@PROPERTY
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
@given(params=junctions(), seed=SEED)
def test_swap_symmetry(params, seed):
    a = solve_ness(params, seed=seed)
    swapped = JunctionParams(bulk_I=params.bulk_II, bulk_II=params.bulk_I, gamma=params.gamma)
    b = solve_ness(swapped, seed=None if seed is None else seed[::-1])
    assert abs(a.Lambda_b_I - b.Lambda_b_II) < 1e-12
    assert abs(a.Lambda_b_II - b.Lambda_b_I) < 1e-12
    assert abs(a.mu_t_I - b.mu_t_II) < 1e-12
    assert abs(a.mu_t_II - b.mu_t_I) < 1e-12
