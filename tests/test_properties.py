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
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcsjj import ness
from bcsjj.equilibrium import BulkParams, critical_beta, gap_root, solve_gap
from bcsjj.ness import (
    REGIONS,
    JunctionParams,
    NessSolution,
    boundary_hamiltonian,
    closed_form_rhs,
    gauge_shift,
    solve_batch,
    solve_ness,
    verify_steady,
)
from bcsjj.observables import (
    GoldstonePair,
    ccr_defect,
    goldstone_dynamics_residual,
    goldstone_frequencies,
    goldstone_operators,
    josephson_current,
)
from bcsjj.spin import evolve_heisenberg, pauli_components
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
def junctions(draw, gamma=GAMMA):
    return JunctionParams(
        bulk_I=BulkParams(draw(EPSILON), draw(BETA), draw(PHI)),
        bulk_II=BulkParams(draw(EPSILON), draw(BETA), draw(PHI)),
        gamma=draw(gamma),
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
@hypothesis.seed(110)
@given(points=st.lists(junctions(), min_size=1, max_size=6), seed=SEED)
@example(points=[ROUNDING_POINT], seed=None)
def test_batch_references_equal_per_point_references(points, seed):
    """verify_steady and closed_form_rhs on a whole batch give each
    point's lone value bit for bit."""
    batch = solve_batch(points, seed=seed)
    steady = verify_steady(batch)
    rhs = closed_form_rhs(batch.Lambda_b, batch.points)
    assert steady.shape == (len(points),) and rhs.shape == (2, len(points))
    for k, params in enumerate(points):
        sol = batch[k]
        assert _same_bits(steady[k], verify_steady(sol))
        assert _same_bits(rhs[:, k], closed_form_rhs(sol.Lambda_b, params))


@PROPERTY
@hypothesis.seed(112)
@given(points=st.lists(junctions(), min_size=1, max_size=6), seed=SEED)
@example(points=[ROUNDING_POINT], seed=None)
def test_mode_dynamics_route_equals_per_point_calls(points, seed):
    """boundary_hamiltonian, goldstone_dynamics_residual and evolve_heisenberg
    on a whole batch give each point's lone value bit for bit."""
    batch = solve_batch(points, seed=seed)
    for region in REGIONS:
        stack = boundary_hamiltonian(region, batch.points, *batch.Lambda_b)
        assert stack.shape == (len(points), 2, 2)
        for k, params in enumerate(points):
            assert _same_bits(stack[k], boundary_hamiltonian(region, params, *batch[k].Lambda_b))
    for region in ("I_b", "II_b"):
        pair = goldstone_operators(region, batch)
        h = boundary_hamiltonian(region, batch.points, *batch.Lambda_b)
        times = np.linspace(0.0, 4.0 * math.pi / pair.frequency, 32, axis=-1)
        residual = goldstone_dynamics_residual(pair, h, times)
        evolved = evolve_heisenberg(pair.P[:, None], h[:, None], times)
        assert residual.shape == (len(points),) and evolved.shape == (len(points), 32, 2, 2)
        for k, params in enumerate(points):
            lone = goldstone_operators(region, batch[k])
            h_k = boundary_hamiltonian(region, params, *batch[k].Lambda_b)
            assert _same_bits(residual[k], goldstone_dynamics_residual(lone, h_k, times[k]))
            assert _same_bits(evolved[k], evolve_heisenberg(lone.P, h_k, times[k]))


# The undamped map's iterates settle into a 2-cycle here and never meet
# the tolerance; a weak point beside it stops after a few steps.
TWO_CYCLE_POINT = JunctionParams(BulkParams(0.3, 1e4, math.pi), BulkParams(0.3, 1e4), 1.0)
WEAK_POINT = JunctionParams(BulkParams(0.3, 1e4, 0.3), BulkParams(0.3, 1e4), 1e-3)


@pytest.mark.filterwarnings("ignore::bcsjj.ness.WeakContactWarning")
def test_two_cycle_point_converges():
    sol = solve_ness(TWO_CYCLE_POINT)
    assert sol.converged and sol.iterations <= 10
    assert verify_steady(sol) <= 1e-12


@st.composite
def capped_batches(draw):
    """(points, max_iter): under a small cap, contacts up to gamma = 30,
    many of which cannot settle in time; under the default cap only weak
    ones, which each stop within a few steps."""
    max_iter = draw(st.sampled_from((1, 2, 7, 100_000)))
    gamma = GAMMA if max_iter == 100_000 else GAMMA | st.floats(0.0, 30.0)
    points = draw(st.lists(junctions(gamma), min_size=1, max_size=6))
    return points, max_iter


@pytest.mark.filterwarnings("ignore::bcsjj.ness.WeakContactWarning")
@PROPERTY
@hypothesis.seed(108)
@given(batch=capped_batches(), seed=SEED)
@example(batch=([TWO_CYCLE_POINT, WEAK_POINT], 50), seed=None)
def test_batch_stops_each_point_as_it_would_alone(batch, seed):
    """A batch whose points stop at different steps, or run out of
    steps, returns each point's lone solution bit for bit."""
    points, max_iter = batch
    solved = solve_batch(points, max_iter=max_iter, seed=seed)
    for k, params in enumerate(points):
        sol = solve_ness(params, max_iter=max_iter, seed=seed)
        for f in fields(NessSolution):
            value, expected = getattr(solved[k], f.name), getattr(sol, f.name)
            if f.name == "points":
                assert value == expected
            else:
                assert _same_bits(value, expected), f.name


@PROPERTY
@hypothesis.seed(104)
@given(params=junctions(), seed=SEED)
def test_bloch_residual_matches_matrix_reference(params, seed):
    sol = solve_ness(params, seed=seed)
    assert sol.converged
    assert sol.residual <= 1e-12
    assert abs(sol.residual - verify_steady(sol)) <= 1e-15


@st.composite
def strong_junctions(draw):
    """Plates on either side of their ordering threshold, joined by any
    contact up to gamma = 100."""
    gamma = draw(st.floats(0.0, 100.0) | st.floats(-4.0, 2.0).map(lambda e: 10.0**e))
    return JunctionParams(draw(plates()), draw(plates()), gamma)


@pytest.mark.filterwarnings("ignore::bcsjj.ness.WeakContactWarning")
@PROPERTY
@hypothesis.seed(109)
@given(params=strong_junctions())
@example(params=TWO_CYCLE_POINT)
# two normal plates at their threshold: at x = 0, an exact fixed point, I - Df is singular
@example(params=JunctionParams(*[BulkParams(0.40625, 2.7922258970072176)] * 2, 1.0))
def test_every_contact_converges_to_a_steady_state(params):
    sol = solve_ness(params)
    assert sol.converged
    assert verify_steady(sol) <= 1e-12
    if all(gap_root(b.epsilon, b.beta)[2] for b in (params.bulk_I, params.bulk_II)):
        rhs = closed_form_rhs((sol.Lambda_b_I, sol.Lambda_b_II), params)
        assert abs(rhs[0] - sol.Lambda_b_I) <= 1e-11
        assert abs(rhs[1] - sol.Lambda_b_II) <= 1e-11


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


@PROPERTY
@hypothesis.seed(114)
@given(plate_i=plates(), plate_ii=plates())
@example(plate_i=BulkParams(0.3, 1e4, 0.7), plate_ii=BulkParams(0.3, 1.0, -2.0))  # ordered, normal
def test_gathered_bulk_states_are_the_gap_solutions(plate_i, plate_ii):
    """The solver's bulk Bloch vectors, which verify_steady assembles into
    its bulk states, are those of solve_gap's 2x2 states."""
    bulk_vec = ness._plates([JunctionParams(plate_i, plate_ii)])[3][..., 0]
    for row, plate in enumerate((plate_i, plate_ii)):
        _, vector = pauli_components(solve_gap(plate).rho)
        assert np.abs(bulk_vec[:, row] - vector.real).max() <= 1e-15
