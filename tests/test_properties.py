"""Property tests of the batched junction solver and the bare gap root.

Points cover ordered and normal plates (beta below the ordering
threshold), weak contacts up to the warning bound, and caller seeds.
Each test pins its examples with its own ``@seed``, so every run checks
the same points, and an edit to a test's source does not swap them (a
derandomized run seeds itself from a hash of that source).  Points a
past example set hit are kept as ``@example``.  The CLI contract test
draws whole argvs, with extreme floats, in place of points.
"""

import cmath
import contextlib
import io
import json
import math
import sys
import warnings
from dataclasses import fields

import hypothesis
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcsjj import cli, ness
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
from bcsjj.spin import commutant_projection, evolve_heisenberg, pauli_components
from bcsjj.sweep import (
    SWEEP_AXES,
    RunConfig,
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


# a point where pow(mu_t, 2) on one point rounds otherwise than mu_t * mu_t on arrays
ROUNDING_POINT = JunctionParams(
    BulkParams(0.3333333333333333, 100.0), BulkParams(0.3924940264049931, 0.5), 0.004050263094858067
)


# Beside another point, so that the batch runs on arrays and the lone
# solves on floats: a decoupled junction, a negative coupling, and two
# normal plates at their threshold, where x = 0 is an exact fixed point
# at which I - Df is singular.
ZERO_GAMMA_POINT = JunctionParams(BulkParams(0.3, 1e4, 0.7), BulkParams(0.25, 50.0, -1.0), 0.0)
NEGATIVE_GAMMA_POINT = JunctionParams(BulkParams(0.3, 1e4, 0.7), BulkParams(0.2, 1e4, -2.0), -0.01)
SINGULAR_POINT = JunctionParams(*[BulkParams(0.40625, 2.7922258970072176)] * 2, 1.0)


# The undamped map's iterates settle into a 2-cycle here and never meet
# the tolerance; a weak point beside it stops after a few steps.
TWO_CYCLE_POINT = JunctionParams(BulkParams(0.3, 1e4, math.pi), BulkParams(0.3, 1e4), 1.0)
WEAK_POINT = JunctionParams(BulkParams(0.3, 1e4, 0.3), BulkParams(0.3, 1e4), 1e-3)


# the contact fields' squares overflow, so the map, and with it the defect, is NaN on step 1
OVERFLOW_POINT = JunctionParams(BulkParams(0.3, 1e4), BulkParams(0.3, 1e4), 1e155)

# a phase so large that phi_I - delta rounds on a delta_phi sweep
PHASE_ROUNDING_POINT = JunctionParams(BulkParams(0.3, 1e4, 1e16), BulkParams(0.2, 40.0), 1e-3)


def _rotated(seed, delta):
    if seed is None:
        return None
    return (seed[0] * cmath.exp(1j * delta), seed[1] * cmath.exp(1j * delta))


def _swept(params, **sweep):
    """The RunConfig of a junction point with the given sweep settings."""
    return config_from_mapping({
        "epsilon_I": params.bulk_I.epsilon,
        "epsilon_II": params.bulk_II.epsilon,
        "beta_I": params.bulk_I.beta,
        "beta_II": params.bulk_II.beta,
        "gamma": params.gamma,
        "phi_I": params.bulk_I.phi,
        "phi_II": params.bulk_II.phi,
        **sweep,
    })


def _same_row(row, expected):
    """Every SweepRow field of the same type and bits, or NaN in both: a
    NaN's sign may differ between the float and array routes, as the
    solver's does."""
    for f in fields(row):
        value, other = getattr(row, f.name), getattr(expected, f.name)
        assert type(value) is type(other), f.name
        assert _same_bits(value, other) or (math.isnan(value) and math.isnan(other)), f.name


@pytest.mark.filterwarnings("ignore::bcsjj.ness.WeakContactWarning")
@PROPERTY
@hypothesis.seed(101)
@given(config=sweep_configs())
@example(config=_swept(OVERFLOW_POINT, axis="gamma", start=1e155, stop=1e-3, count=2))
@example(config=_swept(TWO_CYCLE_POINT, axis="gamma", start=1.0, stop=1e-3, count=3))
@example(config=_swept(ZERO_GAMMA_POINT, axis="beta_II", start=50.0, stop=1.0, count=2))
@example(config=_swept(ROUNDING_POINT, axis="gamma", start=ROUNDING_POINT.gamma, stop=0.0, count=2))
# phi_II = phi_I - value rounds: the ulp of 1e16 is 2
@example(config=_swept(PHASE_ROUNDING_POINT, axis="delta_phi", start=-1.5, stop=1.5, count=7))
# from the ordered side of beta_c to the normal side: the normal plates begin mid-grid
@example(config=_swept(WEAK_POINT, axis="beta_I", start=1.5 * critical_beta(0.3), stop=0.5 * critical_beta(0.3), count=5))
# through epsilon = 1/2, where the plate has no ordered phase at any beta
@example(config=_swept(WEAK_POINT, axis="epsilon_II", start=0.3, stop=0.7, count=5))
def test_sweep_rows_equal_single_point_rows(config):
    """A grid's rows, built from the batch's arrays, are its points' lone
    rows, built on Python floats, bit for bit."""
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
    rows = run_sweep(config)
    assert len(rows) == len(expected)
    for row, lone in zip(rows, expected):
        _same_row(row, lone)


@pytest.mark.filterwarnings("ignore::bcsjj.ness.WeakContactWarning")
@PROPERTY
@hypothesis.seed(102)
@given(params=junctions(), seed=SEED)
@example(params=OVERFLOW_POINT, seed=None)
@example(params=TWO_CYCLE_POINT, seed=None)
@example(params=ZERO_GAMMA_POINT, seed=None)
@example(params=ROUNDING_POINT, seed=None)
def test_row_matches_matrix_observables(params, seed):
    """A lone row, built on Python floats, holds the observables of the
    solution's arrays bit for bit."""
    row = evaluate_point(params, seed=seed)
    sol = solve_ness(params, seed=seed)
    assert _same_bits(row.current, josephson_current(sol, params.gamma))
    for side in ("I", "II"):
        pair = goldstone_operators(f"{side}_b", sol)
        assert _same_bits(getattr(row, f"nu_t_{side}"), pair.frequency)
        assert _same_bits(getattr(row, f"ccr_defect_{side}"), ccr_defect(pair))


def _names(cls):
    """Every dataclass field and every property of ``cls``."""
    properties = [name for name, v in vars(cls).items() if isinstance(v, property)]
    return [f.name for f in fields(cls)] + properties


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.filterwarnings("ignore::bcsjj.ness.WeakContactWarning")
@PROPERTY
@hypothesis.seed(103)
@given(points=st.lists(junctions(), min_size=1, max_size=6), seed=SEED)
@example(points=[ROUNDING_POINT], seed=None)
@example(points=[ZERO_GAMMA_POINT, ROUNDING_POINT], seed=None)
@example(points=[NEGATIVE_GAMMA_POINT, ROUNDING_POINT], seed=(0.3 + 0.1j, -0.2j))
@example(points=[SINGULAR_POINT, ROUNDING_POINT], seed=None)
def test_batch_point_equals_single_solve(points, seed):
    """solve_batch(points)[k] is solve_ness(points[k]) bit for bit, and the
    observables of the whole batch are their per-point values."""
    batch = solve_batch(points, seed=seed)
    current = josephson_current(batch, np.array([p.gamma for p in points]))
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
        assert _same_bits(current[k], josephson_current(sol, params.gamma))
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


@pytest.mark.filterwarnings("ignore::bcsjj.ness.WeakContactWarning")
def test_two_cycle_point_converges():
    sol = solve_ness(TWO_CYCLE_POINT)
    assert sol.converged and sol.iterations <= 10
    assert verify_steady(sol) <= 1e-12


def _parts(value):
    """A field as an array, complex values split into (re, im)."""
    value = np.asarray(value)
    return np.stack((value.real, value.imag)) if value.dtype.kind == "c" else value


@pytest.mark.filterwarnings("ignore::bcsjj.ness.WeakContactWarning")
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_point_stops_alike_alone_and_in_a_batch():
    """A point whose defect turns NaN stops, unconverged, on the same step on
    Python floats (alone) and on arrays (beside a weak point, or beside a
    point that runs on after it stops): its finite fields agree bit for bit
    and its NaNs sit in the same places.  NaN signs may differ between the
    routes, so NaN masks are compared.  Neither route warns on overflow."""
    alone = solve_ness(OVERFLOW_POINT)
    assert alone.iterations == 1 and not alone.converged
    assert math.isnan(alone.residual)
    # the two-cycle point takes 6 steps, so the stopped overflow point is
    # computed, not updated, on steps 2 to 6
    frozen = solve_batch([OVERFLOW_POINT, TWO_CYCLE_POINT])
    assert frozen.iterations.tolist() == [1, 6]
    for beside in (solve_batch([OVERFLOW_POINT, WEAK_POINT])[0], frozen[0]):
        assert beside.iterations == 1 and not beside.converged
        for f in fields(NessSolution)[1:]:
            value, expected = _parts(getattr(beside, f.name)), _parts(getattr(alone, f.name))
            nan = np.isnan(expected.astype(float))
            assert np.array_equal(np.isnan(value.astype(float)), nan), f.name
            assert _same_bits(value[~nan], expected[~nan]), f.name


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
@example(batch=([ZERO_GAMMA_POINT, WEAK_POINT], 100_000), seed=None)
@example(batch=([NEGATIVE_GAMMA_POINT, WEAK_POINT], 2), seed=(0.3 + 0.1j, -0.2j))
@example(batch=([SINGULAR_POINT, WEAK_POINT, TWO_CYCLE_POINT], 7), seed=None)
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


# floats as a caller may pass them: zeros, subnormals, negatives, the extremes
RAW_FLOAT = st.floats() | st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.5, 2.0, 1e308, -1e308, math.inf, -math.inf, math.nan)
)


@PROPERTY
@hypothesis.seed(118)
@given(epsilon=RAW_FLOAT, beta=RAW_FLOAT)
@example(epsilon=0.3, beta=math.inf)  # g(1/2) = 0 ends the loop, where beta (1 - t^2) is inf * 0
@example(epsilon=-1.0, beta=-math.inf)  # every Newton step is NaN: only bisection moves mu
@example(epsilon=-math.inf, beta=-math.inf)  # the bracket's midpoint is -inf
@example(epsilon=-0.3, beta=1.0)  # the root is mu = 0, g'(0) = beta - 2
@example(epsilon=5e-324, beta=1e308)
def test_gap_root_returns_on_any_floats(epsilon, beta):
    """gap_root ends on any pair of floats, and an ordered root lies in
    (epsilon, 1/2]."""
    lam, mu, superconducting = gap_root(epsilon, beta)
    if superconducting:
        assert epsilon < mu <= 0.5
    else:
        assert (lam, mu) == (0.0, epsilon) or math.isnan(epsilon)


@PROPERTY
@hypothesis.seed(115)
@given(plate=plates())
@example(plate=BulkParams(0.3, 1e4, -2.5e-05))  # ordered
@example(plate=BulkParams(0.3, 1.0, 0.7))  # normal, below the threshold
@example(plate=BulkParams(0.6, 1e4, 0.0))  # no ordered phase at any beta
def test_printed_fixed_point_defect_is_the_solve_gap_residual(plate):
    """``bcsjj gap`` takes its numbers without solve_gap's 2x2 state and
    prints the same residual, bit for bit."""
    argv = ["gap", "--epsilon", repr(plate.epsilon), "--beta", repr(plate.beta),
            "--phi", repr(plate.phi), "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    printed = json.loads(out.getvalue())
    sol = solve_gap(plate)
    assert _same_bits(printed["fixed_point_defect"], sol.residual)
    branch = printed["superconducting_branch"]
    assert (branch is not None) is sol.superconducting
    if branch is not None:
        assert _same_bits(branch["lambda"], sol.lam) and _same_bits(branch["mu"], sol.mu)


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


@pytest.mark.filterwarnings("ignore::bcsjj.ness.WeakContactWarning")
@PROPERTY
@hypothesis.seed(116)
@given(params=junctions(), seed=SEED)
@example(params=TWO_CYCLE_POINT, seed=None)
@example(params=ROUNDING_POINT, seed=None)
def test_contact_states_are_the_dephased_bulk_states(params, seed):
    """Each contact state is its plate's bulk state projected onto the
    commutant of its contact Hamiltonian, alone (Python floats) and beside
    another point (arrays)."""
    for sol in (solve_ness(params, seed=seed), solve_batch([params, WEAK_POINT], seed=seed)[0]):
        for side, bulk in (("I", params.bulk_I), ("II", params.bulk_II)):
            h = boundary_hamiltonian(f"{side}_b", params, *sol.Lambda_b)
            dephased = commutant_projection(solve_gap(bulk).rho, h)
            assert np.abs(getattr(sol, f"rho_b_{side}") - dephased).max() <= 1e-14, side


ONE_IN_FOUR = st.integers(0, 3).map(lambda k: k == 0)
# Float flag values: the edges of the float range, the epsilon limits of
# the junction solve, and a few ordinary values, each also negated.
CLI_FLOATS = st.builds(
    lambda value, negate: -value if negate else value,
    st.sampled_from((
        0.0, 5e-324, 1e-162, 1e-110, 1e154, 1e155, 1e300, sys.float_info.max,
        math.inf, math.nan, 1e-3, 0.3, 1.0, 1e4,
    )),
    ONE_IN_FOUR,
)
CLI_INTS = {
    "count": st.integers(1, 3),
    "lattice_n": st.integers(1, 2),
    "max_iter": st.sampled_from((-1, 0, 1, 2, 100)),
    "memory_cap": st.sampled_from((0, 1, 10**6, 10**9)),
}
# every command but check, which runs one fixed suite on its own grid
CLI_COMMANDS = {name: (dests, formats) for name, _, dests, formats in cli._SUBCOMMANDS if name != "check"}


@st.composite
def cli_argvs(draw):
    """An argv of one of :data:`CLI_COMMANDS`, each of its flags present
    one time in four (a required one always), with a value of the flag's
    type.  Files (``--config``, ``--output``) are left out."""
    name = draw(st.sampled_from(sorted(CLI_COMMANDS)))
    dests, formats = CLI_COMMANDS[name]
    argv = [name]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(formats))]
    for dest in dests:
        flag, options = cli._FLAGS[dest]
        if dest in ("config", "output") or not (options.get("required") or draw(ONE_IN_FOUR)):
            continue
        if dest == "axis":
            values = [draw(st.sampled_from(SWEEP_AXES))]
        elif options.get("type") is int:
            values = [draw(CLI_INTS[dest])]
        else:
            values = draw(st.lists(CLI_FLOATS, min_size=1, max_size=2 if options.get("nargs") else 1))
        argv += [flag, *map(repr, values)]
    return argv


def _last_value(argv, flag):
    """The value of the last ``flag`` in ``argv``, or None."""
    values = [argv[k + 1] for k, token in enumerate(argv[:-1]) if token == flag]
    return values[-1] if values else None


def _quiet_main(argv):
    """``cli.main(argv)`` with every warning but a weak contact's an error:
    its exit code and stdout."""
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", category=ness.WeakContactWarning)
        code = cli.main(argv)
    return code, out.getvalue()


def _reject_constant(token):
    raise ValueError(f"bare {token} is not JSON")


@settings(max_examples=400, deadline=None, database=None)
@hypothesis.seed(117)
@given(argv=cli_argvs())
@example(argv=["ness", "--epsilon-i", "1e-110", "--beta-i", "1", "--gamma", "0"])  # _ccr's mu_t^3 underflowed
@example(argv=["sweep", "--axis", "gamma", "--start", "0", "--stop", "inf", "--count", "3"])
@example(argv=["sweep", "--axis", "gamma", "--start", "-1e308", "--stop", "1e308", "--count", "3"])
@example(argv=["sweep", "--epsilon-i", "1e160", "--count", "2"])  # bulk operands overflowed
@example(argv=["sweep", "--epsilon-ii", "1e154", "--count", "2"])  # the commutator overflowed
@example(argv=["sweep", "--gamma", "1e308", "--tolerance", "1e4", "--count", "2"])  # the current overflowed
@example(argv=["ness", "--gamma", "-0.0"])  # the one-point grid dropped the sign of -0.0
def test_cli_contract(argv):
    """Whatever the flags, ``bcsjj`` exits with one of its codes (1 only
    for ``finite-n``), lets no exception or warning out, prints strict
    JSON, and a lone ``ness`` row is the one-point gamma sweep's row."""
    code, out = _quiet_main(argv)
    assert code in (0, 2, 3, 4) or (code == 1 and argv[0] == "finite-n"), code
    if out and (_last_value(argv, "--format") or {"ness": "json"}.get(argv[0])) == "json":
        json.loads(out, parse_constant=_reject_constant)
    if argv[0] == "ness":
        gamma = _last_value(argv, "--gamma") or repr(RunConfig.gamma)
        grid = ["--axis", "gamma", "--start", gamma, "--stop", gamma, "--count", "1", "--format", "csv"]
        assert _quiet_main([*argv, "--format", "csv"]) == _quiet_main(["sweep", *argv[1:], *grid])
