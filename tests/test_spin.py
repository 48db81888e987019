"""Single-site Bloch algebra against dense linear-algebra oracles."""

import math

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from bcsjj import spin
from bcsjj.spin import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_PLUS,
    SIGMA_Z,
    commutant_projection,
    evolve_heisenberg,
    expectation,
    gibbs_state,
    is_hermitian,
    pauli_components,
)


def random_hermitian(rng, scale=1.0):
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return scale * 0.5 * (raw + raw.conj().T)


def random_state(rng):
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def gibbs_oracle(h, beta):
    w = expm(-beta * h)
    return w / np.trace(w)


def test_pauli_algebra():
    for a, b, c in ((SIGMA_X, SIGMA_Y, SIGMA_Z), (SIGMA_Y, SIGMA_Z, SIGMA_X), (SIGMA_Z, SIGMA_X, SIGMA_Y)):
        assert np.allclose(a @ b - b @ a, 2j * c)
    assert np.allclose(SIGMA_X @ SIGMA_X, IDENTITY)
    assert np.allclose(SIGMA_PLUS, (SIGMA_X + 1j * SIGMA_Y) / 2)


def test_bloch_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        op = random_hermitian(rng)
        s, v = pauli_components(op)
        assert np.allclose(spin._from_bloch(s.real, v.real), op, atol=1e-14)
        # components multiply back for arbitrary (non-Hermitian) input too
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s, v = pauli_components(raw)
        rebuilt = s * IDENTITY + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z
        assert np.allclose(rebuilt, raw, atol=1e-14)


@pytest.mark.filterwarnings("error")
def test_pauli_components_of_entries_near_the_float_maximum():
    """Entries whose sums overflow while their halves fit: the components
    are finite, and a state in that field is the polarized one."""
    op = np.array([[1e308, 1e308], [1e308, -1e308]])
    s, v = pauli_components(op)
    assert s == 0.0 and np.array_equal(v, [1e308, 0.0, 1e308])
    polarized = gibbs_state(op, 1e-300)
    assert np.allclose(polarized, gibbs_state(SIGMA_X + SIGMA_Z, 1e4), rtol=0.0, atol=1e-15)


def test_pauli_components_keep_the_bits_of_the_unhalved_sums():
    """Halving each entry first is exact wherever the halves are normal
    floats, so the components are those of 0.5 * (a + d) and the like."""
    rng = np.random.default_rng(31)
    for exponent in range(-300, 307, 2):
        for _ in range(20):
            op = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * 10.0**exponent
            (a, b), (c, d) = op
            s, v = pauli_components(op)
            expected = [0.5 * (b + c), 0.5j * (b - c), 0.5 * (a - d)]
            assert s.tobytes() == (0.5 * (a + d)).tobytes()
            assert v.tobytes() == np.array(expected, dtype=complex).tobytes()


def test_gibbs_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        gibbs_state(SIGMA_PLUS, 1.0)


def test_gibbs_example_deep_quench():
    # h = 0.3 sz - 0.4 sx has gap 2*0.5; at beta = 1e4 the state is the
    # ground-state projector, Bloch vector (0.8, 0, -0.6)
    h = 0.3 * SIGMA_Z - 0.4 * SIGMA_X
    rho = gibbs_state(h, 1e4)
    assert abs(expectation(rho, SIGMA_X) - 0.8) < 1e-12
    assert abs(expectation(rho, SIGMA_Y)) < 1e-14
    assert abs(expectation(rho, SIGMA_Z) + 0.6) < 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-14


def test_gibbs_matches_matrix_exponential():
    rng = np.random.default_rng(11)
    for _ in range(40):
        h = random_hermitian(rng)
        beta = float(rng.uniform(0.1, 25.0))
        assert np.allclose(gibbs_state(h, beta), gibbs_oracle(h, beta), atol=1e-12)


def test_gibbs_degenerate_hamiltonian_is_maximally_mixed():
    rho = gibbs_state(2.7 * IDENTITY, 3.0)
    assert np.allclose(rho, IDENTITY / 2)


@pytest.mark.filterwarnings("error")
def test_gibbs_state_of_a_field_whose_square_overflows_is_polarized():
    """|n|^2 overflows past |n| ~ 1.34e154, and |n| itself past the float
    maximum: the state stays the polarized one along n, as at any field
    far above the temperature."""
    for field in (1e155, 1e200, 1e300):
        assert np.array_equal(gibbs_state(np.diag([field, -field]), 1.0), np.diag([0.0, 1.0]))
    tilted = gibbs_state(1e200 * (SIGMA_X - 0.5 * SIGMA_Y + SIGMA_Z), 1.0)
    assert np.allclose(tilted, gibbs_state(SIGMA_X - 0.5 * SIGMA_Y + SIGMA_Z, 1e4), rtol=0.0, atol=1e-15)
    beyond = gibbs_state(np.array([[1e308, 1.5e308], [1.5e308, -1e308]]), 1.0)
    assert np.allclose(beyond, gibbs_state(1.5 * SIGMA_X + SIGMA_Z, 1e4), rtol=0.0, atol=1e-15)


@pytest.mark.filterwarnings("error")
def test_thermal_bloch_keeps_the_bits_of_the_float_formula():
    """Contiguous vectors and strided views (gibbs_state passes the real
    part of a complex vector) over 300 decades of |n|: a is
    -1/2 tanh(beta |n|) (n/|n|) with |n| = math.hypot(*n), bit for bit, and
    a few ulps from the same formula on np.linalg.norm and np.tanh.  A
    field whose norm itself overflows takes its direction at max |n_i| = 1
    and gives the polarized state."""
    rng = np.random.default_rng(29)
    for _ in range(2000):
        n = rng.standard_normal(3) * 10.0 ** rng.uniform(-150.0, 150.0, 3)
        beta = float(10.0 ** rng.uniform(-3.0, 3.0))
        for vector in (n, (n + 0.5j).real):
            norm = math.hypot(*vector)
            expected = [-0.5 * math.tanh(beta * norm) * (float(c) / norm) for c in vector]
            a = spin._thermal_bloch(vector, beta)
            assert np.array(a).tobytes() == np.array(expected).tobytes()
            linalg = -0.5 * np.tanh(beta * np.linalg.norm(vector)) * (vector / np.linalg.norm(vector))
            assert np.allclose(a, linalg, rtol=8 * np.finfo(float).eps, atol=1e-300)
    for field in ([1.5e308, -1.5e308, 1e308], [0.0, 1.7e308, 1.7e308]):
        for vector in (np.array(field), (np.array(field) + 0.5j).real):
            unit = vector / np.abs(vector).max()
            expected = -0.5 * (unit / math.hypot(*unit))
            a = spin._thermal_bloch(vector, 1e-300)
            assert np.array(a).tobytes() == expected.tobytes()
            assert abs(math.hypot(*a) - 0.5) <= 1e-16


def test_one_matrix_functions_reject_stacks():
    stack = np.stack((SIGMA_Z, SIGMA_X))
    with pytest.raises(ValueError, match="2x2 matrix,"):
        gibbs_state(stack, 1.0)
    with pytest.raises(ValueError, match="2x2 matrix,"):
        commutant_projection(0.5 * IDENTITY, stack)
    with pytest.raises(ValueError, match="2x2 matrix stack,"):
        evolve_heisenberg(SIGMA_X, np.ones(4), 1.0)


def test_gibbs_rejects_bad_beta():
    for beta in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            gibbs_state(SIGMA_Z, beta)


def test_projection_example():
    # state with Bloch vector (0.8, 0, -0.6) projected onto the sz axis
    rho = 0.5 * (IDENTITY + 0.8 * SIGMA_X - 0.6 * SIGMA_Z)
    projected = commutant_projection(rho, SIGMA_Z)
    assert np.allclose(projected, 0.5 * (IDENTITY - 0.6 * SIGMA_Z), atol=1e-14)


def test_projection_properties():
    rng = np.random.default_rng(3)
    for _ in range(40):
        rho = random_state(rng)
        h = random_hermitian(rng)
        projected = commutant_projection(rho, h)
        # lands in the commutant, preserves trace and the conserved part
        assert np.abs(projected @ h - h @ projected).max() < 1e-13
        assert abs(np.trace(projected) - np.trace(rho)) < 1e-13
        assert abs(expectation(projected, h) - expectation(rho, h)) < 1e-13
        # idempotent
        assert np.allclose(commutant_projection(projected, h), projected, atol=1e-13)
        assert is_hermitian(projected)


def test_projection_fixes_commuting_states():
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = random_hermitian(rng)
        beta = float(rng.uniform(0.5, 5.0))
        rho = gibbs_state(h, beta)
        assert np.allclose(commutant_projection(rho, h), rho, atol=1e-13)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", [1e155, 1e200, 1e300])
def test_projection_onto_an_axis_whose_square_overflows(field):
    """|n|^2 overflows past |n| ~ 1.34e154: the state is projected onto
    the H axis as for any smaller field along it."""
    rho = np.array([[0.8, 0.1], [0.1, 0.2]])
    projected = commutant_projection(rho, np.diag([field, -field]))
    assert np.array_equal(projected, commutant_projection(rho, SIGMA_Z))
    assert np.allclose(projected, np.diag([0.8, 0.2]), rtol=0.0, atol=1e-15)


def test_projection_degenerate_hamiltonian_returns_state():
    rho = 0.5 * (IDENTITY + 0.8 * SIGMA_X - 0.6 * SIGMA_Z)
    assert np.allclose(commutant_projection(rho, IDENTITY), rho)


def test_projection_rejects_non_state():
    with pytest.raises(ValueError):
        commutant_projection(SIGMA_X, SIGMA_Z)  # trace zero, not a state
    with pytest.raises(ValueError):
        # trace one but an eigenvalue below zero
        commutant_projection(0.5 * (IDENTITY + 3.0 * SIGMA_Z), SIGMA_X)


def test_heisenberg_quarter_turn():
    # exp(i sz t) sx exp(-i sz t) = sx cos 2t - sy sin 2t
    evolved = evolve_heisenberg(SIGMA_X, SIGMA_Z, np.pi / 4)
    assert np.allclose(evolved, -SIGMA_Y, atol=1e-14)


def test_heisenberg_matches_matrix_exponential():
    rng = np.random.default_rng(13)
    for _ in range(40):
        h = random_hermitian(rng)
        op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        t = float(rng.uniform(-4.0, 4.0))
        u = expm(1j * t * h)
        oracle = u @ op @ u.conj().T
        assert np.allclose(evolve_heisenberg(op, h, t), oracle, atol=1e-12)


def test_heisenberg_conserves_hamiltonian_functions():
    h = 0.3 * SIGMA_Z - 0.4 * SIGMA_X
    assert np.allclose(evolve_heisenberg(h, h, 2.3), h, atol=1e-13)
    assert np.allclose(evolve_heisenberg(IDENTITY, h, 2.3), IDENTITY)


def test_expectation_matches_trace():
    rng = np.random.default_rng(17)
    for _ in range(30):
        rho = random_state(rng)
        op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert abs(expectation(rho, op) - np.trace(rho @ op)) < 1e-13


_FINITE = st.floats(-3.0, 3.0, allow_nan=False)
_TIMES = st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=0, max_size=8)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    op=st.lists(_FINITE, min_size=8, max_size=8),
    axis=st.lists(_FINITE, min_size=3, max_size=3),
    shift=_FINITE,
    zero_axis=st.booleans(),
    times=_TIMES,
)
def test_heisenberg_over_times_is_the_stack_of_single_times(op, axis, shift, zero_axis, times):
    """One call over an array of times equals one call per time, bit for bit,
    for any complex op, including an H with zero axis."""
    op = np.array(op[:4]).reshape(2, 2) + 1j * np.array(op[4:]).reshape(2, 2)
    n = np.zeros(3) if zero_axis else np.array(axis)
    h = shift * IDENTITY + n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    stacked = evolve_heisenberg(op, h, np.array(times))
    assert stacked.shape == (len(times), 2, 2)
    for t, evolved in zip(times, stacked):
        assert np.array_equal(evolved, evolve_heisenberg(op, h, t))
    assert evolve_heisenberg(op, h, 1.5).shape == (2, 2)


_MATRIX = st.lists(_FINITE, min_size=8, max_size=8)


@settings(max_examples=60, deadline=None, database=None)
@hypothesis.seed(113)
@given(
    ops=st.lists(_MATRIX, min_size=1, max_size=5),
    axes=st.lists(st.lists(_FINITE, min_size=4, max_size=4), min_size=5, max_size=5),
    zero_axis=st.lists(st.booleans(), min_size=5, max_size=5),
    times=st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=5, max_size=5),
)
def test_heisenberg_on_stacks_is_the_one_matrix_call(ops, axes, zero_axis, times):
    """Stacks of operators, Hamiltonians (some with zero axis) and times
    evolve elementwise: each element is the one-matrix call, bit for bit."""
    count = len(ops)
    op = np.array(ops)[:, :4].reshape(count, 2, 2) + 1j * np.array(ops)[:, 4:].reshape(count, 2, 2)
    h = np.array([
        shift * IDENTITY + (0.0 if zero else 1.0) * (x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)
        for (shift, x, y, z), zero in zip(axes[:count], zero_axis)
    ])
    t = np.array(times[:count])
    stacked = evolve_heisenberg(op, h, t)
    assert stacked.shape == (count, 2, 2)
    for k in range(count):
        assert np.array_equal(stacked[k], evolve_heisenberg(op[k], h[k], t[k]))
    # one Hamiltonian shared by the stack, and a time grid per operator
    grid = evolve_heisenberg(op[:, None], h[0], np.outer(t, [0.5, 1.0, 2.0]))
    assert grid.shape == (count, 3, 2, 2)
    for k in range(count):
        assert np.array_equal(grid[k], evolve_heisenberg(op[k], h[0], t[k] * np.array([0.5, 1.0, 2.0])))
