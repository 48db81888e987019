"""Single-site Bloch algebra against dense linear-algebra oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from bcsjj.spin import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_decompose,
    bloch_reconstruct,
    commutant_projection,
    commutator,
    evolve_heisenberg,
    expectation,
    gibbs_state,
    is_hermitian,
    max_abs,
    pauli,
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
    assert np.allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z)
    assert np.allclose(commutator(SIGMA_Y, SIGMA_Z), 2j * SIGMA_X)
    assert np.allclose(commutator(SIGMA_Z, SIGMA_X), 2j * SIGMA_Y)
    assert np.allclose(SIGMA_X @ SIGMA_X, IDENTITY)
    assert np.allclose(pauli("plus"), (SIGMA_X + 1j * SIGMA_Y) / 2)
    with pytest.raises(ValueError):
        pauli("w")


def test_bloch_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        op = random_hermitian(rng)
        form = bloch_decompose(op)
        assert np.allclose(bloch_reconstruct(form), op, atol=1e-14)
        # components multiply back for arbitrary (non-Hermitian) input too
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s, v = pauli_components(raw)
        rebuilt = s * IDENTITY + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z
        assert np.allclose(rebuilt, raw, atol=1e-14)


def test_bloch_decompose_rejects_non_hermitian():
    with pytest.raises(ValueError):
        bloch_decompose(pauli("plus"))


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
        assert max_abs(commutator(projected, h)) < 1e-13
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
