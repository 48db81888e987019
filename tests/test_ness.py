"""Driven steady state of the contact region: solver and invariants."""

import cmath
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bcsjj import cli, equilibrium, ness, sweep
from bcsjj.constants import NESS_CHANGE_TOL
from bcsjj.equilibrium import BulkParams, gap_root
from bcsjj.ness import (
    JunctionParams,
    WeakContactWarning,
    boundary_hamiltonian,
    closed_form_rhs,
    gauge_shift,
    ness_map,
    solve_ness,
    verify_steady,
)
from bcsjj.spin import SIGMA_PLUS, expectation
from bcsjj.sweep import RunConfig, evaluate_point, run_sweep

STANDARD = JunctionParams(
    bulk_I=BulkParams(0.3, 1e4, 0.3),
    bulk_II=BulkParams(0.3, 1e4, 0.0),
    gamma=1e-3,
)


def grid_points():
    for eps in (0.2, 0.3):
        for gamma in (1e-4, 1e-3, 1e-2):
            for delta in np.linspace(-math.pi / 2, math.pi / 2, 9):
                yield JunctionParams(
                    bulk_I=BulkParams(eps, 1e4, float(delta)),
                    bulk_II=BulkParams(eps, 1e4, 0.0),
                    gamma=gamma,
                )


def test_decoupled_junction_echoes_bulk():
    p = replace(STANDARD, gamma=0.0)
    sol = solve_ness(p)
    assert sol.converged
    assert sol.iterations <= 2
    assert abs(sol.Lambda_b_I - 0.4 * cmath.exp(0.3j)) < 1e-6
    assert abs(sol.Lambda_b_II - 0.4) < 1e-6
    # the decoupled field is the bulk order parameter itself; Lambda_b
    # re-derives it through the projection, so only the bulk gap root's
    # defect separates them
    assert abs(sol.field_I - sol.Lambda_b_I) < 1e-13
    assert abs(sol.mu_t_I - 0.5) < 1e-6


def test_projection_map_and_closed_form_agree():
    """The constructed map satisfies the algebraic fixed-point system."""
    worst = 0.0
    for p in grid_points():
        sol = solve_ness(p)
        assert sol.converged
        guess = (sol.Lambda_b_I, sol.Lambda_b_II)
        mapped = ness_map(guess, p)
        rhs = closed_form_rhs(guess, p)
        worst = max(
            worst,
            abs(mapped[0] - rhs[0]),
            abs(mapped[1] - rhs[1]),
            abs(rhs[0] - guess[0]),
            abs(rhs[1] - guess[1]),
        )
    assert worst < 1e-11, f"worst closed-form defect {worst:.3e}"


@pytest.mark.filterwarnings("ignore::bcsjj.ness.WeakContactWarning")
def test_map_of_a_contact_field_whose_square_overflows_is_nan():
    """At gamma 1e155 plate I's contact field is ~4e154, whose square
    overflows: its map reads NaN, not the 0 of c = a.n / inf.  Plate II
    sees x_I = 0 and maps as at any finite coupling."""
    p = JunctionParams(BulkParams(0.3, 1e4), BulkParams(0.3, 1e4), 1e155)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        f_I, f_II = ness_map((0, 0.4), p)
    assert cmath.isnan(f_I)
    assert f_II == ness_map((0, 0.4), replace(p, gamma=1e150))[1]


def test_references_are_quiet_at_a_huge_plate():
    """The 2x2 references gather their plates as the solver does, with
    numpy's overflow warnings off: at a plate whose eps^2 overflows none
    warns, and each reads NaN where the solver does."""
    p = JunctionParams(BulkParams(1e160, 1.0), BulkParams(0.3, 1e4), 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_ness(p)
        rhs_I, rhs_II = closed_form_rhs((0j, 0j), p)
        hamiltonians = [boundary_hamiltonian(region, p) for region in ness.REGIONS]
        defect = verify_steady(sol)
    assert cmath.isnan(sol.Lambda_b_I) and cmath.isnan(rhs_I) and math.isnan(defect)
    assert rhs_II == closed_form_rhs((0j, 0j), replace(p, bulk_I=BulkParams(1e150, 1.0)))[1]
    assert hamiltonians[0][0, 0] == 1e160 and np.isfinite(hamiltonians).all()


def test_steady_state_residual():
    for p in grid_points():
        sol = solve_ness(p)
        assert verify_steady(sol) < 1e-12


def test_field_composition():
    sol = solve_ness(STANDARD)
    lam_i = sol.lambda_bulk_I * cmath.exp(1j * STANDARD.bulk_I.phi)
    lam_ii = sol.lambda_bulk_II * cmath.exp(1j * STANDARD.bulk_II.phi)
    assert abs(sol.field_I - (lam_i + STANDARD.gamma * sol.Lambda_b_II)) < 1e-15
    assert abs(sol.field_II - (lam_ii + STANDARD.gamma * sol.Lambda_b_I)) < 1e-15
    assert abs(sol.mu_t_I - math.hypot(0.3, abs(sol.field_I))) < 1e-15


def test_stronger_contact_field_modulus():
    # gamma = 1e-2, aligned phases: |field| = lam + gamma * lam_t = 0.4040
    p = JunctionParams(BulkParams(0.3, 1e4), BulkParams(0.3, 1e4), 1e-2)
    sol = solve_ness(p)
    assert abs(abs(sol.field_I) - 0.40401) < 1e-4
    assert abs(abs(sol.Lambda_b_I) - 0.40144) < 1e-4


def test_contact_state_consistency():
    sol = solve_ness(STANDARD)
    for rho, lam_b in (
        (sol.rho_b_I, sol.Lambda_b_I),
        (sol.rho_b_II, sol.Lambda_b_II),
    ):
        assert abs(expectation(rho, SIGMA_PLUS) - lam_b) < 1e-13
        assert abs(np.trace(rho) - 1.0) < 1e-14
    h_i = boundary_hamiltonian(
        "I_b", STANDARD, Lambda_b_I=sol.Lambda_b_I, Lambda_b_II=sol.Lambda_b_II
    )
    assert np.abs(sol.rho_b_I @ h_i - h_i @ sol.rho_b_I).max() < 1e-13


def test_phase_locking():
    for p in grid_points():
        sol = solve_ness(p)
        for lam_b, field in ((sol.Lambda_b_I, sol.field_I), (sol.Lambda_b_II, sol.field_II)):
            spread = cmath.exp(1j * np.angle(lam_b)) - cmath.exp(1j * np.angle(field))
            assert abs(spread) < 1e-12


def test_verify_steady_detects_perturbation():
    sol = solve_ness(STANDARD)
    broken = replace(sol, Lambda_b=sol.Lambda_b + [1e-3, 0.0])
    assert verify_steady(broken) > 1e-5
    broken = replace(sol, Lambda_b=sol.Lambda_b * [cmath.exp(1e-4j), 1.0])
    assert verify_steady(broken) > 1e-7


def test_references_root_each_plate_once(monkeypatch):
    """verify_steady, closed_form_rhs and boundary_hamiltonian each run the
    bare gap root once per distinct (epsilon, beta), also when the points'
    plates differ in phase and the points in gamma."""
    batch = ness.solve_batch(
        JunctionParams(BulkParams(eps, 1e4, phi), BulkParams(0.2, 1e4, 0.0), gamma)
        for eps in (0.2, 0.3) for phi in (-0.4, 0.0, 1.1) for gamma in (1e-4, 1e-3)
    )
    calls = []

    def counting(epsilon, beta):
        calls.append((epsilon, beta))
        return gap_root(epsilon, beta)

    # solve_gap reads the root from equilibrium, the gather from ness
    monkeypatch.setattr(ness, "gap_root", counting)
    monkeypatch.setattr(equilibrium, "gap_root", counting)
    for reference in (
        lambda: verify_steady(batch),
        lambda: closed_form_rhs(batch.Lambda_b, batch.points),
        lambda: boundary_hamiltonian("I_b", batch.points, *batch.Lambda_b),
    ):
        calls.clear()
        reference()
        assert sorted(calls) == [(0.2, 1e4), (0.3, 1e4)]


def test_gauge_covariance():
    sol = solve_ness(STANDARD)
    for delta in (0.7, -1.3, 2.0 * math.pi, 11.0):
        shifted = solve_ness(gauge_shift(STANDARD, delta))
        rotation = cmath.exp(1j * delta)
        assert abs(shifted.Lambda_b_I - sol.Lambda_b_I * rotation) < 1e-11
        assert abs(shifted.Lambda_b_II - sol.Lambda_b_II * rotation) < 1e-11
        assert abs(shifted.mu_t_I - sol.mu_t_I) < 1e-13
        assert abs(shifted.mu_t_II - sol.mu_t_II) < 1e-13


def test_swap_symmetry():
    p = JunctionParams(
        bulk_I=BulkParams(0.2, 1e4, 0.4),
        bulk_II=BulkParams(0.3, 1e4, 0.1),
        gamma=1e-3,
    )
    swapped = JunctionParams(bulk_I=p.bulk_II, bulk_II=p.bulk_I, gamma=p.gamma)
    a, b = solve_ness(p), solve_ness(swapped)
    assert abs(a.Lambda_b_I - b.Lambda_b_II) < 1e-12
    assert abs(a.Lambda_b_II - b.Lambda_b_I) < 1e-12
    assert abs(a.mu_t_I - b.mu_t_II) < 1e-14


def test_seeded_solve_reaches_same_point():
    sol = solve_ness(STANDARD)
    seeded = solve_ness(STANDARD, seed=(0.2 * cmath.exp(0.5j), 0.3))
    assert seeded.converged
    assert abs(seeded.Lambda_b_I - sol.Lambda_b_I) < 1e-11
    assert abs(seeded.Lambda_b_II - sol.Lambda_b_II) < 1e-11


def test_normal_phase_junction():
    # both plates above threshold: no order parameter anywhere
    p = JunctionParams(BulkParams(0.3, 2.0), BulkParams(0.3, 2.0), 1e-3)
    sol = solve_ness(p)
    assert sol.converged
    assert abs(sol.Lambda_b_I) < 1e-14
    assert abs(sol.Lambda_b_II) < 1e-14
    assert abs(sol.mu_t_I - 0.3) < 1e-14


def test_one_sided_junction():
    # plate II normal: its contact gap is induced at order gamma
    p = JunctionParams(BulkParams(0.3, 1e4, 0.2), BulkParams(0.3, 2.0), 1e-3)
    sol = solve_ness(p)
    assert sol.converged
    assert abs(sol.Lambda_b_I) > 0.39
    induced = abs(sol.Lambda_b_II)
    assert 0.0 < induced < 10.0 * p.gamma


def test_converged_flag_tracks_residual():
    for p in grid_points():
        sol = solve_ness(p)
        assert sol.converged == (sol.residual <= 1e-11) or sol.residual < 1e-12


def test_iteration_cap_is_the_only_fallback():
    # one Newton step cannot reach the tolerance at gamma = 1e-2
    params = replace(STANDARD, gamma=1e-2)
    sol = solve_ness(params, max_iter=1)
    assert not sol.converged
    assert sol.iterations == 1
    assert sol.residual > 1e-12
    assert solve_ness(params, max_iter=5).iterations <= 5


def test_empty_batch_evaluates_the_map_at_most_twice(monkeypatch):
    calls, contact_map = [], ness._contact_map

    def counting(*args):
        calls.append(args)
        return contact_map(*args)

    monkeypatch.setattr(ness, "_contact_map", counting)
    empty = ness.solve_batch([])
    assert empty.Lambda_b.shape == (2, 0) and empty.iterations.shape == (0,)
    assert len(calls) <= 2  # at most one loop step, then the final stage


def test_a_singular_newton_system_takes_half_the_map_step():
    """Mirror-image plates (phases 0 and pi) at gamma = 1, deep in the ordered
    phase: the bulk gap root gives mu = 1/2 exactly, so at the bulk seed both
    contact fields are 0, the blocks B and B_o are I but for opposite
    off-diagonal roundings of sin(pi), and I - B B_o is exactly 0.
    Each plate's update is then half its map step d / 2, on floats and on
    arrays alike, and the next step is a regular Newton step."""
    params = JunctionParams(BulkParams(0.3, 1e4, math.pi), BulkParams(0.3, 1e4), 1.0)
    assert gap_root(0.3, 1e4)[1] == 0.5
    _, order, eps, scale, (gamma,) = ness._plate_rows(ness._inputs(params), 1)
    plate_I, plate_II = (
        ness._operands(z.real, z.imag, e, s, gamma)[1] for (z,), (e,), (s,) in zip(order, eps, scale)
    )
    x_I, x_II = order[0][0], order[1][0]
    own = ness._linearize(x_I.real, x_I.imag, x_II.real, x_II.imag, *plate_I)
    other = ness._linearize(x_II.real, x_II.imag, x_I.real, x_I.imag, *plate_II)
    b00, b01, b10, b11 = own[2:]
    assert (b00, b01, b11) == (1.0, 0.0, 1.0) and other[2:] == (b00, b01, -b10, b11)
    assert ness._newton_delta(*own, *other, ness._pick) == (0.5 * own[0], 0.5 * own[1])
    assert ness._newton_delta(*other, *own, ness._pick) == (0.5 * other[0], 0.5 * other[1])
    rows = np.array([own, other]).T
    delta = ness._newton_delta(*rows, *rows[:, ::-1], np.where)
    assert np.array_equal(delta, 0.5 * rows[:2])


def test_solver_argument_validation():
    with pytest.raises(ValueError):
        solve_ness(STANDARD, tol=-1.0)
    for max_iter in (0, -3):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            ness.solve_batch([STANDARD], max_iter=max_iter)
    for seed in ((math.nan, 0j), (0j, complex(0.1, math.inf)), (-math.inf, 0.1)):
        for points in ([STANDARD], [STANDARD, STANDARD]):
            with pytest.raises(ValueError, match="seed must be finite"):
                ness.solve_batch(points, seed=seed)


@pytest.mark.filterwarnings("ignore::bcsjj.ness.WeakContactWarning")
def test_plates_whose_epsilon_squared_underflows_are_rejected():
    """The contact map divides by |F|^2 + epsilon^2, which is 0 at a normal
    plate whose epsilon^2 underflows, and the commutator by mu_t^3, which
    is 0 there once epsilon^3 underflows; such a plate is rejected on both
    routes and by the references that gather plates.  Every input check
    runs before the weak-contact warning, so this strong contact only raises."""
    for epsilon in (1e-110, 3e-162, 1e-170):
        tiny = JunctionParams(BulkParams(epsilon, 1.0), BulkParams(0.3, 1e4), 1e-3)
        for call in (
            lambda: solve_ness(tiny),
            lambda: ness.solve_batch([tiny, STANDARD]),
            lambda: ness.ness_map((0j, 0j), tiny),
            lambda: ness.closed_form_rhs((0j, 0j), tiny),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValueError, match="its cube underflows to 0"):
                    call()
            assert caught == []
    # an epsilon whose cube is subnormal but not 0 still solves, on both routes
    small = JunctionParams(BulkParams(2e-108, 1.0), BulkParams(0.3, 1e4), 1e-3)
    assert solve_ness(small).converged and ness.solve_batch([small, STANDARD]).converged.all()


def _leaf_types(values):
    """The types of the non-sequence items of nested lists and tuples."""
    types = set()
    for value in values:
        types |= _leaf_types(value) if isinstance(value, (list, tuple)) else {type(value)}
    return types


def test_one_point_runs_the_kernel_on_floats(monkeypatch, capsys):
    """solve_batch hands the kernel Python floats for exactly one point and
    float arrays for any other count; ness_map runs it on floats.  The row
    formulas follow the solve: a lone evaluate_point and a ``ness`` call hand
    them Python numbers, and rows of 0, 2 or 6 points arrays."""
    kinds, contact_map = [], ness._contact_map

    def recording(*args):
        kinds.append({type(a) for a in args})
        return contact_map(*args)

    monkeypatch.setattr(ness, "_contact_map", recording)
    for count, kind in ((1, float), (0, np.ndarray), (2, np.ndarray), (6, np.ndarray)):
        kinds.clear()
        ness.solve_batch([STANDARD] * count)
        assert kinds and all(k == {kind} for k in kinds), count
    kinds.clear()
    ness_map((0.4 + 0.1j, 0.4), STANDARD)
    assert kinds == [{float}, {float}]

    row_kinds = []

    def row_recording(helper, operands):
        def record(*args):
            row_kinds.append(_leaf_types(operands(*args)))
            return helper(*args)

        return record

    # each shared row formula, with the numbers it computes on
    helpers = {
        "_ccr": lambda *args: args,
        "josephson_current": lambda sol, gamma: (sol.Lambda_b, gamma),
        "goldstone_frequencies": lambda sol: sol.mu_t,
    }
    for name, operands in helpers.items():
        monkeypatch.setattr(sweep, name, row_recording(getattr(sweep, name), operands))
    lone_calls = (
        lambda: evaluate_point(STANDARD),
        lambda: cli.main(["ness", "--gamma", "2e-3", "--phi-i", "0.4"]),
    )
    for call in lone_calls:
        kinds.clear()
        row_kinds.clear()
        call()
        assert kinds and all(k == {float} for k in kinds)
        # a lone point's kernel, and so its row, runs on Python floats
        assert len(row_kinds) == 4 and all(k <= {float, complex} for k in row_kinds), row_kinds
    capsys.readouterr()
    for count in (0, 2, 6):
        row_kinds.clear()
        sweep._evaluate(ness._columns([STANDARD] * count), count, NESS_CHANGE_TOL, 100_000, None)
        assert len(row_kinds) == 4 and all(k == {np.ndarray} for k in row_kinds), count


def test_one_point_builds_no_array(monkeypatch, capsys):
    """A lone point needs no numpy from its plates to its printed row: with
    ``np`` unbound in every bcsjj module, evaluate_point and ``ness`` give
    what they give with it."""
    argvs = (
        ["ness", "--gamma", "2e-3", "--phi-i", "0.4"],
        ["ness", "--beta-ii", "1", "--format", "csv"],
    )
    expected = []
    for argv in argvs:
        assert cli.main(argv) == 0
        expected.append(capsys.readouterr().out)
    row = evaluate_point(STANDARD)
    for name, module in list(sys.modules.items()):
        if (name == "bcsjj" or name.startswith("bcsjj.")) and hasattr(module, "np"):
            monkeypatch.setattr(module, "np", None)
    assert evaluate_point(STANDARD) == row
    for argv, out in zip(argvs, expected):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out, argv


@pytest.mark.parametrize(
    "call",
    [
        solve_ness,
        lambda p: ness.solve_batch([p, STANDARD]),
        evaluate_point,
        lambda p: run_sweep(RunConfig(gamma=p.gamma, axis="delta_phi", count=3)),
    ],
    ids=["solve_ness", "solve_batch", "evaluate_point", "run_sweep"],
)
def test_weak_contact_warning_names_the_caller(call):
    strong = JunctionParams(BulkParams(0.3, 1e4), BulkParams(0.3, 1e4), 0.2)
    with pytest.warns(WeakContactWarning) as record:
        call(strong)
    assert [w.filename for w in record] == [__file__]


def test_weak_contact_warning(recwarn):
    strong = JunctionParams(BulkParams(0.3, 1e4), BulkParams(0.3, 1e4), 0.2)
    assert len(recwarn) == 0  # building the parameters computes nothing
    with pytest.warns(WeakContactWarning):
        solve_ness(strong)
