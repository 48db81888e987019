"""Small-lattice oracle: exact operator identities and contractions."""

import math
import os
import re
import subprocess
import sys
import threading
import time

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import bcsjj
from bcsjj import lattice
from bcsjj.constants import KRYLOV_TOL
from bcsjj.equilibrium import BulkParams, solve_gap
from bcsjj.lattice import (
    DENSE_EVOLUTION_DIM,
    _bessel_j,
    _assemble,
    _chebyshev_order,
    _identity_and_conservation,
    _plate_operators,
    _propagate,
    LatticeSpec,
    ResourceLimitError,
    build_current,
    build_hamiltonian,
    build_relative_number,
    finite_n_report,
    product_state_expectation,
    time_evolve_expectation,
)
from bcsjj.ness import JunctionParams

SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def arrays(op):
    """A scipy CSR matrix's arrays in the lattice core's form, not copied."""
    return lattice._Csr(op.data, op.indices, op.indptr, op.shape)


def reference_site_operator(spec, site, local):
    """``local`` on one site of the full 2n^2-site space, by a kron chain."""
    left = sparse.identity(1 << site, format="csr", dtype=complex)
    right = sparse.identity(1 << (spec.n_sites - site - 1), format="csr", dtype=complex)
    return sparse.kron(sparse.kron(left, sparse.csr_matrix(local)), right, format="csr")


def reference_summed(spec, sites, local):
    total = None
    for site in sites:
        term = reference_site_operator(spec, site, local)
        total = term if total is None else total + term
    return total


def plate_sites(spec, plate):
    """Sites of one plate in kron order: plate I first."""
    base = plate * spec.sites_per_plate
    return range(base, base + spec.sites_per_plate)


def boundary_sites(spec, plate):
    """The plate's row-1 sites, the ones facing the contact."""
    base = plate * spec.sites_per_plate
    return range(base, base + spec.n)


def reference_operators(spec, params):
    """H, Q and J summed site by site on the full space, all complex."""
    n = spec.n
    h = sparse.csr_matrix((spec.dim, spec.dim), dtype=complex)
    for plate, bulk in ((0, params.bulk_I), (1, params.bulk_II)):
        sites = plate_sites(spec, plate)
        sz = reference_summed(spec, sites, SIGMA_Z)
        raise_all = reference_summed(spec, sites, SIGMA_PLUS)
        h = h + bulk.epsilon * sz - (raise_all @ raise_all.conj().T) / n
    b_plus_i = reference_summed(spec, boundary_sites(spec, 0), SIGMA_PLUS)
    b_plus_ii = reference_summed(spec, boundary_sites(spec, 1), SIGMA_PLUS)
    b_minus_i = b_plus_i.conj().T.tocsr()
    b_minus_ii = b_plus_ii.conj().T.tocsr()
    h = h - (params.gamma / n) * (b_plus_i @ b_minus_ii + b_minus_i @ b_plus_ii)
    number = SIGMA_PLUS @ SIGMA_PLUS.conj().T
    q = reference_summed(spec, plate_sites(spec, 0), number) - reference_summed(
        spec, plate_sites(spec, 1), number
    )
    j = (-2j * params.gamma / n) * (b_minus_i @ b_plus_ii - b_plus_i @ b_minus_ii)
    return h.tocsr(), q.tocsr(), j.tocsr()


def assert_matches_reference(spec, params):
    """Plate-block builders against the kron chain: pattern, values, dtypes."""
    built = (
        build_hamiltonian(spec, params),
        build_relative_number(spec),
        build_current(spec, params.gamma),
    )
    for name, got, ref, dtype in zip(
        "HQJ", built, reference_operators(spec, params), (float, float, complex)
    ):
        assert got.dtype == dtype, f"{name}: dtype {got.dtype}"
        got.sort_indices()
        ref.sort_indices()
        assert np.array_equal(got.indptr, ref.indptr), f"{name}: row pattern"
        assert np.array_equal(got.indices, ref.indices), f"{name}: column pattern"
        defect = np.abs(got.data - ref.data).max(initial=0.0)
        assert defect <= 1e-14, f"{name}: entrywise defect {defect:.2e}"


def junction(gamma=1e-3, delta=0.3):
    return JunctionParams(
        bulk_I=BulkParams(0.3, 1e4, delta),
        bulk_II=BulkParams(0.3, 1e4, 0.0),
        gamma=gamma,
    )


def random_site_state(rng):
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def random_pure_site_state(rng):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def dense_product_state(site_states):
    rho = np.array([[1.0]], dtype=complex)
    for state in site_states:
        rho = np.kron(rho, state)
    return rho


def test_geometry():
    spec = LatticeSpec(2)
    assert spec.sites_per_plate == 4
    assert spec.n_sites == 8
    assert spec.dim == 256
    assert list(plate_sites(spec, 0)) == [0, 1, 2, 3]
    assert list(plate_sites(spec, 1)) == [4, 5, 6, 7]
    assert list(boundary_sites(spec, 0)) == [0, 1]
    assert list(boundary_sites(spec, 1)) == [4, 5]


def test_dimension_cap():
    LatticeSpec(3)  # 2^18 fits under the default cap
    with pytest.raises(ResourceLimitError):
        LatticeSpec(4)  # 2^32 does not
    with pytest.raises(ResourceLimitError):
        LatticeSpec(10**2200)  # refused before its dimension is formed; 2 n^2 has 4401 digits


def test_memory_cap():
    with pytest.raises(ResourceLimitError):
        LatticeSpec(2, memory_cap=100)
    LatticeSpec(1, memory_cap=100_000)


def test_spec_validation():
    for n in (0, 2.5, True, False):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            LatticeSpec(n)
    for cap in (0, -5):
        with pytest.raises(ValueError, match="memory_cap must be positive"):
            LatticeSpec(1, memory_cap=cap)


def test_operators_hermitian():
    spec = LatticeSpec(2)
    p = junction()
    for op in (
        build_hamiltonian(spec, p),
        build_relative_number(spec),
        build_current(spec, p.gamma),
    ):
        assert abs(op - op.conj().T).max() < 1e-15


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([1, 2]),
    eps_i=st.floats(0.15, 0.45),
    eps_ii=st.floats(0.15, 0.45),
    # below the weak-contact warning for every epsilon drawn
    gamma=st.floats(0.0, 0.098 * 0.15),
    phi=st.floats(-math.pi, math.pi),
)
def test_builders_match_site_kron_reference(n, eps_i, eps_ii, gamma, phi):
    params = JunctionParams(
        bulk_I=BulkParams(eps_i, 1e4, phi),
        bulk_II=BulkParams(eps_ii, 1e4, 0.0),
        gamma=gamma,
    )
    assert_matches_reference(LatticeSpec(n), params)


def test_builders_match_site_kron_reference_n3():
    assert_matches_reference(LatticeSpec(3), junction(gamma=1e-2, delta=0.7))


def test_commutator_identity():
    """The current operator is exactly the charge-transfer rate."""
    for n in (1, 2):
        spec = LatticeSpec(n)
        p = junction()
        h = build_hamiltonian(spec, p)
        q = build_relative_number(spec)
        j = build_current(spec, p.gamma)
        defect = abs(1j * (h @ q - q @ h) - j).max()
        assert defect < 1e-13, f"n={n}: defect {defect:.2e}"


def test_decoupled_charge_conserved():
    for n in (1, 2):
        spec = LatticeSpec(n)
        h = build_hamiltonian(spec, junction(gamma=0.0))
        q = build_relative_number(spec)
        assert abs(h @ q - q @ h).max() < 1e-13


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([1, 2]),
    eps_i=st.floats(0.15, 0.45),
    eps_ii=st.floats(0.15, 0.45),
    gamma=st.floats(-0.098 * 0.15, 0.098 * 0.15),
    phi=st.floats(-math.pi, math.pi),
)
def test_identity_check_matches_literal_products(n, eps_i, eps_ii, gamma, phi):
    spec = LatticeSpec(n)
    params = JunctionParams(BulkParams(eps_i, 1e4, phi), BulkParams(eps_ii, 1e4, 0.0), gamma)
    h = build_hamiltonian(spec, params)
    q = build_relative_number(spec)
    j = build_current(spec, gamma)
    identity, conservation = _identity_and_conservation(arrays(h), arrays(q), arrays(j), spec.sites_per_plate)
    assert abs(identity - abs(1j * (h @ q - q @ h) - j).max()) <= 1e-15
    plate = within_plate_entries(spec, h)
    assert abs(conservation - abs(plate @ q - q @ plate).max()) <= 1e-15


def test_identity_check_reports_a_planted_error():
    spec = LatticeSpec(2)
    width = spec.sites_per_plate
    p = junction(gamma=1e-2)
    q = build_relative_number(spec)
    j = build_current(spec, p.gamma)
    h = build_hamiltonian(spec, p)
    assert _identity_and_conservation(arrays(h), arrays(q), arrays(j), width)[0] < 1e-13
    moved = h.tocoo()
    hops = np.flatnonzero(q.diagonal()[moved.row] != q.diagonal()[moved.col])
    planted = h.copy()
    planted[moved.row[hops[7]], moved.col[hops[7]]] += 1e-9
    assert _identity_and_conservation(arrays(planted), arrays(q), arrays(j), width)[0] >= 1e-9
    # a new entry between two pair numbers, on the plate part
    plate = build_hamiltonian(spec, junction(gamma=0.0)).tolil()
    plate[0, np.flatnonzero(q.diagonal() != q.diagonal()[0])[0]] = 1e-9
    identity, conservation = _identity_and_conservation(
        arrays(plate.tocsr()), arrays(q), arrays(build_current(spec, 0.0)), width
    )
    assert identity >= 1e-9 and conservation >= 1e-9


@pytest.mark.parametrize("gamma", [1e-2, 0.0])
@pytest.mark.parametrize("where", ["current", "hamiltonian"])
def test_identity_check_propagates_a_planted_nan(monkeypatch, gamma, where):
    """A NaN in J or H, in the first or the last of many row blocks, makes
    both folds NaN where it lands: J's entries meet nonzero commutator
    entries at gamma != 0 and none at gamma = 0 (J's stored zeros)."""
    monkeypatch.setattr(lattice, "_BLOCK_ENTRIES", 64)
    spec = LatticeSpec(2)
    width = spec.sites_per_plate
    p = junction(gamma=gamma)
    q = build_relative_number(spec)
    assert len(lattice._row_blocks(build_hamiltonian(spec, p).indptr)) > 10
    for entry in (0, -1):
        h, j = build_hamiltonian(spec, p), build_current(spec, gamma)
        if where == "current":
            j.data[entry] = np.nan
        else:
            diagonal = np.flatnonzero(h.indices == np.repeat(np.arange(spec.dim), np.diff(h.indptr)))
            h.data[diagonal[entry]] = np.nan
        identity, conservation = _identity_and_conservation(arrays(h), arrays(q), arrays(j), width)
        assert math.isnan(identity), (entry, identity)
        # a NaN on H's diagonal is a plate entry; J has no part in conservation
        assert math.isnan(conservation) == (where == "hamiltonian"), (entry, conservation)


def within_plate_entries(spec, op):
    """``op`` without its entries that change both plates' states."""
    coo = op.tocoo()
    moved = coo.row ^ coo.col
    width = spec.sites_per_plate
    keep = ((moved >> width) == 0) | ((moved & ((1 << width) - 1)) == 0)
    return sparse.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=op.shape)


def test_plate_part_is_the_decoupled_hamiltonian():
    """H's entries that leave one plate's state unchanged are H at gamma = 0,
    bit for bit: the report's conservation check reads them off H."""
    for n in (1, 2, 3):
        spec = LatticeSpec(n)
        plate = within_plate_entries(spec, build_hamiltonian(spec, junction(gamma=2e-3, delta=0.4)))
        decoupled = build_hamiltonian(spec, junction(gamma=0.0, delta=0.4))
        for name in ("indptr", "indices", "data"):
            got, want = getattr(plate, name), getattr(decoupled, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f"n={n}: {name}"


def test_conservation_reads_only_the_plate_part():
    """The report's [H(gamma = 0), Q] check sees a planted entry that moves a
    pair on one plate, and not one that changes both plates' states."""
    spec = LatticeSpec(2)
    width = spec.sites_per_plate
    p = junction(gamma=1e-2)
    h, q, j = build_hamiltonian(spec, p), build_relative_number(spec), build_current(spec, p.gamma)
    assert _identity_and_conservation(arrays(h), arrays(q), arrays(j), width)[1] == 0.0
    plate_i_moved = h.tolil()
    plate_i_moved[0b0001_0000, 0b0000_0000] = 1e-9
    assert q.diagonal()[0b0001_0000] != q.diagonal()[0]
    assert _identity_and_conservation(arrays(plate_i_moved.tocsr()), arrays(q), arrays(j), width)[1] >= 1e-9
    both_moved = h.tolil()
    both_moved[0b0001_0000, 0b0000_0001] = 0.5
    identity, conservation = _identity_and_conservation(arrays(both_moved.tocsr()), arrays(q), arrays(j), width)
    assert conservation == 0.0 and identity >= 0.5


def per_site_kron_sum(spec, sites, local):
    """sum_x local(x) on one plate's space, a sparse.kron chain per site."""
    total = None
    for site in sites:
        right = sparse.identity(1 << (spec.sites_per_plate - site - 1))
        term = sparse.kron(sparse.identity(1 << site), local.real, format="csr")
        term = sparse.kron(term, right, format="csr")
        total = term if total is None else total + term
    return total


def kron_formula(spec, params):
    """H, Q and J as sums of ``sparse.kron`` products of the plate operators,
    each a per-site kron sum, all in scipy's sparse arithmetic: the
    builders' reference, formed as the sums are written."""
    n, width = spec.n, spec.sites_per_plate
    every_site = range(width)
    sz = per_site_kron_sum(spec, every_site, SIGMA_Z)
    raise_all = per_site_kron_sum(spec, every_site, SIGMA_PLUS)
    pairing = raise_all @ raise_all.T / n
    number = per_site_kron_sum(spec, every_site, SIGMA_PLUS @ SIGMA_PLUS.conj().T)
    b_plus = per_site_kron_sum(spec, range(n), SIGMA_PLUS)
    b_minus = b_plus.T.tocsr()
    one = sparse.identity(1 << width, format="csr")

    def on_i(op):
        return sparse.kron(op, one, format="csr")

    def on_ii(op):
        return sparse.kron(one, op, format="csr")

    def across(plate_i, plate_ii):
        return sparse.kron(plate_i, plate_ii, format="csr")

    plate = on_i(params.bulk_I.epsilon * sz - pairing) + on_ii(params.bulk_II.epsilon * sz - pairing)
    h = plate - (params.gamma / n) * (across(b_plus, b_minus) + across(b_minus, b_plus))
    q = on_i(number) - on_ii(number)
    j = (-2j * params.gamma / n) * (across(b_minus, b_plus) - across(b_plus, b_minus))
    return h, q, j


def assert_builders_equal_kron_formula(spec, params):
    built = (
        build_hamiltonian(spec, params),
        build_relative_number(spec),
        build_current(spec, params.gamma),
    )
    for name, got, want in zip("HQJ", built, kron_formula(spec, params)):
        assert type(got) is sparse.csr_matrix, (name, type(got))
        assert got.dtype == want.dtype and got.shape == want.shape, name
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f"{name}.{part}"


# (eps_I, eps_II, gamma, phi_I): the standard point, a decoupled one, a
# negative coupling, and plates whose diagonals cancel (a[r, r] + b[k, k] = 0
# at n = 1 and 2, and b[k, k] = 0 at n = 2), so H drops those entries
FORMULA_POINTS = [
    (0.3, 0.3, 1e-2, 0.7),
    (0.3, 0.3, 0.0, 0.7),
    (0.2, 0.35, -3e-3, -2.0),
    (0.25, 1.25, 1e-3, 0.1),
    (0.25, 0.75, 2e-3, 1.0),
]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_builders_equal_the_kron_formula_bit_for_bit(n):
    points = FORMULA_POINTS if n < 3 else FORMULA_POINTS[:2]
    for eps_i, eps_ii, gamma, phi in points:
        params = JunctionParams(BulkParams(eps_i, 1e4, phi), BulkParams(eps_ii, 1e4, 0.0), gamma)
        assert_builders_equal_kron_formula(LatticeSpec(n), params)


@settings(max_examples=40, deadline=None, database=None)
@hypothesis.seed(111)
@given(
    n=st.sampled_from([1, 2]),
    eps_i=st.floats(0.15, 0.45),
    eps_ii=st.floats(0.15, 0.45),
    gamma=st.floats(-0.098 * 0.15, 0.098 * 0.15),
    phi=st.floats(-math.pi, math.pi),
)
def test_builders_equal_the_kron_formula_property(n, eps_i, eps_ii, gamma, phi):
    params = JunctionParams(BulkParams(eps_i, 1e4, phi), BulkParams(eps_ii, 1e4, 0.0), gamma)
    assert_builders_equal_kron_formula(LatticeSpec(n), params)


@pytest.mark.parametrize("n", [1, 2])
def test_public_builders_wrap_the_core_arrays_in_scipy_csr(monkeypatch, n):
    """build_hamiltonian, build_relative_number and build_current return
    scipy CSR matrices holding the core builders' arrays, not copies, and
    equal to the sparse.kron reference bit for bit."""
    made = []

    def keep(core):
        def kept(*args):
            made.append(core(*args))
            return made[-1]
        return kept

    for name in ("_hamiltonian", "_relative_number", "_current"):
        monkeypatch.setattr(lattice, name, keep(getattr(lattice, name)))
    spec, params = LatticeSpec(n), junction(gamma=1e-2, delta=0.7)
    built = (build_hamiltonian(spec, params), build_relative_number(spec), build_current(spec, params.gamma))
    assert len(made) == 3
    for name, got, core in zip("HQJ", built, made):
        assert type(got) is sparse.csr_matrix and got.shape == core.shape, name
        for part in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(got, part), getattr(core, part)), f"{name}.{part}"
    assert_builders_equal_kron_formula(spec, params)


def diagonal_and_entries(op):
    """A scipy sparse plate operator as ``_assemble`` takes it: its diagonal,
    and the (row, col, value) of its off-diagonal entries in CSR order."""
    op = op.tocsr()
    op.sort_indices()
    row = np.repeat(np.arange(op.shape[0], dtype=op.indices.dtype), np.diff(op.indptr))
    off = row != op.indices
    return op.diagonal(), (row[off], op.indices[off], op.data[off])


def test_plate_joins_match_sparse_kron():
    """The join of random plate operators, in the core's plate form,
    equals the sparse.kron sums."""
    rng = np.random.default_rng(67)
    for dim in (1, 2, 16, 64):
        def plate():
            left = sparse.csr_matrix(rng.normal(size=(dim, dim)) * (rng.random((dim, dim)) < 0.2))
            return left @ left.T  # a sparse product, as the pairing is

        a, b = plate(), plate()
        one = sparse.identity(dim, format="csr")
        ladder = np.triu(rng.random((dim, dim)) < 0.1, 1).astype(float)
        pairs = (
            (_assemble(dim, (diagonal_and_entries(a), diagonal_and_entries(b)), [], float),
             sparse.kron(a, one, format="csr") + sparse.kron(one, b, format="csr")),
            (_assemble(dim, None, [(np.nonzero(ladder), np.nonzero(ladder.T), 0.5)], float),
             0.5 * sparse.kron(sparse.csr_matrix(ladder), sparse.csr_matrix(ladder.T), format="csr")),
        )
        for got, want in pairs:
            assert isinstance(got, lattice._Csr) and got.shape == want.shape
            assert got.indices.dtype == want.indices.dtype == np.int32
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert got.data.tobytes() == want.data.tobytes()


def test_builders_allocate_only_their_operators():
    """A fresh process building H, Q and J at n = 3 peaks at their own
    bytes plus 2 MB, the step temporaries (~1 MB) and the plate operators:
    no full-space temporary is made.  scipy, which the builders import on
    their first call, is imported before the trace starts."""
    src = os.path.dirname(os.path.dirname(bcsjj.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import tracemalloc\n"
        "import scipy.sparse\n"
        "from bcsjj import BulkParams, JunctionParams, LatticeSpec\n"
        "from bcsjj import build_current, build_hamiltonian, build_relative_number\n"
        "p = JunctionParams(BulkParams(0.3, 1e4, 0.7), BulkParams(0.3, 1e4, 0.0), 1e-3)\n"
        "spec = LatticeSpec(3)\n"
        "tracemalloc.start()\n"
        "ops = build_hamiltonian(spec, p), build_relative_number(spec), build_current(spec, p.gamma)\n"
        "peak = tracemalloc.get_traced_memory()[1]\n"
        "print(peak, sum(a.nbytes for op in ops for a in (op.indptr, op.indices, op.data)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    peak, final = map(int, proc.stdout.split())
    assert peak <= final + 2 * 2**20, f"peak {peak} B, operators {final} B"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_plate_operators_match_per_site_kron(n):
    """Every field of the cached plate operators holds, byte for byte, the
    diagonal or the entries in CSR order of the per-site kron sums and of
    raise_all @ raise_all.T / n."""
    spec = LatticeSpec(n)
    every_site = range(spec.sites_per_plate)
    raise_all = per_site_kron_sum(spec, every_site, SIGMA_PLUS)
    b_plus = per_site_kron_sum(spec, range(n), SIGMA_PLUS)  # the contact row
    no_entries = diagonal_and_entries(sparse.csr_matrix(raise_all.shape))[1]
    want = {
        "sz": diagonal_and_entries(per_site_kron_sum(spec, every_site, SIGMA_Z)),
        "number": diagonal_and_entries(per_site_kron_sum(spec, every_site, SIGMA_PLUS @ SIGMA_PLUS.conj().T)),
        "pairing": diagonal_and_entries(raise_all @ raise_all.T / n),
        "b_plus": diagonal_and_entries(b_plus),
        "b_minus": diagonal_and_entries(b_plus.T),
    }
    ops = _plate_operators(n)
    got = {
        "sz": (ops.sz, no_entries),
        "number": (ops.number, no_entries),
        "pairing": (ops.pairing_diagonal, ops.pairing),
        "b_plus": (np.zeros(ops.sz.size), (*ops.b_plus, np.ones(ops.b_plus[0].size))),
        "b_minus": (np.zeros(ops.sz.size), (*ops.b_minus, np.ones(ops.b_minus[0].size))),
    }
    for name, (diagonal, entries) in want.items():
        got_diagonal, got_entries = got[name]
        for part, a, b in zip(("diagonal", "row", "col", "value"), (got_diagonal, *got_entries), (diagonal, *entries)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (n, name, part)


def test_finite_n_report_matches_the_literal_algebra():
    for n in (1, 2):
        spec = LatticeSpec(n)
        p = junction(gamma=1e-2, delta=-0.7)
        report = finite_n_report(spec, p)
        h = build_hamiltonian(spec, p)
        q = build_relative_number(spec)
        j = build_current(spec, p.gamma)
        decoupled = build_hamiltonian(spec, junction(gamma=0.0, delta=-0.7))
        assert report.commutator_defect == float(abs(1j * (h @ q - q @ h) - j).max())
        assert report.bulk_conservation_defect == float(abs(decoupled @ q - q @ decoupled).max())
        bulk_i, bulk_ii = solve_gap(p.bulk_I), solve_gap(p.bulk_II)
        states = [bulk_i.rho] * spec.sites_per_plate + [bulk_ii.rho] * spec.sites_per_plate
        assert report.product_current_per_site == product_state_expectation(j, states).real / n
        assert report.passed
        assert (report.n, report.sites, report.dimension) == (n, spec.n_sites, spec.dim)


def site_by_site_expectation(op, site_states):
    """Tr(rho op) multiplying in one site factor per pass over the entries."""
    op = sparse.coo_matrix(op)
    n_sites = len(site_states)
    acc = op.data.astype(complex)
    for site, state in enumerate(site_states):
        shift = n_sites - 1 - site
        flat = np.asarray(state, dtype=complex).reshape(4)
        acc *= flat[((op.col >> shift) & 1) * 2 + ((op.row >> shift) & 1)]
    return complex(acc.sum())


def test_grouped_product_contraction_matches_references():
    rng = np.random.default_rng(71)
    for n_sites in (1, 3, 5, 7, 8, 11, 13):
        dim = 1 << n_sites
        states = [random_site_state(rng) for _ in range(n_sites)]
        op = sparse.random(dim, dim, density=min(1.0, 2000 / dim**2), random_state=rng, format="csr")
        op = op + 1j * sparse.random(dim, dim, density=min(1.0, 2000 / dim**2), random_state=rng)
        got = product_state_expectation(op, states)
        assert abs(got - site_by_site_expectation(op, states)) <= 1e-13, n_sites
        if n_sites <= 8:
            oracle = np.trace(dense_product_state(states) @ op.toarray())
            assert abs(got - oracle) <= 1e-12, n_sites


def test_product_expectation_identity():
    rng = np.random.default_rng(29)
    spec = LatticeSpec(1)
    eye = sparse.identity(spec.dim, format="csr", dtype=complex)
    states = [random_site_state(rng) for _ in range(spec.n_sites)]
    assert abs(product_state_expectation(eye, states) - 1.0) < 1e-13


def test_product_expectation_matches_dense_kron():
    rng = np.random.default_rng(31)
    spec = LatticeSpec(1)
    for _ in range(20):
        states = [random_site_state(rng) for _ in range(spec.n_sites)]
        dense = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(
            size=(spec.dim, spec.dim)
        )
        op = sparse.csr_matrix(dense)
        oracle = np.trace(dense_product_state(states) @ dense)
        assert abs(product_state_expectation(op, states) - oracle) < 1e-12


def test_relative_number_additivity():
    rng = np.random.default_rng(37)
    spec = LatticeSpec(2)
    q = build_relative_number(spec)
    rho_i = random_site_state(rng)
    rho_ii = random_site_state(rng)
    states = [rho_i] * spec.sites_per_plate + [rho_ii] * spec.sites_per_plate
    number = SIGMA_PLUS @ SIGMA_PLUS.conj().T
    per_site = np.trace(rho_i @ number) - np.trace(rho_ii @ number)
    expected = spec.sites_per_plate * per_site
    assert abs(product_state_expectation(q, states) - expected) < 1e-12


def test_product_current_matches_mean_field():
    for n in (1, 2):
        for gamma, delta in ((1e-3, 0.3), (1e-2, -0.7)):
            spec = LatticeSpec(n)
            p = junction(gamma=gamma, delta=delta)
            bulk_i = solve_gap(p.bulk_I)
            bulk_ii = solve_gap(p.bulk_II)
            states = [bulk_i.rho] * spec.sites_per_plate + [
                bulk_ii.rho
            ] * spec.sites_per_plate
            j = build_current(spec, gamma)
            measured = product_state_expectation(j, states).real / n
            expected = -4.0 * gamma * bulk_i.lam * bulk_ii.lam * math.sin(delta)
            assert abs(measured - expected) < 1e-12


def test_time_evolution_at_zero_matches_static():
    rng = np.random.default_rng(41)
    spec = LatticeSpec(1)
    p = junction(gamma=1e-2)
    h = build_hamiltonian(spec, p)
    q = build_relative_number(spec)
    states = [random_site_state(rng) for _ in range(spec.n_sites)]
    static = product_state_expectation(q, states)
    evolved = time_evolve_expectation(q, h, states, 0.0)
    assert abs(static - evolved) < 1e-12


def test_decoupled_evolution_conserves_charge():
    spec = LatticeSpec(1)
    p = junction(gamma=0.0)
    h = build_hamiltonian(spec, p)
    q = build_relative_number(spec)
    bulk_i = solve_gap(p.bulk_I)
    bulk_ii = solve_gap(p.bulk_II)
    states = [bulk_i.rho, bulk_ii.rho]
    start = time_evolve_expectation(q, h, states, 0.0)
    for t in (0.5, 2.0, 7.3):
        drift = time_evolve_expectation(q, h, states, t) - start
        assert abs(drift) < 1e-10


def test_krylov_matches_dense_propagator():
    rng = np.random.default_rng(43)
    spec = LatticeSpec(1)
    p = junction(gamma=1e-2)
    h = build_hamiltonian(spec, p)
    q = build_relative_number(spec)
    j = build_current(spec, p.gamma)
    states = [random_pure_site_state(rng) for _ in range(spec.n_sites)]
    for t in (0.3, 1.7):
        for op in (q, j):
            dense = time_evolve_expectation(op, h, states, t)
            krylov = time_evolve_expectation(op, h, states, t, dense_dim=1)
            assert abs(dense - krylov) < 1e-9, f"t={t}: {dense} vs {krylov}"


def test_evolution_matches_heisenberg_oracle():
    """Cross-check against direct dense exponentiation at dim 4."""
    from scipy.linalg import expm

    rng = np.random.default_rng(47)
    spec = LatticeSpec(1)
    p = junction(gamma=1e-2, delta=0.9)
    h = build_hamiltonian(spec, p).toarray()
    q = build_relative_number(spec).toarray()
    states = [random_site_state(rng) for _ in range(spec.n_sites)]
    rho = dense_product_state(states)
    for t in (0.4, 3.1):
        u = expm(1j * t * h)
        oracle = np.trace(rho @ (u @ q @ u.conj().T))
        got = time_evolve_expectation(
            sparse.csr_matrix(q), sparse.csr_matrix(h), states, t
        )
        assert abs(got - oracle) < 1e-10


def literal_evolution(op, h, states, t):
    """Tr(rho P op P^dagger), P = exp(itH) from one eigh: no memo, no spectral sum."""
    h = h.toarray() if sparse.issparse(h) else np.asarray(h)
    energies, basis = np.linalg.eigh(h)
    propagator = (basis * np.exp(1j * t * energies)) @ basis.conj().T
    op = op.toarray() if sparse.issparse(op) else np.asarray(op)
    return complex(np.trace(dense_product_state(states) @ propagator @ op @ propagator.conj().T))


def test_non_hermitian_op_matches_expm():
    """The dense path gives Tr(rho e^{iHt} O e^{-iHt}), sign and order pinned by expm."""
    from scipy.linalg import expm

    rng = np.random.default_rng(73)
    spec = LatticeSpec(1)
    h = build_hamiltonian(spec, junction(gamma=2e-2, delta=0.6))
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    states = [random_site_state(rng) for _ in range(spec.n_sites)]
    rho = dense_product_state(states)
    for t in (0.0, 0.7, -2.3, 11.0):
        u = expm(1j * t * h.toarray())
        oracle = np.trace(rho @ u @ op @ u.conj().T)
        for form in (op, sparse.csr_matrix(op)):
            got = time_evolve_expectation(form, h, states, t)
            assert abs(got - oracle) <= 1e-12, f"t={t}: {got} vs {oracle}"


def _memo_pool():
    """Small H, op and state pools, with equal values in distinct objects."""
    rng = np.random.default_rng(79)
    spec = LatticeSpec(1)
    h = build_hamiltonian(spec, junction(gamma=1e-2))
    hamiltonians = [h, build_hamiltonian(spec, junction(gamma=3e-2, delta=-1.1)), h.copy()]
    ops = [
        build_relative_number(spec),
        build_current(spec, 1e-2),
        rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)),
    ]
    first = [random_site_state(rng), random_site_state(rng)]
    states = [first, [state.copy() for state in first], [random_site_state(rng), first[1]]]
    return hamiltonians, ops, states


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    calls=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.integers(0, 2),
            st.integers(0, 2),
            st.sampled_from([0.0, 0.4, 0.4, 3.1, -7.5]),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_spectral_memo_is_exact(calls):
    """Interleaved calls equal the memo-free formula, also after an in-place edit of H."""
    hamiltonians, ops, states = _memo_pool()
    diagonal = np.flatnonzero(
        np.repeat(np.arange(4), np.diff(hamiltonians[0].indptr)) == hamiltonians[0].indices
    )
    for h_index, op_index, state_index, t, edit in calls:
        if edit:
            hamiltonians[0].data[diagonal[0]] += 0.125
        h, op, site_states = hamiltonians[h_index], ops[op_index], states[state_index]
        got = time_evolve_expectation(op, h, site_states, t)
        want = literal_evolution(op, h, site_states, t)
        assert abs(got - want) <= 1e-13, f"{(h_index, op_index, state_index, t)}: {got} vs {want}"


def test_spectral_memo_under_threads():
    """Threads sharing the one-entry memo each get the value of their own inputs."""
    hamiltonians, ops, states = _memo_pool()
    cases = [(h, op, s) for h in hamiltonians[:2] for op in ops for s in states[::2]]
    wanted = [literal_evolution(op, h, s, 1.3) for h, op, s in cases]
    wrong = []

    def worker(offset):
        for step in range(200):
            k = (offset + step) % len(cases)
            h, op, s = cases[k]
            try:
                got = time_evolve_expectation(op, h, s, 1.3)
            except Exception as exc:  # a torn memo read raises in the thread; report it here
                wrong.append(repr(exc))
                return
            if abs(got - wanted[k]) > 1e-13:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong, wrong


def test_dense_path_diagonalizes_once_per_input(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(lattice, "_spectral_memo", (None, None))
    spec = LatticeSpec(2)
    h = build_hamiltonian(spec, junction(gamma=2e-3, delta=0.5))
    j = build_current(spec, 2e-3)
    bulk = solve_gap(BulkParams(0.3, 1e4, 0.5)).rho
    states = [bulk] * spec.n_sites
    times = np.linspace(0.0, 20.0, 40)
    first = [time_evolve_expectation(j, h, states, t) for t in times]
    assert len(calls) == 1
    # equal values in new objects still hit
    again = [time_evolve_expectation(j.copy(), h.copy(), [s.copy() for s in states], t) for t in times]
    assert again == first and len(calls) == 1
    time_evolve_expectation(j, build_hamiltonian(spec, junction(gamma=3e-3, delta=0.5)), states, 1.0)
    assert len(calls) == 2
    time_evolve_expectation(build_relative_number(spec), h, states, 1.0)
    assert len(calls) == 3
    time_evolve_expectation(j, h, states[:-1] + [np.eye(2) / 2], 1.0)
    assert len(calls) == 4
    assert all(shape == (spec.dim, spec.dim) for shape in calls)


def test_default_dense_threshold_sane():
    assert DENSE_EVOLUTION_DIM >= 4


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([1, 2]),
    t=st.floats(0.0, 20.0),
    gamma=st.floats(-0.098 * 0.3, 0.098 * 0.3),
    phi_i=st.floats(-math.pi, math.pi),
    phi_ii=st.floats(-math.pi, math.pi),
    seed=st.integers(0, 2**32 - 1),
    current=st.booleans(),
)
def test_chebyshev_matches_dense_path(n, t, gamma, phi_i, phi_ii, seed, current):
    """Chebyshev and spectral <Q(t)> or <J(t)> agree in a pure product state."""
    spec = LatticeSpec(n)
    params = JunctionParams(BulkParams(0.3, 1e4, phi_i), BulkParams(0.3, 1e4, phi_ii), gamma)
    h = build_hamiltonian(spec, params)
    op = build_current(spec, gamma) if current else build_relative_number(spec)
    rng = np.random.default_rng(seed)
    states = [random_pure_site_state(rng) for _ in range(spec.n_sites)]
    norm = np.abs(np.linalg.eigvalsh(op.toarray())).max()
    dense = time_evolve_expectation(op, h, states, t)
    chebyshev = time_evolve_expectation(op, h, states, t, dense_dim=0)
    assert abs(dense - chebyshev) <= 1e-10 * norm + 1e-12, f"t={t}: {dense} vs {chebyshev}"


def test_propagated_vector_keeps_unit_norm():
    rng = np.random.default_rng(53)
    h = build_hamiltonian(LatticeSpec(2), junction(gamma=2e-2, delta=1.1))
    for t in (0.0, 0.01, 0.7, 5.0, 20.0, -3.0):
        vec = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
        vec /= np.linalg.norm(vec)
        vec.setflags(write=False)  # the recurrence reads its start vector, never writes it
        start = vec.copy()
        moved = _propagate(h, vec, t)
        assert abs(np.linalg.norm(moved) - 1.0) <= 1e-13, f"t={t}"
        assert np.array_equal(vec, start)


def test_time_evolution_takes_only_a_real_sparse_hamiltonian():
    """A dense, complex or single-precision H is refused on both paths."""
    spec = LatticeSpec(1)
    h = build_hamiltonian(spec, junction(gamma=1e-2))
    q = build_relative_number(spec)
    states = [np.eye(2) / 2] * spec.n_sites
    for form in (h.toarray(), h.astype(complex), h.toarray().astype(complex), h.astype(np.float32)):
        for dense_dim in (DENSE_EVOLUTION_DIM, 0):
            with pytest.raises(ValueError, match="real float64 sparse"):
                time_evolve_expectation(q, form, states, 0.5, dense_dim=dense_dim)


@pytest.mark.parametrize("n", [1, 2])
def test_chebyshev_path_refuses_a_mixed_state(monkeypatch, n):
    """A mixed product state raises before any propagation; the dense path evolves it exactly."""
    spec = LatticeSpec(n)
    p = JunctionParams(BulkParams(0.3, 5.0, 0.8), BulkParams(0.3, 5.0, 0.0), 2e-2)
    h = build_hamiltonian(spec, p)
    ops = (build_relative_number(spec), build_current(spec, p.gamma))
    rng = np.random.default_rng(83 + n)
    bulk = [solve_gap(p.bulk_I).rho] * spec.sites_per_plate + [
        solve_gap(p.bulk_II).rho
    ] * spec.sites_per_plate
    for states in ([random_site_state(rng) for _ in range(spec.n_sites)], bulk):
        for op in ops:
            with monkeypatch.context() as patched:
                patched.setattr(lattice, "_propagate", None)  # a call would raise TypeError
                with pytest.raises(ValueError, match="dense path"):
                    time_evolve_expectation(op, h, states, 0.7, dense_dim=0)
            got = time_evolve_expectation(op, h, states, 0.7)
            want = literal_evolution(op, h, states, 0.7)
            assert abs(got - want) <= 1e-13, f"{got} vs {want}"


@pytest.mark.parametrize("share", [0.99, 1.01])
def test_chebyshev_path_takes_a_state_within_the_tolerance(share):
    """Weight left out just below KRYLOV_TOL is taken as the one product vector; just above raises."""
    spec = LatticeSpec(1)
    h = build_hamiltonian(spec, junction(gamma=2e-2, delta=0.6))
    q = build_relative_number(spec)
    left_out = share * KRYLOV_TOL
    states = [np.diag([1.0 - left_out, left_out]), random_pure_site_state(np.random.default_rng(89))]
    if share > 1:
        with pytest.raises(ValueError, match="KRYLOV_TOL"):
            time_evolve_expectation(q, h, states, 0.9, dense_dim=0)
        return
    chebyshev = time_evolve_expectation(q, h, states, 0.9, dense_dim=0)
    dense = time_evolve_expectation(q, h, states, 0.9)
    assert abs(chebyshev - dense) <= 2 * KRYLOV_TOL, f"{chebyshev} vs {dense}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dense_dim", [DENSE_EVOLUTION_DIM, 0])
def test_time_evolution_checks_t_and_the_state_count(dense_dim):
    """A non-finite t or a site-state count off H's dimension raises before any work."""
    spec = LatticeSpec(1)
    h = build_hamiltonian(spec, junction(gamma=1e-2))
    q = build_relative_number(spec)
    states = [random_pure_site_state(np.random.default_rng(97))] * spec.n_sites
    memo = lattice._spectral_memo
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="t must be finite"):
            time_evolve_expectation(q, h, states, t, dense_dim=dense_dim)
    for count in (1, 3):
        with pytest.raises(ValueError, match="site states"):
            time_evolve_expectation(q, h, [states[0]] * count, 0.5, dense_dim=dense_dim)
    assert lattice._spectral_memo is memo


@pytest.mark.filterwarnings("error")
def test_chebyshev_path_refuses_a_t_it_cannot_bound():
    """Past t r ~ 3.6e16 the tail bound's ratio rounds to 1: ValueError, not ZeroDivisionError."""
    spec = LatticeSpec(1)
    h = build_hamiltonian(spec, junction(gamma=1e-2))
    q = build_relative_number(spec)
    states = [random_pure_site_state(np.random.default_rng(101))] * spec.n_sites
    for t in (1e20, -1e20, 1e300, 1.5e308):
        with pytest.raises(ValueError, match="t is too large"):
            time_evolve_expectation(q, h, states, t, dense_dim=0)
    for x in (math.inf, math.nan, 1e17):
        with pytest.raises(ValueError, match="t is too large"):
            _chebyshev_order(x)


@pytest.mark.filterwarnings("error")
def test_dense_path_refuses_a_t_whose_phases_overflow():
    """A finite t whose t E overflows raises, naming t, before any numpy
    warning; t = 1e300 still gives the spectral sum's value."""
    spec = LatticeSpec(1)
    h = build_hamiltonian(spec, junction(gamma=1e-2))
    q = build_relative_number(spec)
    states = [random_site_state(np.random.default_rng(103)) for _ in range(spec.n_sites)]
    for t in (1.7e308, -1.7e308):
        with pytest.raises(ValueError, match=f"t is too large.*{re.escape(repr(t))}"):
            time_evolve_expectation(q, h, states, t)
    for t in (1e300, -1e300):
        got = time_evolve_expectation(q, h, states, t)
        want = literal_evolution(q, h, states, t)
        assert abs(got - want) <= 1e-12, f"t={t}: {got} vs {want}"


def test_chebyshev_matches_expm_multiply_at_n3():
    from scipy.sparse.linalg import expm_multiply

    h = build_hamiltonian(LatticeSpec(3), junction(gamma=1e-3, delta=0.7))
    rng = np.random.default_rng(61)
    vec = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
    vec /= np.linalg.norm(vec)
    t = 0.4
    moved = _propagate(h, vec, t)
    defect = np.abs(moved - expm_multiply(-1j * t * h, vec)).max()
    assert defect <= 1e-12, f"{defect:.2e}"


def test_bessel_coefficients_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for x in (1e-3, 0.7, -7.3, 50.0, 300.0):
        order = _chebyshev_order(x)
        got = _bessel_j(order, x)
        ks = range(0, order + 1, max(1, order // 40))
        worst = max(abs(got[k] - float(mpmath.besselj(k, x))) for k in ks)
        assert worst <= 1e-15, f"x={x}: {worst:.2e}"


def test_bessel_coefficients_match_scipy_at_large_x():
    """Orders 0 to the Chebyshev order at |x| = 1e3 and 1e4, where the
    recurrence rescales many times; x = 1e5 takes well under a second."""
    from scipy.special import jv

    for x in (1e3, 1e4, -1e4):
        order = _chebyshev_order(x)
        got = _bessel_j(order, x)
        worst = np.abs(got - jv(np.arange(order + 1), x)).max()
        assert got.shape == (order + 1,) and worst <= 2e-13, f"x={x}: {worst:.2e}"
    start = time.perf_counter()
    _bessel_j(_chebyshev_order(1e5), 1e5)
    assert time.perf_counter() - start < 5.0


def test_chebyshev_order_meets_the_tail_bound():
    """The dropped tail sum_{k > K} 2 |J_k(x)| is below roundoff."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    assert _chebyshev_order(0.0) == 0
    for x in (1e-3, 0.7, -5.0, 50.0):
        order = _chebyshev_order(x)
        tail = 2 * sum(abs(mpmath.besselj(k, x)) for k in range(order + 1, order + 80))
        assert tail < np.finfo(float).eps, f"x={x}: {float(tail):.2e}"
