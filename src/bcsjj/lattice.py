"""Exact small-lattice realization of the coupled plates.

Each plate is an N x N grid of two-level sites with all-to-all pairing
inside the plate; the two row-1 lines face each other across the contact
and are coupled by the tunneling term.  On 2 N^2 spins everything is a
sparse matrix on a 4^(N^2)-dimensional space, so the mean-field results
can be checked against literal operator algebra:

    H = sum_plates [ eps * sum_x sigma_z(x) - (1/N) S_plus S_minus ]
        - (gamma/N) (B_plus_I B_minus_II + B_minus_I B_plus_II)
    Q = (pairs on plate I) - (pairs on plate II)
    J = i [H, Q] = -(2 i gamma / N)(B_minus_I B_plus_II - B_plus_I B_minus_II)

with S the plate-summed and B the contact-row-summed ladder operators.
Each plate's operators (eps sum sigma_z - S_plus S_minus / N, B_plus and
the pair number) are built once on the plate's own 2^(N^2)-dimensional
space, each site sum read off the site bits of the plate states in one
COO to CSR conversion (:func:`_plate_summed`; site 0 is the most
significant bit, as in kron order).  They are joined across the plates,
plate I holding the high bits: kron(A, 1) and kron(1, A) by writing the
CSR arrays directly, the tunnelling products by ``sparse.kron``.  H is
the plate part (H at gamma = 0) minus the tunnelling part.  H and Q are
real float64 CSR; only J is complex.

The identities i[H, Q] = J and [H(gamma = 0), Q] = 0 are checked
entrywise without forming H @ Q or Q @ H: Q is diagonal, so
[H, Q]_ab = h_ab q_b - q_a h_ab is read off H's stored entries against
Q's diagonal (:func:`commutator_defect`).  Expectations in product
states contract over the sparse entries a group of sites at a time,
never building the 4^(N^2) density matrix.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from . import spin
from .constants import (
    FINITE_N_COMMUTATOR_TOL,
    FINITE_N_CONSERVATION_TOL,
    FINITE_N_CURRENT_TOL,
    KRYLOV_TOL,
)
from .equilibrium import solve_gap

DEFAULT_DIM_CAP = 2**20
DENSE_EVOLUTION_DIM = 2**10
_MAX_PRODUCT_TERMS = 4096
# What a finite-n run allocates besides its full-space arrays: the Python
# objects around each array, the plate-space operators (2^(n^2) states,
# freed before the peak) and the commutator check's per-block pieces.
# Measured at most 66 kB over the arrays (n = 2) once a process has run,
# and ~80 kB on its first run (the interpreter's free lists fill).  abc's
# caches are filled on import (below) and the argument parser is built
# on import, so neither is part of a run.  Measured on Python 3.11 with
# numpy 2.4 and scipy 1.17.1 only: a first run at n = 3 then peaks ~81 kB
# under the estimate, a margin other interpreters or scipy versions may use up.
_RUN_OVERHEAD_BYTES = 96 * 1024

# scipy's sparse type checks fill abc's per-class caches (~30 kB) the
# first time they see each type.  In scipy 1.17.1 these are numpy arrays,
# tuples, ints and the CSR, CSC and DIA formats; one check of each here
# keeps them out of every finite-n run.  Other scipy versions may check
# other types, whose caches then fill inside a process's first run.
for _sample in (np.empty(0), (), 0, sparse.csr_matrix((1, 1)), sparse.csc_matrix((1, 1)),
                sparse.dia_matrix((1, 1)), sparse.dia_array((1, 1))):
    sparse.issparse(_sample)
del _sample


class ResourceLimitError(RuntimeError):
    """Requested lattice exceeds the configured dimension or memory budget."""


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry and resource budget of the finite two-plate lattice."""

    n: int
    dim_cap: int = DEFAULT_DIM_CAP
    memory_cap: int | None = None

    def __post_init__(self):
        if not (isinstance(self.n, int) and not isinstance(self.n, bool) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if self.memory_cap is not None and not self.memory_cap > 0:
            raise ValueError(f"memory_cap must be positive, got {self.memory_cap!r}")
        if self.dim > self.dim_cap:
            raise ResourceLimitError(
                f"Hilbert dimension 2**{2 * self.n**2} exceeds the cap "
                f"{self.dim_cap}; raise dim_cap explicitly to go bigger"
            )
        if self.memory_cap is not None and self.estimated_bytes > self.memory_cap:
            raise ResourceLimitError(
                f"estimated peak memory {self.estimated_bytes} B exceeds "
                f"the memory cap {self.memory_cap} B"
            )

    @property
    def sites_per_plate(self):
        return self.n * self.n

    @property
    def n_sites(self):
        return 2 * self.n * self.n

    @property
    def dim(self):
        return 1 << self.n_sites

    @property
    def estimated_bytes(self):
        """Upper bound on the peak memory of a ``finite-n`` run.

        The peak comes where H = plate part - tunnelling part is formed:
        those three and Q are held at once, as real CSR (12 B per entry,
        an int32 row pointer each).  The plate part is the sum of the two
        plates' joins, and its arrays keep the room scipy allocated for
        both: one entry per row more than it stores, where the two
        diagonals merged.  The commutator checks keep only the nonzero
        entries of [H, Q], J-sized, and stay below it.  On top comes
        ``_RUN_OVERHEAD_BYTES`` for what is not a full-space array.
        """
        n2 = self.sites_per_plate
        nnz_plate = self.dim * (1 + n2 * (n2 - 1) // 2)
        nnz_tunnelling = self.dim * n2 // 2
        nnz_h = nnz_plate + nnz_tunnelling
        nnz_q = self.dim - math.comb(2 * n2, n2)
        entries = (nnz_plate + self.dim) + nnz_tunnelling + nnz_h + nnz_q
        return _RUN_OVERHEAD_BYTES + 12 * entries + 4 * 4 * (self.dim + 1)


def _index_dtype(top):
    """int32 while every index and offset stays below 2^31, else int64."""
    return np.int32 if top <= np.iinfo(np.int32).max else np.int64


def _plate_summed(spec, sites, local):
    """sum_x local(x) over ``sites`` of a plate, for a real 2x2 ``local``,
    on the plate's 2^(n^2) space, as real CSR.

    Read off the site bits of the plate states, site 0 the most
    significant (kron order).  An off-diagonal entry local[i, j] at site
    x joins each state r whose bit x is i to r with that bit set to j;
    these entries are distinct across sites.  The diagonal is summed over
    the sites in order, and its zeros are dropped.  The entries, values
    and order are those of the per-site sum of kron(1, local, 1).
    """
    local = local.real
    width = spec.sites_per_plate
    states = np.arange(1 << width)
    diagonal = np.zeros(states.size)
    rows, cols, values = [], [], []
    for site in sites:
        shift = width - site - 1
        bit = (states >> shift) & 1
        diagonal += local.diagonal()[bit]
        for i, j in ((0, 1), (1, 0)):
            if local[i, j] != 0.0:
                row = states[bit == i]
                rows.append(row)
                cols.append(row ^ (1 << shift))
                values.append(np.full(row.size, local[i, j]))
    kept = np.flatnonzero(diagonal)
    rows.append(kept)
    cols.append(kept)
    values.append(diagonal[kept])
    coo = sparse.coo_matrix(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
        shape=(states.size, states.size),
    )
    return coo.tocsr()


def _contact_ladders(spec):
    """B_plus and B_minus of one plate: its row-1 sites, the first n."""
    b_plus = _plate_summed(spec, range(spec.n), spin.SIGMA_PLUS)
    return b_plus, b_plus.T.tocsr()


def _on_plate_i(op):
    """kron(op, 1) for a plate-I operator, its CSR arrays written directly.

    Row (r, k) of the result is row r of ``op`` with each column c moved
    to c * dim + k, so row r of ``op`` fills one (dim, count) block.
    Columns come out sorted, as ``sparse.kron`` leaves them.
    """
    op = op.sorted_indices()
    dim = op.shape[0]
    counts = np.diff(op.indptr)
    idx = _index_dtype(max(dim * dim, dim * op.nnz))
    lanes = np.arange(dim, dtype=idx)
    indptr = np.empty(dim * dim + 1, dtype=idx)
    indptr[:-1] = ((dim * op.indptr[:-1].astype(idx))[:, None] + counts[:, None] * lanes).ravel()
    indptr[-1] = dim * op.nnz
    indices = np.empty(dim * op.nnz, dtype=idx)
    data = np.empty(dim * op.nnz, dtype=op.dtype)
    for r in range(dim):
        lo, hi = op.indptr[r], op.indptr[r + 1]
        block = slice(dim * lo, dim * hi)
        np.add(dim * op.indices[lo:hi].astype(idx), lanes[:, None],
               out=indices[block].reshape(dim, hi - lo))
        data[block].reshape(dim, hi - lo)[:] = op.data[lo:hi]
    return sparse.csr_matrix((data, indices, indptr), shape=(dim * dim, dim * dim))


def _on_plate_ii(op):
    """kron(1, op) for a plate-II operator, its CSR arrays written directly:
    ``op`` repeated down the diagonal, one dim-sized block per plate-I
    state, its columns sorted.
    """
    op = op.sorted_indices()
    dim = op.shape[0]
    idx = _index_dtype(max(dim * dim, dim * op.nnz))
    blocks = np.arange(dim, dtype=idx)[:, None]
    indptr = np.empty(dim * dim + 1, dtype=idx)
    indptr[:-1] = (op.indptr[:-1].astype(idx) + op.nnz * blocks).ravel()
    indptr[-1] = dim * op.nnz
    indices = (op.indices.astype(idx) + dim * blocks).ravel()
    data = np.tile(op.data, dim)
    return sparse.csr_matrix((data, indices, indptr), shape=(dim * dim, dim * dim))


def _across(plate_i, plate_ii):
    """An operator of plate I times one of plate II; plate I holds the high bits."""
    return sparse.kron(plate_i, plate_ii, format="csr")


def _plate_part(spec, params):
    """H at gamma = 0: each plate's eps sum sigma_z - S_plus S_minus / n."""
    sites = range(spec.sites_per_plate)
    sz = _plate_summed(spec, sites, spin.SIGMA_Z)
    raise_all = _plate_summed(spec, sites, spin.SIGMA_PLUS)
    pairing = raise_all @ raise_all.T / spec.n
    return (
        _on_plate_i(params.bulk_I.epsilon * sz - pairing)
        + _on_plate_ii(params.bulk_II.epsilon * sz - pairing)
    )


def _tunnelling_part(spec, gamma):
    """(gamma/n) (B_plus_I B_minus_II + B_minus_I B_plus_II)."""
    b_plus, b_minus = _contact_ladders(spec)
    return (gamma / spec.n) * (_across(b_plus, b_minus) + _across(b_minus, b_plus))


def build_hamiltonian(spec, params):
    """Full lattice Hamiltonian for the given junction parameters, real CSR."""
    return _plate_part(spec, params) - _tunnelling_part(spec, params.gamma)


def build_relative_number(spec):
    """Pair-number imbalance between the plates, real CSR."""
    number = _plate_summed(
        spec, range(spec.sites_per_plate), spin.SIGMA_PLUS @ spin.SIGMA_MINUS
    )
    return _on_plate_i(number) - _on_plate_ii(number)


def build_current(spec, gamma):
    """Pair current operator J = i [H, Q], in closed form, complex CSR."""
    b_plus, b_minus = _contact_ladders(spec)
    return (-2j * gamma / spec.n) * (_across(b_minus, b_plus) - _across(b_plus, b_minus))


def _nonzero_commutator(op, q):
    """[op, Q] for Q = diag(q), as CSR holding only its nonzero entries.

    [op, Q]_ab = op_ab q_b - q_a op_ab lives on the stored entries of
    ``op`` and is formed there, in op's own arithmetic, in blocks of
    about sqrt(dim) rows, so the temporaries stay small.  Its values are
    those of the literal sparse products op @ Q - Q @ op.
    """
    dim = op.shape[0]
    step = max(1, math.isqrt(dim))
    counts, cols, values = [], [], []
    for start in range(0, dim, step):
        stop = min(start + step, dim)
        lo, ends = op.indptr[start], op.indptr[start + 1 : stop + 1]
        h = op.data[lo : ends[-1]]
        col = op.indices[lo : ends[-1]]
        q_row = np.repeat(q[start:stop], np.diff(op.indptr[start : stop + 1]))
        entry = h * q.take(col) - q_row * h
        keep = np.flatnonzero(entry != 0)
        rows = np.searchsorted(ends, lo + keep, side="right")
        counts.append(np.bincount(rows, minlength=stop - start))
        cols.append(col[keep])
        values.append(entry[keep])
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    return sparse.csr_matrix(
        (np.concatenate(values), np.concatenate(cols), indptr), shape=op.shape
    )


def commutator_defect(op, charge, target=None):
    """max_ab |i[op, Q] - target|_ab, or max_ab |[op, Q]|_ab without a target.

    Q must be diagonal.  Neither op @ Q nor Q @ op is made: the
    commutator is read off the stored entries of ``op`` against Q's
    diagonal, and only its nonzero entries meet ``target``, so for a
    real ``op`` no complex array of op's size is built.
    """
    charge = sparse.coo_matrix(charge)
    if np.any(charge.row != charge.col):
        raise ValueError("the charge must be diagonal: it has an off-diagonal entry")
    op = sparse.csr_matrix(op)
    if op.shape != charge.shape:
        raise ValueError(f"operator shape {op.shape} does not match charge {charge.shape}")
    commutator = _nonzero_commutator(op, charge.diagonal())
    if target is None:
        return float(abs(commutator).max())
    return float(abs(1j * commutator - target).max())


def _site_groups(n_sites):
    """(first, last) site ranges of at most six sites each, in kron order."""
    n_groups = max(1, -(-n_sites // 6))
    edges = [g * n_sites // n_groups for g in range(n_groups + 1)]
    return list(zip(edges, edges[1:]))


def _product_table(states):
    """The kron of a few one-site states (at most 64 x 64), without np.kron's call overhead."""
    table = np.ones((1, 1), dtype=complex)
    for state in states:
        state = np.asarray(state, dtype=complex)
        table = (table[:, None, :, None] * state[None, :, None, :]).reshape(
            2 * table.shape[0], 2 * table.shape[1]
        )
    return table


def product_state_expectation(op, site_states):
    """Tr(rho op) for rho a tensor product of one-site density matrices.

    Contracts over the sparse entries of ``op`` only: each entry
    op[r, c] picks up rho[c, r] = prod_x rho_x[c_x, r_x] from the site
    bit patterns, so nothing of size dim^2 is ever built.  The sites go
    in groups of at most six, and a group's factor is one lookup in the
    kron of its site states (at most 64 x 64), indexed by the group's
    column and row bits, so the cost is O(nnz * groups).  Site 0 is the
    most significant bit (kron order).
    """
    op = sparse.coo_matrix(op)
    dim = op.shape[0]
    n_sites = dim.bit_length() - 1
    if (1 << n_sites) != dim or op.shape[0] != op.shape[1]:
        raise ValueError(f"operator shape {op.shape} is not a spin-chain square")
    if len(site_states) != n_sites:
        raise ValueError(
            f"got {len(site_states)} site states for {n_sites} sites"
        )
    acc = op.data.astype(complex, copy=True)
    for first, last in _site_groups(n_sites):
        width = last - first
        table = _product_table(site_states[first:last])
        shift = n_sites - last
        mask = (1 << width) - 1
        index = ((op.col >> shift) & mask) << width
        index |= (op.row >> shift) & mask
        acc *= table.ravel()[index]
    return complex(acc.sum())


def product_state_current(spec, params, current=None):
    """<J> per contact site in the product of the two plates' bulk gap
    states, and the sine law -4 gamma lam_I lam_II sin(delta_phi) it equals
    at every n.  Builds J unless ``current`` is given.
    """
    if current is None:
        current = build_current(spec, params.gamma)
    bulk_i = solve_gap(params.bulk_I)
    bulk_ii = solve_gap(params.bulk_II)
    states = [bulk_i.rho] * spec.sites_per_plate + [bulk_ii.rho] * spec.sites_per_plate
    measured = product_state_expectation(current, states).real / spec.n
    expected = -4.0 * params.gamma * bulk_i.lam * bulk_ii.lam * math.sin(params.delta_phi)
    return measured, expected


@dataclass(frozen=True)
class FiniteNReport:
    """The finite-lattice identities at one junction point, with the verdict."""

    n: int
    sites: int
    dimension: int
    commutator_defect: float
    bulk_conservation_defect: float
    product_current_per_site: float
    mean_field_current: float
    current_defect: float
    passed: bool


def finite_n_report(spec, params):
    """i[H, Q] = J entrywise, [H(gamma = 0), Q] = 0 and the product-state sine law.

    The plate part of H is H at gamma = 0 bit for bit, so it is built
    once: the conservation check reads it, and H is formed from it by
    subtracting the tunnelling part.  The current is
    :func:`product_state_current`.
    """
    charge = build_relative_number(spec)
    plate = _plate_part(spec, params)
    conservation = commutator_defect(plate, charge)
    hamiltonian = plate - _tunnelling_part(spec, params.gamma)
    del plate
    current = build_current(spec, params.gamma)
    identity = commutator_defect(hamiltonian, charge, current)
    del hamiltonian

    measured, expected = product_state_current(spec, params, current)
    current_defect = abs(measured - expected)
    return FiniteNReport(
        n=spec.n,
        sites=spec.n_sites,
        dimension=spec.dim,
        commutator_defect=identity,
        bulk_conservation_defect=conservation,
        product_current_per_site=measured,
        mean_field_current=expected,
        current_defect=current_defect,
        passed=(
            identity < FINITE_N_COMMUTATOR_TOL
            and conservation < FINITE_N_CONSERVATION_TOL
            and current_defect < FINITE_N_CURRENT_TOL
        ),
    )


def _dominant_product_terms(site_states, tol, cap=_MAX_PRODUCT_TERMS):
    """Product eigenstate expansion of a mixed product state, best first.

    Yields (weight, statevector) until the neglected mass drops below
    ``tol``.  For nearly pure site states (large beta) one term suffices;
    a genuinely mixed state on many sites trips the term cap instead of
    silently truncating.  Each distinct site state (compared by value)
    is diagonalized once.
    """
    spectra = {}
    probs = []
    vectors = []
    for rho in site_states:
        rho = np.asarray(rho, dtype=complex)
        key = (rho.shape, rho.tobytes())
        if key not in spectra:
            w, v = np.linalg.eigh(rho)
            order = np.argsort(w)[::-1]
            spectra[key] = (np.clip(w[order], 0.0, None), v[:, order])
        p, v = spectra[key]
        probs.append(p)
        vectors.append(v)

    n_sites = len(site_states)

    def weight(choice):
        total = 1.0
        for x, c in zip(range(n_sites), choice):
            total *= probs[x][c]
        return total

    start = (0,) * n_sites
    heap = [(-weight(start), start)]
    seen = {start}
    mass = 0.0
    out = []
    while heap and mass < 1.0 - tol:
        if len(out) >= cap:
            raise ResourceLimitError(
                "product state too mixed: the eigenstate expansion needs "
                f"more than {cap} terms to reach mass 1 - {tol}"
            )
        neg_w, choice = heapq.heappop(heap)
        w = -neg_w
        if w <= 0.0:
            break
        vec = vectors[0][:, choice[0]]
        for x in range(1, n_sites):
            vec = np.multiply.outer(vec, vectors[x][:, choice[x]]).ravel()
        out.append((w, vec))
        mass += w
        for x in range(n_sites):
            if choice[x] == 0:
                nxt = choice[:x] + (1,) + choice[x + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (-weight(nxt), nxt))
    return out


def _spectral_interval(hamiltonian):
    """Center c and half-width r of an interval holding the spectrum of H.

    By Gershgorin, every eigenvalue of the Hermitian H lies within
    sum_{j != i} |h_ij| of some diagonal entry h_ii.  The row sums are
    read from the stored entries (CSR ``data`` and ``indptr``) or the
    dense rows; H itself is not copied.
    """
    diag = hamiltonian.diagonal().real
    if sparse.issparse(hamiltonian):
        indptr = hamiltonian.indptr
        rows = np.flatnonzero(np.diff(indptr))
        abs_sums = np.zeros(len(diag))
        if rows.size:
            abs_sums[rows] = np.add.reduceat(np.abs(hamiltonian.data), indptr[rows])
    else:
        abs_sums = np.abs(hamiltonian).sum(axis=1)
    radii = abs_sums - np.abs(diag)
    low = float(np.min(diag - radii))
    high = float(np.max(diag + radii))
    return (high + low) / 2, (high - low) / 2


def _chebyshev_order(x):
    """Smallest K whose tail sum_{k > K} 2 |J_k(x)| is below roundoff.

    Uses |J_k(x)| <= (|x|/2)^k / k!; once k + 2 > |x|/2 the terms fall
    at least geometrically, so term K+1 over one minus the ratio
    bounds the tail.
    """
    half = abs(x) / 2
    if half == 0.0:
        return 0
    log_eps = math.log(np.finfo(float).eps)
    order = int(half)
    while True:
        log_term = (order + 1) * math.log(half) - math.lgamma(order + 2)
        if math.log(2 / (1 - half / (order + 2))) + log_term < log_eps:
            return order
        order += 1


def _bessel_j(order, x):
    """J_0(x) .. J_order(x), to double precision.

    Below |x| = 2 sqrt(eps) the leading power-series term (x/2)^k / k!
    is exact to roundoff.  Otherwise Miller's backward recurrence
    J_{k-1} = (2k/x) J_k - J_{k+1}, started well above both ``order``
    and |x| and rescaled against overflow, normalized by
    J_0 + 2 sum_k J_2k = 1.
    """
    if abs(x) < 2 * math.sqrt(np.finfo(float).eps):
        out = [1.0]
        for k in range(1, order + 1):
            out.append(out[-1] * x / (2 * k))
        return np.array(out)
    top = order + int(abs(x)) + 20
    values = [0.0] * (top + 2)
    values[top] = 1.0
    for k in range(top, 0, -1):
        values[k - 1] = (2 * k / abs(x)) * values[k] - values[k + 1]
        if abs(values[k - 1]) > 1e250:
            values = [value * 1e-250 for value in values]
    values = np.array(values[: order + 1]) / (values[0] + 2 * math.fsum(values[2::2]))
    if x < 0:
        values[1::2] *= -1
    return values


def _propagate(hamiltonian, vectors, t):
    """exp(-itH) v for each v of ``vectors``, one at a time, by the
    Chebyshev series of Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984):

        exp(-itH) v = e^{-itc} sum_k (2 - delta_k0) (-i)^k J_k(tr) T_k((H - c)/r) v

    with [c - r, c + r] the Gershgorin interval of the Hermitian H, summed
    until the rigorous tail bound drops below double-precision roundoff.
    A real H acts on the (re, im) pair of the iterate as one real (dim, 2)
    product, so no complex copy of H is ever formed; a complex H acts by a
    plain ``h @ v``.
    """
    center, radius = _spectral_interval(hamiltonian)
    coeffs = _bessel_j(_chebyshev_order(t * radius), t * radius)
    if np.iscomplexobj(hamiltonian):
        apply = hamiltonian.__matmul__
    else:
        def apply(v):
            return (hamiltonian @ v.view(float).reshape(-1, 2)).view(complex).ravel()

    def step(v):
        """2 (H - c)/r applied to v."""
        out = apply(v)
        out -= center * v
        out *= 2 / radius
        return out

    for vec in vectors:
        prev = np.array(vec, dtype=complex)
        total = coeffs[0] * prev
        if len(coeffs) > 1:
            cur = step(prev) / 2
            total += -2j * coeffs[1] * cur
            phase = -1j
            for coeff in coeffs[2:]:
                prev, cur = cur, step(cur) - prev
                phase *= -1j
                total += (2 * phase * coeff) * cur
        yield np.exp(-1j * t * center) * total


def _value_key(array):
    """Shape, dtypes and bytes of a CSR or dense array: equal only for equal values."""
    if sparse.issparse(array):
        array = sparse.csr_matrix(array)
        parts = (array.indptr, array.indices, array.data)
    else:
        parts = (np.asarray(array),)
    return (array.shape,) + tuple((part.dtype.str, part.tobytes()) for part in parts)


def _to_eigenbasis(basis, block):
    """basis^dagger @ block.  A real basis acts on the (re, im) columns of
    a complex block as one real product, as in :func:`_propagate`."""
    if np.iscomplexobj(basis):
        return basis.conj().T @ block
    if not np.iscomplexobj(block):
        return basis.T @ block
    return (basis.T @ np.ascontiguousarray(block).view(float)).view(complex)


def _apply_product_state(site_states, block):
    """(rho_0 kron rho_1 kron ...) @ block, one group of sites at a time
    (the kron of its states, at most 64 x 64), so the dim x dim product
    state is never formed.  Site 0 is the most significant bit."""
    out = block
    for first, last in _site_groups(len(site_states)):
        table = _product_table(site_states[first:last])
        out = np.matmul(table, out.reshape(1 << first, table.shape[0], -1))
    return out.reshape(block.shape)


def _spectral_weights(op, hamiltonian, site_states):
    """<op> at t = 0, and the energies E, coherences W and column sums of W
    that carry its time dependence.

    With H = V diag(E) V^dagger and W_ab = (V^dagger rho V)_ba (V^dagger op V)_ab,
    <op(t)> = sum_ab e^{iE_a t} W_ab e^{-iE_b t}.  The a = b terms do not
    depend on t, so <op(t)> = <op> + sum_{a != b} W_ab (e^{i(E_a - E_b)t} - 1):
    W is kept with its diagonal zeroed, and <op> is contracted in the
    product state directly.
    """
    h_dense = np.asarray(hamiltonian.toarray() if sparse.issparse(hamiltonian) else hamiltonian)
    energies, basis = np.linalg.eigh(h_dense)
    op_basis = _to_eigenbasis(basis, op @ basis)
    rho_basis = _to_eigenbasis(basis, _apply_product_state(site_states, basis))
    coherences = rho_basis.T * op_basis
    np.fill_diagonal(coherences, 0.0)
    static = product_state_expectation(op, site_states)
    return static, energies, coherences, coherences.sum(axis=0)


# (key, weights) of the last dense evolution; a call with equal H, op and
# site states reuses it, so a time series diagonalizes once.
_spectral_memo = (None, None)


def time_evolve_expectation(op, hamiltonian, site_states, t, dense_dim=DENSE_EVOLUTION_DIM):
    """Tr(rho exp(itH) op exp(-itH)) for a product state rho.

    Up to ``dense_dim`` it is the spectral sum over the eigenpairs of H
    (dense ``eigh``), <op> + sum_{a != b} W_ab (e^{i(E_a - E_b)t} - 1)
    (:func:`_spectral_weights`).  H is diagonalized and W formed once per
    (H, op, state): the last weights are kept, keyed on the values of H,
    op and the site states, so each later t of a series costs one O(d^2)
    phase sum.  At n = 2 (d = 256, one BLAS thread) a later call takes
    ~0.13 ms, the first ~17 ms.  Written in e^{i(E_a - E_b)t} - 1, the
    sum gives <op> exactly at t = 0, and at every t when W vanishes off
    the diagonal (Q under the decoupled n = 1 H).
    Above ``dense_dim`` the state is expanded into dominant product
    eigenstates, dropping a total weight below ``KRYLOV_TOL``, and each
    is propagated by the Chebyshev series of :func:`_propagate`, summed
    to double-precision roundoff; ``KRYLOV_TOL`` bounds only the dropped
    weight.  A real H stays real throughout; a dense ``ndarray`` or
    complex Hermitian H is accepted as it is.
    """
    global _spectral_memo
    dim = hamiltonian.shape[0]
    if dim <= dense_dim:
        key = (
            _value_key(hamiltonian),
            _value_key(op),
            tuple(_value_key(np.asarray(state, dtype=complex)) for state in site_states),
        )
        cached_key, weights = _spectral_memo  # one read: another thread may replace it
        if cached_key != key:
            # drop the old W first: one is held at a time, even while a miss runs
            weights = None
            _spectral_memo = (None, None)
            weights = _spectral_weights(op, hamiltonian, site_states)
            _spectral_memo = (key, weights)
        static, energies, coherences, column_sums = weights
        phases = np.exp(1j * t * energies)
        shifts = phases - 1.0
        # sum_ab W_ab (p_a conj(p_b) - 1), with p_a conj(p_b) - 1 = s_a conj(p_b) + conj(s_b)
        return complex(static + shifts @ coherences @ phases.conj() + column_sums @ shifts.conj())

    terms = _dominant_product_terms(site_states, KRYLOV_TOL)
    h = sparse.csr_matrix(hamiltonian) if sparse.issparse(hamiltonian) else np.asarray(hamiltonian)
    op_csr = sparse.csr_matrix(op)
    total = 0.0 + 0.0j
    for (w, _), moved in zip(terms, _propagate(h, [vec for _, vec in terms], t)):
        total += w * np.vdot(moved, op_csr @ moved)
    return complex(total)
