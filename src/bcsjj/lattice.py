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
The core is plain numpy.  Each plate's operators are built once per N
on the plate's own 2^(N^2) states and held by their structure
(:func:`_plate_operators`): sum_x sigma_z and the pair number are
diagonals, S_plus S_minus / N is its diagonal and its off-diagonal
entries, and B_plus and B_minus are the index pairs of their unit
entries, all read off dense plate-space temporaries (site 0 is the most
significant bit, as in kron order).  H, Q and J are sums of kron
products of plate operators, plate I holding the high bits, and each is
written straight into its final CSR arrays (:class:`_Csr`, under scipy's
attribute names) a few plate-I rows at a time (:func:`_assemble`): no
full-space temporary, kron product or sparse sum is made, and the
entries, their order and their values are those of the
``scipy.sparse.kron`` sums bit for bit.  H and Q are real float64 CSR;
only J is complex.

The identities i[H, Q] = J and [H(gamma = 0), Q] = 0 are checked
entrywise without forming H @ Q or Q @ H: Q is diagonal, so
[H, Q]_ab = h_ab q_b - q_a h_ab is read off H's stored entries against
Q's diagonal, a block of rows at a time.  H(gamma = 0) is H's entries
that leave one plate's state unchanged, so both checks read one pass
over H (:func:`_identity_and_conservation`).  Expectations in product
states contract over the sparse entries a group of sites at a time,
never building the 4^(N^2) density matrix.  :func:`finite_n_report` and
:func:`product_state_current` run on the core alone, so ``finite-n`` and
the ``finite_n.*`` checks never load scipy.

scipy is imported only inside the public sparse API: the builders
(:func:`build_hamiltonian` and its kin wrap the core's arrays in a
``scipy.sparse.csr_matrix`` without a copy), :func:`product_state_expectation`
and :func:`time_evolve_expectation`.  Time evolution takes the real CSR H
that :func:`build_hamiltonian` returns, and no other form.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from ._numpy import np
from .constants import (
    FINITE_N_COMMUTATOR_TOL,
    FINITE_N_CONSERVATION_TOL,
    FINITE_N_CURRENT_TOL,
    KRYLOV_TOL,
)
from .equilibrium import solve_gap

DEFAULT_DIM_CAP = 2**20
DENSE_EVOLUTION_DIM = 2**10
# the builders' work per step of a few plate-I rows, in entries placed
# plus slots of their per-row place tables; a step's temporaries are a
# few arrays of that many int64s (~0.25 MB each)
_STEP_ENTRIES = 2**15
# stored entries per block of rows in the checks that scan H
# (commutators, Gershgorin sums); a block's temporaries are a few arrays
# of that many entries
_BLOCK_ENTRIES = 2**15
# What a finite-n run allocates besides what estimated_bytes sizes from
# the lattice: the Python objects around each array, the plate-space
# operators (2^(n^2) states) and the report's other small pieces.
# Measured ~25 kB over the sized part on a process's first run at n = 1;
# at n = 2 and 3 the block term of the estimate covers them too.  The
# argument parser is built on import, so it is not part of a run, and a
# run loads no scipy, so it fills none of the abc caches (~26 kB) that
# scipy's sparse type checks once filled inside a first run.  Importing
# bcsjj loads no numpy, so a process's first run also loads numpy (~6 MB
# traced), which the estimate leaves out.  Measured on Python 3.11 with
# numpy 2.4 imported before the run: a first run then peaks ~73 kB, ~137 kB
# and ~0.54 MB under the estimate at n = 1, 2, 3 (the plate operators held
# as diagonals and int32 index arrays), margins other interpreters or
# numpy versions may use up (CI prints them for its own).
_RUN_OVERHEAD_BYTES = 96 * 1024

class ResourceLimitError(RuntimeError):
    """Requested lattice exceeds the configured dimension or memory budget."""


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry and resource budget of the finite two-plate lattice."""

    n: int
    memory_cap: int | None = None

    def __post_init__(self):
        if not (isinstance(self.n, int) and not isinstance(self.n, bool) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if self.memory_cap is not None and not self.memory_cap > 0:
            raise ValueError(f"memory_cap must be positive, got {self.memory_cap!r}")
        # by the site count, and the message prints n: a huge n's dimension
        # 2^(2 n^2), or even its 2 n^2, may be too large to form or print
        if self.n_sites >= DEFAULT_DIM_CAP.bit_length():
            raise ResourceLimitError(
                f"Hilbert dimension 2**(2 n^2) at n = {self.n} exceeds the cap "
                f"{DEFAULT_DIM_CAP}; n = 3 is the largest lattice this oracle builds"
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

        The peak comes in the identity check i[H, Q] = J, with H, Q and J
        held at once.  Each is CSR written straight into its final arrays:
        a value (8 B, 16 B for the complex J) and an index per entry, and
        an index per row.  H is counted with every entry it can hold (a
        diagonal sum that cancels is not stored).  Beside them are Q's
        diagonal and the check's temporaries for one block of rows
        (:func:`_row_blocks`), at most 48 B per entry.  On top comes
        ``_RUN_OVERHEAD_BYTES`` for what is not sized by the lattice.
        """
        n2, dim = self.sites_per_plate, self.dim
        nnz_j = dim * n2 // 2
        nnz_h = dim * (1 + n2 * (n2 - 1) // 2) + nnz_j
        nnz_q = dim - math.comb(2 * n2, n2)
        index = np.dtype(_index_dtype(max(dim, nnz_h))).itemsize
        operators = (8 + index) * (nnz_h + nnz_q) + (16 + index) * nnz_j + 3 * index * (dim + 1)
        block = min(nnz_h, _BLOCK_ENTRIES)
        return _RUN_OVERHEAD_BYTES + operators + 8 * dim + 48 * block


def _index_dtype(top):
    """int32 while every index and offset stays below 2^31, else int64."""
    return np.int32 if top <= np.iinfo(np.int32).max else np.int64


class _Csr(NamedTuple):
    """A square sparse matrix as its CSR arrays, under scipy's attribute
    names: the core reads a scipy CSR matrix the same way."""

    data: "numpy.ndarray"
    indices: "numpy.ndarray"
    indptr: "numpy.ndarray"
    shape: tuple


def _rows_of(op):
    """The row of each stored entry of a CSR ``op``, in storage order."""
    return np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))


class _PlateOperators(NamedTuple):
    """One n x n plate's operators on its 2^(n^2) states, each in its own
    form.  Entry lists run in CSR order (by row, then column)."""

    sz: "numpy.ndarray"  # the diagonal of sum_x sigma_z(x)
    number: "numpy.ndarray"  # the diagonal of the pair number
    pairing_diagonal: "numpy.ndarray"  # the diagonal of S_plus S_minus / n
    pairing: tuple  # (row, col, value) of S_plus S_minus / n off its diagonal
    b_plus: tuple  # (row, col) of B_plus's unit entries, the contact row's (first n sites') sum
    b_minus: tuple


@functools.cache
def _plate_operators(n):
    """The plate operators of an n x n plate, built once per n and shared
    by every builder call: callers must not modify them.

    S_plus is a dense 0/1 temporary on the plate's at most 512 states,
    its entry (r, c) set where c is r with one pair removed (site 0 the
    most significant bit, as in kron order).  S_plus S_minus is its dense
    product, a temporary too: the entries count 0/1 products, so they are
    exact, and each one divided by n is the sparse product's.  Every entry
    list is read off one of them by ``np.nonzero``, in CSR order.
    """
    width, dim = n * n, 1 << (n * n)
    states = np.arange(dim)
    raising = np.zeros((dim, dim))
    for shift in range(width):
        free = states[(states >> shift) & 1 == 0]
        raising[free, free | (1 << shift)] = 1.0
    counts = raising @ raising.T
    number = counts.diagonal().copy()  # the pairs a state holds: its zero bits
    np.fill_diagonal(counts, 0.0)
    row, col = np.nonzero(counts)
    idx = _index_dtype(dim)

    def contact(row, col):
        """The entries whose flipped site is in the contact row (the top n bits)."""
        kept = (row ^ col) >> (width - n) != 0
        return row[kept].astype(idx), col[kept].astype(idx)

    return _PlateOperators(
        sz=2.0 * number - width,  # sum_x sigma_z(x): pairs minus empty sites
        number=number,
        pairing_diagonal=number * (1 / n),  # scipy's / n: times 1 / n
        pairing=(row.astype(idx), col.astype(idx), counts[row, col] * (1 / n)),
        b_plus=contact(*np.nonzero(raising)),
        b_minus=contact(*np.nonzero(raising.T)),
    )


class _Rows(NamedTuple):
    """A plate operator's entries in row order: per row its entry count, and
    per entry its row, its place in that row, its column and its value
    (None for a 0/1 operator)."""

    count: "numpy.ndarray"
    row: "numpy.ndarray"
    slot: "numpy.ndarray"
    col: "numpy.ndarray"
    value: "numpy.ndarray | None"


def _rows(dim, row, col, value=None):
    count = np.bincount(row, minlength=dim)
    return _Rows(count, row, np.arange(row.size) - (np.cumsum(count) - count)[row], col, value)


def _assemble(dim, plates, terms, dtype):
    """kron(a, 1) + kron(1, b) + sum_t value_t kron(left_t, right_t) on the
    joint space of two plates of ``dim`` states each, plate I holding the
    high bits, as CSR whose arrays are allocated once and written in
    place, a few plate-I rows at a time.

    ``plates`` is (a, b), or None for no plate part, each plate operator
    given as its diagonal and its nonzero off-diagonal entries
    (row, col, value).  ``terms`` are (left, right, value) with left and
    right 0/1 plate operators (the contact ladders) given as the (row,
    col) of their unit entries, whose rows' columns are disjoint from
    each other's and from a's off-diagonal ones.  Entry lists run in CSR
    order (by row, then column).  Row (r, k) is then, in column order,
    one block per plate-I column c:
    a[r, c] at (c, k) for c != r; for c = r, row k of b with
    a[r, r] + b[k, k] on its diagonal, dropped where it is zero; and
    value_t times row k of right_t where left_t[r, c] = 1.  Entries,
    values, dropped zeros and column order are those of the
    ``scipy.sparse.kron`` sums (H, Q and J below), bit for bit.

    A block is one entry wide in every row k (a[r, c] 1) or as wide as
    row k of its plate-II operator.  An entry's place in row (r, k) is
    the number of one-wide blocks before its block, plus the widths in
    row k of the wide blocks before it, plus its place in the block; so
    one cumulative sum over the wide blocks of a few plate-I rows places
    all their entries.
    """
    every = np.arange(dim)
    # Block kinds: 0 a[r, c] 1 for c != r; the c = r block as 1 b's lower
    # part, 2 the diagonal (kept per plate-I row), 3 b's upper part;
    # 4 + t term t.  A wide kind's row-k entries are in its _Rows.
    kinds = [None] * 4
    blocks = []  # (plate-I row, plate-I column, kind, value) of each block
    nnz = 0
    if plates:
        (a_diag, (a_row, a_col, a_value)), (b_diag, (b_row, b_col, b_value)) = plates
        blocks.append((a_row, a_col, np.zeros(a_row.size, dtype=int), a_value))
        blocks.append((every, every, np.full(dim, 2), np.zeros(dim)))
        for kind, part in ((1, b_col < b_row), (3, b_col > b_row)):
            if part.any():
                kinds[kind] = _rows(dim, b_row[part], b_col[part], b_value[part])
                blocks.append((every, every, np.full(dim, kind), np.zeros(dim)))
        nnz += dim * (a_row.size + b_row.size)
        nnz += sum(np.count_nonzero(a_diag[r] + b_diag) for r in range(dim))
    for t, ((left_row, left_col), right, value) in enumerate(terms):
        kinds.append(_rows(dim, *right))
        blocks.append((left_row, left_col, np.full(left_row.size, 4 + t), np.full(left_row.size, value)))
        nnz += left_row.size * right[0].size
    row, col, kind, value = (np.concatenate(part) for part in zip(*blocks))
    order = np.lexsort((kind, col, row))
    row, col, kind, value = row[order], col[order], kind[order], value.astype(dtype)[order]
    # per block, the one-wide and the wide blocks before it in its row
    wide = kind > 0
    first = np.searchsorted(row, every)
    ones_before = np.cumsum(~wide) - ~wide
    ones_before -= ones_before[first[row]]
    wide_before = np.cumsum(wide) - wide
    wide_before -= wide_before[first[row]]
    ones_per_row = np.bincount(row[~wide], minlength=dim)
    wide_per_row = np.bincount(row[wide], minlength=dim)
    # the blocks by kind, then row and column
    order = np.argsort(kind, kind="stable")
    row, col, kind, value = row[order], col[order], kind[order], value[order]
    ones_before, wide_before = ones_before[order], wide_before[order]
    # by_kind[k, r]: the first block of kind k in plate-I row r or after it
    kind_first = np.searchsorted(kind, np.arange(len(kinds) + 1))
    by_kind = np.array([lo + np.searchsorted(row[lo:hi], np.arange(dim + 1))
                        for lo, hi in zip(kind_first, kind_first[1:])])

    idx = _index_dtype(max(dim * dim, nnz))
    base = col.astype(idx) * dim  # each block's first full-space column
    every_col = every.astype(idx)
    kinds = [rows and rows._replace(col=rows.col.astype(idx)) for rows in kinds]
    indptr = np.empty(dim * dim + 1, dtype=idx)
    indptr[0] = 0
    indices = np.empty(nnz, dtype=idx)
    data = np.empty(nnz, dtype=dtype)
    step = max(1, _STEP_ENTRIES // (nnz // dim + dim * (int(wide_per_row.max()) + 3)))
    for r0 in range(0, dim, step):
        r1 = min(r0 + step, dim)
        mine = by_kind[:, [r0, r1]]
        # places[r, i, k]: where in row (r, k) the i-th wide block of plate-I row r starts,
        # counting wide entries only; its last layer is the row's wide entries
        places = np.zeros((r1 - r0, wide_per_row[r0:r1].max() + 1, dim), dtype=int)
        if plates:
            diagonal = a_diag[r0:r1, None] + b_diag
            kept = diagonal != 0
        for k, (lo, hi) in enumerate(mine[1:], 1):
            if lo < hi:
                places[row[lo:hi] - r0, wide_before[lo:hi] + 1] = kept if k == 2 else kinds[k].count
        np.cumsum(places, axis=1, out=places)
        lengths = places[:, -1] + ones_per_row[r0:r1, None]
        indptr[r0 * dim + 1 : r1 * dim + 1] = indptr[r0 * dim] + np.cumsum(lengths)
        places += indptr[r0 * dim : r1 * dim].reshape(r1 - r0, 1, dim)
        for k, (lo, hi) in enumerate(mine):
            if lo == hi:
                continue
            starts = places[row[lo:hi] - r0, wide_before[lo:hi]] + ones_before[lo:hi, None]
            if k == 0:
                dest = starts
                cols = base[lo:hi, None] + every_col
                values = np.repeat(value[lo:hi], dim).reshape(dest.shape)
            elif k == 2:
                dest = starts[kept]
                cols = (base[lo:hi, None] + every_col)[kept]
                values = diagonal[kept]
            else:
                rows = kinds[k]
                dest = starts[:, rows.row] + rows.slot
                cols = base[lo:hi, None] + rows.col
                if rows.value is None:
                    values = np.repeat(value[lo:hi], rows.row.size).reshape(dest.shape)
                else:
                    values = np.tile(rows.value, (hi - lo, 1))
            indices[dest] = cols
            data[dest] = values
    return _Csr(data, indices, indptr, (dim * dim, dim * dim))


def _hamiltonian(spec, params):
    """Full lattice Hamiltonian for the given junction parameters, real CSR:
    each plate's eps sum sigma_z - S_plus S_minus / n, minus
    (gamma/n) (B_plus_I B_minus_II + B_minus_I B_plus_II)."""
    ops = _plate_operators(spec.n)
    # scipy's eps * sz - pairing: sz has no off-diagonal entry, so 0.0 - p = -p there
    row, col, value = ops.pairing
    plates = tuple(
        (bulk.epsilon * ops.sz - ops.pairing_diagonal, (row, col, -value))
        for bulk in (params.bulk_I, params.bulk_II)
    )
    hop = -(params.gamma / spec.n)
    # a zero hop stores no entry, as the sparse difference plate - tunnelling drops it
    terms = [(ops.b_plus, ops.b_minus, hop), (ops.b_minus, ops.b_plus, hop)] if hop else []
    return _assemble(ops.sz.size, plates, terms, float)


def _relative_number(spec):
    """Pair-number imbalance between the plates, real CSR."""
    number = _plate_operators(spec.n).number
    diagonal_only = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
    return _assemble(number.size, ((number, diagonal_only), (-number, diagonal_only)), [], float)


def _current(spec, gamma):
    """Pair current operator J = i [H, Q], in closed form, complex CSR."""
    ops = _plate_operators(spec.n)
    # the closed form's +-1 entries times its scale, in numpy's complex
    # arithmetic (signed zeros included); zero entries are kept
    plus, minus = np.array([1.0, -1.0]) * (-2j * gamma / spec.n)
    return _assemble(ops.sz.size, None, [(ops.b_minus, ops.b_plus, plus), (ops.b_plus, ops.b_minus, minus)], complex)


def _scipy_csr(op):
    """``op``'s arrays as a ``scipy.sparse.csr_matrix``, not copied."""
    from scipy import sparse

    return sparse.csr_matrix((op.data, op.indices, op.indptr), shape=op.shape)


def build_hamiltonian(spec, params):
    """Full lattice Hamiltonian for the given junction parameters, as a
    real ``scipy.sparse.csr_matrix`` around :func:`_hamiltonian`'s arrays."""
    return _scipy_csr(_hamiltonian(spec, params))


def build_relative_number(spec):
    """Pair-number imbalance between the plates, as a real
    ``scipy.sparse.csr_matrix`` around :func:`_relative_number`'s arrays."""
    return _scipy_csr(_relative_number(spec))


def build_current(spec, gamma):
    """Pair current operator J = i [H, Q], in closed form, as a complex
    ``scipy.sparse.csr_matrix`` around :func:`_current`'s arrays."""
    return _scipy_csr(_current(spec, gamma))


def _row_blocks(indptr):
    """(start, stop) of consecutive blocks of rows holding about
    ``_BLOCK_ENTRIES`` stored entries each, by the mean row length."""
    rows = len(indptr) - 1
    step = max(1, _BLOCK_ENTRIES * rows // max(int(indptr[-1]), 1))
    return [(start, min(start + step, rows)) for start in range(0, rows, step)]


def _target_defect(start, stop, row, col, value, target):
    """max_ab |i [H, Q]_ab - target_ab| over rows start to stop, from the
    commutator's nonzero entries there, in row and column order, and a
    canonical CSR ``target``; NaN if any value compared is NaN.  Each
    target entry meets the commutator entry at its (row, column), if
    there is one: both run in that order."""
    dim = target.shape[1]
    lo, hi = target.indptr[start], target.indptr[stop]
    key = np.repeat(np.arange(start, stop), np.diff(target.indptr[start : stop + 1])) * dim
    key += target.indices[lo:hi]
    at_key = row * dim + col
    at = np.searchsorted(at_key, key)
    met = at < at_key.size
    met[met] = at_key[at[met]] == key[met]
    entry = target.data[lo:hi]
    alone = np.ones(value.size, dtype=bool)
    alone[at[met]] = False
    return np.max((
        np.abs(1j * value[at[met]] - entry[met]).max(initial=0.0),
        np.abs(entry[~met]).max(initial=0.0),
        np.abs(value[alone]).max(initial=0.0),
    ))


def _identity_and_conservation(hamiltonian, charge, current, width):
    """max_ab |i[H, Q] - J|_ab and max_ab |[H(gamma = 0), Q]_ab| from one
    pass over [H, Q], for the builders' canonical CSR H, Q and J; a NaN
    compared makes its defect NaN.

    Q is diagonal, so [H, Q]_ab = h_ab q_b - q_a h_ab lives on H's stored
    entries.  It is formed there, in H's own arithmetic (the values of the
    literal sparse products), a block of rows at a time, and its nonzero
    entries meet J's in the same rows (:func:`_target_defect`).

    H(gamma = 0) is read off H.  The tunnelling term moves a pair across
    the contact, so each of its entries changes both plates' states;
    H(gamma = 0) changes at most one.  The two parts share no entry, so
    H(gamma = 0) is, bit for bit, H's entries whose row and column agree
    on one plate's ``width`` bits.
    """
    indptr = hamiltonian.indptr
    q = np.zeros(charge.shape[0])
    q[charge.indices] = charge.data  # Q is diagonal: each entry's column is its row
    plate_ii = (1 << width) - 1
    identity = conservation = 0.0
    for start, stop in _row_blocks(indptr):
        lo, hi = indptr[start], indptr[stop]
        h, col = hamiltonian.data[lo:hi], hamiltonian.indices[lo:hi]
        value = h * q.take(col) - np.repeat(q[start:stop], np.diff(indptr[start : stop + 1])) * h
        keep = np.flatnonzero(value != 0)
        row = start + np.searchsorted(indptr[start + 1 : stop + 1] - lo, keep, side="right")
        col, value = col[keep], value[keep]
        identity = np.maximum(identity, _target_defect(start, stop, row, col, value, current))
        moved = row ^ col
        within = ((moved >> width) == 0) | ((moved & plate_ii) == 0)
        conservation = np.maximum(conservation, np.abs(value[within]).max(initial=0.0))
    return float(identity), float(conservation)


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


def _expectation(shape, row, col, value, site_states):
    """Tr(rho op) for a product state rho, from op's ``shape`` and its
    entries (``row``, ``col``, ``value``): the contraction of
    :func:`product_state_expectation`, summed in the entries' order."""
    dim = shape[0]
    n_sites = dim.bit_length() - 1
    if (1 << n_sites) != dim or shape[0] != shape[1]:
        raise ValueError(f"operator shape {shape} is not a spin-chain square")
    if len(site_states) != n_sites:
        raise ValueError(
            f"got {len(site_states)} site states for {n_sites} sites"
        )
    acc = value.astype(complex, copy=True)
    for first, last in _site_groups(n_sites):
        width = last - first
        table = _product_table(site_states[first:last])
        shift = n_sites - last
        mask = (1 << width) - 1
        index = ((col >> shift) & mask) << width
        index |= (row >> shift) & mask
        acc *= table.ravel()[index]
    return complex(acc.sum())


def product_state_expectation(op, site_states):
    """Tr(rho op) for rho a tensor product of one-site density matrices.

    Contracts over the sparse entries of ``op`` only: each entry
    op[r, c] picks up rho[c, r] = prod_x rho_x[c_x, r_x] from the site
    bit patterns, so nothing of size dim^2 is ever built.  The sites go
    in groups of at most six, and a group's factor is one lookup in the
    kron of its site states (at most 64 x 64), indexed by the group's
    column and row bits, so the cost is O(nnz * groups).  Site 0 is the
    most significant bit (kron order).  ``op`` is anything
    ``scipy.sparse.coo_matrix`` takes.
    """
    from scipy import sparse

    op = sparse.coo_matrix(op)
    return _expectation(op.shape, op.row, op.col, op.data, site_states)


def product_state_current(spec, params, current=None):
    """<J> per contact site in the product of the two plates' bulk gap
    states, and the sine law -4 gamma lam_I lam_II sin(delta_phi) it equals
    at every n.  Builds J unless ``current``, J as CSR (a scipy CSR
    matrix or the core's arrays), is given.
    """
    if current is None:
        current = _current(spec, params.gamma)
    bulk_i = solve_gap(params.bulk_I)
    bulk_ii = solve_gap(params.bulk_II)
    states = [bulk_i.rho] * spec.sites_per_plate + [bulk_ii.rho] * spec.sites_per_plate
    entries = (_rows_of(current), current.indices, current.data)
    measured = _expectation(current.shape, *entries, states).real / spec.n
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

    H is built once, and both commutators are read off it in one pass
    (:func:`_identity_and_conservation`).  The current is
    :func:`product_state_current`.  A coupling whose products overflow
    gives NaN defects, and a failed report, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        charge = _relative_number(spec)
        hamiltonian = _hamiltonian(spec, params)
        current = _current(spec, params.gamma)
        identity, conservation = _identity_and_conservation(
            hamiltonian, charge, current, spec.sites_per_plate
        )
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


def _spectral_interval(hamiltonian):
    """Center c and half-width r of an interval holding the spectrum of H.

    By Gershgorin, every eigenvalue of the symmetric H lies within
    sum_{j != i} |h_ij| of some diagonal entry h_ii.  The row sums are
    read from the stored CSR entries (``data`` and ``indptr``), a block
    of rows at a time (:func:`_row_blocks`); nothing of H's size is made.
    An entry of H that is not finite makes the center or the half-width
    NaN or infinite, and raises ``ValueError`` naming H, without a numpy
    warning; so does a row sum of |H| that overflows.
    """
    diag = hamiltonian.diagonal()
    indptr = hamiltonian.indptr
    abs_sums = np.zeros(len(diag))
    with np.errstate(invalid="ignore", over="ignore"):
        for start, stop in _row_blocks(indptr):
            rows = start + np.flatnonzero(np.diff(indptr[start : stop + 1]))
            if rows.size:
                lo, hi = indptr[start], indptr[stop]
                abs_sums[rows] = np.add.reduceat(np.abs(hamiltonian.data[lo:hi]), indptr[rows] - lo)
        radii = abs_sums - np.abs(diag)
        low = float(np.min(diag - radii))
        high = float(np.max(diag + radii))
    center, radius = (high + low) / 2, (high - low) / 2
    if not (math.isfinite(center) and math.isfinite(radius)):
        raise ValueError(
            f"the Hamiltonian H has a non-finite entry or an overflowing row sum: "
            f"its Gershgorin interval is [{low!r}, {high!r}]"
        )
    return center, radius


def _chebyshev_order(x):
    """Smallest K whose tail sum_{k > K} 2 |J_k(x)| is below roundoff.

    Uses |J_k(x)| <= (|x|/2)^k / k!; once k + 2 > |x|/2 the terms fall
    at least geometrically, so term K+1 over one minus the ratio
    bounds the tail.  Where that ratio rounds to 1 (|x| past ~3.6e16,
    or not finite) nothing is bounded, and ``ValueError`` is raised.
    """
    half = abs(x) / 2
    if half == 0.0:
        return 0
    if not half / (half + 2) < 1:
        raise ValueError(f"t is too large: no Chebyshev tail bound at t times H's half-width, {x!r}")
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
    and |x| and rescaled by 1e-250 whenever a value passes 1e250,
    normalized by J_0 + 2 sum_k J_2k = 1.

    A rescale scales at once only the two values the recurrence reads
    next; each older value gets its share of the rescales after the
    recurrence, in the same sequence of products, so the cost is linear
    in ``order`` + |x|.  Three rescales take any double to zero, so no
    value needs more than three.
    """
    if abs(x) < 2 * math.sqrt(np.finfo(float).eps):
        out = [1.0]
        for k in range(1, order + 1):
            out.append(out[-1] * x / (2 * k))
        return np.array(out)
    top = order + int(abs(x)) + 20
    values = [0.0] * (top + 2)
    values[top] = 1.0
    rescales = []  # the index at each rescale, falling
    for k in range(top, 0, -1):
        values[k - 1] = (2 * k / abs(x)) * values[k] - values[k + 1]
        if abs(values[k - 1]) > 1e250:
            values[k - 1] *= 1e-250
            values[k] *= 1e-250
            rescales.append(k - 1)
    if rescales:
        # the value at i owes the rescales at i - 2 and below (those above
        # it came while it was still 0)
        owed = np.searchsorted(rescales[::-1], np.arange(len(values)) - 2, side="right")
        values = np.array(values)
        for done in range(min(3, len(rescales))):
            values[owed > done] *= 1e-250
        values = values.tolist()
    values = np.array(values[: order + 1]) / (values[0] + 2 * math.fsum(values[2::2]))
    if x < 0:
        values[1::2] *= -1
    return values


def _propagate(hamiltonian, vec, t):
    """exp(-itH) vec by the Chebyshev series of Tal-Ezer and Kosloff,
    J. Chem. Phys. 81, 3967 (1984):

        exp(-itH) v = e^{-itc} sum_k (2 - delta_k0) (-i)^k J_k(tr) T_k((H - c)/r) v

    with [c - r, c + r] the Gershgorin interval of the real symmetric CSR
    H, summed until the rigorous tail bound drops below double-precision
    roundoff.  H acts on the (re, im) pair of the iterate as one real
    (dim, 2) product, so no complex copy of H is ever formed.  The
    recurrence only reads ``vec``, so its first T_0 is ``vec`` itself,
    not a copy.
    """
    center, radius = _spectral_interval(hamiltonian)
    coeffs = _bessel_j(_chebyshev_order(t * radius), t * radius)

    def step(v):
        """2 (H - c)/r applied to v."""
        out = (hamiltonian @ v.view(float).reshape(-1, 2)).view(complex).ravel()
        out -= center * v
        out *= 2 / radius
        return out

    prev = np.ascontiguousarray(vec, dtype=complex)
    total = coeffs[0] * prev
    if len(coeffs) > 1:
        cur = step(prev)
        cur /= 2
        total += -2j * coeffs[1] * cur
        phase = -1j
        for coeff in coeffs[2:]:
            following = step(cur)  # T_{k+1} = 2 A T_k - T_{k-1}, formed in place
            following -= prev
            prev, cur = cur, following
            phase *= -1j
            total += (2 * phase * coeff) * cur
    return np.exp(-1j * t * center) * total


def _top_product_vector(site_states):
    """Weight and vector of the product of each site's top eigenvector.

    The vector joins the sites' top eigenvectors in kron order (site 0
    most significant); its weight, the product of their top eigenvalues
    clipped at 0, is the share of the product state it carries.
    """
    values, vectors = np.linalg.eigh(np.asarray(site_states, dtype=complex))
    weight = math.prod(max(top, 0.0) for top in values[:, -1])
    vec = functools.reduce(lambda left, right: np.multiply.outer(left, right).ravel(), vectors[:, :, -1])
    return weight, vec


def _as_csr(matrix):
    """``matrix`` itself if it is a scipy CSR matrix, else a CSR copy of it."""
    from scipy import sparse

    if sparse.issparse(matrix) and matrix.format == "csr":
        return matrix
    return sparse.csr_matrix(matrix)


def _value_key(array):
    """Shape, dtypes and bytes of a dense array, or of a sparse matrix's CSR
    ``indptr``, ``indices`` and ``data``: equal only for equal values.  A
    CSR matrix's arrays are read as given; another sparse form is
    converted to CSR first."""
    from scipy import sparse

    if sparse.issparse(array):
        if array.format != "csr":
            array = sparse.csr_matrix(array)
        parts = (array.indptr, array.indices, array.data)
    else:
        array = np.asarray(array)
        parts = (array,)
    return (array.shape, *[(part.dtype, part.tobytes()) for part in parts])


def _in_eigenbases(left, block, right):
    """left^T @ block @ right for real eigenbases ``left`` and ``right``.  A
    complex block's (re, im) parts go through each basis as one real
    product, as in :func:`_propagate`, so no complex copy of a basis is made."""
    if not np.iscomplexobj(block):
        return left.T @ block @ right
    half = (left.T @ np.ascontiguousarray(block).view(float)).view(complex)
    return (right.T @ np.ascontiguousarray(half.T).view(float)).view(complex).T


def _bit_counts(dim):
    """The number of set bits of each basis state 0 .. dim - 1 (dim a power
    of 2), one pass per bit: numpy before 2.0 has no ``np.bitwise_count``."""
    states = np.arange(dim)
    counts = np.zeros(dim, dtype=states.dtype)
    for shift in range(dim.bit_length() - 1):
        counts += (states >> shift) & 1
    return counts


def _sector_blocks(values, rows, cols, position, heights, widths, block_of):
    """Blocks of the matrix with entries (``rows``, ``cols``, ``values``),
    entry e in block ``block_of[e]``, each block ``heights[b]`` x
    ``widths[b]`` and indexed by its states' positions in their sectors.
    One scatter fills all blocks; entries at one place add up in storage
    order from zero, as in ``toarray``, so each block is bit for bit the
    dense matrix's.  Single-precision values are widened to double, so a
    complex64 block splits into (re, im) float64 pairs in
    :func:`_in_eigenbases`."""
    sizes = heights * widths
    ends = np.cumsum(sizes)
    flat = (ends - sizes)[block_of] + position[rows] * widths[block_of] + position[cols]
    total = int(ends[-1]) if ends.size else 0
    buffer = np.zeros(total, dtype=np.result_type(values, float))
    np.add.at(buffer, flat, values)
    return [part.reshape(h, w) for part, h, w in zip(np.split(buffer, ends[:-1]), heights, widths)]


def _spectral_weights(op, hamiltonian, site_states):
    """<op> at t = 0, and the energies E, coherences W, column sums of W and
    largest |E| that carry its time dependence.

    With H = V diag(E) V^dagger and W_ab = (V^dagger rho V)_ba (V^dagger op V)_ab,
    <op(t)> = sum_ab e^{iE_a t} W_ab e^{-iE_b t}.  The a = b terms do not
    depend on t, so <op(t)> = <op> + sum_{a != b} W_ab (e^{i(E_a - E_b)t} - 1):
    W is kept with its diagonal zeroed, and <op> is contracted in the
    product state directly.

    H is diagonalized one block at a time.  Where every stored entry of H
    joins two basis states with the same number of set bits (pairing and
    tunnelling conserve the total pair number), the blocks are those
    bit-count sectors, 2 n^2 + 1 of them; otherwise the whole basis is one
    block.  E and W are in block order, each block's states rising.  V is
    block diagonal, so W's block (s, s') is (V_s'^T rho[s', s] V_s)^T times
    (V_s^T op[s, s'] V_s') entrywise, formed only where op has a stored
    entry and zero elsewhere.  The blocks of H and op are scattered
    straight from their CSR entries (:func:`_sector_blocks`), and each
    rho[s', s] is gathered from the per-group site tables
    (:func:`_product_table`) through offset tables made once for all
    blocks, as :func:`_expectation` reads rho: no dense d x d copy of H,
    op or rho is made.  A block holding a non-finite
    entry raises ``ValueError`` before its ``eigh`` (every entry of H lies
    in some block), and one whose energies overflow raises after it; both
    messages name H.
    """
    op = _as_csr(op)
    op_rows = _rows_of(op)
    static = _expectation(op.shape, op_rows, op.indices, op.data, site_states)
    hamiltonian = _as_csr(hamiltonian)
    h_rows = _rows_of(hamiltonian)
    dim = hamiltonian.shape[0]
    sector = _bit_counts(dim)
    if not np.array_equal(sector[h_rows], sector[hamiltonian.indices]):
        sector = np.zeros(dim, dtype=sector.dtype)
    order = np.argsort(sector, kind="stable")
    sizes = np.bincount(sector)
    edges = np.concatenate(([0], np.cumsum(sizes)))
    position = np.empty(dim, dtype=edges.dtype)  # each state's place in its sector
    position[order] = np.arange(dim) - edges[sector[order]]

    energies = np.empty(dim)
    bases = []
    h_blocks = _sector_blocks(
        hamiltonian.data, h_rows, hamiltonian.indices, position, sizes, sizes, sector[h_rows]
    )
    for s, part in enumerate(h_blocks):
        if not np.isfinite(part).all():
            raise ValueError("the Hamiltonian H has a non-finite entry")
        block = slice(edges[s], edges[s + 1])
        energies[block], basis = np.linalg.eigh(part)
        if not np.isfinite(energies[block]).all():
            raise ValueError(
                "the Hamiltonian H has a spectrum that overflows: eigh gave a non-finite energy"
            )
        bases.append(basis)

    joined, block_of = np.unique(sector[op_rows] * sizes.size + sector[op.indices], return_inverse=True)
    row_sectors, col_sectors = np.divmod(joined, sizes.size)
    op_blocks = _sector_blocks(
        op.data, op_rows, op.indices, position, sizes[row_sectors], sizes[col_sectors], block_of
    )
    n_sites = len(site_states)
    groups = []  # per group of sites: its flat table, and each state's row and column offset into it
    for first, last in _site_groups(n_sites):
        width = last - first
        digits = (order >> (n_sites - last)) & ((1 << width) - 1)
        groups.append((_product_table(site_states[first:last]).ravel(), digits << width, digits))
    coherences = np.zeros((dim, dim), dtype=complex)
    for s, s_to, op_block in zip(row_sectors, col_sectors, op_blocks):
        rows, cols = slice(edges[s], edges[s + 1]), slice(edges[s_to], edges[s_to + 1])
        rho = functools.reduce(np.multiply, (table[high[cols, None] + low[rows]] for table, high, low in groups))
        rho_basis = _in_eigenbases(bases[s_to], rho, bases[s])
        np.multiply(rho_basis.T, _in_eigenbases(bases[s], op_block, bases[s_to]), out=coherences[rows, cols])
    np.fill_diagonal(coherences, 0.0)
    reach = float(np.abs(energies).max())
    return static, energies, coherences, coherences.sum(axis=0), reach


# (key, weights) of the last dense evolution; a call with equal H, op and
# site states reuses it, so a time series diagonalizes once.
_spectral_memo = (None, None)


def time_evolve_expectation(op, hamiltonian, site_states, t, dense_dim=DENSE_EVOLUTION_DIM):
    """Tr(rho exp(itH) op exp(-itH)) for a product state rho.

    Up to ``dense_dim`` it is the spectral sum over the eigenpairs of H
    (dense ``eigh``), <op> + sum_{a != b} W_ab (e^{i(E_a - E_b)t} - 1)
    (:func:`_spectral_weights`).  H is diagonalized one pair-number
    sector (the basis states with k set bits) at a time where it
    conserves that number, as the lattice H does, and whole otherwise.
    H is diagonalized and W formed once per (H, op, state): the last
    weights are kept, keyed on the values of H, op and the site states
    (the shape, dtypes and bytes of a CSR input's ``indptr``, ``indices``
    and ``data`` as given, and of the states as one stacked complex
    array), so each later t of a series costs one O(d^2) phase sum.  At
    n = 2 (d = 256, one BLAS thread) a later call takes ~0.05 ms, the
    first ~4 ms.  Written in e^{i(E_a - E_b)t} - 1, the sum gives <op>
    exactly at t = 0, and at every t when W vanishes off the diagonal
    (Q under the decoupled n = 1 H).
    Above ``dense_dim`` the state must be pure to within ``KRYLOV_TOL``:
    the product of the sites' top eigenvectors (:func:`_top_product_vector`)
    must carry weight >= 1 - ``KRYLOV_TOL``.  That one vector is
    propagated by the Chebyshev series of :func:`_propagate`, summed to
    double-precision roundoff.  A mixed state raises ``ValueError``; the
    dense path evolves it exactly.  H must be real float64 sparse, as
    :func:`build_hamiltonian` returns it, and stays real throughout; any
    other form, a non-finite t or a site-state count that does not match
    H's dimension raises ``ValueError``, as does a NaN or infinite entry
    of H (the message names H), and so does a t too large for
    either path (t E overflows on the dense path; the Chebyshev tail
    cannot be bounded on the other).
    """
    global _spectral_memo
    from scipy import sparse

    if not (sparse.issparse(hamiltonian) and hamiltonian.dtype == np.float64):
        kind = f"{type(hamiltonian).__name__} of {getattr(hamiltonian, 'dtype', 'no dtype')}"
        raise ValueError(f"the Hamiltonian must be a real float64 sparse matrix, got {kind}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    dim = hamiltonian.shape[0]
    if 1 << len(site_states) != dim:
        raise ValueError(f"{len(site_states)} site states do not span H's dimension {dim}")
    if dim <= dense_dim:
        key = (_value_key(hamiltonian), _value_key(op), _value_key(np.asarray(site_states, dtype=complex)))
        cached_key, weights = _spectral_memo  # one read: another thread may replace it
        if cached_key != key:
            # drop the old W first: one is held at a time, even while a miss runs
            weights = None
            _spectral_memo = (None, None)
            weights = _spectral_weights(op, hamiltonian, site_states)
            _spectral_memo = (key, weights)
        static, energies, coherences, column_sums, reach = weights
        if not math.isfinite(abs(t) * reach):
            raise ValueError(f"t is too large: t times H's largest |energy| overflows, {t!r}")
        phases = np.exp(1j * t * energies)
        shifts = phases - 1.0
        # sum_ab W_ab (p_a conj(p_b) - 1), with p_a conj(p_b) - 1 = s_a conj(p_b) + conj(s_b)
        return complex(static + shifts @ coherences @ phases.conj() + column_sums @ shifts.conj())

    weight, vec = _top_product_vector(site_states)
    if weight < 1.0 - KRYLOV_TOL:
        raise ValueError(
            f"the product state leaves weight {1.0 - weight:.3g} outside its top product "
            f"vector, over KRYLOV_TOL = {KRYLOV_TOL}: above dense_dim only a pure state "
            "evolves; the dense path (dim <= dense_dim) evolves a mixed state exactly"
        )
    moved = _propagate(_as_csr(hamiltonian), vec, t)
    return complex(weight * np.vdot(moved, _as_csr(op) @ moved))
