"""Composite Hilbert space: one multilevel atom with two bosonic field modes.

Basis ordering is row-major over (atom, mode 1, mode 2): the flat index of
|a, n1, n2> is (a * n1_trunc + n1) * n2_trunc + n2.  A factor of size 1 is
trivial, so atom_levels=1 describes a field-only space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

ATOM_LABELS = ("g", "h", "e")

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-8


def is_integer(value) -> bool:
    """True for an int or a numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def elementwise(f, x, *args) -> np.ndarray:
    """f(v, *args) of each element v of x as a Python float, in x's shape (0-d for a float x).
    The rules that take a float or an array of points take exp, log, atanh and squares (math.pow,
    as ** rounds) through math, where numpy's vectorized forms differ in the last place, so
    each point of an array rounds as a float does."""
    return np.reshape([f(v, *args) for v in np.ravel(x).tolist()], np.shape(x))


def plain(value):
    """A 0-d result as the Python float or bool it holds; an array of points as it is."""
    value = np.asarray(value)
    return value if value.ndim else value.item()


@dataclass(frozen=True)
class SpaceDescriptor:
    """Dimensions of the composite space.

    atom_levels counts internal atomic states (1 means no atom factor,
    2 means ground doublet g/h, 3 adds the excited state e).  n1_trunc and
    n2_trunc are the Fock-space dimensions of the two field modes, holding
    photon numbers 0 .. n_trunc - 1.
    """

    atom_levels: int
    n1_trunc: int
    n2_trunc: int

    def __post_init__(self):
        for name in ("atom_levels", "n1_trunc", "n2_trunc"):
            value = getattr(self, name)
            if not is_integer(value) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.atom_levels > len(ATOM_LABELS):
            raise ValueError(
                f"atom_levels must be at most {len(ATOM_LABELS)}, got {self.atom_levels}"
            )

    @property
    def dim(self) -> int:
        return self.atom_levels * self.n1_trunc * self.n2_trunc

    @property
    def shape(self) -> tuple:
        return (self.atom_levels, self.n1_trunc, self.n2_trunc)

    def atom_index(self, atom: Union[int, str]) -> int:
        """Resolve an atomic level given as index or as one of 'g', 'h', 'e'."""
        if isinstance(atom, str):
            if atom not in ATOM_LABELS:
                raise ValueError(f"unknown atom label {atom!r}, expected one of {ATOM_LABELS}")
            idx = ATOM_LABELS.index(atom)
        else:
            idx = int(atom)
        if not 0 <= idx < self.atom_levels:
            raise ValueError(f"atom level {atom!r} out of range for {self.atom_levels} levels")
        return idx

    def index(self, atom: Union[int, str], n1: int, n2: int) -> int:
        """Flat basis index of |atom, n1, n2>."""
        a = self.atom_index(atom)
        if not 0 <= n1 < self.n1_trunc:
            raise ValueError(f"n1={n1} out of range for truncation {self.n1_trunc}")
        if not 0 <= n2 < self.n2_trunc:
            raise ValueError(f"n2={n2} out of range for truncation {self.n2_trunc}")
        return (a * self.n1_trunc + n1) * self.n2_trunc + n2


def _read_only(m: np.ndarray, dim: int) -> np.ndarray:
    if m.shape != (dim, dim):
        raise ValueError(f"matrix shape {m.shape} does not match space dimension {dim}")
    m.setflags(write=False)
    return m


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass cls holding fields as given,
    without its validating __post_init__: for values the package has just
    built and already knows to be valid.  The arrays it adopts are frozen
    in place."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class Operator:
    """A linear operator on a composite space.  The matrix is read-only."""

    space: SpaceDescriptor
    matrix: np.ndarray

    def __post_init__(self):
        # a copy, so that freezing never reaches the caller's array
        object.__setattr__(self, "matrix", _read_only(np.array(self.matrix, dtype=complex), self.space.dim))

    @classmethod
    def _adopt(cls, space: SpaceDescriptor, matrix: np.ndarray) -> "Operator":
        """The operator of a matrix the package has just built and no one
        else holds, frozen in place where Operator(space, matrix) copies;
        only its shape is checked."""
        op = object.__new__(cls)
        object.__setattr__(op, "space", space)
        object.__setattr__(op, "matrix", _read_only(np.asarray(matrix, dtype=complex), space.dim))
        return op

    def dagger(self) -> "Operator":
        return Operator._adopt(self.space, self.matrix.conj().T)

    def _check_space(self, other: "Operator"):
        if self.space != other.space:
            raise ValueError("operators live on different spaces")

    def __add__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator._adopt(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator._adopt(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar) -> "Operator":
        return Operator._adopt(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator._adopt(self.space, self.matrix @ other.matrix)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix, held as a factor F (dim x r) with rho = F F+.

    A given matrix is checked hermitian, of unit trace and positive within
    tolerance, by one O(dim^3) eigh whose eigenpairs also give F: a column
    sqrt(lambda) v for every eigenvalue lambda > 0, and none for one in
    [EIGENVALUE_FLOOR, 0].  Wherever rho's diagonal is 0 the rows of F are set
    to exactly 0, as they are for a positive rho.  The matrix is kept as
    given in .matrix.  A state of from_state_vector is the one column of its
    vector and forms .matrix = F F+ on its first read only, so the frame
    entry and the readers of analysis, which take F, never form it.  The
    matrix and F are left out of repr."""

    space: SpaceDescriptor
    matrix: np.ndarray = field(repr=False)
    factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = _read_only(np.array(self.matrix, dtype=complex), self.space.dim)
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix must be finite")
        herm_defect = np.max(np.abs(m - m.conj().T))
        if herm_defect > HERMITICITY_TOL:
            raise ValueError(f"density matrix is not hermitian (defect {herm_defect:.3e})")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        values, vectors = np.linalg.eigh(m)
        if values[0] < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {values[0]:.3e}")
        positive = values > 0
        factor = vectors[:, positive] * np.sqrt(values[positive])
        # columns of rounding size may hold entries there, which would add sector pairs rho does not occupy
        factor[m.diagonal() == 0] = 0.0
        factor.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "factor", factor)

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: the matrix of a factored state not yet read
        if name != "matrix":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        m = functools.reduce(np.add, map(np.outer, self.factor.T, self.factor.T.conj()))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        return m

    @classmethod
    def from_state_vector(cls, space: SpaceDescriptor, psi: np.ndarray) -> "DensityMatrix":
        """|psi><psi| from a normalized state vector.  Only the vector is
        checked (length, finite, unit norm): the outer product is hermitian
        and positive by construction, so it skips the eigensolve.  The state
        keeps a read-only copy of the vector as its one-column factor, and the
        dim x dim matrix np.outer(v, v.conj()) is formed on the first read of
        .matrix, then kept."""
        v = np.array(psi, dtype=complex).ravel()
        if v.size != space.dim:
            raise ValueError(f"state vector length {v.size} does not match dimension {space.dim}")
        if not np.all(np.isfinite(v)):
            raise ValueError("state vector must be finite")
        tr = float(np.vdot(v, v).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        return _unchecked(cls, space=space, factor=v[:, None])


@dataclass(frozen=True, eq=False)
class ChargeBlocks:
    """A two-mode density matrix rho[n1, n2, m1, m2] split by the charge
    q = (n1 - n2) - (m1 - m2) of its entries.

    The squeeze, amplitude damping of either mode and the collision Kraus
    pair all keep n1 - n2 on both sides, so they keep each entry's charge
    and act on every q-block alone; only the charges a state occupies are
    held.  With d = m2 - n2, blocks[i, N2 - 1 + d, n1, n2] is
    rho[n1, n2, n1 + d - q, n2 + d] for q = charges[i], and zero where that
    column (m1, m2) is off the grid.
    """

    charges: np.ndarray
    blocks: np.ndarray

    def block(self, q: int) -> np.ndarray:
        """The block of charge q, zero when the state holds none."""
        hit = np.flatnonzero(self.charges == q)
        return self.blocks[hit[0]] if hit.size else np.zeros(self.blocks.shape[1:], complex)

    def shifts(self, mode: int) -> np.ndarray:
        """m_j - n_j of the entries of each block row blocks[i, r], for mode j = 1 or 2: shaped (Q, D)
        on mode 1, and (1, D) on mode 2, where it is d for every charge."""
        return _charge_shifts(self.charges, self.blocks.shape[3])[mode - 1]

    def dense(self) -> np.ndarray:
        """The density matrix reshaped (N1, N2, N1, N2)."""
        n1_trunc, n2_trunc = self.blocks.shape[2:]
        m1, m2, on_grid = _charge_columns(self.charges, n1_trunc, n2_trunc)
        n1, n2 = np.indices((n1_trunc, n2_trunc), sparse=True)
        index = tuple(np.broadcast_to(i, self.blocks.shape)[on_grid] for i in (n1, n2, m1, m2))
        rho4 = np.zeros((n1_trunc, n2_trunc) * 2, dtype=complex)
        rho4[index] = self.blocks[on_grid]
        return rho4

    def along(self, mode: int, kernel: np.ndarray) -> "ChargeBlocks":
        """The state after a real kernel acts along the n_j axis of every block row, for mode j = 1
        or 2: row blocks[i, r] takes kernel[i, r] (a leading axis of 1 serves every charge), one
        (n_j, n_j) matrix applied from the left, as one real product on float views with the
        mode's axis moved to the rows (a transpose on mode 2, kept).  The pumping maps keep every
        entry's charge and d, so they act this way: damped, and the collision transits."""
        rows = np.ascontiguousarray(self.blocks.swapaxes(2, 1 + mode))
        return ChargeBlocks(self.charges, (kernel @ rows.view(float)).view(complex).swapaxes(2, 1 + mode))

    def along_rows(self, mode: int, kernels: np.ndarray, block: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Rows blocks[block[k], row[k]] of along(mode, kernel), for row k's kernel kernels[..., k, :, :]
        and any leading axes of kernels: the product along makes on each of those rows, and on them
        alone, so each row keeps its bits."""
        rows = np.ascontiguousarray(self.blocks[block, row].swapaxes(1, mode))
        return np.ascontiguousarray((kernels @ rows.view(float)).view(complex).swapaxes(-2, mode - 3))

    def damped(self, mode: int, eta: float) -> "ChargeBlocks":
        """The state after exact amplitude damping of mode 1 or 2 to transmissivity eta.

        The k-th Kraus operator lowers n_j and m_j of the mode by k together, so population flows
        only down (the truncated space is invariant and the map exact) and each entry keeps its
        charge and d.  Along the n_j axis of a block row whose entries have m_j - n_j = e, the map
        is the matrix kernel[n, n + k] = w[k, n] w[k, n + e], w[k, m] = <m| K_k |m + k>, applied
        by along.
        """
        if eta == 1.0:
            return self
        shift = np.ascontiguousarray(self.shifts(mode), dtype=int)
        root, power, lag = _damping_base(self.blocks.shape[1 + mode], shift.shape, shift.tobytes())
        with np.errstate(under="ignore"):  # long jumps' weights at small eta fall below the smallest float
            return self.along(mode, root * math.sqrt(eta) ** power * (1.0 - eta) ** lag)

    def gram(self, b: np.ndarray, mode: int) -> np.ndarray:
        """G[d] = b[d] rho[d]^T along the mode's axis of the charge-0 blocks, for a real charge-0 block b:
        tr(b rho') = <kernel, G> for the rho' along(mode, kernel) makes, with no product."""
        return b.transpose(0, mode, 3 - mode) @ self.block(0).real.transpose(0, 3 - mode, mode)

    def damped_overlaps(self, b: np.ndarray, mode: int, etas: np.ndarray) -> np.ndarray:
        """tr(b damped(mode, eta)) at each of etas for a real charge-0 block b, with no damping
        product: the overlap is <kernel, gram(b, mode)>, and root G summed once per (power, lag) of
        the kernel serves every eta."""
        n = self.blocks.shape[1 + mode]
        shift = self.shifts(2)  # charge 0's: m_j - n_j = d on either mode
        root, power, lag = _damping_base(n, shift.shape, shift.tobytes())
        with np.errstate(under="ignore"):  # as in damped, and on the entries a damped state holds
            g = root[0] * self.gram(b, mode)
            bins = np.bincount((power[0] * n + lag).ravel(), g.ravel(), (power.max() + 1) * n).reshape(-1, n)
            powers = np.sqrt(etas)[:, None] ** np.arange(len(bins)) @ bins
            return (powers * (1.0 - etas)[:, None] ** np.arange(n)).sum(1)


@functools.lru_cache(maxsize=4)
def _damping_base(n: int, shift_shape: tuple, shift: bytes) -> tuple:
    """Read-only eta-free factors (root, power, lag) of the kernel of
    ChargeBlocks.damped for axis length n and row shifts e: kernel = root *
    sqrt(eta)**power * (1 - eta)**lag, with exact binomials comb(m + k, k),
    the Kraus weights of Chuang, Leung & Yamamoto, PRA 56, 1114 (1997)."""
    binomials = np.array([[math.comb(m + k, k) for m in range(n)] for k in range(n)], dtype=float)
    row, col = np.indices((n, n))
    far = row + np.frombuffer(shift, dtype=int).reshape(shift_shape)[..., None, None]
    lag = np.maximum(col - row, 0)
    inside = (col >= row) & (far >= 0) & (lag + far < n)
    root = np.where(inside, np.sqrt(binomials[lag, row] * binomials[lag, np.clip(far, 0, n - 1)]), 0.0)
    factors = root, np.maximum(row + far, 0)[..., :1], lag
    for table in factors:
        table.flags.writeable = False
    return factors


def _charge_shifts(charges: np.ndarray, n2_trunc: int) -> tuple:
    """(m1 - n1, m2 - n2) of the entries of each block row blocks[i, j] of the given charges,
    shaped (Q, D) and (1, D)."""
    d = np.arange(1 - n2_trunc, n2_trunc)
    return d - charges[:, None], d[None, :]


def _charge_columns(charges: np.ndarray, n1_trunc: int, n2_trunc: int) -> tuple:
    """(m1, m2, on_grid) of every block entry, broadcastable to the blocks' shape."""
    shift1, shift2 = _charge_shifts(charges, n2_trunc)
    m1 = np.arange(n1_trunc)[:, None] + shift1[:, :, None, None]
    m2 = np.arange(n2_trunc) + shift2[:, :, None, None]
    return m1, m2, (m1 >= 0) & (m1 < n1_trunc) & (m2 >= 0) & (m2 < n2_trunc)


def charge_sectors(n1_trunc: int, n2_trunc: int) -> list:
    """(n1, n2) of the Fock states of each sector k = n1 - n2 of the field
    grid, from k = 1 - n2_trunc up, by rising n2."""
    sectors = []
    for k in range(1 - n2_trunc, n1_trunc):
        n2 = np.arange(max(0, -k), min(n2_trunc, n1_trunc - k))
        sectors.append((n2 + k, n2))
    return sectors


def sector_pairs(sectors: Sequence, pairs: np.ndarray, parts: dict, shape: tuple,
                 charges: Optional[np.ndarray] = None) -> ChargeBlocks:
    """The ChargeBlocks on the field grid shape (N1, N2) holding, for each sector pair (k, k') with
    pairs[k, k'] true, parts[k] @ parts[k'].conj().T in the rows of sector k and the columns of sector
    k', in the block of charge k - k' and the parts' dtype, and zero elsewhere: the one writer of sector
    pairs.  sectors lists each sector's (n1, n2, ...) in the order of charge_sectors, parts[k] one row
    per state of sector k.  Only pairs of the given sorted charges are written, by default of all."""
    n2_trunc, span = shape[1], len(sectors) - 1
    pairs = np.argwhere(pairs)
    pair_charges = pairs[:, 0] - pairs[:, 1]
    charges = np.flatnonzero(np.bincount(pair_charges + span)) - span if charges is None else np.asarray(charges)
    kept = np.isin(pair_charges, charges)
    blocks = np.zeros((charges.size, 2 * n2_trunc - 1, *shape), np.result_type(*parts.values()))
    for (k, k_column), slot in zip(pairs[kept].tolist(), np.searchsorted(charges, pair_charges[kept]).tolist()):
        (n1, n2, *_), (_, m2, *_) = sectors[k], sectors[k_column]
        # the entry of row j and column j' has d = m2[j'] - n2[j]
        blocks[slot][m2 - n2[:, None] + n2_trunc - 1, n1[:, None], n2[:, None]] = parts[k] @ parts[k_column].conj().T
    return ChargeBlocks(charges, blocks)


def factor_blocks(factor: np.ndarray, sectors: Sequence, charges: Optional[np.ndarray] = None) -> ChargeBlocks:
    """The ChargeBlocks of (S F)(S F)+ for the factor F, shaped (N1, N2, r), and an S that keeps n1 - n2,
    given as one (n1, n2, block) per sector as squeeze_sectors gives them: S|n1[j], n2[j]> = sum_i
    block[i, j] |n1[i], n2[i]> for a real block; the (n1, n2) of charge_sectors give S = 1.  No
    N1 N2 x N1 N2 array is made.  S F turns on each sector F occupies alone, as one real product of
    the sector's block on a float view of its rows F_k, and stays zero elsewhere.  sector_pairs writes
    the sector pairs (k, k') that share a column of F, (S_k F_k)(S_k' F_k')^+ into the block of charge
    k - k', only those of the given charges (by default all).  One column makes every pair of the
    sectors it occupies; a diagonal state's factor makes the pairs (k, k)."""
    n1_trunc, n2_trunc, rank = factor.shape
    span = n1_trunc + n2_trunc - 2
    home = np.subtract.outer(np.arange(n1_trunc), np.arange(n2_trunc)) + n2_trunc - 1  # the index of a state's sector
    held = np.bincount((home[..., None] * rank + np.arange(rank)).ravel(), (factor != 0).ravel(), (span + 1) * rank)
    held = held.reshape(span + 1, rank) > 0  # held[k, c]: column c of F is nonzero on sector k
    turned = {}
    for k in np.flatnonzero(held.any(1)):
        n1, n2, *block = sectors[k]
        turned[k] = (block[0] @ factor[n1, n2].view(float)).view(complex) if block else factor[n1, n2]
    return sector_pairs(sectors, held @ held.T, turned, (n1_trunc, n2_trunc), charges)


def _embed(atom_block, mode1_block, mode2_block) -> np.ndarray:
    return np.kron(np.kron(atom_block, mode1_block), mode2_block)


def _ladder(n: int) -> np.ndarray:
    """The annihilation operator on n Fock states."""
    return np.diag(np.sqrt(np.arange(1, n)), 1)


def _atom_block(space: SpaceDescriptor, upper: Union[int, str], lower: Union[int, str]) -> np.ndarray:
    """|upper><lower| on the atom alone."""
    block = np.zeros((space.atom_levels, space.atom_levels), dtype=complex)
    block[space.atom_index(upper), space.atom_index(lower)] = 1.0
    return block


def annihilation_op(space: SpaceDescriptor, mode: int) -> Operator:
    """Photon annihilation operator for mode 1 or mode 2, embedded in the full space."""
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    factors = [np.eye(n) for n in space.shape]
    factors[mode] = _ladder(space.shape[mode])
    return Operator._adopt(space, _embed(*factors))


def number_op(space: SpaceDescriptor, mode: int) -> Operator:
    a = annihilation_op(space, mode)
    return a.dagger() @ a


def atom_transition_op(space: SpaceDescriptor, upper: Union[int, str], lower: Union[int, str]) -> Operator:
    """The operator |upper><lower| on the atom, identity on both field modes.

    Equal labels give an atomic population projector.
    """
    block = _atom_block(space, upper, lower)
    return Operator._adopt(space, _embed(block, np.eye(space.n1_trunc), np.eye(space.n2_trunc)))


def basis_state(space: SpaceDescriptor, atom: Union[int, str], n1: int, n2: int) -> np.ndarray:
    """Unit vector |atom, n1, n2> as a flat complex array."""
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.index(atom, n1, n2)] = 1.0
    return psi


def expectation(op, state) -> complex:
    """<op> in the given state.

    Accepts an Operator or a raw matrix; the state may be a vector, a
    DensityMatrix, read through its factor as sum_r f_r+ op f_r, or a raw
    square matrix.
    """
    m = op.matrix if isinstance(op, Operator) else np.asarray(op, dtype=complex)
    if isinstance(state, DensityMatrix):
        return complex(np.vdot(state.factor, m @ state.factor))
    s = np.asarray(state, dtype=complex)
    if s.ndim == 1:
        return complex(np.vdot(s, m @ s))
    if s.ndim == 2 and s.shape[0] == s.shape[1]:
        return complex(np.einsum("ij,ji->", m, s))
    raise ValueError(f"state has unsupported shape {s.shape}")
