"""Composite Hilbert space: one multilevel atom with two bosonic field modes.

Basis ordering is row-major over (atom, mode 1, mode 2): the flat index of
|a, n1, n2> is (a * n1_trunc + n1) * n2_trunc + n2.  A factor of size 1 is
trivial, so atom_levels=1 describes a field-only space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
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
        else holds, frozen in place where Operator(space, matrix) copies."""
        return _unchecked(cls, space=space, matrix=_read_only(np.asarray(matrix, dtype=complex), space.dim))

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


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix: hermitian, unit trace, positive within
    tolerance.  The full check costs one O(dim^3) eigensolve."""

    space: SpaceDescriptor
    matrix: np.ndarray

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
        lowest = float(np.linalg.eigvalsh(m)[0])
        if lowest < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {lowest:.3e}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_state_vector(cls, space: SpaceDescriptor, psi: np.ndarray) -> "DensityMatrix":
        """|psi><psi| from a normalized state vector.  Only the vector is
        checked (length, finite, unit norm): the outer product is hermitian
        and positive by construction, so it skips the eigensolve."""
        v = np.asarray(psi, dtype=complex).ravel()
        if v.size != space.dim:
            raise ValueError(f"state vector length {v.size} does not match dimension {space.dim}")
        if not np.all(np.isfinite(v)):
            raise ValueError("state vector must be finite")
        tr = float(np.vdot(v, v).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        return _unchecked(cls, space=space, matrix=np.outer(v, v.conj()))


@dataclass(frozen=True)
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

    def dense(self) -> np.ndarray:
        """The density matrix reshaped (N1, N2, N1, N2)."""
        n1_trunc, n2_trunc = self.blocks.shape[2:]
        m1, m2, on_grid = _charge_columns(self.charges, n1_trunc, n2_trunc)
        n1, n2 = np.indices((n1_trunc, n2_trunc), sparse=True)
        index = tuple(np.broadcast_to(i, self.blocks.shape)[on_grid] for i in (n1, n2, m1, m2))
        rho4 = np.zeros((n1_trunc, n2_trunc) * 2, dtype=complex)
        rho4[index] = self.blocks[on_grid]
        return rho4

    def damped(self, mode: int, eta: float) -> "ChargeBlocks":
        """The state after exact amplitude damping of mode 1 or 2 to transmissivity eta.

        The k-th Kraus operator lowers n_j and m_j of the mode by k together, so population flows
        only down (the truncated space is invariant and the map exact) and each entry keeps its
        charge and d.  Along the n_j axis of a block row whose entries have m_j - n_j = e, the map
        is the matrix kernel[n, n + k] = w[k, n] w[k, n + e], w[k, m] = <m| K_k |m + k>, applied as
        a real product with the mode's axis moved to the rows (a transpose on mode 2, kept).
        """
        if eta == 1.0:
            return self
        shift = np.ascontiguousarray(_charge_shifts(self.charges, self.blocks.shape[3])[mode - 1], dtype=int)
        root, power, lag = _damping_base(self.blocks.shape[1 + mode], shift.shape, shift.tobytes())
        rows = np.ascontiguousarray(self.blocks.swapaxes(2, 1 + mode))
        with np.errstate(under="ignore"):  # long jumps' weights at small eta fall below the smallest float
            kernel = root * math.sqrt(eta) ** power * (1.0 - eta) ** lag
            return replace(self, blocks=(kernel @ rows.view(float)).view(complex).swapaxes(2, 1 + mode))

    def damped_overlaps(self, b: np.ndarray, mode: int, etas: np.ndarray) -> np.ndarray:
        """tr(b damped(mode, eta)) at each of etas for a real charge-0 block b, with no damping
        product: the overlap is <kernel, G>, G[d] = b[d] rho[d]^T along the mode's axis of the
        charge-0 blocks, and root G summed once per (power, lag) of the kernel serves every eta."""
        n = self.blocks.shape[1 + mode]
        shift = _charge_shifts(self.charges, self.blocks.shape[3])[1]  # charge 0's: m_j - n_j = d on either mode
        root, power, lag = _damping_base(n, shift.shape, shift.tobytes())
        with np.errstate(under="ignore"):  # as in damped, and on the entries a damped state holds
            g = root[0] * (b.transpose(0, mode, 3 - mode) @ self.block(0).real.transpose(0, 3 - mode, mode))
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


def charge_outer(charges: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left[n1, n2] * conj(right[m1, m2]) in the shape of the blocks of the given charges: the
    ChargeBlocks of |left><right| without the N1 N2 x N1 N2 outer product."""
    n1_trunc, n2_trunc = left.shape
    m1, m2, on_grid = _charge_columns(charges, n1_trunc, n2_trunc)
    blocks = right.conj()[np.clip(m1, 0, n1_trunc - 1), np.clip(m2, 0, n2_trunc - 1)]
    blocks *= left
    blocks[np.logical_not(on_grid, out=on_grid)] = 0.0
    return blocks


def _occupied_pairs(rho4: np.ndarray) -> tuple:
    """(pairs, charges) of rho4, shaped (N1, N2, N1, N2), from one test rho4 != 0: pairs[k + N2 - 1,
    k' + N2 - 1] tells whether a nonzero entry sits in the rows of sector k = n1 - n2 and the
    columns of sector k' = m1 - m2, and charges are the distinct q = k - k' of those pairs,
    ascending.  Rows and columns are read apart: a hermitian rho within HERMITICITY_TOL may hold
    an entry whose transpose is 0."""
    n1_trunc, n2_trunc = rho4.shape[:2]
    span = n1_trunc + n2_trunc - 1
    pairs = (rho4 != 0).reshape(n1_trunc * n2_trunc, -1)
    for _ in range(2):  # the rows of each sector ORed together, then the columns
        grid = pairs.reshape(n1_trunc, n2_trunc, -1)
        pairs = np.zeros((span, grid.shape[2]), bool)
        for n1 in range(n1_trunc):  # row n2 of grid[n1] is in sector n1 - n2, here at n2 - n1 + N1 - 1
            pairs[n1_trunc - 1 - n1 : span - n1] |= grid[n1]
        pairs = pairs[::-1].T
    k, k_column = np.nonzero(pairs)
    return pairs, np.flatnonzero(np.bincount(k - k_column + span - 1)) - (span - 1)


def split_charges(rho4: np.ndarray, charges: Optional[Sequence[int]] = None) -> ChargeBlocks:
    """The ChargeBlocks of rho4, shaped (N1, N2, N1, N2), holding the given
    charges, or by default every charge that has a nonzero entry, read
    from the sector pairs of _occupied_pairs."""
    n1_trunc, n2_trunc = rho4.shape[:2]
    charges = _occupied_pairs(rho4)[1] if charges is None else np.asarray(charges)
    c1, c2, on_grid = _charge_columns(charges, n1_trunc, n2_trunc)
    rows = np.indices((n1_trunc, n2_trunc), sparse=True)
    blocks = np.asarray(rho4, complex)[(*rows, np.clip(c1, 0, n1_trunc - 1), np.clip(c2, 0, n2_trunc - 1))]
    blocks[np.logical_not(on_grid, out=on_grid)] = 0.0  # in place: on_grid is as large as a sixteenth of blocks
    return ChargeBlocks(charges, blocks)


def _embed(atom_block, mode1_block, mode2_block) -> np.ndarray:
    return np.kron(np.kron(atom_block, mode1_block), mode2_block)


def annihilation_op(space: SpaceDescriptor, mode: int) -> Operator:
    """Photon annihilation operator for mode 1 or mode 2, embedded in the full space."""
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    factors = [np.eye(n) for n in space.shape]
    factors[mode] = np.diag(np.sqrt(np.arange(1, space.shape[mode])), 1)
    return Operator._adopt(space, _embed(*factors))


def number_op(space: SpaceDescriptor, mode: int) -> Operator:
    a = annihilation_op(space, mode)
    return a.dagger() @ a


def atom_transition_op(space: SpaceDescriptor, upper: Union[int, str], lower: Union[int, str]) -> Operator:
    """The operator |upper><lower| on the atom, identity on both field modes.

    Equal labels give an atomic population projector.
    """
    block = np.zeros((space.atom_levels, space.atom_levels), dtype=complex)
    block[space.atom_index(upper), space.atom_index(lower)] = 1.0
    return Operator._adopt(space, _embed(block, np.eye(space.n1_trunc), np.eye(space.n2_trunc)))


def basis_state(space: SpaceDescriptor, atom: Union[int, str], n1: int, n2: int) -> np.ndarray:
    """Unit vector |atom, n1, n2> as a flat complex array."""
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.index(atom, n1, n2)] = 1.0
    return psi


def expectation(op, state) -> complex:
    """<op> in the given state.

    Accepts an Operator or a raw matrix; the state may be a vector, a
    DensityMatrix, or a raw square matrix.
    """
    m = op.matrix if isinstance(op, Operator) else np.asarray(op, dtype=complex)
    if isinstance(state, DensityMatrix):
        return complex(np.einsum("ij,ji->", m, state.matrix))
    s = np.asarray(state, dtype=complex)
    if s.ndim == 1:
        return complex(np.vdot(s, m @ s))
    if s.ndim == 2 and s.shape[0] == s.shape[1]:
        return complex(np.einsum("ij,ji->", m, s))
    raise ValueError(f"state has unsupported shape {s.shape}")
