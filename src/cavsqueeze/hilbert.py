"""Composite Hilbert space: one multilevel atom with two bosonic field modes.

Basis ordering is row-major over (atom, mode 1, mode 2): the flat index of
|a, n1, n2> is (a * n1_trunc + n1) * n2_trunc + n2.  A factor of size 1 is
trivial, so atom_levels=1 describes a field-only space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

ATOM_LABELS = ("g", "h", "e")

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-8


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
            if not isinstance(value, (int, np.integer)) or value < 1:
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


def _frozen_matrix(matrix, dim: int) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"matrix shape {m.shape} does not match space dimension {dim}")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class Operator:
    """A linear operator on a composite space.  The matrix is read-only."""

    space: SpaceDescriptor
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_matrix(self.matrix, self.space.dim))

    def dagger(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def _check_space(self, other: "Operator"):
        if self.space != other.space:
            raise ValueError("operators live on different spaces")

    def __add__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix - other.matrix)

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.matrix)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix @ other.matrix)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix: hermitian, unit trace, positive within tolerance."""

    space: SpaceDescriptor
    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen_matrix(self.matrix, self.space.dim)
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
        v = np.asarray(psi, dtype=complex).ravel()
        if v.size != space.dim:
            raise ValueError(f"state vector length {v.size} does not match dimension {space.dim}")
        return cls(space, np.outer(v, v.conj()))


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

    def shifts(self) -> tuple:
        """(m1 - n1, m2 - n2) of the entries of each block row blocks[i, j],
        shaped (Q, D) and (1, D)."""
        return _charge_shifts(self.charges, self.blocks.shape[3])

    def block(self, q: int) -> np.ndarray:
        """The block of charge q, zero when the state holds none."""
        hit = np.flatnonzero(self.charges == q)
        return self.blocks[hit[0]] if hit.size else np.zeros(self.blocks.shape[1:], complex)

    def diagonal(self, d1: int, d2: int) -> np.ndarray:
        """rho[n1, n2, n1 - d1, n2 - d2] on the (N1, N2) grid, zero where
        that column is off the grid; it lies in the block of charge d1 - d2."""
        n2_trunc = self.blocks.shape[3]
        hit = np.flatnonzero(self.charges == d1 - d2)
        if abs(d2) >= n2_trunc or not hit.size:
            return np.zeros(self.blocks.shape[2:], complex)
        return self.blocks[hit[0], n2_trunc - 1 - d2]

    def outer(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """left[n1, n2] * conj(right[m1, m2]) in the shape of blocks."""
        n1_trunc, n2_trunc = left.shape
        m1, m2, on_grid = _charge_columns(self.charges, n1_trunc, n2_trunc)
        far = right.conj()[np.clip(m1, 0, n1_trunc - 1), np.clip(m2, 0, n2_trunc - 1)]
        return np.where(on_grid, left * far, 0j)

    def dense(self) -> np.ndarray:
        """The density matrix reshaped (N1, N2, N1, N2)."""
        n1_trunc, n2_trunc = self.blocks.shape[2:]
        m1, m2, on_grid = _charge_columns(self.charges, n1_trunc, n2_trunc)
        n1, n2 = np.indices((n1_trunc, n2_trunc), sparse=True)
        index = tuple(np.broadcast_to(i, self.blocks.shape)[on_grid] for i in (n1, n2, m1, m2))
        rho4 = np.zeros((n1_trunc, n2_trunc) * 2, dtype=complex)
        rho4[index] = self.blocks[on_grid]
        return rho4


def _charge_shifts(charges: np.ndarray, n2_trunc: int) -> tuple:
    d = np.arange(1 - n2_trunc, n2_trunc)
    return d - charges[:, None], d[None, :]


def _charge_columns(charges: np.ndarray, n1_trunc: int, n2_trunc: int) -> tuple:
    """(m1, m2, on_grid) of every block entry, broadcastable to the blocks' shape."""
    shift1, shift2 = _charge_shifts(charges, n2_trunc)
    m1 = np.arange(n1_trunc)[:, None] + shift1[:, :, None, None]
    m2 = np.arange(n2_trunc) + shift2[:, :, None, None]
    return m1, m2, (m1 >= 0) & (m1 < n1_trunc) & (m2 >= 0) & (m2 < n2_trunc)


def split_charges(rho4: np.ndarray, charges: Optional[Sequence[int]] = None) -> ChargeBlocks:
    """The ChargeBlocks of rho4, shaped (N1, N2, N1, N2), holding the given
    charges, or by default every charge that has a nonzero entry."""
    n1_trunc, n2_trunc = rho4.shape[:2]
    if charges is None:
        n1, n2, m1, m2 = np.indices(rho4.shape, sparse=True)
        charges = np.unique(np.broadcast_to((n1 - n2) - (m1 - m2), rho4.shape)[rho4 != 0])
    charges = np.asarray(charges)
    c1, c2, on_grid = _charge_columns(charges, n1_trunc, n2_trunc)
    rows = np.indices((n1_trunc, n2_trunc), sparse=True)
    taken = rho4[(*rows, np.clip(c1, 0, n1_trunc - 1), np.clip(c2, 0, n2_trunc - 1))]
    return ChargeBlocks(charges, np.where(on_grid, taken, 0j))


def _single_mode_lowering(n_trunc: int) -> np.ndarray:
    a = np.zeros((n_trunc, n_trunc), dtype=complex)
    for n in range(1, n_trunc):
        a[n - 1, n] = np.sqrt(n)
    return a


def _embed(atom_block, mode1_block, mode2_block) -> np.ndarray:
    return np.kron(np.kron(atom_block, mode1_block), mode2_block)


def annihilation_op(space: SpaceDescriptor, mode: int) -> Operator:
    """Photon annihilation operator for mode 1 or mode 2, embedded in the full space."""
    if mode == 1:
        m = _embed(
            np.eye(space.atom_levels),
            _single_mode_lowering(space.n1_trunc),
            np.eye(space.n2_trunc),
        )
    elif mode == 2:
        m = _embed(
            np.eye(space.atom_levels),
            np.eye(space.n1_trunc),
            _single_mode_lowering(space.n2_trunc),
        )
    else:
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    return Operator(space, m)


def number_op(space: SpaceDescriptor, mode: int) -> Operator:
    a = annihilation_op(space, mode)
    return a.dagger() @ a


def atom_transition_op(space: SpaceDescriptor, upper: Union[int, str], lower: Union[int, str]) -> Operator:
    """The operator |upper><lower| on the atom, identity on both field modes.

    Equal labels give an atomic population projector.
    """
    iu = space.atom_index(upper)
    il = space.atom_index(lower)
    block = np.zeros((space.atom_levels, space.atom_levels), dtype=complex)
    block[iu, il] = 1.0
    m = _embed(block, np.eye(space.n1_trunc), np.eye(space.n2_trunc))
    return Operator(space, m)


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
