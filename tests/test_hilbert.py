import tracemalloc

import numpy as np
import pytest

from cavsqueeze.hilbert import (
    ChargeBlocks,
    DensityMatrix,
    Operator,
    SpaceDescriptor,
    annihilation_op,
    atom_transition_op,
    basis_state,
    expectation,
    number_op,
    split_charges,
)


def test_flat_index_ordering():
    space = SpaceDescriptor(3, 4, 5)
    assert space.dim == 60
    assert space.index("g", 0, 0) == 0
    assert space.index("g", 0, 1) == 1
    assert space.index("g", 1, 0) == 5
    assert space.index("h", 0, 0) == 20
    assert space.index("e", 3, 4) == 59
    psi = basis_state(space, "h", 2, 3)
    assert psi[space.index(1, 2, 3)] == 1.0
    assert np.count_nonzero(psi) == 1


def test_space_validation():
    with pytest.raises(ValueError):
        SpaceDescriptor(0, 4, 4)
    with pytest.raises(ValueError):
        SpaceDescriptor(4, 4, 4)
    with pytest.raises(ValueError):
        SpaceDescriptor(2, 4, 4).atom_index("e")
    with pytest.raises(ValueError):
        SpaceDescriptor(3, 4, 4).index("g", 4, 0)
    with pytest.raises(ValueError):
        annihilation_op(SpaceDescriptor(1, 4, 4), 3)


def test_annihilation_matrix_elements():
    space = SpaceDescriptor(2, 5, 3)
    a1 = annihilation_op(space, 1)
    a2 = annihilation_op(space, 2)
    for n1 in range(1, 5):
        src = basis_state(space, "h", n1, 2)
        dst = basis_state(space, "h", n1 - 1, 2)
        np.testing.assert_allclose(a1.matrix @ src, np.sqrt(n1) * dst, atol=1e-15)
    for n2 in range(1, 3):
        src = basis_state(space, "g", 3, n2)
        dst = basis_state(space, "g", 3, n2 - 1)
        np.testing.assert_allclose(a2.matrix @ src, np.sqrt(n2) * dst, atol=1e-15)
    np.testing.assert_allclose((a1.matrix @ basis_state(space, "g", 0, 0)), 0.0, atol=1e-15)


def test_truncated_commutator_diagonal():
    # [a, a+] on an N-level mode is diag(1, ..., 1, 1 - N).
    n = 6
    space = SpaceDescriptor(1, n, 1)
    a = annihilation_op(space, 1)
    comm = a @ a.dagger() - a.dagger() @ a
    expected = np.eye(n, dtype=complex)
    expected[-1, -1] = 1 - n
    np.testing.assert_allclose(comm.matrix, expected, atol=1e-14)


def test_modes_commute():
    space = SpaceDescriptor(1, 4, 4)
    a1 = annihilation_op(space, 1)
    a2 = annihilation_op(space, 2)
    zero = np.zeros((space.dim, space.dim))
    np.testing.assert_allclose((a1 @ a2 - a2 @ a1).matrix, zero, atol=1e-15)
    np.testing.assert_allclose((a1 @ a2.dagger() - a2.dagger() @ a1).matrix, zero, atol=1e-15)


def test_atom_transitions():
    space = SpaceDescriptor(3, 3, 2)
    s_eg = atom_transition_op(space, "e", "g")
    s_ge = atom_transition_op(space, "g", "e")
    np.testing.assert_allclose(s_eg.dagger().matrix, s_ge.matrix, atol=1e-15)
    proj_e = atom_transition_op(space, "e", "e")
    np.testing.assert_allclose((s_eg @ s_ge).matrix, proj_e.matrix, atol=1e-15)
    # transition acts as identity on field labels
    psi = basis_state(space, "g", 2, 1)
    np.testing.assert_allclose(s_eg.matrix @ psi, basis_state(space, "e", 2, 1), atol=1e-15)
    # populations sum to identity
    total = sum(atom_transition_op(space, lbl, lbl).matrix for lbl in ("g", "h", "e"))
    np.testing.assert_allclose(total, np.eye(space.dim), atol=1e-15)


def test_number_operator():
    space = SpaceDescriptor(2, 6, 2)
    n1 = number_op(space, 1)
    psi = basis_state(space, "h", 4, 1)
    assert expectation(n1, psi) == pytest.approx(4.0)


def test_expectation_vector_vs_density_matrix():
    rng = np.random.default_rng(7)
    space = SpaceDescriptor(2, 3, 3)
    m = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    herm = Operator(space, m + m.conj().T)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi /= np.linalg.norm(psi)
    rho = DensityMatrix.from_state_vector(space, psi)
    ev = expectation(herm, psi)
    ed = expectation(herm, rho)
    assert ev == pytest.approx(ed, abs=1e-12)
    assert abs(ev.imag) < 1e-12


def test_density_matrix_validation():
    space = SpaceDescriptor(1, 2, 1)
    with pytest.raises(ValueError, match="hermitian"):
        DensityMatrix(space, np.array([[0.5, 0.5], [-0.5, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(space, np.eye(2))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(space, np.diag([1.5, -0.5]))


def test_matrices_are_read_only():
    space = SpaceDescriptor(1, 3, 1)
    op = Operator(space, np.eye(3))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 2.0
    rho = DensityMatrix(space, np.eye(3) / 3)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0


def test_operator_algebra_space_mismatch():
    a = Operator(SpaceDescriptor(1, 2, 1), np.eye(2))
    b = Operator(SpaceDescriptor(1, 3, 1), np.eye(3))
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ValueError):
        _ = a @ b


@pytest.mark.parametrize("shape", [(4, 4), (3, 5), (5, 3), (1, 3)])
def test_charge_blocks_round_trip(shape):
    rng = np.random.default_rng(2)
    g = rng.normal(size=(shape[0] * shape[1],) * 2) + 1j * rng.normal(size=(shape[0] * shape[1],) * 2)
    rho4 = (g @ g.conj().T).reshape(shape * 2)
    rho = split_charges(rho4)
    # every charge (n1 - n2) - (m1 - m2) occurs in a full-rank state
    span = shape[0] + shape[1] - 2
    assert rho.charges.tolist() == list(range(-span, span + 1))
    assert np.array_equal(rho.dense(), rho4)
    n1, n2 = shape
    for q in (0, 1, -2):
        for d in range(1 - n2, n2):
            for a in range(n1):
                for b in range(n2):
                    c1, c2 = a + d - q, b + d
                    on_grid = 0 <= c1 < n1 and 0 <= c2 < n2
                    assert rho.block(q)[n2 - 1 + d, a, b] == (rho4[a, b, c1, c2] if on_grid else 0.0)


def test_charge_blocks_hold_only_occupied_charges():
    s = SpaceDescriptor(1, 5, 5)
    pair = np.zeros(s.dim, dtype=complex)
    pair[s.index(0, 0, 0)] = pair[s.index(0, 2, 2)] = 1.0 / np.sqrt(2.0)
    rho = split_charges(np.outer(pair, pair.conj()).reshape(5, 5, 5, 5))
    assert rho.charges.tolist() == [0]
    assert rho.blocks.shape == (1, 9, 5, 5)
    assert not np.any(rho.block(1))
    asked = split_charges(np.outer(pair, pair.conj()).reshape(5, 5, 5, 5), range(-1, 2))
    assert asked.charges.tolist() == [-1, 0, 1]
    np.testing.assert_array_equal(asked.dense(), rho.dense())
    left = np.arange(25.0).reshape(5, 5) + 1j
    np.testing.assert_array_equal(
        rho.outer(left, left), split_charges(np.einsum("ij,kl->ijkl", left, left.conj())).block(0)[None]
    )


def test_diagonal_of_an_absent_charge_builds_no_block():
    # at N = 85 one block is (2N - 1) N^2 complex entries, 19.5 MB; a band of
    # a charge the state does not hold is an (N, N) zero array
    n = 85
    rho = ChargeBlocks(np.zeros(1, int), np.zeros((1, 2 * n - 1, n, n), complex))
    tracemalloc.start()
    try:
        band = rho.diagonal(1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rho.blocks[0].nbytes / 10, peak
    np.testing.assert_array_equal(band, np.zeros((n, n)))
    # a held charge still reads its band out of the block
    rho.blocks[0, n - 1 - 2, 3, 4] = 1.5
    assert rho.diagonal(2, 2)[3, 4] == 1.5
