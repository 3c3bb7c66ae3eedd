import dataclasses
import tracemalloc

import numpy as np
import pytest

from cavsqueeze.dynamics import Trajectory
from cavsqueeze.gaussian import gaussian_vacuum
from cavsqueeze.hilbert import (
    EIGENVALUE_FLOOR,
    ChargeBlocks,
    DensityMatrix,
    Operator,
    SpaceDescriptor,
    annihilation_op,
    atom_transition_op,
    basis_state,
    charge_sectors,
    expectation,
    factor_blocks,
    number_op,
)
from oracles import dense, split_charges


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


@pytest.mark.parametrize("counts", [(True, 3, True), (1, True, 3), (2, 3, True)])
def test_space_refuses_booleans(counts):
    # bool is an int subclass: SpaceDescriptor(True, 3, True) would have dim 3
    with pytest.raises(ValueError, match="must be a positive integer"):
        SpaceDescriptor(*counts)


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
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            DensityMatrix(space, np.array([[1.0, 0.0], [0.0, bad]]))


def test_real_matrix_gets_a_real_factor():
    # a matrix whose imaginary part is exactly 0 is factored by the real eigh, whatever its dtype
    space = SpaceDescriptor(1, 3, 3)
    g = np.random.default_rng(3).normal(size=(space.dim, 4))
    m = g @ g.T / np.trace(g @ g.T)
    for given in (m, m.astype(complex)):
        rho = DensityMatrix(space, given)
        assert rho.factor.dtype == float
        np.testing.assert_allclose(rho.factor @ rho.factor.T, m, rtol=0, atol=1e-15)
    phases = np.exp(1j * np.arange(space.dim))  # diag(phases) m diag(phases)+ is a complex state
    assert DensityMatrix(space, phases[:, None] * m * phases.conj()).factor.dtype == complex


def random_unit_vector(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("shape", [(1, 5, 5), (1, 25, 25)])
def test_from_state_vector_is_the_outer_product(shape):
    space = SpaceDescriptor(*shape)
    for seed in range(3):
        v = random_unit_vector(space.dim, seed)
        rho = DensityMatrix.from_state_vector(space, v)
        # F is the vector as one column, bit for bit, so F F+ is its outer product
        assert rho.factor.shape == (space.dim, 1) and rho.factor.tobytes() == v.tobytes()
        assert not rho.factor.flags.writeable
        np.testing.assert_allclose(dense(rho), np.outer(v, v.conj()), rtol=0, atol=1e-15)
        # the full check's eigenvalue floor, as an oracle the constructor no longer runs
        assert np.linalg.eigvalsh(dense(rho)).min() >= EIGENVALUE_FLOOR


def test_from_state_vector_checks_the_vector():
    space = SpaceDescriptor(1, 2, 2)
    with pytest.raises(ValueError, match="length 3"):
        DensityMatrix.from_state_vector(space, np.ones(3) / np.sqrt(3))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            DensityMatrix.from_state_vector(space, np.array([bad, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="trace .* is not 1"):
        DensityMatrix.from_state_vector(space, np.array([1.1, 0.0, 0.0, 0.0]) ** 0.5)


def test_from_state_vector_runs_no_eigensolve(eigensolve_calls):
    space = SpaceDescriptor(1, 25, 25)
    DensityMatrix.from_state_vector(space, basis_state(space, 0, 0, 0))
    DensityMatrix.from_state_vector(space, random_unit_vector(space.dim, 9))
    assert eigensolve_calls == []


def test_from_state_vector_holds_only_its_factor():
    # the state holds a read-only copy of the vector as its factor, and never forms the matrix
    space = SpaceDescriptor(1, 5, 5)
    v = random_unit_vector(space.dim, 4)
    want = v.copy()
    rho = DensityMatrix.from_state_vector(space, v)
    assert isinstance(rho, DensityMatrix)
    assert set(vars(rho)) == {"space", "factor"}
    assert repr(rho) == f"DensityMatrix(space={space!r})"
    assert v.flags.writeable  # the caller's array is not frozen, nor shared
    v[0] = 2.0
    assert rho.factor.tobytes() == want.tobytes()
    for name in ("matrix", "vector"):
        with pytest.raises(AttributeError):
            getattr(rho, name)
    with pytest.raises(AttributeError):
        DensityMatrix(space, np.outer(want, want.conj())).vector


def test_given_matrix_is_an_input_only():
    # the state keeps F alone; the caller's array is neither frozen nor changed,
    # and replace cannot form a matrix to factor again
    space = SpaceDescriptor(1, 3, 3)
    rng = np.random.default_rng(5)
    g = rng.normal(size=(space.dim, 4)) + 1j * rng.normal(size=(space.dim, 4))
    m = g @ g.conj().T / np.trace(g @ g.conj().T).real
    for given in (m, m.real / np.trace(m.real), np.diag(np.r_[0.0, np.ones(space.dim - 1)] / (space.dim - 1))):
        kept = given.copy()
        rho = DensityMatrix(space, given)
        assert set(vars(rho)) == {"space", "factor"}
        assert given.flags.writeable and given.tobytes() == kept.tobytes()
        with pytest.raises(ValueError, match="matrix"):
            dataclasses.replace(rho, space=rho.space)


def test_given_matrix_retains_only_its_factor():
    # at N = 25 a full-rank complex rho is 6.25 MB, and so is its F, the one array the state keeps
    space = SpaceDescriptor(1, 25, 25)
    rng = np.random.default_rng(6)
    g = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
    m = g @ g.conj().T / np.trace(g @ g.conj().T).real
    tracemalloc.start()
    try:
        rho = DensityMatrix(space, m)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rho.factor.shape == (space.dim, space.dim)
    assert abs(retained - rho.factor.nbytes) <= 64 * 1024, retained


def test_operator_copies_the_callers_array():
    space = SpaceDescriptor(1, 3, 1)
    for a in (np.eye(3), np.eye(3, dtype=complex)):
        op = Operator(space, a)
        assert a.flags.writeable
        a[0, 0] = 5.0
        assert op.matrix[0, 0] == 1.0
        assert not op.matrix.flags.writeable


def test_matrices_are_read_only():
    space = SpaceDescriptor(1, 3, 1)
    op = Operator(space, np.eye(3))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 2.0
    rho = DensityMatrix(space, np.eye(3) / 3)
    with pytest.raises(ValueError):
        rho.factor[0, 0] = 0.0


@pytest.mark.parametrize("make", [
    lambda: Operator(SpaceDescriptor(1, 2, 1), np.eye(2)),
    lambda: DensityMatrix(SpaceDescriptor(1, 2, 1), np.eye(2) / 2),
    lambda: ChargeBlocks(np.array([0]), np.ones((1, 1, 2, 1), complex)),
    lambda: gaussian_vacuum(),
    lambda: Trajectory(np.zeros(2), {"n_a1": np.zeros(2)}),
], ids=["Operator", "DensityMatrix", "ChargeBlocks", "GaussianState", "Trajectory"])
def test_array_dataclasses_compare_by_identity(make):
    # a generated __eq__ would compare the arrays and raise on their truth value
    a, b = make(), make()
    assert (a == b) is False and (a == a) is True


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
        factor_blocks(left[..., None], charge_sectors(5, 5), rho.charges).blocks,
        split_charges(np.einsum("ij,kl->ijkl", left, left.conj())).block(0)[None],
    )


def test_split_charges_finds_charges_without_a_full_charge_array():
    # at N = 25 the charge of every entry as an (N1, N2, N1, N2) int64 array
    # is 3.1 MB, against 0.49 MB for the one block of the vacuum: the whole
    # call stays under 1.5 MB there, and on a dense state, which holds all
    # 97 charges, under 6.6 MB above its 47.5 MB of blocks
    n = 25
    vacuum = np.zeros((n,) * 4, complex)
    vacuum[0, 0, 0, 0] = 1.0
    rng = np.random.default_rng(5)
    g = rng.normal(size=(n * n,) * 2) + 1j * rng.normal(size=(n * n,) * 2)
    dense = (g @ g.conj().T / n**4).reshape((n,) * 4)
    for rho4, span, extra in ((vacuum, [0], 1.5e6), (dense, range(2 - 2 * n, 2 * n - 1), 6.6e6)):
        tracemalloc.start()
        try:
            rho = split_charges(rho4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rho.charges.tolist() == list(span)
        assert peak - (rho.blocks.nbytes if rho4 is dense else 0) <= extra, peak
