import math
import tracemalloc

import numpy as np
import pytest

from cavsqueeze.analysis import (
    _fock_moments,
    band_moments,
    band_sums,
    epr_variances_fock,
    fidelity_to_tmsv,
    moment_records,
    observable_matrices,
    preparation_time,
    quadrature_ops,
    recorder_from_matrices,
    squeezing_report,
    tmsv_state_vector,
    truncation_leak,
)
from cavsqueeze.dynamics import run_steps, squeezed_frame
from cavsqueeze.gaussian import gaussian_tmsv
from cavsqueeze.hilbert import (
    DensityMatrix,
    SpaceDescriptor,
    basis_state,
    expectation,
)
from cavsqueeze.model import build_squeeze_operator
from oracles import band_by_band_moments, build_displacement_operator, dense, random_low_fock_state, split_charges


FIELDS20 = SpaceDescriptor(1, 20, 20)


def mean_photons(psi, s):
    """(<a1+ a1>, <a2+ a2>) of a pure state, from its moments."""
    rho4 = np.outer(psi, psi.conj()).reshape(s.shape[1:] * 2)
    out = moment_records(*band_moments(band_sums(split_charges(rho4))), 0.0)
    return out["n_a1"], out["n_a2"]


class TestTmsvStateVector:
    def test_zero_squeeze_is_vacuum(self):
        psi = tmsv_state_vector(FIELDS20, 0.0)
        np.testing.assert_allclose(psi, basis_state(FIELDS20, 0, 0, 0), atol=1e-15)

    def test_amplitude_ratio(self):
        psi = tmsv_state_vector(FIELDS20, 0.5)
        ratio = psi[FIELDS20.index(0, 1, 1)] / psi[FIELDS20.index(0, 0, 0)]
        assert ratio.real == pytest.approx(0.46211715726000974, rel=1e-10)

    def test_normalized_and_paired(self):
        psi = tmsv_state_vector(FIELDS20, 0.6)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        grid = psi.reshape(20, 20)
        off_diag = grid - np.diag(np.diag(grid))
        assert np.max(np.abs(off_diag)) == 0.0

    def test_matches_squeeze_operator_construction(self):
        s = SpaceDescriptor(1, 25, 25)
        eps = 0.5
        direct = tmsv_state_vector(s, eps)
        sq = build_squeeze_operator(s, eps)
        conjugated = sq.dagger().matrix @ basis_state(s, 0, 0, 0)
        assert abs(np.vdot(direct, conjugated)) ** 2 >= 1.0 - 1e-6

    def test_truncation_rejected_with_requirement(self):
        s = SpaceDescriptor(1, 10, 10)
        with pytest.raises(ValueError, match="squeezed-vacuum tail") as exc:
            tmsv_state_vector(s, math.atanh(0.95))
        assert "135" in str(exc.value)

    def test_field_only_required(self):
        with pytest.raises(ValueError, match="field-only"):
            tmsv_state_vector(SpaceDescriptor(2, 10, 10), 0.3)


class TestQuadratures:
    def test_vacuum_variance(self):
        x1, p1, x2, p2 = quadrature_ops(FIELDS20)
        vac = basis_state(FIELDS20, 0, 0, 0)
        for q in (x1, p1, x2, p2):
            second = np.vdot(vac, (q @ q).matrix @ vac).real
            assert second == pytest.approx(0.25, abs=1e-14)

    def test_coherent_state_mean(self):
        s = SpaceDescriptor(1, 25, 4)
        alpha = 0.8
        psi = build_displacement_operator(s, alpha, 0.0).matrix @ basis_state(s, 0, 0, 0)
        x1 = quadrature_ops(s)[0]
        assert np.vdot(psi, x1.matrix @ psi).real == pytest.approx(alpha, abs=1e-8)

    def test_commutator_on_interior(self):
        s = SpaceDescriptor(1, 12, 3)
        x1, p1, _, _ = quadrature_ops(s)
        comm = (x1 @ p1 - p1 @ x1).matrix
        expected = 0.5j * np.eye(s.dim)
        # the last photon layer of mode 1 carries the truncation defect
        interior = [s.index(0, n1, n2) for n1 in range(11) for n2 in range(3)]
        np.testing.assert_allclose(
            comm[np.ix_(interior, interior)],
            expected[np.ix_(interior, interior)],
            atol=1e-14,
        )

    def test_hermitian(self):
        for q in quadrature_ops(SpaceDescriptor(1, 6, 6)):
            np.testing.assert_allclose(q.matrix, q.matrix.conj().T, atol=1e-15)


class TestMoments:
    def test_matches_dense_operators_on_embedded_state(self):
        # a state populating the boundary layer of its own 6-level grid,
        # embedded in 12 levels with the outer layers empty: there the dense
        # truncated quadratures act as the untruncated ones, and the moments
        # of the 6-level array must equal theirs
        n, big = 6, SpaceDescriptor(1, 12, 12)
        rho = random_low_fock_state(big, n, 3, seed=4).reshape(big.shape[1:] * 2)
        held = rho[:n, :n, :n, :n]
        assert truncation_leak(DensityMatrix(SpaceDescriptor(1, n, n), held.reshape(n * n, n * n))) > 0.1
        mean, cov = band_moments(band_sums(split_charges(held)))
        dense = rho.reshape(big.dim, big.dim)
        quads = [op.matrix for op in quadrature_ops(big)]
        want_mean = np.array([np.trace(q @ dense).real for q in quads])
        want_cov = np.array([
            [0.5 * np.trace((qi @ qj + qj @ qi) @ dense).real - mi * mj
             for qj, mj in zip(quads, want_mean)]
            for qi, mi in zip(quads, want_mean)
        ])
        np.testing.assert_allclose(mean, want_mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cov, want_cov, rtol=0, atol=1e-12)

    def test_coherent_and_squeezed_closed_forms(self):
        s = SpaceDescriptor(1, 25, 4)
        psi = build_displacement_operator(s, 0.8, 0.0).matrix @ basis_state(s, 0, 0, 0)
        mean, cov = band_moments(band_sums(split_charges(np.outer(psi, psi.conj()).reshape(s.shape[1:] * 2))))
        np.testing.assert_allclose(mean, [0.8, 0.0, 0.0, 0.0], atol=1e-8)
        np.testing.assert_allclose(cov, 0.25 * np.eye(4), atol=1e-8)
        psi = tmsv_state_vector(FIELDS20, 0.5)
        _, cov = band_moments(band_sums(split_charges(np.outer(psi, psi.conj()).reshape(20, 20, 20, 20))))
        np.testing.assert_allclose(cov, gaussian_tmsv(0.5).cov, atol=1e-6)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (2, 2), (5, 1), (2, 7), (6, 6), (12, 9)])
    def test_band_table_equals_band_by_band_reading(self, shape):
        # bitwise, on states holding every charge, none of +-1 or +-2, or
        # only some of them, on grids where some bands fall off entirely
        rng = np.random.default_rng(3)
        for rank in (1, 2, 3):
            g = rng.normal(size=(np.prod(shape), rank)) + 1j * rng.normal(size=(np.prod(shape), rank))
            rho4 = (g @ g.conj().T / np.sum(np.abs(g) ** 2)).reshape(shape * 2)
            for charges in (None, [0], [-1, 0], [0, 2], [-2, 0, 1], range(-2, 3), [3, 0, -1]):
                rho = split_charges(rho4, charges)
                want_mean, want_cov = band_by_band_moments(rho)
                mean, cov = band_moments(band_sums(rho))
                assert np.array_equal(mean, want_mean) and np.array_equal(cov, want_cov), charges

    def test_stacked_readings_equal_sample_by_sample(self):
        # one record pass over a run's stacked readings gives, bitwise, the
        # records of each sample read on its own
        s = SpaceDescriptor(1, 7, 6)
        states = [split_charges(random_low_fock_state(s, 6, 2, seed).reshape(7, 6, 7, 6)) for seed in range(5)]
        psi = build_displacement_operator(s, 0.6 - 0.2j, 0.3j).matrix @ basis_state(s, 0, 0, 0)
        states.append(split_charges(np.outer(psi, psi.conj()).reshape(7, 6, 7, 6)))
        mean, cov = band_moments(np.array([band_sums(rho) for rho in states]))
        records = moment_records(mean, cov, 0.37)
        for i, rho in enumerate(states):
            one_mean, one_cov = band_moments(band_sums(rho))
            assert np.array_equal(mean[i], one_mean) and np.array_equal(cov[i], one_cov)
            for key, value in moment_records(one_mean, one_cov, 0.37).items():
                assert records[key][i] == value, key


VARIANCE_KEYS = ["v_x_minus", "v_x_plus", "v_p_minus", "v_p_plus", "duan_sum"]


class TestEPRVariances:
    def test_vacuum(self):
        epr = epr_variances_fock(basis_state(FIELDS20, 0, 0, 0), FIELDS20)
        assert epr["v_x_minus"] == pytest.approx(0.5, abs=1e-12)
        assert epr["v_x_plus"] == pytest.approx(0.5, abs=1e-12)
        assert epr["v_p_minus"] == pytest.approx(0.5, abs=1e-12)
        assert epr["v_p_plus"] == pytest.approx(0.5, abs=1e-12)
        assert epr["duan_sum"] == pytest.approx(1.0, abs=1e-12)
        # not entangled
        assert not epr["duan_sum"] < 1.0

    def test_tmsv_squeezed_pair(self):
        # eps = atanh(0.6) = ln 2, squeezed variance e^{-2 eps}/2 = 1/8
        eps = math.atanh(0.6)
        psi = tmsv_state_vector(FIELDS20, eps)
        epr = epr_variances_fock(psi, FIELDS20)
        assert epr["v_x_minus"] == pytest.approx(0.125, abs=1e-4)
        assert epr["v_p_plus"] == pytest.approx(0.125, abs=1e-4)
        assert epr["v_x_plus"] == pytest.approx(2.0, abs=1e-3)
        assert epr["v_p_minus"] == pytest.approx(2.0, abs=1e-3)
        assert epr["duan_sum"] == pytest.approx(0.25, abs=2e-4)
        # entangled
        assert epr["duan_sum"] < 1.0

    def test_accepts_density_matrix(self):
        psi = tmsv_state_vector(FIELDS20, 0.4)
        rho = DensityMatrix.from_state_vector(FIELDS20, psi)
        from_vec = epr_variances_fock(psi, FIELDS20)
        from_dm = epr_variances_fock(rho)
        assert from_dm["duan_sum"] == pytest.approx(from_vec["duan_sum"], rel=1e-12)

    def test_vector_is_read_without_its_outer_product(self):
        # at N = 40 |psi><psi| alone is 41 MB, the five charge blocks written
        # from the vector 10.1 MB; they are the blocks split_charges takes out
        # of the outer product, so both read the same bits
        space = SpaceDescriptor(1, 40, 40)
        psi = tmsv_state_vector(space, 0.5)
        tracemalloc.start()
        try:
            from_vector = epr_variances_fock(psi, space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 15e6, peak
        assert from_vector == epr_variances_fock(DensityMatrix.from_state_vector(space, psi))
        outer = split_charges(np.outer(psi, psi.conj()).reshape(space.shape[1:] * 2), range(-2, 3))
        for got, want in zip(_fock_moments(psi, space)[:2], band_moments(band_sums(outer))):
            assert np.array_equal(got, want)

    def test_returns_the_variance_records(self):
        # exactly the five variance columns moment_records writes for the same moments
        assert list(moment_records(np.zeros(4), 0.25 * np.eye(4), 0.0))[-5:] == VARIANCE_KEYS
        psi = tmsv_state_vector(FIELDS20, 0.4)
        states = [
            (basis_state(FIELDS20, 0, 0, 0), FIELDS20),
            (psi, FIELDS20),
            (DensityMatrix.from_state_vector(FIELDS20, psi), None),
        ]
        for state, space in states:
            epr = epr_variances_fock(state, space)
            records = moment_records(*_fock_moments(state, space)[:2], 0.4)
            assert list(epr) == VARIANCE_KEYS
            assert epr == {key: records[key] for key in VARIANCE_KEYS}

    def test_boundary_population_warns(self):
        s = SpaceDescriptor(1, 6, 6)
        edge = basis_state(s, 0, 5, 0)
        with pytest.warns(UserWarning, match="boundary"):
            epr_variances_fock(edge, s)

    def test_requires_field_only_state(self):
        s = SpaceDescriptor(2, 4, 4)
        with pytest.raises(ValueError, match="field-only"):
            epr_variances_fock(basis_state(s, 0, 0, 0), s)

    def test_uncertainty_products(self):
        for eps in (0.1, 0.3, 0.5, math.atanh(0.7)):
            psi = tmsv_state_vector(SpaceDescriptor(1, 30, 30), eps)
            epr = epr_variances_fock(psi, SpaceDescriptor(1, 30, 30))
            assert epr["v_x_minus"] * epr["v_x_plus"] == pytest.approx(0.25, abs=1e-4)
            assert epr["duan_sum"] < 1.0


class TestMeanPhotonAndLeak:
    def test_vacuum_and_fock(self):
        assert mean_photons(basis_state(FIELDS20, 0, 0, 0), FIELDS20) == pytest.approx((0.0, 0.0))
        assert mean_photons(basis_state(FIELDS20, 0, 2, 0), FIELDS20) == pytest.approx((2.0, 0.0))

    def test_tmsv_occupation(self):
        psi = tmsv_state_vector(FIELDS20, 0.5)
        expected = 0.2715403174076219  # sinh^2(0.5)
        assert mean_photons(psi, FIELDS20) == pytest.approx((expected, expected), abs=1e-4)

    def test_truncation_leak(self):
        s = SpaceDescriptor(1, 5, 5)
        assert truncation_leak(basis_state(s, 0, 0, 0), s) == pytest.approx(0.0, abs=1e-15)
        assert truncation_leak(basis_state(s, 0, 4, 0), s) == pytest.approx(1.0)
        assert truncation_leak(basis_state(s, 0, 0, 4), s) == pytest.approx(1.0)
        mix = DensityMatrix(
            s,
            0.5 * np.outer(basis_state(s, 0, 0, 0), basis_state(s, 0, 0, 0))
            + 0.5 * np.outer(basis_state(s, 0, 4, 4), basis_state(s, 0, 4, 4)),
        )
        assert truncation_leak(mix) == pytest.approx(0.5)


class TestFidelity:
    def test_self_fidelity(self):
        psi = tmsv_state_vector(FIELDS20, 0.5)
        assert fidelity_to_tmsv(psi, 0.5, FIELDS20) == pytest.approx(1.0, abs=1e-10)
        rho = DensityMatrix.from_state_vector(FIELDS20, psi)
        assert fidelity_to_tmsv(rho, 0.5) == pytest.approx(1.0, abs=1e-10)
        # a raw density matrix is refused, not read as a state vector
        with pytest.raises(ValueError, match="DensityMatrix"):
            fidelity_to_tmsv(dense(rho), 0.5, FIELDS20)

    def test_vacuum_overlap(self):
        vac = basis_state(FIELDS20, 0, 0, 0)
        # |<00|psi_eps>|^2 = 1/cosh^2(eps)
        assert fidelity_to_tmsv(vac, 0.5, FIELDS20) == pytest.approx(
            0.7864477329659275, rel=1e-6
        )
        assert fidelity_to_tmsv(vac, 0.0, FIELDS20) == pytest.approx(1.0, abs=1e-12)

    def test_phase_rotation_invariance(self):
        # |n,n> components are invariant under opposite local phase rotations,
        # so fidelity must not change
        s = SpaceDescriptor(1, 15, 15)
        rng = np.random.default_rng(9)
        psi = rng.normal(size=s.dim) + 1j * rng.normal(size=s.dim)
        psi /= np.linalg.norm(psi)
        phases = np.array(
            [np.exp(1j * 0.7 * (n1 - n2)) for n1 in range(15) for n2 in range(15)]
        )
        rotated = phases * psi
        f0 = fidelity_to_tmsv(psi, 0.4, s)
        f1 = fidelity_to_tmsv(rotated, 0.4, s)
        assert f1 == pytest.approx(f0, rel=1e-10)

    def test_target_truncation_guard(self):
        s = SpaceDescriptor(1, 8, 8)
        with pytest.raises(ValueError, match="squeezed-vacuum tail"):
            fidelity_to_tmsv(basis_state(s, 0, 0, 0), math.atanh(0.97), s)


class TestPreparationTime:
    def test_benchmark_point(self):
        prep = preparation_time(0.95, 1.0, 0.1)
        assert prep.n_bar_initial == pytest.approx(9.256410256410254, rel=1e-12)
        assert prep.t_step == pytest.approx(4.52790140519728, rel=1e-12)
        assert prep.t_total == pytest.approx(2 * 4.52790140519728, rel=1e-12)

    def test_rate_scaling(self):
        slow = preparation_time(0.9, 10.0, 0.1)
        fast = preparation_time(0.9, 20.0, 0.1)
        assert slow.t_step == pytest.approx(2 * fast.t_step, rel=1e-12)

    def test_already_below_target(self):
        with pytest.warns(UserWarning, match="nothing to pump"):
            prep = preparation_time(1e-4, 1.0, 0.1)
        assert prep.t_step == 0.0
        assert prep.t_total == 0.0

    def test_an_array_of_points_rounds_each_as_floats_do(self):
        # one call over 4,000 points, some with nothing to pump, gives each the times the
        # rule gives in Python floats (** and math.log), to the last bit
        rng = np.random.default_rng(8)
        r, gamma = rng.uniform(0.05, 0.999, 4000), rng.uniform(0.5, 50.0, 4000)
        with pytest.warns(UserWarning, match="nothing to pump"):
            prep = preparation_time(r, gamma, 0.1)
        for point in zip(r.tolist(), gamma.tolist(), prep.n_bar_initial, prep.t_step, prep.t_total):
            n_bar = point[0] ** 2 / (1.0 - point[0] ** 2)
            t_step = math.log(n_bar / 0.1) / point[1] if n_bar > 0.1 else 0.0
            assert point[2:] == (n_bar, t_step, 2.0 * t_step)

    def test_monotonic_in_r(self):
        times = [preparation_time(r, 5.0, 0.1).t_step for r in (0.5, 0.7, 0.9, 0.95, 0.99)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            preparation_time(1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            preparation_time(0.5, 0.0, 0.1)
        with pytest.raises(ValueError):
            preparation_time(0.5, 1.0, -0.1)

    @pytest.mark.parametrize("gamma, n_target, name", [
        (math.nan, 0.1, "gamma"),
        (np.array([1.0, math.nan]), 0.1, "gamma"),
        (1.0, math.nan, "n_target"),
    ])
    def test_refuses_nan(self, gamma, n_target, name):
        with pytest.raises(ValueError, match=f"{name} must be positive, got"):
            preparation_time(0.5, gamma, n_target)


class TestSqueezingReport:
    def test_on_target_state(self):
        eps = 0.5
        s = SpaceDescriptor(1, 25, 25)
        psi = tmsv_state_vector(s, eps)
        report = squeezing_report(psi, eps, s)
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)
        assert report.v_squeezed == pytest.approx(0.5 * math.exp(-2 * eps), abs=1e-5)
        assert report.v_antisqueezed == pytest.approx(0.5 * math.exp(2 * eps), abs=1e-3)
        assert report.n1_mean == pytest.approx(0.2715403174076219, abs=1e-5)
        assert report.v_squeezed * report.v_antisqueezed >= 0.25 - 1e-6
        assert 0.0 <= report.fidelity <= 1.0 + 1e-9
        assert report.truncation_leak < 1e-8

    def test_json_fields(self):
        s = SpaceDescriptor(1, 12, 12)
        report = squeezing_report(basis_state(s, 0, 0, 0), 0.2, s)
        data = report.to_json()
        assert set(data) == {
            "epsilon_target",
            "v_squeezed",
            "v_antisqueezed",
            "duan_sum",
            "n1_mean",
            "n2_mean",
            "fidelity",
            "truncation_leak",
        }


class TestRecorder:
    def test_keys_and_target_values(self):
        eps = 0.4
        s = SpaceDescriptor(1, 18, 18)
        squeeze = build_squeeze_operator(s, eps).matrix
        record = recorder_from_matrices(*observable_matrices(s, squeeze))
        # the recorder reads states in the squeezed frame rho_b = S rho S+
        out = record(squeeze @ tmsv_state_vector(s, eps))
        assert set(out) == {
            "n_a1",
            "n_a2",
            "n_b1",
            "n_b2",
            "v_x_minus",
            "v_x_plus",
            "v_p_minus",
            "v_p_plus",
            "duan_sum",
        }
        # the target state is the transformed-mode vacuum
        assert out["n_b1"] == pytest.approx(0.0, abs=1e-10)
        assert out["n_b2"] == pytest.approx(0.0, abs=1e-10)
        assert out["n_a1"] == pytest.approx(math.sinh(eps) ** 2, abs=1e-6)
        assert out["duan_sum"] == pytest.approx(math.exp(-2 * eps), abs=1e-5)

    @pytest.mark.parametrize("eps", [0.4, -0.3])
    def test_frame_records_match_dense_reference(self, eps):
        # the squeezed-frame core records from the moments of rho_b through
        # symplectic_squeeze; on states whose squeezed image stays inside
        # the truncation that must equal the dense conjugated observables
        s = SpaceDescriptor(1, 24, 24)
        squeeze = build_squeeze_operator(s, eps).matrix
        dense = recorder_from_matrices(*observable_matrices(s, squeeze))
        for seed in range(3):
            rho_b = random_low_fock_state(s, 3, 2, seed)
            rho = squeeze.conj().T @ rho_b @ squeeze
            assert truncation_leak(DensityMatrix(s, rho)) <= 1e-12
            # with no steps the one row of the table is the entry state's
            _, records, *_ = run_steps(squeezed_frame(DensityMatrix(s, rho), eps)[0], [])
            want = dense(rho_b)
            assert list(records) == list(want)
            for key, value in want.items():
                assert records[key][0] == pytest.approx(value, abs=1e-9), key


class TestPureStateReaders:
    # a DensityMatrix of from_state_vector is read as its one-column factor: the
    # readers agree with the same state given as its matrix, which eigh factors
    # into that column and columns of rounding size, and never form the matrix
    s = SpaceDescriptor(1, 8, 8)
    eps = math.atanh(0.5)

    def states(self, seed):
        rng = np.random.default_rng(seed)
        psi = np.zeros(self.s.shape[1:], complex)
        psi[:3, :3] = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        psi = psi.ravel() / np.linalg.norm(psi)
        return DensityMatrix.from_state_vector(self.s, psi), DensityMatrix(self.s, np.outer(psi, psi.conj()))

    def readers(self):
        record = recorder_from_matrices(*observable_matrices(self.s, build_squeeze_operator(self.s, self.eps).matrix))
        n1 = quadrature_ops(self.s)[0]
        return {
            "truncation_leak": lambda rho: {"leak": truncation_leak(rho)},
            "epr_variances_fock": epr_variances_fock,
            "fidelity_to_tmsv": lambda rho: {"fidelity": fidelity_to_tmsv(rho, self.eps)},
            "recorder": record,
            "expectation": lambda rho: {"x1": expectation(n1, rho)},
        }

    @pytest.mark.parametrize("seed", range(3))
    def test_vector_reads_match_matrix_reads(self, seed):
        pure, given = self.states(seed)
        for name, read in self.readers().items():
            got, want = read(pure), read(given)
            assert list(got) == list(want), name
            for key, value in want.items():  # values up to 5: within 1e-15 relative, or absolute below 1
                assert got[key] == pytest.approx(value, rel=1e-15, abs=1e-15), (name, key)
        assert "matrix" not in vars(pure)


@pytest.mark.parametrize("reader", [
    truncation_leak,
    lambda rho, space: fidelity_to_tmsv(rho, 0.5, space),
    epr_variances_fock,
    lambda rho, space: squeezing_report(rho, 0.5, space),
], ids=["truncation_leak", "fidelity_to_tmsv", "epr_variances_fock", "squeezing_report"])
def test_readers_refuse_a_raw_density_matrix(reader):
    # a raw 2-D array is neither read as a vector nor factored: DensityMatrix(space, matrix) factors it
    psi = tmsv_state_vector(FIELDS20, 0.5)
    with pytest.raises(ValueError, match=r"wrap a density matrix in DensityMatrix\(space, matrix\)"):
        reader(np.outer(psi, psi.conj()), FIELDS20)
