import math

import numpy as np
import pytest

from cavsqueeze import gaussian
from cavsqueeze.analysis import attenuate, moment_records, quadrature_ops, symplectic_squeeze, tmsv_state_vector
from cavsqueeze.cli import build_spec, load_run_config
from cavsqueeze.gaussian import (
    OMEGA,
    GaussianState,
    gaussian_fidelity_to_tmsv,
    gaussian_epr_variances,
    gaussian_lindblad_evolve,
    gaussian_tmsv,
    gaussian_vacuum,
)
from cavsqueeze.hilbert import DensityMatrix, SpaceDescriptor, expectation
from cavsqueeze.model import PhysicalParams, b_mode_annihilation, build_squeeze_operator, derive_rates
from cavsqueeze.protocol import build_two_step_protocol, run_protocol
from oracles import gaussian_block_evolve, lindblad_evolve, two_step_vacuum_reading


def fock_covariance(space, psi):
    quads = [op.matrix for op in quadrature_ops(space)]
    means = np.array([expectation(m, psi).real for m in quads])
    cov = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            sym = 0.5 * (quads[i] @ quads[j] + quads[j] @ quads[i])
            cov[i, j] = expectation(sym, psi).real - means[i] * means[j]
    return cov


def occupation(s, key, epsilon=0.0):
    """n_a1, n_a2 (bare) or n_b1, n_b2 (transformed at epsilon) of a GaussianState."""
    return moment_records(s.mean, s.cov, epsilon)[key]


def displaced_squeezed_thermal(rng):
    """A random valid state: thermal occupations, local squeezing and a
    two-mode squeeze, then a random displacement."""
    thermal = 0.25 * (2.0 * rng.uniform(0.0, 2.0, 2) + 1.0)
    r1, r2 = rng.uniform(-1.0, 1.0, 2)
    local = np.diag([
        thermal[0] * math.exp(2 * r1), thermal[0] * math.exp(-2 * r1),
        thermal[1] * math.exp(2 * r2), thermal[1] * math.exp(-2 * r2),
    ])
    two_mode = symplectic_squeeze(rng.uniform(-1.5, 1.5))
    return GaussianState(mean=rng.normal(0.0, 2.0, 4), cov=two_mode @ local @ two_mode.T)


def pump_params(theta1, theta2):
    return PhysicalParams(
        omega1=math.sqrt(theta1),
        omega2=math.sqrt(theta2),
        g1=math.sqrt(theta1),
        g2=math.sqrt(theta2),
        delta1=-1.0,
        delta2=1.0,
        gamma_e=0.0,
        r_a=1.0,
        tau=1.0,
    )


class TestGaussianState:
    def test_rejects_asymmetric_cov(self):
        cov = 0.25 * np.eye(4)
        cov = cov.copy()
        cov[0, 1] = 0.1
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(mean=np.zeros(4), cov=cov)

    def test_rejects_sub_vacuum_noise(self):
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianState(mean=np.zeros(4), cov=0.125 * np.eye(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_moments(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            GaussianState(mean=np.array([bad, 0.0, 0.0, 0.0]), cov=0.25 * np.eye(4))
        with pytest.raises(ValueError, match="must be finite"):
            GaussianState(mean=np.zeros(4), cov=np.diag([bad, 1.0, 1.0, 1.0]))

    def test_mode_photon(self):
        assert occupation(gaussian_vacuum(), "n_a1") == 0.0
        eps = math.atanh(0.95)
        expected = 0.95**2 / (1.0 - 0.95**2)
        for key in ("n_a1", "n_a2"):
            assert abs(occupation(gaussian_tmsv(eps), key) - expected) < 1e-9

    def test_displaced_photon_number(self):
        s = GaussianState(mean=np.array([0.6, 0.8, 0.0, 0.0]), cov=0.25 * np.eye(4))
        assert abs(occupation(s, "n_a1") - 1.0) < 1e-12
        assert abs(occupation(s, "n_a2")) < 1e-12


class TestGaussianVacuum:
    def test_moments(self):
        v = gaussian_vacuum()
        np.testing.assert_array_equal(v.mean, np.zeros(4))
        np.testing.assert_array_equal(v.cov, 0.25 * np.eye(4))

    def test_joint_variances(self):
        epr = gaussian_epr_variances(gaussian_vacuum())
        assert epr["v_x_minus"] == 0.5
        assert epr["v_x_plus"] == 0.5
        assert epr["v_p_minus"] == 0.5
        assert epr["v_p_plus"] == 0.5
        assert epr["duan_sum"] == 1.0
        # not entangled
        assert not epr["duan_sum"] < 1.0

    def test_symplectic_eigenvalues(self):
        v = gaussian_vacuum()
        nu = np.abs(np.linalg.eigvals(1j * OMEGA @ v.cov))
        np.testing.assert_allclose(np.sort(nu), [0.25, 0.25, 0.25, 0.25], atol=1e-12)


class TestGaussianTmsv:
    def test_zero_squeezing_is_vacuum(self):
        s = gaussian_tmsv(0.0)
        np.testing.assert_array_equal(s.cov, gaussian_vacuum().cov)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gaussian_tmsv(-0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_epsilon(self, eps):
        with pytest.raises(ValueError, match="nonnegative"):
            gaussian_tmsv(eps)

    def test_squeezed_and_antisqueezed_variances(self):
        eps = math.atanh(0.6)
        epr = gaussian_epr_variances(gaussian_tmsv(eps))
        assert abs(epr["v_x_minus"] - 0.125) < 1e-12
        assert abs(epr["v_p_plus"] - 0.125) < 1e-12
        assert abs(epr["v_x_plus"] - 2.0) < 1e-12
        assert abs(epr["v_p_minus"] - 2.0) < 1e-12
        assert abs(epr["duan_sum"] - 0.25) < 1e-12
        # entangled
        assert epr["duan_sum"] < 1.0
        assert abs(epr["v_x_minus"] * epr["v_x_plus"] - 0.25) < 1e-12

    def test_variances_are_the_moment_records(self):
        # exactly the five variance columns moment_records writes for the same moments
        keys = ["v_x_minus", "v_x_plus", "v_p_minus", "v_p_plus", "duan_sum"]
        for eps in (0.0, 0.4, math.atanh(0.6)):
            s = gaussian_tmsv(eps)
            epr = gaussian_epr_variances(s)
            records = moment_records(s.mean, s.cov, eps)
            assert list(epr) == keys
            assert epr == {key: records[key] for key in keys}

    def test_matches_fock_covariance(self):
        space = SpaceDescriptor(1, 25, 25)
        psi = tmsv_state_vector(space, 0.5)
        cov = fock_covariance(space, psi)
        np.testing.assert_allclose(cov, gaussian_tmsv(0.5).cov, atol=1e-6)


class TestSymplecticSqueeze:
    def test_zero_is_identity(self):
        np.testing.assert_array_equal(symplectic_squeeze(0.0), np.eye(4))

    def test_symplectic_and_unit_determinant(self):
        s = symplectic_squeeze(0.7)
        np.testing.assert_allclose(s.T @ OMEGA @ s, OMEGA, atol=1e-12)
        assert abs(np.linalg.det(s) - 1.0) < 1e-12

    def test_maps_vacuum_to_tmsv(self):
        s = symplectic_squeeze(0.9)
        mapped = s @ (0.25 * np.eye(4)) @ s.T
        np.testing.assert_allclose(mapped, gaussian_tmsv(0.9).cov, atol=1e-12)

    def test_matches_fock_conjugation(self):
        # rows of the symplectic matrix are the Heisenberg coefficients of
        # the squeeze acting on each quadrature
        space = SpaceDescriptor(1, 25, 25)
        squeeze = build_squeeze_operator(space, 0.5)
        quads = [op.matrix for op in quadrature_ops(space)]
        m = symplectic_squeeze(0.5)
        idx = [space.index(0, n1, n2) for n1 in range(5) for n2 in range(5)]
        grid = np.ix_(idx, idx)
        for i in range(4):
            conj = squeeze.matrix @ quads[i] @ squeeze.dagger().matrix
            combo = sum(m[i, j] * quads[j] for j in range(4))
            assert np.max(np.abs(conj[grid] - combo[grid])) < 1e-6


class TestGaussianLindbladEvolve:
    def test_input_validation(self):
        s = gaussian_vacuum()
        with pytest.raises(ValueError, match="nonnegative"):
            gaussian_lindblad_evolve(s, 0.3, -1.0, 1, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            gaussian_lindblad_evolve(s, 0.3, 1.0, 1, -1.0)
        with pytest.raises(ValueError, match="which"):
            gaussian_lindblad_evolve(s, 0.3, 1.0, 3, 1.0)
        with pytest.raises(ValueError, match="which"):
            gaussian_lindblad_evolve(s, 0.3, 1.0, 3, 0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("gamma", [1.0, 0.0])
    def test_rejects_non_finite_epsilon(self, eps, gamma):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            gaussian_lindblad_evolve(gaussian_vacuum(), eps, gamma, 1, 1.0)

    @pytest.mark.parametrize("gamma, t, message", [
        (math.nan, 1.0, "gamma must be finite and nonnegative, got nan"),
        (math.inf, 1.0, "gamma must be finite and nonnegative, got inf"),
        (1.0, math.nan, "duration must be finite and nonnegative, got nan"),
        (1.0, math.inf, "duration must be finite and nonnegative, got inf"),
        (0.0, math.nan, "duration must be finite and nonnegative, got nan"),
    ], ids=["nan-rate", "infinite-rate", "nan-time", "infinite-time", "nan-time-at-zero-rate"])
    def test_rejects_a_rate_or_time_that_is_not_finite(self, gamma, t, message):
        # NaN passes a plain sign check, and inf pumps to a state no finite run reaches
        with pytest.raises(ValueError, match=f"^{message}$"):
            gaussian_lindblad_evolve(gaussian_vacuum(), 0.5, gamma, 1, t)

    def test_zero_time_or_rate_is_identity(self):
        s = gaussian_tmsv(0.4)
        assert gaussian_lindblad_evolve(s, 0.4, 1.0, 1, 0.0) is s
        assert gaussian_lindblad_evolve(s, 0.4, 0.0, 1, 1.0) is s

    def test_bare_damped_mode(self):
        gamma = 1.7
        t = 0.9
        s0 = GaussianState(mean=np.array([1.0, 0.5, -0.3, 0.2]), cov=0.25 * np.eye(4))
        out = gaussian_lindblad_evolve(s0, 0.0, gamma, 1, t)
        decay = math.exp(-gamma * t / 2.0)
        np.testing.assert_allclose(out.mean[:2], [1.0 * decay, 0.5 * decay], atol=1e-12)
        np.testing.assert_allclose(out.mean[2:], [-0.3, 0.2], atol=1e-12)
        np.testing.assert_allclose(out.cov, 0.25 * np.eye(4), atol=1e-12)

    def test_tmsv_is_fixed_point(self):
        eps = 0.9
        s0 = gaussian_tmsv(eps)
        for which in (1, 2):
            out = gaussian_lindblad_evolve(s0, eps, 2.0, which, 3.0)
            assert np.max(np.abs(out.cov - s0.cov)) < 1e-10
            assert np.max(np.abs(out.mean)) < 1e-10

    def test_transformed_occupation_decays_exponentially(self):
        eps = 0.6
        gamma = 0.8
        s0 = GaussianState(mean=np.array([0.7, -0.2, 0.4, 0.1]),
                           cov=gaussian_tmsv(0.3).cov)
        n0 = occupation(s0, "n_b1", eps)
        for t in (0.3, 1.1, 2.4):
            st = gaussian_lindblad_evolve(s0, eps, gamma, 1, t)
            n_t = occupation(st, "n_b1", eps)
            assert abs(n_t - n0 * math.exp(-gamma * t)) < 1e-8

    def test_spectator_mode_is_conserved(self):
        # the two transformed modes commute, so pumping one leaves the
        # other's occupation untouched
        eps = 0.5
        s0 = GaussianState(mean=np.zeros(4), cov=0.75 * np.eye(4))
        n2_before = occupation(s0, "n_b2", eps)
        st = gaussian_lindblad_evolve(s0, eps, 1.0, 1, 2.0)
        assert abs(occupation(st, "n_b2", eps) - n2_before) < 1e-10

    def test_long_time_limit_from_vacuum(self):
        eps = 0.8
        st = gaussian_vacuum()
        st = gaussian_lindblad_evolve(st, eps, 1.0, 1, 40.0)
        st = gaussian_lindblad_evolve(st, eps, 1.0, 2, 40.0)
        np.testing.assert_allclose(st.cov, gaussian_tmsv(eps).cov, atol=1e-8)

    def test_matches_block_expm_oracle(self):
        rng = np.random.default_rng(2017)
        worst = 0.0
        for _ in range(200):
            s0 = displaced_squeezed_thermal(rng)
            eps = rng.uniform(0.0, 2.5)
            gamma = rng.uniform(0.1, 5.0)
            t = rng.uniform(0.0, 50.0) / gamma
            which = int(rng.integers(1, 3))
            out = gaussian_lindblad_evolve(s0, eps, gamma, which, t)
            mean, cov = gaussian_block_evolve(s0.mean, s0.cov, eps, gamma, which, t)
            worst = max(
                worst,
                np.max(np.abs(out.mean - mean)) / max(1.0, np.max(np.abs(mean))),
                np.max(np.abs(out.cov - cov)) / np.max(np.abs(cov)),
            )
        assert worst < 1e-9

    def test_chained_steps_keep_their_digits_at_large_epsilon(self):
        # r = 0.9999: each evolve starts from the frame moments the last one left, so
        # the joint variances, photon numbers and fidelity match the 50-digit closed
        # form; a bare-frame round trip per step lost digits as cosh(eps)**4
        eps, gamma, t = math.atanh(0.9999), 2.0, 4.0
        state = gaussian_lindblad_evolve(gaussian_vacuum(), eps, gamma, 1, t)
        state = gaussian_lindblad_evolve(state, eps, gamma, 2, t)
        want = two_step_vacuum_reading(eps, [(gamma, t), (gamma, t)])
        mean, cov, frame = state.frame
        records = moment_records(mean, cov, eps, frame)
        got = {"duan_sum": records["duan_sum"], "n1_mean": records["n_a1"], "n2_mean": records["n_a2"],
               "fidelity": gaussian_fidelity_to_tmsv(mean, cov, eps - frame)}
        for key, value in got.items():
            assert value == pytest.approx(float(want[key]), rel=1e-12), key

    def test_kernels_broadcast_over_runs(self):
        # the sweep's one pass stacks runs on a leading axis; entry by entry it is the
        # single-run kernel
        rng = np.random.default_rng(30)
        eps, eta = rng.uniform(0.0, 5.0, 7), np.stack([np.ones(7), rng.uniform(0.0, 1.0, 7)], -1)
        states = [displaced_squeezed_thermal(rng) for _ in eps]
        mean, cov = np.array([s.mean for s in states]), np.array([s.cov for s in states])
        stacked = symplectic_squeeze(eps)
        out_mean, out_cov = attenuate(mean, cov, eta)
        fidelity = gaussian_fidelity_to_tmsv(mean, cov, eps)
        for i in range(eps.size):
            assert np.array_equal(stacked[i], symplectic_squeeze(eps[i]))
            one_mean, one_cov = attenuate(mean[i], cov[i], eta[i])
            assert np.array_equal(out_mean[i], one_mean) and np.array_equal(out_cov[i], one_cov)
            assert fidelity[i] == pytest.approx(gaussian_fidelity_to_tmsv(mean[i], cov[i], eps[i]), rel=1e-14)
        # eta = 1 leaves the moments exactly as they are
        same = attenuate(mean, cov, np.ones((eps.size, 2)))
        assert np.array_equal(same[0], mean) and np.array_equal(same[1], cov)

    def test_uncertainty_holds_along_evolution(self):
        eps = 0.7
        s = GaussianState(mean=np.array([2.0, 0.0, 0.0, 0.0]), cov=0.25 * np.eye(4))
        for t in np.linspace(0.1, 5.0, 20):
            out = gaussian_lindblad_evolve(s, eps, 1.0, 1, float(t))
            GaussianState(mean=out.mean, cov=out.cov)  # the caller-side check

    def test_random_evolutions_pass_the_full_check(self):
        # evolve builds its output without the constructor's check, because
        # the attenuator keeps the uncertainty relation; pin that property
        rng = np.random.default_rng(1551)
        for _ in range(50):
            s0 = displaced_squeezed_thermal(rng)
            gamma = rng.uniform(0.1, 5.0)
            out = gaussian_lindblad_evolve(s0, rng.uniform(0.0, 2.5), gamma, int(rng.integers(1, 3)),
                                           rng.uniform(0.0, 50.0) / gamma)
            GaussianState(mean=out.mean, cov=out.cov)
            assert not out.cov.flags.writeable and not out.mean.flags.writeable

    def test_matches_fock_engine(self):
        eps = 0.3
        gamma = 0.8
        t = 0.8
        space = SpaceDescriptor(1, 12, 12)
        rho0 = DensityMatrix.from_state_vector(space, tmsv_state_vector(space, 0.0))
        jump = b_mode_annihilation(space, eps, 1)
        traj = lindblad_evolve(rho0, [(jump, gamma)], (0.0, t))
        cov_fock = fock_covariance(space, traj.final_state)
        out = gaussian_lindblad_evolve(gaussian_vacuum(), eps, gamma, 1, t)
        np.testing.assert_allclose(cov_fock, out.cov, atol=1e-5)
        epr_fock = gaussian_epr_variances(GaussianState(mean=np.zeros(4), cov=cov_fock))
        epr_gauss = gaussian_epr_variances(out)
        assert abs(epr_fock["duan_sum"] - epr_gauss["duan_sum"]) < 1e-5

    def test_variances_of_a_pumped_state_keep_their_digits(self):
        # two pump steps at r = 0.9999 (gamma t = 8 each) move the state far from the bare
        # frame: read from the bare covariance, duan_sum cancels digits as cosh(epsilon)**4
        # (2.8e-9 off); read from the squeezed frame the state holds, it is exact
        eps = math.atanh(0.9999)
        s = gaussian_vacuum()
        for which in (1, 2):
            s = gaussian_lindblad_evolve(s, eps, 1.0, which, 8.0)
        want = two_step_vacuum_reading(eps, [(1.0, 8.0), (1.0, 8.0)])
        assert gaussian_epr_variances(s)["duan_sum"] == pytest.approx(float(want["duan_sum"]), rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("ignore:outside validity regime")
class TestRunProtocolGaussian:
    def protocol(self, r, gamma_t):
        # step 2 of the builder is pump_params(r, 1.0), the mirror of step 1
        p1 = pump_params(1.0, r)
        duration = gamma_t / derive_rates(p1).gamma
        return build_two_step_protocol(p1, engine="gaussian", durations=(duration, duration))

    def test_engine_built_states_skip_the_eigensolve(self, eigensolve_calls):
        # the vacuum, every evolved sample and the fidelity target are built
        # by the package, so a default run checks no uncertainty relation
        traj, _ = run_protocol(self.protocol(0.6, 4.0), samples_per_step=51)
        assert traj.times.size > 100
        assert len(eigensolve_calls) <= 1

    def test_one_evolve_per_step(self, monkeypatch):
        # every sample is the step's entry moments and its transmissivities, read in one
        # stacked pass; the step evolves a GaussianState only for its end
        calls, evolve = [], gaussian.gaussian_lindblad_evolve
        monkeypatch.setattr(gaussian, "gaussian_lindblad_evolve", lambda *args: calls.append(args) or evolve(*args))
        run_protocol(self.protocol(0.6, 4.0), samples_per_step=51)
        assert [which for _, _, _, which, _ in calls] == [1, 2]

    def test_each_sample_evolves_the_step_entry_once(self):
        # on the bundled config, 51 samples per step: every record row is the
        # moments of one gaussian_lindblad_evolve from the state its step
        # starts in, read in the squeezed frame they are held in (the bare
        # modes for the vacuum at t = 0); a later step's first sample
        # repeats the last one
        spec = build_spec(load_run_config(None))
        traj, _ = run_protocol(spec, samples_per_step=51)
        entry, states = gaussian_vacuum(), []
        for i, step in enumerate(spec.steps):
            d, mode = step.derived, 1 if step.channel == "b1" else 2
            for t in np.linspace(0.0, step.duration, 51)[bool(i):]:
                states.append(gaussian_lindblad_evolve(entry, d.epsilon, d.gamma, mode, t))
            entry = gaussian_lindblad_evolve(entry, d.epsilon, d.gamma, mode, step.duration)
        held = [s.frame or (s.mean, s.cov, 0.0) for s in states]
        mean, cov, frame = map(np.array, zip(*held))
        want = moment_records(mean, cov, spec.epsilon, frame)
        assert list(traj.records) == list(want)
        for key, series in want.items():
            assert np.array_equal(traj.records[key], series), key
        assert np.array_equal(traj.final_state.cov, entry.cov)

    def test_zero_duration_returns_initial(self):
        traj, _ = run_protocol(self.protocol(0.6, 0.0))
        np.testing.assert_array_equal(traj.final_state.cov, gaussian_vacuum().cov)
        assert traj.times.size == 1

    def test_two_step_prepares_squeezed_state(self):
        traj, _ = run_protocol(self.protocol(0.95, 9.2))
        eps = math.atanh(0.95)
        ideal = gaussian_epr_variances(gaussian_tmsv(eps))
        final = gaussian_epr_variances(traj.final_state)
        assert abs(final["duan_sum"] - ideal["duan_sum"]) / ideal["duan_sum"] < 0.03
        target_n = 0.95**2 / (1.0 - 0.95**2)
        for key in ("n_a1", "n_a2"):
            assert abs(occupation(traj.final_state, key) - target_n) / target_n < 0.02

    def test_monotone_transformed_decay_per_step(self):
        proto = self.protocol(0.6, 4.0)
        traj, _ = run_protocol(proto)
        boundary = proto.steps[0].duration
        step1 = traj.times <= boundary + 1e-12
        step2 = traj.times >= boundary - 1e-12
        assert np.all(np.diff(traj.records["n_b1"][step1]) <= 1e-10)
        assert np.all(np.diff(traj.records["n_b2"][step2]) <= 1e-10)

    def test_steady_state_unique_across_initial_states(self):
        proto = self.protocol(0.7, 12.0)
        initials = [
            gaussian_vacuum(),
            GaussianState(mean=np.zeros(4), cov=0.75 * np.eye(4)),
            GaussianState(mean=np.array([1.0, 0.0, 0.5, -0.2]), cov=0.25 * np.eye(4)),
        ]
        finals = [run_protocol(proto, initial=s)[0].final_state for s in initials]
        for other in finals[1:]:
            assert np.max(np.abs(other.cov - finals[0].cov)) < 1e-4

    def test_degenerate_channel_rejected(self):
        p = pump_params(1.0, 1.0 + 0.0)
        with pytest.raises(ValueError, match="degenerate"):
            run_protocol(build_two_step_protocol(p, engine="gaussian", durations=(1.0, 1.0)))

    def test_record_keys(self):
        traj, _ = run_protocol(self.protocol(0.5, 2.0))
        assert set(traj.records) == {
            "n_a1", "n_a2", "n_b1", "n_b2",
            "v_x_minus", "v_x_plus", "v_p_minus", "v_p_plus", "duan_sum",
        }
        assert traj.diagnostics["engine"] == "gaussian"
