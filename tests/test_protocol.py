import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import cavsqueeze
from cavsqueeze.analysis import preparation_time, tmsv_state_vector
from cavsqueeze.cli import build_spec, load_run_config
from cavsqueeze.dynamics import ArrivalProcess, run_collision_model, run_steps, squeezed_frame, stepwise
from cavsqueeze.gaussian import GaussianState, gaussian_vacuum
from cavsqueeze.hilbert import ChargeBlocks, DensityMatrix, SpaceDescriptor, basis_state, split_charges
from cavsqueeze.model import PhysicalParams, b_mode_annihilation, derive_rates, spontaneous_decay_estimate
from cavsqueeze.protocol import (
    ProtocolSpec,
    ProtocolStep,
    build_two_step_protocol,
    run_protocol,
    two_step_schedule,
    validate_regime,
)
from oracles import (
    bare_state,
    build_displacement_operator,
    dense_damping_pass,
    lindblad_evolve,
    random_low_fock_state,
)


def pump_params(theta1, theta2, delta_mag=1.0, r_a=1.0, tau=1.0, gamma_e=0.0):
    # theta_i seen by derive_rates is theta_i_arg / delta_mag
    return PhysicalParams(
        omega1=math.sqrt(theta1),
        omega2=math.sqrt(theta2),
        g1=math.sqrt(theta1),
        g2=math.sqrt(theta2),
        delta1=-delta_mag,
        delta2=delta_mag,
        gamma_e=gamma_e,
        r_a=r_a,
        tau=tau,
    )


def clean_params(theta1=1.0, theta2=0.6):
    # inside every validity check: dispersive 0.05, theta_b*tau 0.04, r_a*tau 0.2
    return pump_params(theta1, theta2, delta_mag=20.0, r_a=0.2, tau=1.0)


def vacuum_density(n1, n2):
    space = SpaceDescriptor(1, n1, n2)
    return DensityMatrix.from_state_vector(space, basis_state(space, 0, 0, 0))


class TestProtocolStep:
    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="duration"):
            ProtocolStep(params=clean_params(), duration=-1.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_rejects_non_finite_duration(self, duration):
        with pytest.raises(ValueError, match="duration must be finite"):
            ProtocolStep(params=clean_params(), duration=duration)

    def test_channel_and_atom_state_follow_rates(self):
        # theta1 > theta2 pumps b1 with atoms in g; theta1 < theta2 pumps b2 with atoms in h
        b1, b2 = clean_params(1.0, 0.6), clean_params(0.6, 1.0)
        assert (derive_rates(b1).channel, derive_rates(b2).channel) == ("b1", "b2")
        steps = (ProtocolStep(b1, 2.0), ProtocolStep(b2, 3.0))
        assert [(s.channel, s.atom_state) for s in steps] == [("b1", "g"), ("b2", "h")]
        assert ProtocolSpec(steps=steps, engine="gaussian").to_json() == {
            "steps": [
                {"params": b1.to_hz_dict(), "atom_state": "g", "duration": 2.0, "channel": "b1"},
                {"params": b2.to_hz_dict(), "atom_state": "h", "duration": 3.0, "channel": "b2"},
            ],
            "engine": "gaussian",
            "seed": 0,
            "truncation": [15, 15],
        }


class TestProtocolSpec:
    def make_spec(self, **overrides):
        kwargs = dict(engine="fock", seed=0, truncation=(10, 10))
        kwargs.update(overrides)
        return build_two_step_protocol(clean_params(), **kwargs)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            self.make_spec(engine="tensor-network")

    def test_rejects_empty_steps(self):
        with pytest.raises(ValueError, match="at least one step"):
            ProtocolSpec(steps=(), engine="fock")

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError, match="truncation"):
            self.make_spec(truncation=(0, 10))
        with pytest.raises(ValueError, match="truncation"):
            self.make_spec(truncation=(10,))

    @pytest.mark.parametrize("truncation", [(7.5, 7), ("9", True), (True, 8), (8.0, 8)])
    def test_rejects_non_integer_truncation(self, truncation):
        with pytest.raises(ValueError, match="truncation must be two positive integers"):
            self.make_spec(truncation=truncation)

    def test_numpy_integer_truncation(self):
        spec = self.make_spec(truncation=(np.int64(9), 8))
        assert spec.truncation == (9, 8)
        assert type(spec.truncation[0]) is int

    def test_rejects_mismatched_squeezing_across_steps(self):
        # r = 0.6 in step one, r = 0.5 in step two
        step1 = ProtocolStep(params=clean_params(1.0, 0.6), duration=1.0)
        step2 = ProtocolStep(params=pump_params(0.5, 1.0, delta_mag=20.0, r_a=0.2), duration=1.0)
        with pytest.raises(ValueError, match="disagree"):
            ProtocolSpec(steps=(step1, step2), engine="fock")

    def test_rejects_changed_detuning_sum(self):
        # same ratio (same epsilon) but detunings doubled in step two
        step1 = ProtocolStep(params=clean_params(1.0, 0.6), duration=1.0)
        step2 = ProtocolStep(params=pump_params(0.6, 1.0, delta_mag=40.0, r_a=0.2), duration=1.0)
        with pytest.raises(ValueError, match="detuning sum"):
            ProtocolSpec(steps=(step1, step2), engine="fock")

    def test_epsilon_property(self):
        spec = self.make_spec()
        # atanh(0.6) = ln 2
        assert spec.epsilon == pytest.approx(math.log(2.0), rel=1e-12)



class TestBuildTwoStepProtocol:
    def test_symmetric_swap_detunings(self):
        spec = build_two_step_protocol(clean_params())
        s2 = spec.steps[1].params
        # drive products are exchanged one for one, so each new detuning is
        # the other original magnitude with the canonical sign
        assert s2.delta1 == -20.0
        assert s2.delta2 == 20.0

    def test_thetas_swap_exactly(self):
        spec = build_two_step_protocol(clean_params())
        d1 = derive_rates(spec.steps[0].params)
        d2 = derive_rates(spec.steps[1].params)
        assert d2.theta1 == d1.theta2
        assert d2.theta2 == d1.theta1
        assert d2.epsilon == d1.epsilon
        assert d2.gamma == d1.gamma
        assert (d1.channel, d2.channel) == ("b1", "b2")

    def test_zero_weak_channel(self):
        # r = 0 has no squeezing to pump toward, but the schedule still builds
        p = pump_params(1.0, 0.0, delta_mag=20.0, r_a=0.2)
        spec = build_two_step_protocol(p, durations=(1.0, 1.0))
        assert spec.epsilon == 0.0
        assert spec.steps[1].params.omega1 == 0.0

    def test_atom_states_follow_channels(self):
        spec = build_two_step_protocol(clean_params())
        assert [s.atom_state for s in spec.steps] == ["g", "h"]

    def test_default_durations_hit_target_occupation(self):
        spec = build_two_step_protocol(clean_params())
        d = derive_rates(clean_params())
        expected = preparation_time(d.r, d.gamma, 0.1).t_step
        assert spec.steps[0].duration == expected
        assert spec.steps[1].duration == expected

    def test_n_target_forwarded(self):
        tight = build_two_step_protocol(clean_params(), n_target=0.01)
        loose = build_two_step_protocol(clean_params(), n_target=0.1)
        d = derive_rates(clean_params())
        ratio = (tight.steps[0].duration - loose.steps[0].duration) * d.gamma
        assert ratio == pytest.approx(math.log(10.0), rel=1e-12)

    def test_explicit_durations(self):
        spec = build_two_step_protocol(clean_params(), durations=(3.0, 5.0))
        assert [s.duration for s in spec.steps] == [3.0, 5.0]

    def test_rejects_channel_b2_first(self):
        with pytest.raises(ValueError, match="step 1"):
            build_two_step_protocol(clean_params(0.6, 1.0))

    def test_rejects_degenerate_rates(self):
        with pytest.raises(ValueError):
            build_two_step_protocol(clean_params(0.5, 0.5))

    def test_a_table_of_arrays_schedules_each_point_as_its_own(self):
        # one table holds five weak drives and transit times: pumping points, one with
        # nothing to pump (r = 0.06), and one that does not pump (tau = 0) while its atoms
        # decay, an infinite budget.  Each element of the rates, durations and regime is the
        # scalar schedule's of its point to the last bit, and the array pass warns of nothing
        base = pump_params(1.0, 0.6, delta_mag=20.0, r_a=0.2, gamma_e=0.05)
        omega2 = base.omega2 * np.array([0.1, 0.5, 0.9, 0.999, 0.5])
        tau = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
        with warnings.catch_warnings():
            warnings.filterwarnings("error")
            warnings.filterwarnings("ignore", "target occupation", UserWarning)
            steps = two_step_schedule(replace(base, omega2=omega2, tau=tau))
            regime = validate_regime(steps)
            points = [two_step_schedule(replace(base, omega2=w, tau=t)) for w, t in zip(omega2.tolist(), tau.tolist())]
        fields = ("theta1", "theta2", "r", "epsilon", "theta_b", "gamma")
        for i, point in enumerate(points):
            at = lambda value: np.broadcast_to(value, tau.shape)[i]
            for (_, d, t), (_, d_i, t_i) in zip(steps, point):
                assert [at(getattr(d, f)) for f in fields] + [at(t)] == [getattr(d_i, f) for f in fields] + [t_i]
            for name, check in validate_regime(point).items():
                assert (at(regime[name]["value"]), at(regime[name]["passed"])) == (check["value"], check["passed"])
        assert regime["decay_budget"]["value"][-1] == math.inf
        assert steps[0][2][0] == 0.0 and steps[0][2][-1] == 0.0


def regime_at_default_target(p):
    # validate_regime over two pump-down steps of p at the default n_target = 0.1
    d = derive_rates(p)
    return validate_regime([(p, d, preparation_time(d.r, d.gamma).t_step if d.gamma > 0 else math.inf)] * 2)


def regime_failures(regime):
    return [name for name, check in regime.items() if not check["passed"]]


class TestValidateRegime:
    def test_clean_params_pass_all(self):
        regime = regime_at_default_target(clean_params())
        assert all(check["passed"] for check in regime.values())
        assert list(regime) == ["dispersive_ratio", "transit_phase", "beam_occupancy", "decay_budget"]

    def test_dispersive_failure(self):
        p = pump_params(1.0, 0.6, delta_mag=1.0, r_a=0.01, tau=0.1)
        assert "dispersive_ratio" in regime_failures(regime_at_default_target(p))

    def test_transit_failure(self):
        # theta_b*tau = 0.04 * 6 = 0.24 > 0.2, all else inside
        p = pump_params(1.0, 0.6, delta_mag=20.0, r_a=0.03, tau=6.0)
        d = derive_rates(p)
        assert d.theta_b * p.tau == pytest.approx(0.24, rel=1e-12)
        assert regime_failures(regime_at_default_target(p)) == ["transit_phase"]

    def test_occupancy_failure(self):
        p = pump_params(1.0, 0.6, delta_mag=20.0, r_a=0.5, tau=1.0)
        assert regime_failures(regime_at_default_target(p)) == ["beam_occupancy"]

    def test_decay_budget_zero_without_decay(self):
        budget = regime_at_default_target(clean_params())["decay_budget"]
        assert budget["value"] == 0.0
        assert budget["passed"]
        # also over a run that never ends
        p = clean_params()
        assert validate_regime([(p, derive_rates(p), math.inf)])["decay_budget"]["value"] == 0.0

    def test_decay_budget_value(self):
        gamma_e = 1e-6
        p = pump_params(1.0, 0.6, delta_mag=20.0, r_a=0.2, tau=1.0, gamma_e=gamma_e)
        d = derive_rates(p)
        budget = regime_at_default_target(p)["decay_budget"]
        # excited occupation (1/20)^2 times gamma_e, over both pump-down steps
        n_bar = d.r**2 / (1.0 - d.r**2)
        expected = (1.0 / 400.0) * gamma_e * 2.0 * math.log(n_bar / 0.1) / d.gamma
        assert budget["value"] == pytest.approx(expected, rel=1e-12)
        assert budget["passed"]

    def test_decay_budget_failure(self):
        p = pump_params(1.0, 0.6, delta_mag=20.0, r_a=0.2, tau=1.0, gamma_e=1e-2)
        assert not regime_at_default_target(p)["decay_budget"]["passed"]

    def test_decay_budget_infinite_when_not_pumping(self):
        p = pump_params(1.0, 0.6, delta_mag=20.0, r_a=0.0, tau=1.0, gamma_e=1e-6)
        budget = regime_at_default_target(p)["decay_budget"]
        assert budget["value"] == math.inf
        assert not budget["passed"]
        # whatever pumping time is given
        assert validate_regime([(p, derive_rates(p), 1.0)])["decay_budget"]["value"] == math.inf

    def test_decay_budget_at_the_run_pumping_time(self):
        # the bundled config with gamma_e = 50 Hz pumps for 0.558 s in all at
        # n_target = 0.001, against 0.284 s at the default target 0.1
        cfg = load_run_config(None)
        params = PhysicalParams.from_hz_dict(dict(cfg.params.to_hz_dict(), gamma_e_hz=50.0))
        spec = build_spec(replace(cfg, params=params, n_target=0.001))
        pump_time = sum(step.duration for step in spec.steps)
        assert pump_time == pytest.approx(0.558, abs=1e-3)
        # one step priced over the run's whole time reads its own rate; the
        # run reads each step's rate over that step's duration
        step = spec.steps[0]
        budget = validate_regime([(step.params, step.derived, pump_time)])["decay_budget"]
        assert budget["value"] == spontaneous_decay_estimate(step.params).rate * pump_time
        assert budget["value"] == pytest.approx(0.304, abs=1e-3)
        budget = validate_regime([(s.params, s.derived, s.duration) for s in spec.steps])["decay_budget"]
        assert budget["value"] == sum(spontaneous_decay_estimate(s.params).rate * s.duration for s in spec.steps)
        assert budget["value"] == pytest.approx(0.2925, abs=1e-4)
        with pytest.warns(UserWarning, match="decay_budget=0.292"):
            traj, _ = run_protocol(spec, samples_per_step=2)
        assert traj.diagnostics["regime_failures"] == ["decay_budget=0.292"]

    def test_decay_budget_of_the_run_fails_where_each_step_may_not(self):
        # bundled config at gamma_e = 34 Hz: step 1 alone over the run's
        # time reads 0.105, step 2 alone 0.0970, and the run 0.1012
        cfg = load_run_config(None)
        params = PhysicalParams.from_hz_dict(dict(cfg.params.to_hz_dict(), gamma_e_hz=34.0))
        spec = build_spec(replace(cfg, params=params))
        budget = validate_regime([(s.params, s.derived, s.duration) for s in spec.steps])["decay_budget"]
        assert budget["value"] == pytest.approx(0.1012, abs=1e-4)
        assert not budget["passed"]
        with pytest.warns(UserWarning, match="decay_budget=0.101"):
            traj, _ = run_protocol(spec, samples_per_step=2)
        assert traj.diagnostics["regime_failures"] == ["decay_budget=0.101"]

    def test_per_step_checks_read_the_worst_step_once(self):
        # a transit phase 0.24 fails on one step only, and a failing check
        # shared by both steps is named once
        inside, outside = clean_params(), pump_params(1.0, 0.6, delta_mag=20.0, r_a=0.03, tau=6.0)
        regime = validate_regime([(p, derive_rates(p), 1.0) for p in (inside, outside)])
        assert regime["transit_phase"]["value"] == derive_rates(outside).theta_b * outside.tau
        assert regime_failures(regime) == ["transit_phase"]
        spec = ProtocolSpec([ProtocolStep(outside, 1.0), ProtocolStep(outside, 1.0)], engine="gaussian")
        with pytest.warns(UserWarning, match="transit_phase=0.24"):
            traj, _ = run_protocol(spec, samples_per_step=2)
        assert traj.diagnostics["regime_failures"] == ["transit_phase=0.24"]

    def test_report_json(self):
        regime = regime_at_default_target(clean_params())
        assert regime["transit_phase"]["passed"] is True
        assert regime["transit_phase"]["limit"] == 0.2
        assert all(list(check) == ["value", "limit", "passed"] for check in regime.values())


class TestRunProtocolFock:
    def gamma(self):
        return derive_rates(clean_params()).gamma

    def test_pump_down_reaches_squeezed_target(self):
        # gamma*T = 9 per step leaves 6.9e-5 residual quanta per mode
        T = 9.0 / self.gamma()
        spec = build_two_step_protocol(clean_params(), engine="fock",
                                       truncation=(15, 15), durations=(T, T))
        traj, report = run_protocol(spec)
        assert report.fidelity > 0.999
        # duan bound for epsilon = ln 2 is exp(-2 ln 2) = 0.25
        assert report.duan_sum == pytest.approx(0.25, abs=5e-4)
        # bare occupation of the squeezed vacuum is sinh^2(ln 2) = 0.5625
        assert report.n1_mean == pytest.approx(0.5625, abs=5e-4)
        assert report.n2_mean == pytest.approx(0.5625, abs=5e-4)
        assert report.truncation_leak < 1e-5
        # the boundary population peaks mid-run; only the end state is bound
        assert report.truncation_leak < traj.diagnostics["max_truncation_leak"] < 1e-3
        assert np.all(np.diff(traj.times) > 0)
        assert traj.diagnostics["engine"] == "fock"
        assert traj.diagnostics["regime_failures"] == []

    def test_matches_lindblad_integrator(self):
        # single step from |1,1> against the generic master-equation solver
        p = clean_params()
        d = derive_rates(p)
        T = 0.45 / d.gamma
        space = SpaceDescriptor(1, 10, 10)
        rho0 = DensityMatrix.from_state_vector(space, basis_state(space, 0, 1, 1))
        spec = build_two_step_protocol(p, engine="fock", truncation=(10, 10),
                                       durations=(T, 0.0))
        _, report = run_protocol(spec, initial=rho0)
        jump = b_mode_annihilation(space, d.epsilon, 1)
        ode = lindblad_evolve(rho0, [(jump, d.gamma)], (0.0, T))
        spec_again = build_two_step_protocol(p, engine="fock", truncation=(10, 10),
                                             durations=(T, 0.0))
        traj, _ = run_protocol(spec_again, initial=rho0)
        assert np.max(np.abs(bare_state(traj.final_state, d.epsilon) - ode.final_state.matrix)) < 1e-8

    def test_zero_duration_returns_initial(self):
        spec = build_two_step_protocol(clean_params(), engine="fock",
                                       truncation=(10, 10), durations=(0.0, 0.0))
        traj, report = run_protocol(spec)
        assert traj.times.tolist() == [0.0]
        vacuum = vacuum_density(10, 10).matrix
        assert np.max(np.abs(bare_state(traj.final_state, spec.epsilon) - vacuum)) < 1e-12
        # the report reads the frame moments through the Bogoliubov map, as
        # the records do: 9.7e-4 photons at ten levels, where the map is
        # exact only on the untruncated space
        assert report.n1_mean == traj.records["n_a1"][0]
        # vacuum against the squeezed target S+|0,0>: 1/cosh^2(ln 2) = 0.64,
        # up to the truncation of S (2.6e-9 at ten levels)
        assert report.fidelity == pytest.approx(0.64, abs=5e-5)

    @pytest.mark.parametrize("engine", ["fock", "collision"])
    def test_zero_duration_vacuum_has_no_boundary_population(self, engine):
        spec = build_two_step_protocol(clean_params(), engine=engine,
                                       truncation=(10, 10), durations=(0.0, 0.0))
        traj, report = run_protocol(spec)
        assert report.truncation_leak == 0.0
        assert traj.diagnostics["max_truncation_leak"] == 0.0

    def test_squeezed_vacuum_is_fixed_point(self):
        space = SpaceDescriptor(1, 14, 14)
        target = tmsv_state_vector(space, math.log(2.0))
        rho0 = DensityMatrix.from_state_vector(space, target)
        T = 4.0 / self.gamma()
        spec = build_two_step_protocol(clean_params(), engine="fock",
                                       truncation=(14, 14), durations=(T, T))
        _, report = run_protocol(spec, initial=rho0)
        assert report.fidelity > 0.9999
        assert report.duan_sum == pytest.approx(0.25, abs=1e-4)

    def test_final_state_independent_of_initial(self):
        T = 12.0 / self.gamma()
        spec = build_two_step_protocol(clean_params(), engine="fock",
                                       truncation=(12, 12), durations=(T, T))
        space = SpaceDescriptor(1, 12, 12)
        excited = DensityMatrix.from_state_vector(space, basis_state(space, 0, 1, 1))
        _, rep_vac = run_protocol(spec)
        _, rep_exc = run_protocol(spec, initial=excited)
        assert abs(rep_vac.duan_sum - rep_exc.duan_sum) < 1e-3
        assert abs(rep_vac.fidelity - rep_exc.fidelity) < 1e-3

    def test_step_order_is_irrelevant(self):
        # the two pump maps act on different transformed modes and commute
        T = 6.0 / self.gamma()
        spec = build_two_step_protocol(clean_params(), engine="fock",
                                       truncation=(12, 12), durations=(T, T))
        reversed_spec = ProtocolSpec(steps=(spec.steps[1], spec.steps[0]),
                                     engine="fock", truncation=(12, 12))
        _, fwd = run_protocol(spec)
        _, rev = run_protocol(reversed_spec)
        assert fwd.duan_sum == pytest.approx(rev.duan_sum, abs=1e-12)
        assert fwd.fidelity == pytest.approx(rev.fidelity, abs=1e-12)

    def test_warns_outside_regime(self):
        spec = build_two_step_protocol(pump_params(1.0, 0.6), engine="fock",
                                       truncation=(10, 10), durations=(0.0, 0.0))
        with pytest.warns(UserWarning, match="outside validity regime"):
            traj, _ = run_protocol(spec)
        assert any("dispersive_ratio" in f for f in traj.diagnostics["regime_failures"])

    def test_rejects_gaussian_initial(self):
        spec = build_two_step_protocol(clean_params(), engine="fock",
                                       truncation=(10, 10), durations=(0.0, 0.0))
        with pytest.raises(ValueError, match="DensityMatrix"):
            run_protocol(spec, initial=gaussian_vacuum())

    def test_rejects_wrong_truncation_initial(self):
        spec = build_two_step_protocol(clean_params(), engine="fock",
                                       truncation=(10, 10), durations=(0.0, 0.0))
        with pytest.raises(ValueError, match="truncation"):
            run_protocol(spec, initial=vacuum_density(8, 8))


class TestRunProtocolGaussianEngine:
    def test_strong_squeezing_target(self):
        # r = 0.95: ideal duan is (1-r)/(1+r) = 1/39, occupation 361/39
        p = pump_params(1.0, 0.95, delta_mag=20.0, r_a=0.2, tau=1.0)
        d = derive_rates(p)
        T = 9.2 / d.gamma
        spec = build_two_step_protocol(p, engine="gaussian", durations=(T, T))
        traj, report = run_protocol(spec)
        assert report.duan_sum == pytest.approx(1.0 / 39.0, rel=0.03)
        assert report.n1_mean == pytest.approx(361.0 / 39.0, rel=0.02)
        assert report.n2_mean == pytest.approx(361.0 / 39.0, rel=0.02)
        assert report.fidelity > 0.99
        assert report.truncation_leak == 0.0
        assert isinstance(traj.final_state, GaussianState)
        assert traj.diagnostics["engine"] == "gaussian"

    def test_rejects_density_matrix_initial(self):
        spec = build_two_step_protocol(clean_params(), engine="gaussian",
                                       durations=(0.0, 0.0))
        with pytest.raises(ValueError, match="GaussianState"):
            run_protocol(spec, initial=vacuum_density(10, 10))

    def test_gaussian_initial_accepted(self):
        spec = build_two_step_protocol(clean_params(), engine="gaussian",
                                       durations=(0.0, 0.0))
        traj, report = run_protocol(spec, initial=gaussian_vacuum())
        assert report.fidelity == pytest.approx(0.64, abs=1e-12)
        assert report.n1_mean == pytest.approx(0.0, abs=1e-12)


class TestRunProtocolCollision:
    def params(self):
        # theta_b*tau = 0.134, r_a*tau = 0.18, gamma = 0.0215
        return pump_params(1.0, 0.45, delta_mag=1.0, r_a=1.2, tau=0.15)

    def spec(self, seed):
        p = self.params()
        d = derive_rates(p)
        T = 2.0 / d.gamma
        return build_two_step_protocol(p, engine="collision", seed=seed,
                                       truncation=(8, 8), durations=(T, T))

    def run(self, seed=5, samples=11):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return run_protocol(self.spec(seed), samples_per_step=samples)

    def test_pumps_both_transformed_modes(self):
        traj, report = self.run()
        n_b1, n_b2 = traj.records["n_b1"], traj.records["n_b2"]
        mid = traj.times.size // 2
        # step one drains mode 1 while mode 2 stays put, then step two drains mode 2
        assert n_b1[mid] < 0.4 * n_b1[0]
        assert abs(n_b2[mid] - n_b2[0]) < 1e-9
        assert n_b2[-1] < 0.4 * n_b2[0]
        assert traj.diagnostics["engine"] == "collision"
        assert traj.diagnostics["dropped_arrivals"] >= 0

    def test_arrival_counts_cover_every_draw(self):
        # step i draws from ArrivalProcess(rate, seed + i); each draw is
        # either accepted or dropped
        spec = self.spec(seed=5)
        draws = sum(
            ArrivalProcess(rate=step.params.r_a, seed=spec.seed + i).sample(step.duration).size
            for i, step in enumerate(spec.steps)
        )
        traj, _ = self.run(seed=5)
        assert draws > 0
        assert traj.diagnostics["accepted_arrivals"] + traj.diagnostics["dropped_arrivals"] == draws

    def test_deterministic_per_seed(self):
        _, rep_a = self.run(seed=5)
        _, rep_b = self.run(seed=5)
        _, rep_c = self.run(seed=6)
        assert rep_a.duan_sum == rep_b.duan_sum
        assert rep_a.duan_sum != rep_c.duan_sum

    def test_sample_grid_shape(self):
        traj, _ = self.run(samples=11)
        # two 11-point grids sharing the boundary sample
        assert traj.times.size == 21
        assert np.all(np.diff(traj.times) > 0)

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_one_step_run_is_the_collision_model(self, seed):
        # theta_b*tau = 0.023, r_a*tau = 0.1: run_protocol's collision branch
        # and run_collision_model build one step the same way and run it alike
        base = derive_rates(pump_params(1.0, 0.45, delta_mag=20.0))
        tau = 0.023 / base.theta_b
        p = pump_params(1.0, 0.45, delta_mag=20.0, r_a=0.1 / tau, tau=tau)
        duration = 1.5 / derive_rates(p).gamma
        spec = ProtocolSpec([ProtocolStep(p, duration)], engine="collision", seed=seed, truncation=(8, 8))
        traj, _ = run_protocol(spec, samples_per_step=11)
        single = run_collision_model(vacuum_density(8, 8), p, duration, ArrivalProcess(p.r_a, seed),
                                     sample_times=np.linspace(0.0, duration, 11))
        assert np.array_equal(traj.times, single.times)
        assert list(traj.records) == list(single.records)
        for key, series in single.records.items():
            assert np.array_equal(traj.records[key], series), key
        assert single.diagnostics["accepted_arrivals"] > 0
        for key in ("accepted_arrivals", "dropped_arrivals", "max_truncation_leak"):
            assert traj.diagnostics[key] == single.diagnostics[key], key

    def test_large_transit_phase_warns_once(self):
        # theta_b*tau = 0.3 on the collision engine: one regime warning for
        # the run, no second warning per step from the collision kicks
        p = pump_params(1.0, 0.6, delta_mag=20.0, r_a=0.02, tau=7.5)
        spec = build_two_step_protocol(p, engine="collision", truncation=(10, 10), durations=(50.0, 50.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_protocol(spec, samples_per_step=3)
        assert [str(w.message) for w in caught if issubclass(w.category, UserWarning)] == [
            "outside validity regime: transit_phase=0.3"
        ]


class TestCrossEngine:
    def test_fock_tracks_gaussian(self):
        p = clean_params()
        d = derive_rates(p)
        T = 3.0 / d.gamma
        kwargs = dict(truncation=(18, 18), durations=(T, T))
        fock_spec = build_two_step_protocol(p, engine="fock", **kwargs)
        gauss_spec = build_two_step_protocol(p, engine="gaussian", **kwargs)
        traj_f, _ = run_protocol(fock_spec)
        traj_g, _ = run_protocol(gauss_spec)
        np.testing.assert_allclose(traj_f.times, traj_g.times, rtol=0, atol=1e-9)
        for key in traj_f.records:
            np.testing.assert_allclose(
                traj_f.records[key], traj_g.records[key], rtol=0, atol=1e-3,
                err_msg=key,
            )

    def test_fock_pair_start_tracks_exact_moments(self):
        # |1,1> has mean 0 and cov 3/4 I; the pumping generator is
        # quadratic, so the first and second moments of any state evolve as
        # the gaussian engine's do, and the records read only them: the
        # gaussian run from those moments is the exact record trajectory.
        # At 15 levels the step-boundary sample has 2.3e-2 on the boundary
        p = clean_params()
        T = 9.0 / derive_rates(p).gamma
        kwargs = dict(truncation=(15, 15), durations=(T, T))
        space = SpaceDescriptor(1, 15, 15)
        pair = DensityMatrix.from_state_vector(space, basis_state(space, 0, 1, 1))
        traj_f, _ = run_protocol(build_two_step_protocol(p, engine="fock", **kwargs), initial=pair)
        traj_g, _ = run_protocol(
            build_two_step_protocol(p, engine="gaussian", **kwargs),
            initial=GaussianState(mean=np.zeros(4), cov=0.75 * np.eye(4)),
        )
        assert traj_f.diagnostics["max_truncation_leak"] > 1e-2
        np.testing.assert_array_equal(traj_f.times, traj_g.times)
        for key in traj_f.records:
            np.testing.assert_allclose(
                traj_f.records[key], traj_g.records[key], rtol=0, atol=1e-2, err_msg=key
            )

    @pytest.mark.parametrize("engine", ["fock", "gaussian"])
    def test_one_sample_per_step_pumps_the_whole_step(self, engine):
        # with one sample per step the state is still carried over each
        # step's full duration, so the final report is the 51-sample one
        spec = build_two_step_protocol(clean_params(), engine=engine, truncation=(12, 12))
        traj_1, rep_1 = run_protocol(spec, samples_per_step=1)
        _, rep_51 = run_protocol(spec, samples_per_step=51)
        assert traj_1.times.size == 1
        assert rep_1.duan_sum < 0.5
        for key, value in rep_51.to_json().items():
            assert rep_1.to_json()[key] == pytest.approx(value, rel=1e-9, abs=1e-12), key
        # the report is read off the end state, not off the one (t = 0) row
        assert rep_1.n1_mean - traj_1.records["n_a1"][0] > 0.4


class TestRunProtocolInputs:
    @pytest.mark.parametrize("engine", ["fock", "gaussian", "collision"])
    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_samples_per_step_below_one(self, engine, samples):
        spec = build_two_step_protocol(clean_params(), engine=engine, truncation=(10, 10))
        with pytest.raises(ValueError, match="samples_per_step"):
            run_protocol(spec, samples_per_step=samples)

    @pytest.mark.parametrize("engine", ["fock", "collision"])
    def test_no_dense_expm_on_the_engine_path(self, engine, monkeypatch):
        # every n1 - n2 sector of the squeeze unitary comes from one eigh of
        # a tridiagonal matrix, so no engine path calls expm at all
        dims = []
        expm = scipy.linalg.expm

        def recording(a, *args, **kwargs):
            dims.append(np.shape(a))
            return expm(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "expm", recording)
        T = 1.0 / derive_rates(clean_params()).gamma
        spec = build_two_step_protocol(clean_params(), engine=engine, truncation=(12, 12),
                                       durations=(T, T))
        run_protocol(spec, samples_per_step=3)
        assert dims == []

    @pytest.mark.parametrize("engine", ["fock", "collision"])
    def test_no_density_matrix_on_the_engine_path(self, engine, monkeypatch):
        # the run reads its report in the squeezed frame and returns rho_b,
        # so a given initial state is the only DensityMatrix it sees
        built = []
        validate = DensityMatrix.__post_init__

        def counting(self):
            built.append(self.space)
            validate(self)

        initial = vacuum_density(12, 12)
        monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
        T = 1.0 / derive_rates(clean_params()).gamma
        spec = build_two_step_protocol(clean_params(), engine=engine, truncation=(12, 12),
                                       durations=(T, T))
        run_protocol(spec, initial=initial, samples_per_step=3)
        assert built == []

    @pytest.mark.parametrize("engine", ["fock", "collision"])
    def test_default_vacuum_builds_no_dense_state(self, engine, monkeypatch):
        # with no initial state the vacuum enters the frame as the sector-0
        # column S|0,0>: no DensityMatrix and no dense squeeze operator
        built = []
        validate = DensityMatrix.__post_init__

        def counting(self):
            built.append(self.space)
            validate(self)

        def refuse(*args, **kwargs):
            raise AssertionError("dense squeeze operator built on the engine path")

        monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
        for module in (cavsqueeze, cavsqueeze.model, cavsqueeze.dynamics, cavsqueeze.protocol):
            if hasattr(module, "build_squeeze_operator"):
                monkeypatch.setattr(module, "build_squeeze_operator", refuse)
        T = 1.0 / derive_rates(clean_params()).gamma
        spec = build_two_step_protocol(clean_params(), engine=engine, truncation=(12, 12),
                                       durations=(T, T))
        run_protocol(spec, samples_per_step=3)
        assert built == []

    @pytest.mark.parametrize("engine", ["fock", "collision"])
    @pytest.mark.parametrize("shape", [(12, 12), (9, 13)])
    def test_default_vacuum_matches_explicit_vacuum(self, engine, shape):
        T = 1.0 / derive_rates(clean_params()).gamma
        spec = build_two_step_protocol(clean_params(), engine=engine, truncation=shape, durations=(T, T))
        got, got_report = run_protocol(spec, samples_per_step=5)
        want, want_report = run_protocol(spec, initial=vacuum_density(*shape), samples_per_step=5)
        for key, series in want.records.items():
            assert np.max(np.abs(got.records[key] - series)) <= 1e-14, key
        for key, value in want_report.to_json().items():
            assert got_report.to_json()[key] == pytest.approx(value, rel=0, abs=1e-14), key


def test_underflow_raising_caller_gets_the_default_digits():
    # gamma * duration = 200 per step takes the far damping weights below the
    # smallest float; a caller that raises on underflow still gets the run
    gamma = derive_rates(clean_params()).gamma
    spec = build_two_step_protocol(clean_params(), truncation=(9, 9), durations=(200.0 / gamma, 200.0 / gamma))
    want, want_report = run_protocol(spec)
    with np.errstate(under="raise"):
        got, report = run_protocol(spec)
    for key, series in want.records.items():
        assert np.array_equal(got.records[key], series), key
    assert np.array_equal(got.final_state.blocks, want.final_state.blocks)
    assert report == want_report


def test_paper_regime_on_fock_holds_no_dense_array():
    # the bundled config (r = 0.96, 11.755 frame photons per mode) at 85
    # levels: one dense N^2 x N^2 complex array would be 835 MB
    cfg = load_run_config(None)
    spec = build_spec(replace(cfg, engine="fock", truncation=(85, 85)))
    tracemalloc.start()
    try:
        _, report = run_protocol(spec, samples_per_step=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 150e6, peak
    _, want = run_protocol(build_spec(replace(cfg, engine="gaussian")), samples_per_step=3)
    assert report.duan_sum == pytest.approx(want.duan_sum, rel=0, abs=1e-4)
    assert report.fidelity == pytest.approx(want.fidelity, rel=0, abs=1e-4)


def test_package_runs_without_importing_scipy():
    # scipy is a test oracle only: the package, its CLI and a short run on
    # every engine must leave it unimported, in a fresh interpreter
    code = textwrap.dedent(
        f"""
        import sys
        import cavsqueeze, cavsqueeze.cli
        from cavsqueeze.model import PhysicalParams
        from cavsqueeze.protocol import build_two_step_protocol, run_protocol

        for engine in ("fock", "gaussian", "collision"):
            spec = build_two_step_protocol({clean_params()!r}, engine=engine,
                                           truncation=(8, 8), durations=(10.0, 10.0))
            run_protocol(spec, samples_per_step=3)
        print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
        """
    )
    src = os.path.dirname(os.path.dirname(cavsqueeze.__file__))
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_engine_runs_without_importing_numpy_ma():
    # np.unique imports numpy.ma for its masked-array check, 15 ms of a
    # fresh process; the charges and the ensemble's atom counts are found
    # with np.bincount instead, so fock, collision and the ensemble leave it
    # unimported, from the vacuum and from a given density matrix alike
    code = textwrap.dedent(
        f"""
        import sys
        from cavsqueeze.dynamics import run_collision_ensemble
        from cavsqueeze.hilbert import DensityMatrix, SpaceDescriptor, basis_state
        from cavsqueeze.model import PhysicalParams
        from cavsqueeze.protocol import build_two_step_protocol, run_protocol

        space = SpaceDescriptor(1, 8, 8)
        vacuum = DensityMatrix.from_state_vector(space, basis_state(space, 0, 0, 0))
        for engine in ("fock", "collision"):
            spec = build_two_step_protocol({clean_params()!r}, engine=engine,
                                           truncation=(8, 8), durations=(10.0, 10.0))
            run_protocol(spec, samples_per_step=3)
            run_protocol(spec, initial=vacuum, samples_per_step=3)
        run_collision_ensemble(vacuum, spec.steps[0].params, 10.0, 4, 8)
        print("numpy.ma" in sys.modules)
        """
    )
    src = os.path.dirname(os.path.dirname(cavsqueeze.__file__))
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def many_charge_states(shape):
    # a displaced vacuum and a random mixed state on n1, n2 < min(shape):
    # both occupy every charge (n1 - n2) - (m1 - m2) of that square
    s = SpaceDescriptor(1, *shape)
    psi = build_displacement_operator(s, 0.8 + 0.3j, -0.5j).matrix @ basis_state(s, 0, 0, 0)
    yield np.outer(psi, psi.conj()).reshape(shape * 2)
    yield random_low_fock_state(s, min(shape), 3, seed=1).reshape(shape * 2)


class TestDampingPass:
    @pytest.mark.parametrize("shape", [(12, 12), (9, 13)])
    @pytest.mark.parametrize("mode", [1, 2])
    def test_blocks_match_dense_map(self, shape, mode):
        for rho4 in many_charge_states(shape):
            rho = split_charges(rho4)
            assert rho.charges.size >= 4 * min(shape) - 3
            for eta in (0.97, 0.4):
                out = rho.damped(mode, eta)
                assert np.array_equal(out.charges, rho.charges)
                diff = np.max(np.abs(out.dense() - dense_damping_pass(rho4, eta, mode)))
                assert diff <= 1e-12, (eta, diff)

    def test_cached_kernel_follows_eta_mode_and_charges(self):
        # the eta-free part of the kernel is cached per axis length and
        # shifts: passes that change eta, the mode and the charge set in
        # turn must each use their own kernel
        shape = (9, 13)
        states = [(split_charges(rho4), rho4) for rho4 in many_charge_states(shape)]
        vacuum = vacuum_density(*shape).matrix.reshape(shape * 2)
        states.append((split_charges(vacuum), vacuum))
        assert len({rho.charges.size for rho, _ in states}) == len(states)
        schedule = [(0.9, 1), (0.5, 2), (0.2, 1), (0.9, 2), (0.5, 1), (0.2, 2)]
        for i, (eta, mode) in enumerate(schedule):
            for j, (rho, rho4) in enumerate(states):
                rho, rho4 = rho.damped(mode, eta), dense_damping_pass(rho4, eta, mode)
                diff = np.max(np.abs(rho.dense() - rho4))
                assert diff <= 1e-12, (i, j, diff)
                states[j] = (rho, rho4)

    def test_one_kernel_per_step(self, monkeypatch):
        # a step reads its samples in closed form and damps its state once, to
        # the step's end: one kernel and one product per step (the kernel is
        # local to ChargeBlocks.damped, so step 1's is gone before step 2's)
        damped = count_damping_products(monkeypatch)
        spec = build_two_step_protocol(clean_params(), truncation=(8, 8), durations=(10.0, 10.0))
        run_protocol(spec, samples_per_step=51)
        assert damped == [1, 2]

    @pytest.mark.parametrize("shape", [(12, 12), (9, 13)])
    def test_clock_spacing_matches_per_interval_reference(self, shape):
        # the clock's spacing in place of each np.diff interval moves the records by rounding only
        p = clean_params()
        gamma = derive_rates(p).gamma
        spec = build_two_step_protocol(p, truncation=shape, durations=(6.0 / gamma, 5.0 / gamma))
        space = SpaceDescriptor(1, *shape)
        for rho4 in many_charge_states(shape):
            initial = DensityMatrix(space, rho4.reshape(space.dim, space.dim))
            traj, _ = run_protocol(spec, initial=initial, samples_per_step=5)
            steps = []
            for step in spec.steps:
                times = np.linspace(0.0, step.duration, 5)
                mode, rate = (1 if step.channel == "b1" else 2), step.derived.gamma
                damp = lambda rho, dt, m=mode, g=rate: rho.damped(m, math.exp(-g * dt))
                steps.append(stepwise(times, np.diff(np.concatenate(([0.0], times, [step.duration]))), damp))
            times, want, *_ = run_steps(squeezed_frame(initial, spec.epsilon)[0], steps)
            assert np.array_equal(traj.times, times)
            for key, series in want.items():
                assert np.max(np.abs(traj.records[key] - series)) <= 1e-13, key


def count_damping_products(monkeypatch):
    """The modes of the damping products a run makes, in order; ChargeBlocks.damped makes none at eta = 1."""
    modes, damped = [], ChargeBlocks.damped

    def counting(rho, mode, eta):
        out = damped(rho, mode, eta)
        if out is not rho:
            modes.append(mode)
        return out

    monkeypatch.setattr(ChargeBlocks, "damped", counting)
    return modes


def per_interval_step(step, times, rho, read):
    """(readings, end state) of a fock step by one ChargeBlocks.damped per clock interval, read after each."""
    mode, rate = (1 if step.channel == "b1" else 2), step.derived.gamma
    rows = []
    for dt in np.diff(np.concatenate(([0.0], times, [step.duration]))):
        if dt:
            rho = rho.damped(mode, math.exp(-rate * dt))
        if len(rows) < times.size:
            rows.append(read(rho))
    return rows, rho


def assert_rows_match(got, want, tol):
    assert len(got) == len(want)
    for (got_bands, got_leak), (want_bands, want_leak) in zip(got, want):
        assert np.max(np.abs(got_bands - want_bands)) <= tol
        assert abs(got_leak - want_leak) <= tol


class TestClosedFormStep:
    """A fock step reads every sample in closed form from the state it
    starts in; the per-interval reference damps by ChargeBlocks.damped and reads the
    state sample by sample."""

    def entries(self):
        for shape in ((9, 13), (13, 9)):
            space = SpaceDescriptor(1, *shape)
            for rho4 in many_charge_states(shape):
                yield space, DensityMatrix(space, rho4.reshape(space.dim, space.dim))
        yield SpaceDescriptor(1, 25, 25), SpaceDescriptor(1, 25, 25)

    def test_readings_match_per_interval_reference(self):
        p = clean_params()
        gamma = derive_rates(p).gamma
        for space, entry in self.entries():
            spec = build_two_step_protocol(p, truncation=space.shape[1:], durations=(6.0 / gamma, 5.0 / gamma))
            (rho, read, _, _), pump = squeezed_frame(entry, spec.epsilon)
            want_rho = rho
            # both mode orderings: step 1 damps mode 1, step 2 mode 2
            for step in spec.steps:
                times = np.linspace(0.0, step.duration, 7)
                got, rho = pump(step.derived, step.duration, times)[1](rho, read)
                want, want_rho = per_interval_step(step, times, want_rho, read)
                assert_rows_match(got, want, 1e-13)
                assert np.array_equal(rho.charges, want_rho.charges)
                assert np.max(np.abs(rho.blocks - want_rho.blocks)) <= 1e-13

    def test_zero_duration_step_reads_once_and_damps_nothing(self, monkeypatch):
        damped = count_damping_products(monkeypatch)
        p = clean_params()
        spec = build_two_step_protocol(p, truncation=(9, 13), durations=(0.0, 1.0 / derive_rates(p).gamma))
        (rho, read, _, _), pump = squeezed_frame(next(self.entries())[1], spec.epsilon)
        times = np.zeros(1)
        rows, end = pump(spec.steps[0].derived, spec.steps[0].duration, times)[1](rho, read)
        assert end is rho
        assert_rows_match(rows, [read(rho)], 0.0)
        traj, _ = run_protocol(spec, samples_per_step=5)
        assert damped == [2]
        assert traj.times.size == 5

    @pytest.mark.parametrize("r_a", [0.2, 0.0])
    def test_one_sample_per_step_and_a_step_that_does_not_pump(self, monkeypatch, r_a):
        # one sample, at t = 0, and the product to the step's end; at r_a = 0
        # gamma is 0, the transmissivity 1 and no product is made
        # the reference damps through the unpatched method, so that only the run's products are counted
        damp, gamma = ChargeBlocks.damped, derive_rates(clean_params()).gamma
        damped = count_damping_products(monkeypatch)
        p = replace(clean_params(), r_a=r_a)
        assert (derive_rates(p).gamma == 0.0) == (r_a == 0.0)
        space = SpaceDescriptor(1, 13, 9)
        initial = DensityMatrix(space, next(many_charge_states((13, 9))).reshape(space.dim, space.dim))
        for samples in (1, 4):
            spec = build_two_step_protocol(p, truncation=(13, 9), durations=(2.0 / gamma, 1.5 / gamma))
            traj, report = run_protocol(spec, initial=initial, samples_per_step=samples)
            steps = []
            for step in spec.steps:
                times = np.linspace(0.0, step.duration, samples)
                mode = 1 if step.channel == "b1" else 2
                damp_dt = lambda rho, dt, m=mode, g=step.derived.gamma: damp(rho, m, math.exp(-g * dt))
                steps.append(stepwise(times, np.diff(np.concatenate(([0.0], times, [step.duration]))), damp_dt))
            times, want, want_state, want_report, _ = run_steps(squeezed_frame(initial, spec.epsilon)[0], steps)
            assert np.array_equal(traj.times, times)
            for key, series in want.items():
                assert np.max(np.abs(traj.records[key] - series)) <= 1e-13, key
            assert np.max(np.abs(traj.final_state.blocks - want_state.blocks)) <= 1e-13
            assert report.fidelity == pytest.approx(want_report.fidelity, rel=0, abs=1e-13)
        assert damped == ([1, 2, 1, 2] if r_a else [])
