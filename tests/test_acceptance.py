"""End-to-end acceptance checks.

One test per headline requirement, in a fixed order; each records a
one-line verdict that conftest prints as the acceptance summary.  Bounds
are the stated contract tolerances, not remeasured slack.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.linalg

from cavsqueeze.analysis import (
    epr_variances_fock,
    tmsv_state_vector,
    truncation_leak,
)
from cavsqueeze.cli import load_run_config, main
from cavsqueeze.dynamics import propagate_state, run_collision_ensemble
from cavsqueeze.gaussian import gaussian_epr_variances, gaussian_tmsv
from cavsqueeze.hilbert import (
    DensityMatrix,
    SpaceDescriptor,
    annihilation_op,
    basis_state,
)
from cavsqueeze.model import (
    PhysicalParams,
    b_mode_annihilation,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    build_squeeze_operator,
    derive_rates,
    spontaneous_decay_estimate,
)
from cavsqueeze.protocol import build_two_step_protocol, run_protocol


def pump_params(r, theta_b_tau=0.1, beam_occupancy=0.1):
    # theta_1 = 1 and theta_2 = r by construction; couplings sit at 1/20 of
    # the detunings so the parameter set is inside the dispersive regime,
    # and the transit time and arrival rate follow from the two knobs
    p = PhysicalParams(omega1=20.0, omega2=math.sqrt(400.0 * r),
                       g1=20.0, g2=math.sqrt(400.0 * r),
                       delta1=-400.0, delta2=400.0)
    tau = theta_b_tau / derive_rates(p).theta_b
    return dataclasses.replace(p, r_a=beam_occupancy / tau, tau=tau)


def test_reference_config_raman_rate(record_property):
    cfg = load_run_config(None)
    value = derive_rates(cfg.params).theta1 / math.tau
    record_property("detail", f"theta1 = {value:.10f} Hz, want 2000.0")
    assert value == pytest.approx(2000.0, rel=1e-12)


def test_bogoliubov_identity_across_low_fock_block(record_property):
    # the identity holds only on Fock states whose squeezed image stays
    # inside the truncation; the residual tracks about twice the leak of the
    # squeezed block columns, so the truncation must hold them to 1e-8
    eps = 0.5
    n = 55
    s = SpaceDescriptor(1, n, n)
    sq = build_squeeze_operator(s, eps).matrix
    block = [s.index(0, n1, n2) for n1 in range(13) for n2 in range(13)]
    cols = sq[:, block]
    leak = max(truncation_leak(cols[:, i], s) for i in range(len(block)))
    assert leak <= 1e-8
    # a_j on the block, whose states n1, n2 <= 12 are the 13 x 13 grid in the same order
    low = SpaceDescriptor(1, 13, 13)
    on_block = {j: annihilation_op(low, j).matrix for j in (1, 2)}
    worst = 0.0
    for j, k in ((1, 2), (2, 1)):
        # a_j cols as the ladder shift: row n_j of it is sqrt(n_j + 1) times row n_j + 1 of cols,
        # the bits of the dense product, whose other terms are exact zeros
        grid = np.moveaxis(cols.reshape(n, n, -1), j - 1, 0)
        lowered = np.zeros_like(grid)
        lowered[:-1] = np.sqrt(np.arange(1, n))[:, None, None] * grid[1:]
        conj = cols.conj().T @ np.moveaxis(lowered, 0, j - 1).reshape(cols.shape)
        target = math.cosh(eps) * on_block[j] - math.sinh(eps) * on_block[k].conj().T
        worst = max(worst, float(np.max(np.abs(conj - target))))
    record_property(
        "detail",
        f"max residual {worst:.3e} on n1,n2 <= 12 at N = {n} "
        f"(block leak {leak:.1e}), bound 1e-6",
    )
    assert worst < 1e-6


def test_squeezed_vacuum_closed_form(record_property):
    s = SpaceDescriptor(1, 25, 25)
    vac = basis_state(s, 0, 0, 0)
    worst = 1.0
    for eps in (0.2, 0.5, math.atanh(0.6)):
        built = build_squeeze_operator(s, eps).dagger().matrix @ vac
        overlap = abs(np.vdot(tmsv_state_vector(s, eps), built)) ** 2
        worst = min(worst, overlap)
    record_property("detail", f"worst overlap {worst:.12f}, bound 1 - 1e-6")
    assert worst >= 1.0 - 1e-6


def test_squeezed_joint_variance_both_engines(record_property):
    eps = math.atanh(0.6)
    s = SpaceDescriptor(1, 20, 20)
    fock_gap = abs(epr_variances_fock(tmsv_state_vector(s, eps), s)["v_x_minus"] - 0.125)
    gauss_gap = abs(gaussian_epr_variances(gaussian_tmsv(eps))["v_x_minus"] - 0.125)
    record_property(
        "detail",
        f"|v - 0.125|: fock {fock_gap:.2e} (bound 1e-4), "
        f"gaussian {gauss_gap:.2e} (bound 1e-10)",
    )
    assert fock_gap < 1e-4
    assert gauss_gap < 1e-10


def test_three_level_model_matches_dispersive_model(record_property):
    # ratios 0.05 on both channels; at t = pi/(2 theta_b) both detunings
    # have closed an integer number of cycles, so no micromotion offset
    p = PhysicalParams(omega1=0.15, omega2=0.25, g1=0.15, g2=0.25,
                       delta1=-3.0, delta2=5.0)
    t_end = math.pi / (2.0 * derive_rates(p).theta_b)
    s = SpaceDescriptor(3, 5, 5)
    psi0 = basis_state(s, s.atom_index("h"), 0, 0)
    psi_full = propagate_state(
        lambda t: build_full_hamiltonian(p, s, t).matrix,
        psi0, (0.0, t_end), dt=0.01,
    )
    h_eff = build_effective_hamiltonian(p, s).matrix
    psi_eff = scipy.linalg.expm(-1j * t_end * h_eff) @ psi0
    overlap = abs(np.vdot(psi_eff, psi_full)) ** 2
    assert truncation_leak(psi_full, s) < 1e-3
    record_property("detail", f"overlap {overlap:.6f} at t = pi/(2 theta_b), bound 0.99")
    assert overlap >= 0.99


def test_collision_ensemble_decay_rate(record_property):
    p = pump_params(0.4)
    d = derive_rates(p)
    s = SpaceDescriptor(1, 12, 12)
    # start with one quantum in the pumped transformed mode: its occupation
    # then decays as a clean single exponential under the coarse-grained map
    vac = build_squeeze_operator(s, d.epsilon).dagger().matrix @ basis_state(s, 0, 0, 0)
    raised = b_mode_annihilation(s, d.epsilon, 1).dagger().matrix @ vac
    rho0 = DensityMatrix.from_state_vector(s, raised / np.linalg.norm(raised))
    duration = 1.5 / d.gamma
    times = np.linspace(0.0, duration, 16)
    ens = run_collision_ensemble(rho0, p, duration, 200, 11, sample_times=times)
    slope = np.polyfit(times, np.log(ens.records["n_b1"]), 1)[0]
    ratio = -slope / d.gamma
    record_property("detail", f"fitted/analytic rate {ratio:.4f}, bound 1 +- 0.10")
    assert abs(ratio - 1.0) < 0.10


def test_pump_fidelity_and_initial_state_independence(record_property):
    p = pump_params(0.6)
    gamma = derive_rates(p).gamma
    T = 9.0 / gamma
    spec = build_two_step_protocol(p, engine="fock", truncation=(15, 15),
                                   durations=(T, T))
    space = SpaceDescriptor(1, 15, 15)
    excited = DensityMatrix.from_state_vector(space, basis_state(space, 0, 1, 1))
    _, rep_vac = run_protocol(spec)
    _, rep_exc = run_protocol(spec, initial=excited)
    gap = abs(rep_vac.fidelity - rep_exc.fidelity)
    record_property(
        "detail",
        f"fidelity {rep_vac.fidelity:.5f} (vacuum) / {rep_exc.fidelity:.5f} "
        f"(one photon each), gap {gap:.2e}",
    )
    assert rep_vac.fidelity >= 0.99
    assert rep_exc.fidelity >= 0.99
    assert gap < 1e-3


def test_high_squeezing_occupation_and_variance(record_property):
    p = pump_params(0.95)
    gamma = derive_rates(p).gamma
    T = 9.2 / gamma
    spec = build_two_step_protocol(p, engine="gaussian", durations=(T, T))
    _, rep = run_protocol(spec)
    n_gap = max(abs(rep.n1_mean / 9.2564 - 1.0), abs(rep.n2_mean / 9.2564 - 1.0))
    v_target = 0.5 * math.exp(-2.0 * 1.832)
    v_gap = abs(rep.v_squeezed / v_target - 1.0)
    record_property(
        "detail",
        f"photons ({rep.n1_mean:.4f}, {rep.n2_mean:.4f}) vs 9.2564 "
        f"(rel {n_gap:.2e}, bound 0.02); v {rep.v_squeezed:.6f} vs "
        f"{v_target:.6f} (rel {v_gap:.2e}, bound 0.03)",
    )
    assert n_gap < 0.02
    assert v_gap < 0.03


def test_time_to_target_curve(tmp_path, record_property):
    out = tmp_path / "curve.csv"
    assert main(["fig2", "--out", str(out)]) == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    r = data["r"]
    np.testing.assert_array_equal(data["n_bar"], r**2 / (1.0 - r**2))
    t2 = data["total_time_2T"]
    assert np.all(np.diff(t2) >= 0.0)
    at_95 = float(t2[np.argmin(np.abs(r - 0.95))])
    record_property(
        "detail",
        f"occupation curve exact, 2T nondecreasing, 2T(0.95) = {at_95*1e3:.3f} ms "
        f"in [5, 9] ms",
    )
    assert 5e-3 <= at_95 <= 9e-3


def test_excited_state_decay_budget(record_property):
    p = PhysicalParams(omega1=0.04, omega2=0.05, g1=0.05, g2=0.05,
                       delta1=-1.0, delta2=2.0, gamma_e=1.0)
    est = spontaneous_decay_estimate(p)
    record_property(
        "detail",
        f"occupation {est.occupation:.6e}, want 1.6e-3; rate/gamma_e "
        f"{est.rate / p.gamma_e:.6e}",
    )
    assert est.occupation == pytest.approx(1.6e-3, rel=1e-12)
    assert est.rate == pytest.approx(1.6e-3 * p.gamma_e, rel=1e-12)


def test_fock_gaussian_cross_check(record_property):
    p = pump_params(0.5)
    gamma = derive_rates(p).gamma
    T = 4.0 / gamma
    rep = {}
    for engine in ("fock", "gaussian"):
        spec = build_two_step_protocol(p, engine=engine, truncation=(15, 15),
                                       durations=(T, T))
        _, rep[engine] = run_protocol(spec)
    gap = max(
        abs(getattr(rep["fock"], field) - getattr(rep["gaussian"], field))
        for field in ("v_squeezed", "v_antisqueezed", "duan_sum", "n1_mean", "n2_mean")
    )
    record_property("detail", f"max engine gap {gap:.2e} over variances and photons, bound 1e-3")
    assert gap < 1e-3


def test_repeat_run_byte_identical(tmp_path, record_property):
    config = {
        "params": {
            "omega1_hz": math.sqrt(50.0), "omega2_hz": math.sqrt(18.0),
            "g1_hz": math.sqrt(50.0), "g2_hz": math.sqrt(18.0),
            "delta1_hz": -100.0, "delta2_hz": 100.0, "gamma_e_hz": 0.0,
            "r_a_hz": 1.0, "tau_s": 0.05,
        },
        "engine": "collision",
        "seed": 7,
        "truncation": [6, 6],
        "durations": [80.0, 80.0],
        "sample_count": 7,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    blobs = []
    for tag in ("a", "b"):
        prefix = tmp_path / tag
        assert main(["simulate", "--config", str(cfg_path), "--out", str(prefix)]) == 0
        blobs.append((tmp_path / f"{tag}.csv").read_bytes())
    same = blobs[0] == blobs[1]
    record_property("detail", f"collision run repeated with one seed: identical = {same}")
    assert same
