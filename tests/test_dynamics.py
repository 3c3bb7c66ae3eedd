import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

import cavsqueeze.dynamics
from cavsqueeze.analysis import tmsv_state_vector, truncation_leak
from cavsqueeze.dynamics import (
    TRANSIT_BLOCK,
    ArrivalProcess,
    Trajectory,
    _accepted_counts,
    collision_step,
    propagate_state,
    run_collision_ensemble,
    run_collision_model,
    run_steps,
    squeezed_frame,
    transit_kraus_pair,
    transit_map,
    write_csv,
)
from cavsqueeze.hilbert import (
    DensityMatrix,
    SpaceDescriptor,
    annihilation_op,
    basis_state,
    expectation,
    factor_blocks,
    number_op,
    sector_pairs,
)
from cavsqueeze.model import (
    OCCUPANCY_LIMIT,
    DerivedParams,
    PhysicalParams,
    b_mode_annihilation,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    build_selective_hamiltonian,
    build_squeeze_operator,
    derive_rates,
    squeeze_sectors,
    stark_shifts,
)
from oracles import (
    bare_state,
    build_displacement_operator,
    dense_frame_entry,
    dense_kraus_pass,
    dense_squeeze_operator,
    lindblad_evolve,
    loop_accepted_counts,
    loop_arrival_times,
    random_low_fock_state,
    rk4_reference,
    split_charges,
)


def channel_b1_rates(theta1=0.5, theta2=0.3, gamma=0.0):
    r = theta2 / theta1
    return DerivedParams(
        theta1=theta1,
        theta2=theta2,
        r=r,
        epsilon=math.atanh(r),
        theta_b=(theta1 + theta2) * math.sqrt((1.0 - r) / (1.0 + r)),
        gamma=gamma,
        channel="b1",
    )


def transformed_vacuum(field_space, epsilon):
    # exp applied to the truncated generator is exactly unitary, so the
    # conjugated lowering operators annihilate this vector to machine precision
    squeeze = build_squeeze_operator(field_space, epsilon)
    return squeeze.dagger().matrix @ basis_state(field_space, 0, 0, 0)


def transformed_fock1(field_space, epsilon, mode):
    vac = transformed_vacuum(field_space, epsilon)
    raised = b_mode_annihilation(field_space, epsilon, mode).dagger().matrix @ vac
    return raised / np.linalg.norm(raised)


def collision_params(theta1=1.0, theta2=0.3, r_a=0.0, tau=0.0):
    # omega = g = sqrt(theta) with unit detunings keeps the two-photon rates exact
    return PhysicalParams(
        omega1=math.sqrt(theta1),
        omega2=math.sqrt(theta2),
        g1=math.sqrt(theta1),
        g2=math.sqrt(theta2),
        delta1=-1.0,
        delta2=1.0,
        gamma_e=0.0,
        r_a=r_a,
        tau=tau,
    )


def light_shift_transits(p, rho, k):
    """k atom transits on the bare-mode rho of an 8 x 8 field, each the Kraus pair <i|U|i>, <o|U|i>
    of the dense U = expm(-i tau H) of the single-channel Hamiltonian with the light shifts."""
    d = derive_rates(p)
    composite = SpaceDescriptor(2, 8, 8)
    u = scipy.linalg.expm(-1j * p.tau * build_selective_hamiltonian(d, stark_shifts(p), composite).matrix)
    dim = composite.dim // 2
    init = composite.atom_index(d.atom_state) * dim
    pair = [u[at * dim:(at + 1) * dim, init:init + dim] for at in range(2)]
    for _ in range(k):
        rho = sum(kraus @ rho @ kraus.conj().T for kraus in pair)
    return rho


class TestTrajectory:
    def test_csv_round_trip(self, tmp_path):
        times = np.array([0.0, 0.1, 0.2])
        records = {"n_b1": np.array([1.0, 1.0 / 3.0, 0.123456789012345678]),
                   "duan_sum": np.array([0.5, 0.25, 0.125])}
        traj = Trajectory(times=times, records=records)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "t,n_b1,duan_sum"
        assert len(lines) == 4
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(data[:, 0], times)
        np.testing.assert_array_equal(data[:, 1], records["n_b1"])
        np.testing.assert_array_equal(data[:, 2], records["duan_sum"])

    def test_csv_formats_each_value_as_17_significant_digits(self, tmp_path):
        # one %-format per row: floats, numpy floats and integers (regime_ok) read as format(v, ".17g")
        rows = [(0.1, np.float64(1.0 / 3.0), np.int64(1), 0), (1e-300, np.float64(2.0**60), np.int64(0), 7),
                (-0.0, np.float64(math.inf), np.int64(-3), 2**53 + 1)]
        path = tmp_path / "rows.csv"
        write_csv(path, ["a", "b", "c", "d"], rows)
        want = "a,b,c,d\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
        assert path.read_text() == want
        assert want.splitlines()[1:] == ["0.10000000000000001,0.33333333333333331,1,0",
                                         "1e-300,1.152921504606847e+18,0,7",
                                         "-0,inf,-3,9007199254740992"]


class TestArrivalProcess:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ArrivalProcess(rate=-1.0, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            ArrivalProcess(rate=1.0, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            ArrivalProcess(rate=1.0, seed=seed)

    def test_zero_rate_no_arrivals(self):
        assert ArrivalProcess(rate=0.0, seed=3).sample(10.0).size == 0

    @pytest.mark.parametrize("duration", [math.inf, math.nan, -1.0])
    def test_rejects_a_duration_sample_clock_refuses(self, duration):
        # sample_clock's rule and message; an infinite horizon never ended the draw
        with pytest.raises(ValueError, match=f"^duration must be finite and nonnegative, got {duration!r}$"):
            ArrivalProcess(rate=2.0, seed=0).sample(duration)

    def test_samples_sorted_and_bounded(self):
        times = ArrivalProcess(rate=5.0, seed=11).sample(20.0)
        assert times.size > 0
        assert np.all(np.diff(times) > 0)
        assert times[0] >= 0.0 and times[-1] < 20.0

    def test_seeded_reproducibility(self):
        a = ArrivalProcess(rate=2.0, seed=42).sample(50.0)
        b = ArrivalProcess(rate=2.0, seed=42).sample(50.0)
        c = ArrivalProcess(rate=2.0, seed=43).sample(50.0)
        np.testing.assert_array_equal(a, b)
        assert a.size != c.size or not np.array_equal(a, c)

    @pytest.mark.parametrize("rate, seed, duration", [
        (3.0, 7, 1_000.0), (0.7, 0, 3.0), (5.0, 11, 20.0), (1e-3, 2, 1.0), (2.0, 42, 256.0),
    ])
    def test_matches_per_gap_running_sum(self, rate, seed, duration):
        # the block accumulate adds the gaps in the order of a running total,
        # so every arrival time is bitwise that of the per-gap loop; the
        # first case spans a dozen 256-draw blocks, the fourth has no arrival
        times = ArrivalProcess(rate=rate, seed=seed).sample(duration)
        want = loop_arrival_times(rate, seed, duration)
        assert times.dtype == want.dtype and times.shape == want.shape
        np.testing.assert_array_equal(times, want)

    def test_interarrivals_are_exponential(self):
        # Kolmogorov-Smirnov on ~1e4 gaps at the 1% level
        rate = 3.0
        times = ArrivalProcess(rate=rate, seed=7).sample(10_000.0 / rate)
        gaps = np.diff(times, prepend=0.0)
        assert gaps.size > 9000
        result = scipy.stats.kstest(gaps, "expon", args=(0.0, 1.0 / rate))
        assert result.pvalue > 0.01


@pytest.mark.parametrize("occupancy", [0.01, 0.1, OCCUPANCY_LIMIT])
def test_thinning_matches_the_per_arrival_loop(occupancy):
    # tau = 1/4 scales exactly, so r_a * tau is the occupancy to the bit, OCCUPANCY_LIMIT included
    p = collision_params(r_a=occupancy / 0.25, tau=0.25)
    duration = 300.0 / p.r_a
    samples = np.linspace(0.0, duration, 7)
    dropped = 0
    for seed in range(200):
        arrivals = ArrivalProcess(rate=p.r_a, seed=seed)
        (counts, got), (want_counts, want) = (f(p, duration, arrivals, samples)
                                               for f in (_accepted_counts, loop_accepted_counts))
        np.testing.assert_array_equal(counts, want_counts)
        assert got == want and type(got) is int, seed
        dropped += got
    assert dropped > 0


class TestPropagateState:
    def test_matches_exponential_for_constant_h(self):
        s = SpaceDescriptor(1, 5, 1)
        rng = np.random.default_rng(9)
        m = rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))
        hm = 0.5 * (m + m.conj().T)
        psi0 = basis_state(s, 0, 2, 0)
        out = propagate_state(lambda t: hm, psi0, (0.0, 1.2), dt=1e-3)
        ref = scipy.linalg.expm(-1j * 1.2 * hm) @ psi0
        overlap = abs(np.vdot(ref, out))
        assert abs(overlap - 1.0) < 1e-7
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_time_dependent_phase(self):
        # H(t) = f(t) n with f(t) = cos(t): exactly solvable, psi picks up
        # phase exp(-i n sin(t)) on each Fock level
        s = SpaceDescriptor(1, 4, 1)
        n = number_op(s, 1).matrix
        psi0 = (basis_state(s, 0, 0, 0) + basis_state(s, 0, 3, 0)) / math.sqrt(2.0)
        out = propagate_state(lambda t: math.cos(t) * n, psi0, (0.0, 2.0), dt=1e-3)
        ref = (basis_state(s, 0, 0, 0) + np.exp(-3j * math.sin(2.0)) * basis_state(s, 0, 3, 0)) / math.sqrt(2.0)
        assert abs(abs(np.vdot(ref, out)) - 1.0) < 1e-8

    def test_reads_but_never_writes_its_inputs(self):
        # the stages live in propagate_state's own buffers: psi0 and every H
        # that h_of_t hands it, writable here, are only read
        s = SpaceDescriptor(1, 5, 1)
        rng = np.random.default_rng(4)
        m = rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))
        hm = 0.5 * (m + m.conj().T)
        handed = []

        def h_of_t(t):
            h = math.cos(t) * hm
            handed.append((h, h.copy()))
            return h

        psi0 = (basis_state(s, 0, 1, 0) + basis_state(s, 0, 4, 0)).astype(complex)
        kept = psi0.copy()
        propagate_state(h_of_t, psi0, (0.0, 1.0), 0.25)
        np.testing.assert_array_equal(psi0, kept)
        assert len(handed) == 9  # H(0), then each step's midpoint and end
        for h, copy in handed:
            assert h.flags.writeable
            np.testing.assert_array_equal(h, copy)

    def test_calls_return_independent_states(self):
        s = SpaceDescriptor(1, 4, 1)
        n = number_op(s, 1).matrix
        psi0 = (basis_state(s, 0, 0, 0) + basis_state(s, 0, 3, 0)) / math.sqrt(2.0)
        first = propagate_state(lambda t: math.cos(t) * n, psi0, (0.0, 0.3), 1e-2)
        kept = first.copy()
        second = propagate_state(lambda t: math.cos(t) * n, psi0, (0.0, 0.7), 1e-2)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, psi0)
        np.testing.assert_array_equal(first, kept)
        assert not np.array_equal(first, second)

    def test_full_model_reduces_to_dispersive(self):
        # the oscillating three-level model and the dispersive two-level one
        # must agree as propagators, not just per matrix element; the
        # sign-flipped dispersive Hamiltonian is far off, which pins the
        # e^{-i delta t} phase convention against the +omega^2/delta shifts
        p = PhysicalParams(omega1=0.15, omega2=0.25, g1=0.15, g2=0.25,
                           delta1=-3.0, delta2=5.0)
        s = SpaceDescriptor(3, 4, 4)
        psi0 = basis_state(s, s.atom_index("h"), 0, 0)
        h_eff = build_effective_hamiltonian(p, s).matrix
        t_end = 50.0
        psi_full = propagate_state(
            lambda t: build_full_hamiltonian(p, s, t).matrix,
            psi0, (0.0, t_end), dt=0.01,
        )
        good = abs(np.vdot(scipy.linalg.expm(-1j * t_end * h_eff) @ psi0, psi_full)) ** 2
        flipped = abs(np.vdot(scipy.linalg.expm(1j * t_end * h_eff) @ psi0, psi_full)) ** 2
        assert good > 0.995
        assert flipped < 0.7

    @staticmethod
    def reference_cases():
        """(H(t) as an array, psi0, t_span, dt): the constant and cos(t) n
        cases above and the three-level workload span."""
        s = SpaceDescriptor(1, 5, 1)
        rng = np.random.default_rng(9)
        m = rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))
        hm = 0.5 * (m + m.conj().T)
        yield lambda t: hm, basis_state(s, 0, 2, 0), (0.0, 1.2), 1e-3
        s = SpaceDescriptor(1, 4, 1)
        n = number_op(s, 1).matrix
        psi0 = (basis_state(s, 0, 0, 0) + basis_state(s, 0, 3, 0)) / math.sqrt(2.0)
        yield lambda t: math.cos(t) * n, psi0, (0.0, 2.0), 1e-3
        p = PhysicalParams(omega1=0.15, omega2=0.25, g1=0.15, g2=0.25, delta1=-3.0, delta2=5.0)
        s = SpaceDescriptor(3, 5, 5)
        full = lambda t: build_full_hamiltonian(p, s, t).matrix
        yield full, basis_state(s, s.atom_index("h"), 0, 0), (0.0, 6.0 * math.pi), 0.01

    def test_matches_reference_loop(self):
        # the in-place accumulation and the folded -i h round differently
        # from the written-out stages, by a few ulp per step
        for h_of_t, psi0, span, dt in self.reference_cases():
            out = propagate_state(h_of_t, psi0, span, dt)
            np.testing.assert_allclose(out, rk4_reference(h_of_t, psi0, span, dt), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("span, dt", [
        ((0.0, math.inf), 0.1), ((-math.inf, 0.0), 0.1), ((0.0, math.nan), 0.1),
        ((0.0, 1.0), math.nan), ((0.0, 1.0), math.inf),
    ])
    def test_rejects_non_finite_span_or_step(self, span, dt):
        s = SpaceDescriptor(1, 3, 1)
        with pytest.raises(ValueError, match="must be (finite|positive and finite)"):
            propagate_state(lambda t: number_op(s, 1).matrix, basis_state(s, 0, 1, 0), span, dt)

    @pytest.mark.parametrize("psi0", [np.zeros(3), np.array([1.0, math.nan, 0.0]), np.array([math.inf, 0.0, 0.0])])
    def test_rejects_zero_or_non_finite_state(self, psi0):
        s = SpaceDescriptor(1, 3, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="psi0 must be"):
                propagate_state(lambda t: number_op(s, 1).matrix, psi0, (0.0, 1.0), 0.1)

    def test_rejects_state_of_wrong_length(self):
        s = SpaceDescriptor(1, 3, 1)
        with pytest.raises(ValueError, match=r"psi0 has shape \(4,\) but H has dimension 3"):
            propagate_state(lambda t: number_op(s, 1).matrix, np.ones(4), (0.0, 1.0), 0.1)


class TestBModeJumpOperator:
    # the pumping jump is the transformed-mode lowering operator b
    def test_zero_squeezing_is_bare_annihilation(self):
        s = SpaceDescriptor(1, 5, 5)
        b = b_mode_annihilation(s, 0.0, 1)
        np.testing.assert_allclose(b.matrix, annihilation_op(s, 1).matrix, atol=1e-14)

    def test_annihilates_squeezed_vacuum(self):
        s = SpaceDescriptor(1, 25, 25)
        target = tmsv_state_vector(s, 0.5)
        for mode in (1, 2):
            b = b_mode_annihilation(s, 0.5, mode)
            assert np.linalg.norm(b.matrix @ target) < 1e-5

    def test_interior_commutator(self):
        s = SpaceDescriptor(1, 25, 25)
        b = b_mode_annihilation(s, 0.5, 1).matrix
        comm = b @ b.conj().T - b.conj().T @ b
        idx = [s.index(0, n1, n2) for n1 in range(4) for n2 in range(4)]
        sub = comm[np.ix_(idx, idx)]
        np.testing.assert_allclose(sub, np.eye(len(idx)), atol=1e-6)


class TestCollisionStep:
    """Single atom transits, run through run_collision_model."""

    def setup_method(self):
        self.sf = SpaceDescriptor(1, 8, 8)
        self.base = derive_rates(collision_params(tau=1.0))

    def params_for(self, theta_b_tau, r_a_tau=0.1, thetas=(1.0, 0.3)):
        # swapping the thetas moves the run to channel b2 with the same theta_b and epsilon
        tau = theta_b_tau / self.base.theta_b
        return collision_params(*thetas, r_a=r_a_tau / tau, tau=tau)

    def run(self, rho, p, duration, seed=0, **kwargs):
        return run_collision_model(rho, p, duration, ArrivalProcess(rate=p.r_a, seed=seed), **kwargs)

    def test_coupling_rate_guard(self):
        rho = DensityMatrix.from_state_vector(self.sf, transformed_vacuum(self.sf, self.base.epsilon))
        with pytest.raises(ValueError, match="perturbative"):
            self.run(rho, self.params_for(0.55), 1.0)
        # below 0.5 the run proceeds; run_protocol's regime report flags a
        # transit phase above 0.2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.run(rho, self.params_for(0.3), 1.0)

    def test_zero_tau_is_identity(self):
        # transits of zero length apply the identity map
        p = collision_params(r_a=2.0, tau=0.0)
        rho = DensityMatrix.from_state_vector(self.sf, transformed_fock1(self.sf, self.base.epsilon, 1))
        traj = self.run(rho, p, 5.0, seed=1)
        assert traj.diagnostics["accepted_arrivals"] > 0
        assert np.max(np.abs(bare_state(traj.final_state, derive_rates(p).epsilon) - rho.matrix)) < 1e-12

    def test_single_collision_extraction(self):
        # one transformed quantum plus a ground atom is an exact two-level
        # system: each accepted atom leaves the quantum in place with
        # probability cos^2(theta_b tau)
        p = self.params_for(0.15)
        rho = DensityMatrix.from_state_vector(self.sf, transformed_fock1(self.sf, self.base.epsilon, 1))
        traj = self.run(rho, p, 60.0 * p.tau, seed=3)
        k = traj.diagnostics["accepted_arrivals"]
        assert k > 0
        assert abs(traj.records["n_b1"][-1] - math.cos(0.15) ** (2 * k)) < 1e-9

    def test_dark_state_is_unchanged(self):
        p = self.params_for(0.15)
        rho = DensityMatrix.from_state_vector(self.sf, transformed_vacuum(self.sf, self.base.epsilon))
        traj = self.run(rho, p, 60.0 * p.tau, seed=5)
        assert traj.diagnostics["accepted_arrivals"] > 0
        assert np.max(np.abs(bare_state(traj.final_state, derive_rates(p).epsilon) - rho.matrix)) < 1e-10

    @pytest.mark.parametrize("channel", ["b1", "b2"])
    def test_dark_state_with_light_shifts(self, channel):
        # the collision walk absorbs the light shifts into the frame; the dense pair of the shifted
        # Hamiltonian, applied once per atom the same seed accepts, keeps the dark state
        p = self.params_for(0.15, thetas=(1.0, 0.3) if channel == "b1" else (0.3, 1.0))
        assert derive_rates(p).channel == channel
        rho = DensityMatrix.from_state_vector(self.sf, transformed_vacuum(self.sf, self.base.epsilon))
        k = self.run(rho, p, 60.0 * p.tau, seed=5).diagnostics["accepted_arrivals"]
        assert k > 0
        assert np.max(np.abs(light_shift_transits(p, rho.matrix, k) - rho.matrix)) < 1e-10


class TestTransitKrausPair:
    """The closed-form pair against <a|expm(-i tau H)|init> of the dense
    single-channel Hamiltonian, rotated into the squeezed frame."""

    @pytest.mark.parametrize("channel", ["b1", "b2"])
    def test_matches_dense_propagator(self, channel):
        thetas = (1.0, 0.3) if channel == "b1" else (0.3, 1.0)
        p = collision_params(*thetas, tau=0.3)
        d = derive_rates(p)
        assert d.channel == channel
        n1, n2 = 6, 5
        field = SpaceDescriptor(1, n1, n2)
        composite = SpaceDescriptor(2, n1, n2)
        u = scipy.linalg.expm(-1j * p.tau * build_selective_hamiltonian(d, None, composite).matrix)
        dim = field.dim
        blocks = {a: slice(composite.atom_index(a) * dim, (composite.atom_index(a) + 1) * dim)
                  for a in ("g", "h")}
        init, other = ("g", "h") if channel == "b1" else ("h", "g")
        sq = build_squeeze_operator(field, d.epsilon).matrix
        frame = lambda k: sq @ k @ sq.conj().T

        pumped, phase = (0, 1j) if channel == "b1" else (1, -1j)
        stay, jump = transit_kraus_pair(d, p.tau, (n1, n2)[pumped])
        assert stay.dtype == jump.dtype == float
        k_stay = np.zeros((dim, dim), dtype=complex)
        k_jump = np.zeros((dim, dim), dtype=complex)
        for m in np.ndindex(n1, n2):
            k_stay[field.index(0, *m), field.index(0, *m)] = stay[m[pumped]]
            lower = (m[0] - 1, m[1]) if channel == "b1" else (m[0], m[1] - 1)
            if min(lower) >= 0:
                k_jump[field.index(0, *lower), field.index(0, *m)] = phase * jump[m[pumped]]
        np.testing.assert_allclose(k_stay, frame(u[blocks[init], blocks[init]]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(k_jump, frame(u[blocks[other], blocks[init]]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("theta_b_tau", [0.1, 0.45])
    def test_closed_form_at_paper_truncation(self, theta_b_tau):
        # out to the 110 levels of the paper regime, past omega tau = pi where sinc turns negative:
        # jump is sin(omega tau), each transit keeps the trace, and the pumped vacuum stays put
        d = derive_rates(collision_params(tau=1.0))
        tau = theta_b_tau / d.theta_b
        stay, jump = transit_kraus_pair(d, tau, 110)
        omega_tau = theta_b_tau * np.sqrt(np.arange(110))
        assert stay[0] == 1.0 and jump[0] == 0.0
        np.testing.assert_allclose(stay, np.cos(omega_tau), rtol=0, atol=1e-15)
        np.testing.assert_allclose(jump, np.sin(omega_tau), rtol=0, atol=1e-15)
        np.testing.assert_allclose(stay**2 + jump**2, 1.0, rtol=0, atol=1e-15)


class TestCollisionBlocks:
    """The step's Kraus pair on the charge blocks against the same pair on
    the dense state, on states that occupy every charge."""

    @pytest.mark.parametrize("shape", [(12, 12), (9, 13)])
    @pytest.mark.parametrize("channel", ["b1", "b2"])
    def test_blocks_match_dense_pair(self, shape, channel):
        thetas = (1.0, 0.3) if channel == "b1" else (0.3, 1.0)
        p = collision_params(*thetas, r_a=1.0, tau=0.15)
        d = derive_rates(p)
        stay, jump = transit_kraus_pair(d, p.tau, shape[0 if channel == "b1" else 1])
        times = np.array([0.0, 4.0])
        s = SpaceDescriptor(1, *shape)
        # the walk reads its samples through the frame
        entry = squeezed_frame(DensityMatrix.from_state_vector(s, basis_state(s, 0, 0, 0)), d.epsilon)[0]
        psi = build_displacement_operator(s, 0.7 - 0.4j, 0.5).matrix @ basis_state(s, 0, 0, 0)
        for rho4 in (np.outer(psi, psi.conj()).reshape(shape * 2),
                     random_low_fock_state(s, min(shape), 3, seed=2).reshape(shape * 2)):
            step, accepted, _ = collision_step(shape, p, 10.0, ArrivalProcess(rate=p.r_a, seed=4), times)
            assert accepted > 2
            rho = run_steps((split_charges(rho4), *entry[1:]), [step])[2]
            want = rho4
            for _ in range(accepted):
                want = dense_kraus_pass(want, stay, jump, channel)
            assert np.max(np.abs(rho.dense() - want)) <= 1e-12


class TestTransitKernel:
    """The walk of shift-free transits: c atoms as the kernel power M_e^(c mod TRANSIT_BLOCK) of the
    state held at the last multiple of TRANSIT_BLOCK, on a state that occupies several charges."""

    shape = (9, 13)

    def walk_and_state(self, channel, shape=shape):
        """(params, walk, rho, read): walk(rho, counts, end, read) runs the step that transit_map
        makes to read at counts and end at end, and read is the squeezed frame's on shape."""
        thetas = (1.0, 0.3) if channel == "b1" else (0.3, 1.0)
        p = collision_params(*thetas, r_a=1.0, tau=0.15)
        assert derive_rates(p).channel == channel
        s = SpaceDescriptor(1, *shape)
        rho = split_charges(random_low_fock_state(s, min(shape), 3, seed=2).reshape(shape * 2))
        assert rho.charges.size > 1
        step = transit_map(shape, p)
        walk = lambda state, counts, end, read: step(counts, [*counts, end])[1](state, read)
        vacuum = DensityMatrix.from_state_vector(s, basis_state(s, 0, 0, 0))
        return p, walk, rho, squeezed_frame(vacuum, derive_rates(p).epsilon)[0][1]

    @pytest.mark.parametrize("shape", [(9, 13), (11, 11)])
    @pytest.mark.parametrize("channel", ["b1", "b2"])
    def test_reading_off_the_held_state_is_the_read_of_the_state(self, channel, shape):
        # counts 0 .. 2 TRANSIT_BLOCK read every power r = 0 .. TRANSIT_BLOCK off three held states;
        # each must be the frame's read of the state the products make, on bands of every charge
        p, walk, rho, read = self.walk_and_state(channel, shape)
        assert {-2, -1, 0, 1, 2} <= set(rho.charges.tolist())
        counts = np.arange(2 * TRANSIT_BLOCK + 1)
        rows, _ = walk(rho, counts, counts[-1] + 1, read)
        assert len(rows) == counts.size
        for c, (bands, eta, leak) in zip(counts, rows):
            want_bands, want_eta, want_leak = read(walk(rho, [], c, read)[1])
            np.testing.assert_array_equal(bands, want_bands)
            np.testing.assert_array_equal(eta, want_eta)
            assert abs(leak - want_leak) <= 1e-15, c

    @pytest.mark.parametrize("channel", ["b1", "b2"])
    def test_powers_match_per_atom_passes(self, channel):
        p, walk, rho, _ = self.walk_and_state(channel)
        stay, jump = transit_kraus_pair(derive_rates(p), p.tau, self.shape[0 if channel == "b1" else 1])
        want = rho.dense()
        for c in range(2 * TRANSIT_BLOCK + 2):
            got = walk(rho, [], c, None)[1]
            assert np.max(np.abs(got.dense() - want)) <= 1e-13, c
            want = dense_kraus_pass(want, stay, jump, channel)

    @pytest.mark.parametrize("channel", ["b1", "b2"])
    def test_state_after_c_atoms_does_not_depend_on_the_stops(self, channel):
        # an ensemble reads every trajectory's counts off one walk, so the state after c atoms
        # must be the same array whichever counts the walk stopped at on the way
        p, walk, rho, read = self.walk_and_state(channel)
        rng = np.random.default_rng(7)
        for c in (5, TRANSIT_BLOCK, 2 * TRANSIT_BLOCK + 3, 3 * TRANSIT_BLOCK + 9):
            direct = walk(rho, [], c, read)[1]
            for _ in range(4):
                stops = np.sort(rng.integers(0, c + 1, size=rng.integers(1, 6)))
                via = walk(rho, stops, c, read)[1]
                assert np.array_equal(via.blocks, direct.blocks), (c, stops)


class TestRunCollisionModel:
    def setup_method(self):
        self.sf = SpaceDescriptor(1, 8, 8)
        self.d = derive_rates(collision_params(tau=1.0))

    def params_for(self, theta_b_tau, r_a_tau, thetas=(1.0, 0.3)):
        tau = theta_b_tau / self.d.theta_b
        return collision_params(*thetas, r_a=r_a_tau / tau, tau=tau)

    def initial_state(self, params):
        eps = derive_rates(params).epsilon
        return DensityMatrix.from_state_vector(self.sf, transformed_fock1(self.sf, eps, 1))

    def test_rejects_fast_arrivals(self):
        p = self.params_for(0.1, 0.5)
        rho = self.initial_state(p)
        proc = ArrivalProcess(rate=p.r_a, seed=0)
        with pytest.raises(ValueError, match="one-atom"):
            run_collision_model(rho, p, 1.0, proc)

    def test_rejects_long_transit(self):
        p = self.params_for(0.6, 0.1)
        rho = self.initial_state(p)
        proc = ArrivalProcess(rate=p.r_a, seed=0)
        with pytest.raises(ValueError, match="perturbative"):
            run_collision_model(rho, p, 1.0, proc)

    def test_rejects_composite_state(self):
        p = self.params_for(0.1, 0.1)
        sc = SpaceDescriptor(2, 4, 4)
        rho = DensityMatrix.from_state_vector(sc, basis_state(sc, "g", 0, 0))
        proc = ArrivalProcess(rate=p.r_a, seed=0)
        with pytest.raises(ValueError, match="field-only"):
            run_collision_model(rho, p, 1.0, proc)

    def test_zero_rate_constant_trajectory(self):
        p = self.params_for(0.1, 0.1)
        rho = self.initial_state(p)
        proc = ArrivalProcess(rate=0.0, seed=0)
        traj = run_collision_model(rho, p, 1.0, proc, sample_times=np.linspace(0.0, 1.0, 5))
        for series in traj.records.values():
            np.testing.assert_allclose(series, series[0], atol=1e-12)
        assert np.max(np.abs(bare_state(traj.final_state, derive_rates(p).epsilon) - rho.matrix)) < 1e-12
        assert traj.diagnostics["accepted_arrivals"] == 0

    def test_occupation_decays(self):
        p = self.params_for(0.1, 0.1)
        rho = self.initial_state(p)
        d = derive_rates(p)
        duration = 1.5 / d.gamma
        proc = ArrivalProcess(rate=p.r_a, seed=2)
        traj = run_collision_model(rho, p, duration, proc)
        n_b1 = traj.records["n_b1"]
        assert abs(n_b1[0] - 1.0) < 1e-9
        assert n_b1[-1] < 0.5
        assert traj.diagnostics["accepted_arrivals"] > 0
        assert traj.diagnostics["channel"] == "b1"
        assert traj.diagnostics["atom_state"] == "g"

    def test_records_have_uniform_keys(self):
        p = self.params_for(0.1, 0.1)
        rho = self.initial_state(p)
        proc = ArrivalProcess(rate=p.r_a, seed=4)
        traj = run_collision_model(rho, p, 0.5 / derive_rates(p).gamma, proc)
        expected = {"n_a1", "n_a2", "n_b1", "n_b2",
                    "v_x_minus", "v_x_plus", "v_p_minus", "v_p_plus", "duan_sum"}
        assert set(traj.records) == expected
        for series in traj.records.values():
            assert series.shape == traj.times.shape

    def test_seeded_determinism(self):
        p = self.params_for(0.1, 0.1)
        rho = self.initial_state(p)
        duration = 0.5 / derive_rates(p).gamma
        a = run_collision_model(rho, p, duration, ArrivalProcess(rate=p.r_a, seed=12))
        b = run_collision_model(rho, p, duration, ArrivalProcess(rate=p.r_a, seed=12))
        c = run_collision_model(rho, p, duration, ArrivalProcess(rate=p.r_a, seed=13))
        for key in a.records:
            np.testing.assert_array_equal(a.records[key], b.records[key])
        np.testing.assert_array_equal(a.final_state.blocks, b.final_state.blocks)
        assert any(not np.array_equal(a.records[k], c.records[k]) for k in a.records)

    def test_no_density_matrix_on_the_engine_path(self, monkeypatch):
        # the run stays in the squeezed frame and returns rho_b, so the
        # initial state is the only DensityMatrix it sees
        built = []
        validate = DensityMatrix.__post_init__

        def counting(self):
            built.append(self.space)
            validate(self)

        p = self.params_for(0.1, 0.1)
        rho = self.initial_state(p)
        monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
        traj = run_collision_model(rho, p, 0.5 / derive_rates(p).gamma, ArrivalProcess(rate=p.r_a, seed=4))
        assert traj.diagnostics["accepted_arrivals"] > 0
        assert built == []

    def test_drop_policy_counts(self):
        p = self.params_for(0.05, 0.19)
        rho = self.initial_state(p)
        duration = 300.0 * p.tau
        proc = ArrivalProcess(rate=p.r_a, seed=6)
        traj = run_collision_model(rho, p, duration, proc)
        raw = proc.sample(duration).size
        assert traj.diagnostics["accepted_arrivals"] + traj.diagnostics["dropped_arrivals"] == raw
        assert traj.diagnostics["dropped_arrivals"] > 0

    def test_truncation_overflow_raises(self):
        p = self.params_for(0.1, 0.1)
        small = SpaceDescriptor(1, 3, 3)
        rho = DensityMatrix.from_state_vector(small, basis_state(small, 0, 2, 2))
        proc = ArrivalProcess(rate=p.r_a, seed=0)
        with pytest.raises(ValueError, match="truncation overflow"):
            run_collision_model(rho, p, 1.0, proc)

    def test_run_without_samples_reads_its_end_state(self):
        # with no sample times every atom acts past the last sample; the end
        # state is still read, for the report and the boundary leak
        p = self.params_for(0.1, 0.1)
        rho = self.initial_state(p)
        duration = 0.5 / derive_rates(p).gamma
        proc = ArrivalProcess(rate=p.r_a, seed=4)
        empty = run_collision_model(rho, p, duration, proc, sample_times=[])
        last = run_collision_model(rho, p, duration, proc, sample_times=[duration])
        assert empty.times.size == 0 and all(series.size == 0 for series in empty.records.values())
        assert empty.diagnostics["accepted_arrivals"] > 0
        assert empty.diagnostics == last.diagnostics
        assert np.array_equal(empty.final_state.blocks, last.final_state.blocks)
        eps = derive_rates(p).epsilon
        (*_, report, leaks), (*_, want_report, want_leaks) = (
            run_steps(squeezed_frame(rho, eps)[0], [collision_step((8, 8), p, duration, proc, times)[0]])
            for times in (np.array([]), np.array([duration])))
        assert report == want_report and leaks.max() == want_leaks.max()

    @pytest.mark.parametrize("channel", ["b1", "b2"])
    def test_dark_state_fixed_point_with_stark(self, channel):
        p = self.params_for(0.1, 0.1, (1.0, 0.3) if channel == "b1" else (0.3, 1.0))
        assert derive_rates(p).channel == channel
        eps = derive_rates(p).epsilon
        rho = DensityMatrix.from_state_vector(self.sf, transformed_vacuum(self.sf, eps))
        duration = 50.0 * p.tau
        traj = run_collision_model(rho, p, duration, ArrivalProcess(rate=p.r_a, seed=8))
        k = traj.diagnostics["accepted_arrivals"]
        assert np.max(np.abs(light_shift_transits(p, rho.matrix, k) - rho.matrix)) < 1e-9


class TestRunCollisionEnsemble:
    def setup_method(self):
        self.sf = SpaceDescriptor(1, 8, 8)
        base = derive_rates(collision_params(tau=1.0))
        tau = 0.1 / base.theta_b
        self.p = collision_params(r_a=0.1 / tau, tau=tau)
        eps = derive_rates(self.p).epsilon
        self.rho = DensityMatrix.from_state_vector(self.sf, transformed_fock1(self.sf, eps, 1))
        self.duration = 0.4 / derive_rates(self.p).gamma

    def run(self, runner, duration, sample_times=None):
        """One seed-3 run of run_collision_model, or a two-trajectory ensemble from master seed 3."""
        if runner == "model":
            return run_collision_model(self.rho, self.p, duration, ArrivalProcess(self.p.r_a, 3),
                                       sample_times=sample_times)
        return run_collision_ensemble(self.rho, self.p, duration, 2, 3, sample_times=sample_times)

    @pytest.mark.parametrize("duration, clock, message", [
        (None, [0.0, 5.0, 2.0], "sample_times must be one-dimensional and strictly increasing"),
        (None, [0.0, 1.0, 1.0], "sample_times must be one-dimensional and strictly increasing"),
        (None, [[0.0, 1.0], [2.0, 3.0]], "sample_times must be one-dimensional and strictly increasing"),
        (10.0, [-5.0, 3.0, 50.0], r"sample_times must lie in \[0, duration\]"),
        (10.0, [0.0, 3.0, 10.5], r"sample_times must lie in \[0, duration\]"),
        (math.nan, None, "duration must be finite and nonnegative, got nan"),
        (-1.0, [], "duration must be finite and nonnegative, got -1.0"),
        (math.inf, [0.0, 1.0], "duration must be finite and nonnegative, got inf"),
    ], ids=["decreasing", "repeated", "two-dimensional", "before-zero", "past-the-end", "nan-duration",
            "negative-duration", "infinite-duration"])
    @pytest.mark.parametrize("runner", ["model", "ensemble"])
    def test_runners_reject_a_bad_clock_before_drawing(self, monkeypatch, runner, duration, clock, message):
        # sample only records its calls: a real draw over an infinite duration would never end
        draws = []
        monkeypatch.setattr(ArrivalProcess, "sample", lambda proc, duration: draws.append(duration) or np.empty(0))
        with pytest.raises(ValueError, match=message):
            self.run(runner, self.duration if duration is None else duration, clock)
        assert draws == []
        # the same run on a good clock asks for its arrivals
        self.run(runner, self.duration, [0.0, 1.0, 2.0])
        assert draws

    @pytest.mark.parametrize("runner", ["model", "ensemble"])
    def test_zero_duration_reads_the_initial_state_once(self, runner):
        # the default clock of a zero-length run is the one sample t = 0,
        # which reads what a longer run reads before its first atom
        still, longer = self.run(runner, 0.0), self.run(runner, self.duration)
        np.testing.assert_array_equal(still.times, [0.0])
        assert still.diagnostics["accepted_arrivals"] == 0 and longer.diagnostics["accepted_arrivals"] > 0
        assert set(still.records) == set(longer.records)
        for key, series in still.records.items():
            assert series.tolist() == [longer.records[key][0]]

    @pytest.mark.parametrize("n_trajectories, master_seed, message", [
        (2.0, 3, "n_trajectories must be an integer of at least 1, got 2.0"),
        (True, 3, "n_trajectories must be an integer of at least 1, got True"),
        (2, 1.5, "master_seed must be an integer, got 1.5"),
        (2, False, "master_seed must be an integer, got False"),
    ], ids=["float-count", "bool-count", "float-seed", "bool-seed"])
    def test_rejects_a_count_or_seed_that_is_not_an_integer(self, n_trajectories, master_seed, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_collision_ensemble(self.rho, self.p, self.duration, n_trajectories, master_seed)

    @pytest.mark.parametrize(
        "n_trajectories, master, grid, channel",
        [(2, 100, (0.0, 1.0, 9), "b1"), (2, 100, (0.3, 0.7, 5), "b1"), (5, 7, (0.0, 1.0, 9), "b1"),
         (2, 100, (0.0, 1.0, 9), "b2"), (3, 100, (0.0, 0.1, 6, 0.6, 1.0, 2), "b1")],
        ids=["two-full-grid", "two-inner-grid", "five-full-grid", "two-full-grid-b2", "bunched-then-sparse"],
    )
    def test_matches_manual_average(self, n_trajectories, master, grid, channel):
        # grid: (first, last, n) of each evenly spaced run of samples, as fractions of the duration
        first = grid[0]
        samples = np.concatenate([np.linspace(a * self.duration, b * self.duration, n)
                                  for a, b, n in zip(grid[::3], grid[1::3], grid[2::3])])
        p, rho = self.p, self.rho
        if channel == "b2":  # the mirrored run, which pumps mode 2 through the transposed axis
            p = collision_params(0.3, 1.0, r_a=self.p.r_a, tau=self.p.tau)
            rho = DensityMatrix.from_state_vector(self.sf, transformed_fock1(self.sf, derive_rates(p).epsilon, 2))
            assert derive_rates(p).channel == "b2"
        ens = run_collision_ensemble(rho, p, self.duration, n_trajectories, master, sample_times=samples)
        arrivals = [ArrivalProcess(rate=p.r_a, seed=master ^ i) for i in range(n_trajectories)]
        singles = [run_collision_model(rho, p, self.duration, a, sample_times=samples) for a in arrivals]
        counts = np.array([_accepted_counts(p, self.duration, a, samples)[0] for a in arrivals])
        if first > 0.0:
            # the corners of the orbit: atoms before the first sample and after the last
            assert counts[:, 0].max() > 0
            assert np.any(counts[:, -1] > counts[:, -2])
        if len(grid) > 3:
            # distinct counts read off one held state, and a step past a whole held block
            held = counts[:, :-1] // TRANSIT_BLOCK
            assert np.any((np.diff(counts[:, :-1]) > 0) & (np.diff(held) == 0))
            assert np.any(np.diff(counts[:, :-1]) > TRANSIT_BLOCK)
        for key in singles[0].records:
            manual = np.mean([s.records[key] for s in singles], axis=0)
            np.testing.assert_array_equal(ens.records[key], manual)
        assert set(ens.records) == set(singles[0].records)
        assert ens.diagnostics["max_truncation_leak"] == max(
            s.diagnostics["max_truncation_leak"] for s in singles
        )
        for key in ("accepted_arrivals", "dropped_arrivals"):
            assert ens.diagnostics[key] == sum(s.diagnostics[key] for s in singles)
        assert ens.final_state is None

    @pytest.mark.parametrize("master", [0, 1, 3, 8, 100, 1234])
    def test_one_trajectory_is_its_run(self, master):
        # the orbit of one trajectory is its run's walk, with the last level the final state's row:
        # its records and leak are run_collision_model's to the bit
        ens = run_collision_ensemble(self.rho, self.p, self.duration, 1, master)
        single = run_collision_model(self.rho, self.p, self.duration, ArrivalProcess(self.p.r_a, master))
        assert single.diagnostics["accepted_arrivals"] > TRANSIT_BLOCK
        np.testing.assert_array_equal(ens.times, single.times)
        assert list(ens.records) == list(single.records)
        for key, series in single.records.items():
            np.testing.assert_array_equal(ens.records[key], series)
        assert ens.diagnostics["max_truncation_leak"] == single.diagnostics["max_truncation_leak"]

    def test_orbit_reads_each_level_once(self, monkeypatch):
        # the walk takes the band sums of a held state at a level that is a multiple of
        # TRANSIT_BLOCK, reads every other level off a held state's powers, and leaves the last
        # level, the final state, to the driver's one read of it
        samples = np.linspace(0.0, self.duration, 9)
        levels = np.unique([_accepted_counts(self.p, self.duration, ArrivalProcess(self.p.r_a, 3 ^ i), samples)[0]
                            for i in range(2)])
        assert levels[-1] > TRANSIT_BLOCK
        calls, band_sums = [], cavsqueeze.dynamics.band_sums
        monkeypatch.setattr(cavsqueeze.dynamics, "band_sums", lambda rho: calls.append(rho) or band_sums(rho))
        run_collision_ensemble(self.rho, self.p, self.duration, 2, 3, sample_times=samples)
        assert len(calls) == 1 + np.count_nonzero(levels[:-1] % TRANSIT_BLOCK == 0)

    def test_boundary_start_overflows_like_one_run(self):
        # |5,5> at six levels sits on the boundary layer, and a few atom
        # transits cannot pump it off: the ensemble refuses it with the
        # message of the first trajectory's single run
        space = SpaceDescriptor(1, 6, 6)
        rho = DensityMatrix.from_state_vector(space, basis_state(space, 0, 5, 5))
        duration = 5.0 * self.p.tau
        samples = np.linspace(0.0, 0.8 * duration, 3)
        with pytest.raises(ValueError, match="truncation overflow") as single:
            run_collision_model(rho, self.p, duration, ArrivalProcess(rate=self.p.r_a, seed=3),
                                sample_times=samples)
        with pytest.raises(ValueError, match="truncation overflow") as ens:
            run_collision_ensemble(rho, self.p, duration, 3, 3, sample_times=samples)
        assert str(ens.value) == str(single.value)
        # both judge the state after every atom of duration, past the last sample
        assert str(ens.value).startswith(f"truncation overflow at t={duration:g}: ")

    def test_rejects_negative_master_seed(self):
        with pytest.raises(ValueError, match="master_seed must be nonnegative, got -1"):
            run_collision_ensemble(self.rho, self.p, self.duration, 2, -1)

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError, match="at least 1"):
            run_collision_ensemble(self.rho, self.p, self.duration, 0, 0)


@pytest.mark.parametrize("eps", [0.5, -0.3])
def test_mirrored_sectors_share_one_read_only_block(eps):
    # on a square grid sectors k and -k have equal couplings: one eigh, one block
    sectors = squeeze_sectors(SpaceDescriptor(1, 12, 12), eps)
    assert len(sectors) == 23
    for k in range(12):
        block = sectors[11 + k][2]
        assert block is sectors[11 - k][2]
        assert not block.flags.writeable
    assert len({id(block) for _, _, block in sectors}) == 12


@pytest.mark.parametrize("shape", [(9, 13), (12, 12)])
@pytest.mark.parametrize("eps", [0.5, -0.3])
class TestSectorFrame:
    # the frame builds S, enters it and measures its boundary sector by
    # sector; each piece must equal the dense construction it replaces

    def test_scatter_is_the_squeeze_operator(self, shape, eps):
        s = SpaceDescriptor(1, *shape)
        scattered = np.zeros((s.dim, s.dim))
        for n1, n2, block in squeeze_sectors(s, eps):
            cut = n1 * shape[1] + n2
            scattered[np.ix_(cut, cut)] = block
        assert np.array_equal(scattered, build_squeeze_operator(s, eps).matrix)
        assert np.max(np.abs(scattered - dense_squeeze_operator(s, eps))) <= 1e-12

    def test_entry_matches_dense_rotation(self, shape, eps):
        s = SpaceDescriptor(1, *shape)
        squeeze = dense_squeeze_operator(s, eps)
        for seed in range(3):
            rho = random_low_fock_state(s, 4, 2, seed)
            (rho_b, *_), _ = squeezed_frame(DensityMatrix(s, rho), eps)
            want = (squeeze @ rho @ squeeze.conj().T).reshape(shape * 2)
            assert np.max(np.abs(rho_b.dense() - want)) <= 1e-13

    def test_boundary_block_matches_dense_projector(self, shape, eps):
        s = SpaceDescriptor(1, *shape)
        squeeze = dense_squeeze_operator(s, eps)
        edge = np.ones(shape, dtype=bool)
        edge[:-1, :-1] = False
        cols = squeeze[:, edge.ravel()]
        want = split_charges((cols @ cols.conj().T).reshape(shape * 2), [0]).block(0)
        sectors = squeeze_sectors(s, eps)
        ends = {k: block[:, -1:] for k, (_, _, block) in enumerate(sectors)}
        got = sector_pairs(sectors, np.eye(len(sectors), dtype=bool), ends, shape)
        assert got.charges.tolist() == [0] and got.blocks.dtype == float
        assert np.max(np.abs(got.block(0) - want)) <= 1e-13
        # a state reaching the boundary layers: the frame's leak is the bare one
        rho = DensityMatrix(s, random_low_fock_state(s, min(shape), 2, seed=4))
        (rho_b, read, _, _), _ = squeezed_frame(rho, eps)
        assert truncation_leak(rho) > 1e-3
        assert read(rho_b)[-1] == pytest.approx(truncation_leak(rho), rel=0, abs=1e-13)


class TestChargeBlockEntry:
    # every state enters the frame through its factor F, rho = F F+, on the
    # sector pairs that share a column of F.  Its charges are the dense row
    # and column rotation's, and its blocks agree with that rotation's to
    # 1e-15: the pair products (S_k F_k)(S_k' F_k')^+ sum over the columns of
    # F, where the dense rotation sums over whole rows of rho, and BLAS rounds
    # the two otherwise.  A given matrix's F has rows exactly 0 wherever its
    # diagonal is 0, so the eigh columns of rounding size add no charge

    @staticmethod
    def assert_dense_rotation(rho, eps):
        (got, *_), _ = squeezed_frame(rho, eps)
        want = dense_frame_entry(rho, eps)
        assert np.array_equal(got.charges, want.charges)
        np.testing.assert_allclose(got.blocks, want.blocks, rtol=0, atol=1e-15)
        return got

    @staticmethod
    def pure_state(case):
        """(space, unit vector, epsilon) of a pure state the class enters."""
        if case == "charges_with_gaps":  # sectors n1 - n2 = -2, 0 and 2 occupy the even charges -4 to 4 only
            s, eps = SpaceDescriptor(1, 9, 7), 0.4
            psi = basis_state(s, 0, 0, 0) + 0.5j * basis_state(s, 0, 2, 0) - 0.7 * basis_state(s, 0, 1, 3)
        elif case == "pump_vacuum":  # the vacuum of a fock run at N = 25
            s, eps = SpaceDescriptor(1, 25, 25), math.atanh(0.6)
            psi = basis_state(s, 0, 0, 0)
        elif case == "one_quantum":  # one quantum in transformed mode 1 at N = 12, as the collision ensemble starts
            s, eps = SpaceDescriptor(1, 12, 12), math.atanh(0.4)
            vac = build_squeeze_operator(s, eps).dagger().matrix @ basis_state(s, 0, 0, 0)
            psi = b_mode_annihilation(s, eps, 1).dagger().matrix @ vac
        elif case == "four_fock":
            s, eps = SpaceDescriptor(1, 25, 25), 0.5
            psi = (basis_state(s, 0, 2, 5) - 0.6 * basis_state(s, 0, 5, 1)
                   + 0.5j * basis_state(s, 0, 0, 3) + 0.4 * basis_state(s, 0, 4, 4))
        else:  # a rank-1 state over 60 random basis states
            s, eps = SpaceDescriptor(1, 25, 25), 0.5
            rng = np.random.default_rng(0)
            psi = np.zeros(s.dim, complex)
            psi[rng.choice(s.dim, 60, replace=False)] = rng.normal(size=60) + 1j * rng.normal(size=60)
        return s, psi / np.linalg.norm(psi), eps

    @staticmethod
    def given_matrix(s, psi):
        """|psi><psi| given as its matrix, which enters through the factor its eigh gives."""
        return DensityMatrix(s, np.outer(psi, psi.conj()))

    @pytest.mark.parametrize("shape", [(5, 7), (7, 5), (6, 6)])
    def test_full_rank_states(self, shape):
        s = SpaceDescriptor(1, *shape)
        rng = np.random.default_rng(shape[0])
        g = rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))
        rho = DensityMatrix(s, g @ g.conj().T / np.trace(g @ g.conj().T).real)
        span = sum(shape) - 2  # every charge (n1 - n2) - (m1 - m2) is occupied
        for eps in (0.5, -0.3):
            assert self.assert_dense_rotation(rho, eps).charges.tolist() == list(range(-span, span + 1))

    def test_charges_with_gaps(self):
        s, psi, eps = self.pure_state("charges_with_gaps")
        assert self.assert_dense_rotation(self.given_matrix(s, psi), eps).charges.tolist() == [-4, -2, 0, 2, 4]

    def test_pump_vacuum(self):
        s, psi, eps = self.pure_state("pump_vacuum")
        assert self.assert_dense_rotation(self.given_matrix(s, psi), eps).charges.tolist() == [0]

    def test_one_quantum_collision_state(self):
        s, psi, eps = self.pure_state("one_quantum")
        self.assert_dense_rotation(self.given_matrix(s, psi), eps)

    @pytest.mark.parametrize("case", ["charges_with_gaps", "pump_vacuum", "one_quantum", "four_fock", "rank_one_60"])
    def test_vector_entry_matches_dense_entry(self, case):
        s, psi, eps = self.pure_state(case)
        (got, *_), _ = squeezed_frame(DensityMatrix.from_state_vector(s, psi), eps)
        (want, *_), _ = squeezed_frame(self.given_matrix(s, psi), eps)
        assert np.array_equal(got.charges, want.charges)
        np.testing.assert_allclose(got.blocks, want.blocks, rtol=0, atol=1e-15)

    @staticmethod
    def sparse_state(case):
        s = SpaceDescriptor(1, 25, 25)
        if case == "diagonal":  # thermal-like populations 2^-(n1 + n2)
            n1, n2 = np.indices(s.shape[1:]).reshape(2, -1)
            p = 0.5 ** (n1 + n2)
            return DensityMatrix(s, np.diag(p / p.sum()))
        s, psi, _ = TestChargeBlockEntry.pure_state(case)
        return TestChargeBlockEntry.given_matrix(s, psi)

    @pytest.mark.parametrize("case", ["diagonal", "four_fock", "rank_one_60"])
    def test_sparse_states_within_rounding(self, case):
        # measured 4e-19 at most; the bound is absolute, on entries of magnitude up to 1
        rho = self.sparse_state(case)
        for eps in (math.atanh(0.6), 0.5):
            (got, *_), _ = squeezed_frame(rho, eps)
            want = dense_frame_entry(rho, eps)
            assert np.array_equal(got.charges, want.charges)
            np.testing.assert_allclose(got.blocks, want.blocks, rtol=0, atol=1e-15)

    def test_given_factor_is_zero_off_the_support(self):
        # eigh gives |psi><psi| columns of rounding size besides psi's own; every row of F off
        # psi's support is exactly 0, so those columns share no sector pair psi does not
        s, psi, _ = self.pure_state("charges_with_gaps")
        factor = self.given_matrix(s, psi).factor
        assert not np.any(factor[psi == 0])
        np.testing.assert_allclose(factor @ factor.conj().T, np.outer(psi, psi.conj()), rtol=0, atol=1e-15)

    def test_diagonal_state_enters_on_charge_zero(self):
        # one column per population, each on one basis state, so each sector pairs with itself
        # alone: the entry holds charge 0 (0.49 MB) where all 97 charges at N = 25 take 47 MB;
        # measured 7.4 MB, of which S F is 6.25 MB
        rho = self.sparse_state("diagonal")
        assert rho.factor.shape == (rho.space.dim, np.count_nonzero(rho.matrix.diagonal()))
        assert np.all(np.count_nonzero(rho.factor, axis=0) == 1)
        tracemalloc.start()
        try:
            (got, *_), _ = squeezed_frame(rho, math.atanh(0.6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.charges.tolist() == [0]
        assert peak < 10e6, peak

    @staticmethod
    def count_products(rho: DensityMatrix, eps: float) -> int:
        class Counted:  # a sector block of S that counts its products
            calls = 0

            def __init__(self, block):
                self.block = block

            def __matmul__(self, other):
                Counted.calls += 1
                return self.block @ other

        sectors = squeeze_sectors(rho.space, eps)
        counted = [(n1, n2, Counted(block)) for n1, n2, block in sectors]
        factor = rho.factor.reshape(*rho.space.shape[1:], -1)
        got, want = factor_blocks(factor, counted), factor_blocks(factor, sectors)
        assert np.array_equal(got.blocks, want.blocks)
        return Counted.calls

    def test_products_only_on_occupied_pairs(self):
        # the vacuum occupies sector 0: one product turns its part of F, where turning every sector
        # makes 49; a full-rank state turns all 11 sectors once
        s = SpaceDescriptor(1, 25, 25)
        vacuum = DensityMatrix.from_state_vector(s, basis_state(s, 0, 0, 0))
        assert self.count_products(vacuum, math.atanh(0.6)) == 1
        s = SpaceDescriptor(1, 6, 6)
        g = np.random.default_rng(6).normal(size=(s.dim, s.dim))
        full = DensityMatrix(s, g @ g.T / np.trace(g @ g.T))
        assert self.count_products(full, 0.5) == 11

    def test_entry_makes_no_dense_copy(self):
        # one N^2 x N^2 complex copy of the N = 25 vacuum is 6.25 MB; a given matrix enters
        # through its factor, one column here, as a vector does, and neither forms one
        s = SpaceDescriptor(1, 25, 25)
        psi = basis_state(s, 0, 0, 0)
        for vacuum in (self.given_matrix(s, psi), DensityMatrix.from_state_vector(s, psi)):
            tracemalloc.start()
            try:
                squeezed_frame(vacuum, math.atanh(0.6))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < psi.nbytes * psi.size, peak


class TestLindbladEvolve:
    def test_damped_cavity_occupation(self):
        s = SpaceDescriptor(1, 8, 1)
        gamma = 1.3
        rho0 = DensityMatrix.from_state_vector(s, basis_state(s, 0, 3, 0))
        n = number_op(s, 1)
        times = np.linspace(0.0, 2.0, 9)
        traj = lindblad_evolve(
            rho0, [(annihilation_op(s, 1), gamma)], (0.0, 2.0),
            record=lambda rho: {"n": expectation(n, rho).real},
            sample_times=times,
        )
        expected = 3.0 * np.exp(-gamma * times)
        np.testing.assert_allclose(traj.records["n"], expected, atol=1e-5)

    def test_transformed_mode_pumping(self):
        # the jump b1 empties transformed mode 1 exponentially
        s = SpaceDescriptor(1, 8, 8)
        eps = 0.3
        gamma = 0.8
        rho0 = DensityMatrix.from_state_vector(s, transformed_fock1(s, eps, 1))
        b = b_mode_annihilation(s, eps, 1)
        n_b = b.dagger() @ b
        times = np.linspace(0.0, 2.5, 6)
        traj = lindblad_evolve(
            rho0, [(b, gamma)], (0.0, 2.5),
            record=lambda rho: {"n_b1": expectation(n_b, rho).real},
            sample_times=times,
        )
        np.testing.assert_allclose(traj.records["n_b1"], np.exp(-gamma * times), atol=1e-5)

    def test_step_size_violation(self):
        s = SpaceDescriptor(1, 4, 1)
        rho0 = DensityMatrix.from_state_vector(s, basis_state(s, 0, 1, 0))
        with pytest.raises(ValueError, match="step-size violation"):
            lindblad_evolve(rho0, [(annihilation_op(s, 1), 10.0)], (0.0, 1.0), dt=0.1)

    def test_rejects_negative_rate(self):
        s = SpaceDescriptor(1, 4, 1)
        rho0 = DensityMatrix.from_state_vector(s, basis_state(s, 0, 1, 0))
        with pytest.raises(ValueError, match="nonnegative"):
            lindblad_evolve(rho0, [(annihilation_op(s, 1), -1.0)], (0.0, 1.0))

    def test_rejects_space_mismatch(self):
        s = SpaceDescriptor(1, 4, 1)
        other = SpaceDescriptor(1, 5, 1)
        rho0 = DensityMatrix.from_state_vector(s, basis_state(s, 0, 1, 0))
        with pytest.raises(ValueError, match="space"):
            lindblad_evolve(rho0, [(annihilation_op(other, 1), 1.0)], (0.0, 1.0))

    def test_pure_hamiltonian_matches_unitary(self):
        s = SpaceDescriptor(2, 8, 8)
        d = channel_b1_rates()
        h = build_selective_hamiltonian(d, None, s)
        rho0 = DensityMatrix.from_state_vector(s, basis_state(s, "g", 1, 1))
        u = scipy.linalg.expm(-1.1j * h.matrix)
        ref = u @ rho0.matrix @ u.conj().T
        traj = lindblad_evolve(rho0, [], (0.0, 1.1), hamiltonian=h)
        assert np.max(np.abs(traj.final_state.matrix - ref)) < 1e-7

    def test_diagnostics_and_positivity(self):
        s = SpaceDescriptor(1, 6, 1)
        rho0 = DensityMatrix.from_state_vector(s, basis_state(s, 0, 2, 0))
        traj = lindblad_evolve(rho0, [(annihilation_op(s, 1), 1.0)], (0.0, 1.0))
        assert traj.diagnostics["steps"] > 0
        assert traj.diagnostics["min_population"] > -1e-8
        assert abs(np.trace(traj.final_state.matrix).real - 1.0) < 1e-12

    def test_empty_records_without_recorder(self):
        s = SpaceDescriptor(1, 4, 1)
        rho0 = DensityMatrix.from_state_vector(s, basis_state(s, 0, 1, 0))
        traj = lindblad_evolve(rho0, [(annihilation_op(s, 1), 1.0)], (0.0, 0.5))
        assert traj.records == {}
        assert traj.final_state is not None
