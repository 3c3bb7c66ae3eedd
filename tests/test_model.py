import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from cavsqueeze.hilbert import (
    SpaceDescriptor,
    annihilation_op,
    atom_transition_op,
    basis_state,
)
from cavsqueeze.model import (
    DerivedParams,
    PhysicalParams,
    b_mode_annihilation,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    build_selective_hamiltonian,
    build_squeeze_operator,
    derive_rates,
    spontaneous_decay_estimate,
    stark_shifts,
)
from oracles import (
    build_displacement_operator,
    dense_full_hamiltonian,
    dense_squeeze_operator,
    effective_hamiltonian_rate_form,
)

TWO_PI = 2.0 * math.pi


def microwave_params(r_a=4000.0, tau=2.5e-5):
    # drive 2 is drive 1 scaled by 1/0.48 and sits at twice the detuning
    return PhysicalParams.from_hz_dict(
        {
            "omega1_hz": 40e3,
            "omega2_hz": 40e3 / 0.48,
            "g1_hz": 50e3,
            "g2_hz": 50e3,
            "delta1_hz": -1e6,
            "delta2_hz": 2e6,
            "gamma_e_hz": 0.0,
            "r_a_hz": r_a,
            "tau_s": tau,
        }
    )


def canonical_params(theta1, theta2, r_a=0.0, tau=0.0):
    """Unit-scale parameters with delta1 = -1, delta2 = +1 and Omega = g = sqrt(theta)."""
    return PhysicalParams(
        omega1=math.sqrt(theta1),
        omega2=math.sqrt(theta2),
        g1=math.sqrt(theta1),
        g2=math.sqrt(theta2),
        delta1=-1.0,
        delta2=1.0,
        r_a=r_a,
        tau=tau,
    )


class TestDeriveRates:
    def test_microwave_numbers(self):
        p = microwave_params()
        d = derive_rates(p)
        assert d.theta1 / TWO_PI == pytest.approx(2000.0, rel=1e-12)
        # 83333.333... kHz inputs: (40/0.48)*50/2000 kHz = 2083.333... Hz
        assert d.theta2 / TWO_PI == pytest.approx(2083.3333333333335, rel=1e-12)
        assert d.r == pytest.approx(0.96, rel=1e-12)
        # atanh(0.96) = 0.5*ln(1.96/0.04) = ln 7
        assert d.epsilon == pytest.approx(math.log(7.0), rel=1e-12)
        # sqrt(theta2^2 - theta1^2) with theta2 = 6250/3 gives 1750/3
        assert d.theta_b / TWO_PI == pytest.approx(1750.0 / 3.0, rel=1e-12)
        assert d.channel == "b2"
        assert d.gamma == pytest.approx(p.r_a * d.theta_b**2 * p.tau**2, rel=1e-14)
        assert d.gamma == pytest.approx(33.584, rel=1e-3)

    def test_weak_channel_limit(self):
        p = PhysicalParams(omega1=1e-6, omega2=1.0, g1=1.0, g2=1.0, delta1=-1.0, delta2=1.0)
        d = derive_rates(p)
        assert d.r == pytest.approx(1e-6, rel=1e-9)
        assert d.epsilon == pytest.approx(1e-6, rel=1e-6)
        assert d.theta_b == pytest.approx(d.theta2, rel=1e-5)
        assert d.channel == "b2"

    def test_degenerate_channel_rejected(self):
        p = PhysicalParams(omega1=1.0, omega2=1.0, g1=1.0, g2=1.0, delta1=-1.0, delta2=1.0)
        with pytest.raises(ValueError, match="degenerate"):
            derive_rates(p)

    def test_scaling_covariance(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            w1, w2, c1, c2 = rng.uniform(0.1, 2.0, size=4)
            d1, d2 = -rng.uniform(5.0, 50.0), rng.uniform(5.0, 50.0)
            lam = rng.uniform(0.5, 10.0)
            p = PhysicalParams(w1, w2, c1, c2, d1, d2)
            q = PhysicalParams(lam * w1, lam * w2, lam * c1, lam * c2, lam * d1, lam * d2)
            dp, dq = derive_rates(p), derive_rates(q)
            assert dq.r == pytest.approx(dp.r, rel=1e-12)
            assert dq.epsilon == pytest.approx(dp.epsilon, rel=1e-12)
            assert dq.theta1 == pytest.approx(lam * dp.theta1, rel=1e-12)
            assert dq.theta2 == pytest.approx(lam * dp.theta2, rel=1e-12)
            assert dq.theta_b == pytest.approx(lam * dp.theta_b, rel=1e-12)

    def test_a_table_of_arrays_rounds_each_point_as_floats_do(self):
        # 4,000 drives in one table give, to the last bit, the rates and decay rates the rule
        # gives in Python floats (** and math): numpy's x**2 and arctanh differ from those in
        # the last place on some points, which a bit-exact sweep must not take
        base = microwave_params()
        drives = base.omega1 * np.random.default_rng(5).uniform(0.05, 1.2, 4000)
        d = derive_rates(replace(base, omega1=drives, gamma_e=3.0))
        decay = spontaneous_decay_estimate(replace(base, omega1=drives, gamma_e=3.0)).rate
        columns = np.broadcast_arrays(d.theta1, d.theta2, d.r, d.epsilon, d.theta_b, d.gamma, decay)
        for row, w in zip(np.transpose(columns).tolist(), drives.tolist()):
            theta1, theta2 = abs(w * base.g1 / base.delta1), abs(base.omega2 * base.g2 / base.delta2)
            r = min(theta1, theta2) / max(theta1, theta2)
            theta_b = (theta1 + theta2) * math.sqrt((1.0 - r) / (1.0 + r))
            assert row == [theta1, theta2, r, math.atanh(r), theta_b, base.r_a * theta_b**2 * base.tau**2,
                           abs(w / base.delta1) ** 2 * 3.0]
        # the points couple either mode, so the table's channel is not b1
        assert d.channel == "b2"

class TestPhysicalParams:
    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError, match="delta1 must be nonzero"):
            PhysicalParams(1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="delta2 must be nonzero"):
            PhysicalParams(1.0, 1.0, 1.0, 1.0, -1.0, 0.0)
        with pytest.raises(ValueError, match="must differ"):
            PhysicalParams(1.0, 1.0, 1.0, 1.0, 2.0, 2.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            PhysicalParams(1.0, 1.0, 1.0, 1.0, -1.0, 1.0, gamma_e=-0.1)
        with pytest.raises(ValueError):
            PhysicalParams(1.0, 1.0, 1.0, 1.0, -1.0, 1.0, r_a=-5.0)
        with pytest.raises(ValueError):
            PhysicalParams(1.0, 1.0, 1.0, 1.0, math.inf, 1.0)

    def test_hz_conversion(self):
        p = microwave_params()
        assert p.omega1 == pytest.approx(TWO_PI * 40e3, rel=1e-15)
        assert p.delta1 == pytest.approx(-TWO_PI * 1e6, rel=1e-15)
        # arrival rate and transit time are not angular quantities
        assert p.r_a == 4000.0
        assert p.tau == 2.5e-5
        back = p.to_hz_dict()
        assert back["omega2_hz"] == pytest.approx(40e3 / 0.48, rel=1e-12)
        assert back["r_a_hz"] == 4000.0

    def test_hz_dict_key_validation(self):
        with pytest.raises(ValueError, match="unknown parameter keys"):
            PhysicalParams.from_hz_dict({"omega1_hz": 1.0, "bogus": 2.0})
        with pytest.raises(ValueError, match="missing parameter keys"):
            PhysicalParams.from_hz_dict({"omega1_hz": 1.0})

    def test_dispersive_ratio(self):
        p = microwave_params()
        # 83333.33 Hz drive over 1 MHz minimum detuning
        assert p.dispersive_ratio == pytest.approx(83333.333333333328 / 1e6, rel=1e-9)
        q = PhysicalParams(0.3, 0.1, 0.1, 0.1, -1.0, 1.0)
        assert q.dispersive_ratio == pytest.approx(0.3, rel=1e-12)
        # detuning difference can dominate the scale even for large detunings
        close = PhysicalParams(0.05, 0.05, 0.05, 0.05, 5.0, 5.1)
        assert close.dispersive_ratio == pytest.approx(0.5, rel=1e-9)


class TestFullHamiltonian:
    def test_matrix_elements_at_t0(self):
        s = SpaceDescriptor(3, 3, 3)
        p = PhysicalParams(0.11, 0.22, 0.33, 0.44, -1.0, 2.0)
        h = build_full_hamiltonian(p, s, 0.0).matrix
        e00 = s.index("e", 0, 0)
        assert h[e00, s.index("h", 0, 0)] == pytest.approx(0.11)
        assert h[e00, s.index("g", 1, 0)] == pytest.approx(0.33)
        assert h[e00, s.index("g", 0, 0)] == pytest.approx(0.22)
        assert h[e00, s.index("h", 0, 1)] == pytest.approx(0.44)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
        assert np.isrealobj(h) or np.max(np.abs(h.imag)) < 1e-15

    def test_phases_at_later_time(self):
        s = SpaceDescriptor(3, 2, 2)
        p = PhysicalParams(0.5, 0.0, 0.0, 0.0, -3.0, 2.0)
        t = 0.7
        h = build_full_hamiltonian(p, s, t).matrix
        assert h[s.index("e", 0, 0), s.index("h", 0, 0)] == pytest.approx(
            0.5 * np.exp(-1j * p.delta1 * t)
        )
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)

    def test_zero_couplings_give_zero(self):
        s = SpaceDescriptor(3, 2, 2)
        p = PhysicalParams(0.0, 0.0, 0.0, 0.0, -1.0, 1.0)
        h = build_full_hamiltonian(p, s, 1.3).matrix
        np.testing.assert_array_equal(h, np.zeros_like(h))

    def test_needs_three_levels(self):
        p = PhysicalParams(1.0, 1.0, 1.0, 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="3 atom levels"):
            build_full_hamiltonian(p, SpaceDescriptor(2, 3, 3), 0.0)

    @pytest.mark.parametrize("shape", [(3, 2, 2), (3, 5, 5), (3, 4, 6), (3, 6, 3)])
    def test_matches_dense_terms(self, shape):
        # the cached pattern multiplies coefficient and entry as the dense sum
        # does, and the terms' supports are disjoint, so every entry is equal
        # (a zero may differ in sign)
        s = SpaceDescriptor(*shape)
        rng = np.random.default_rng(sum(shape))
        params = [PhysicalParams(*rng.normal(size=4), -rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
                  for _ in range(4)]
        params.append(PhysicalParams(0.0, 0.0, 0.0, 0.0, -1.0, 2.0))
        params.append(PhysicalParams(0.3, 0.0, 0.0, -0.7, -1.5, 2.5))
        for p in params:
            for t in (0.0, 0.25, 1.3, -2.0, 37.9, rng.uniform(0.0, 100.0)):
                h = build_full_hamiltonian(p, s, t).matrix
                np.testing.assert_array_equal(h, dense_full_hamiltonian(p, s, t))

    def test_matrix_is_read_only(self):
        # the freshly filled matrix is adopted and frozen in place, not copied
        p = PhysicalParams(0.11, 0.22, 0.33, 0.44, -1.0, 2.0)
        h = build_full_hamiltonian(p, SpaceDescriptor(3, 3, 3), 0.4).matrix
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0, 0] = 1.0

    def test_each_call_returns_its_own_matrix(self):
        # propagate_state holds one step's H(t + h) while it builds the next
        # midpoint, so a later call may neither reuse nor overwrite the array
        p = PhysicalParams(0.11, 0.22, 0.33, 0.44, -1.0, 2.0)
        s = SpaceDescriptor(3, 3, 3)
        first = build_full_hamiltonian(p, s, 0.4).matrix
        kept = first.copy()
        second = build_full_hamiltonian(p, s, 1.7).matrix
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)
        assert not np.array_equal(first, second)


class TestEffectiveHamiltonian:
    def test_diagonal_readoffs(self):
        s = SpaceDescriptor(2, 3, 3)
        p = PhysicalParams(0.2, 0.3, 0.25, 0.15, -2.0, 5.0)
        h = build_effective_hamiltonian(p, s).matrix
        g00 = s.index("g", 0, 0)
        h00 = s.index("h", 0, 0)
        assert h[g00, g00] == pytest.approx(p.omega2**2 / p.delta2, rel=1e-12)
        assert h[h00, h00] == pytest.approx(p.omega1**2 / p.delta1, rel=1e-12)
        # photon-number dependent shifts
        g20 = s.index("g", 2, 0)
        assert h[g20, g20] == pytest.approx(
            p.omega2**2 / p.delta2 + 2 * p.g1**2 / p.delta1, rel=1e-12
        )

    def test_flip_readoffs(self):
        s = SpaceDescriptor(2, 3, 3)
        p = PhysicalParams(0.2, 0.3, 0.25, 0.15, -2.0, 5.0)
        h = build_effective_hamiltonian(p, s).matrix
        assert h[s.index("g", 1, 0), s.index("h", 0, 0)] == pytest.approx(
            p.omega1 * p.g1 / p.delta1, rel=1e-12
        )
        assert h[s.index("g", 0, 0), s.index("h", 0, 1)] == pytest.approx(
            p.omega2 * p.g2 / p.delta2, rel=1e-12
        )
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)

    def test_two_photon_amplitudes_match_rates(self):
        s = SpaceDescriptor(2, 4, 4)
        p = microwave_params()
        d = derive_rates(p)
        h = build_effective_hamiltonian(p, s).matrix
        amp1 = abs(h[s.index("g", 1, 0), s.index("h", 0, 0)])
        amp2 = abs(h[s.index("g", 0, 0), s.index("h", 0, 1)])
        assert amp1 == pytest.approx(d.theta1, rel=1e-12)
        assert amp2 == pytest.approx(d.theta2, rel=1e-12)

    def test_excited_level_untouched(self):
        s = SpaceDescriptor(3, 3, 3)
        p = PhysicalParams(0.2, 0.3, 0.25, 0.15, -2.0, 5.0)
        h = build_effective_hamiltonian(p, s).matrix
        e_rows = slice(s.index("e", 0, 0), s.dim)
        np.testing.assert_array_equal(h[e_rows, :], 0.0)
        np.testing.assert_array_equal(h[:, e_rows], 0.0)

    @pytest.mark.parametrize("signs", [(-1.0, 1.0), (1.0, -1.0)], ids=["delta1<0<delta2", "delta1>0>delta2"])
    def test_stark_shifts_are_its_diagonal(self, signs):
        # g sits at shift_g + per_photon_1 n1 and h at shift_h + per_photon_2 n2, for either sign pattern
        s = SpaceDescriptor(3, 4, 5)
        p = PhysicalParams(0.2, 0.3, 0.25, 0.15, 2.0 * signs[0], 5.0 * signs[1])
        h = build_effective_hamiltonian(p, s).matrix
        stark = stark_shifts(p)
        for n1 in range(4):
            for n2 in range(5):
                g, hh = s.index("g", n1, n2), s.index("h", n1, n2)
                assert h[g, g] == pytest.approx(stark.shift_g + stark.per_photon_1 * n1, rel=1e-12, abs=1e-15)
                assert h[hh, hh] == pytest.approx(stark.shift_h + stark.per_photon_2 * n2, rel=1e-12, abs=1e-15)

    def test_rate_form_equivalence(self):
        # regrouped light-shift + flip form reproduces the signed build exactly
        rng = np.random.default_rng(4)
        s = SpaceDescriptor(2, 5, 4)
        for _ in range(4):
            w1, w2, c1, c2 = rng.uniform(0.05, 0.5, size=4)
            p = PhysicalParams(w1, w2, c1, c2, -rng.uniform(1, 10), rng.uniform(1, 10))
            h_eff = build_effective_hamiltonian(p, s).matrix
            h_rate = effective_hamiltonian_rate_form(derive_rates(p), stark_shifts(p), s).matrix
            scale = max(np.max(np.abs(h_eff)), 1e-30)
            assert np.max(np.abs(h_eff - h_rate)) / scale < 1e-12


class TestSqueezeOperator:
    def test_zero_squeeze_is_identity(self):
        s = SpaceDescriptor(1, 6, 6)
        np.testing.assert_allclose(
            build_squeeze_operator(s, 0.0).matrix, np.eye(36), atol=1e-14
        )

    def test_unitarity(self):
        s = SpaceDescriptor(1, 20, 20)
        sq = build_squeeze_operator(s, math.atanh(0.7))
        np.testing.assert_allclose(
            (sq @ sq.dagger()).matrix, np.eye(s.dim), atol=1e-8
        )

    def test_transformed_vacuum_amplitudes(self):
        eps = 0.5
        s = SpaceDescriptor(1, 25, 25)
        sq = build_squeeze_operator(s, eps)
        v = sq.dagger().matrix @ basis_state(s, 0, 0, 0)
        t, c = math.tanh(eps), math.cosh(eps)
        for n in range(12):
            assert v[s.index(0, n, n)] == pytest.approx(t**n / c, abs=1e-6)
        # only paired photon numbers appear
        for n1 in range(6):
            for n2 in range(6):
                if n1 != n2:
                    assert abs(v[s.index(0, n1, n2)]) < 1e-10

    def test_bogoliubov_conjugation(self):
        # squeeze-frame mode 1 equals cosh(eps) a1 - sinh(eps) a2+ away from
        # the cutoff; the agreement degrades quickly with photon number since
        # the truncated squeeze unitary feels the cutoff on moderate-n input
        # columns, so the checked interior is small
        eps = 0.5
        s = SpaceDescriptor(1, 25, 25)
        b1 = b_mode_annihilation(s, eps, 1).matrix
        a1 = annihilation_op(s, 1).matrix
        a2 = annihilation_op(s, 2).matrix
        closed = math.cosh(eps) * a1 - math.sinh(eps) * a2.conj().T
        interior = [s.index(0, n1, n2) for n1 in range(5) for n2 in range(5)]
        diff = (b1 - closed)[np.ix_(interior, interior)]
        assert np.max(np.abs(diff)) < 1e-6

    def test_truncation_leak_rejected(self):
        s = SpaceDescriptor(1, 5, 5)
        with pytest.raises(ValueError, match="squeezed-vacuum tail") as exc:
            build_squeeze_operator(s, math.atanh(0.95))
        # ceil(ln 1e-3 / (2 ln 0.95)) Fock states needed
        assert "68" in str(exc.value)

    @pytest.mark.parametrize("shape", [(15, 15), (25, 25), (9, 13)])
    @pytest.mark.parametrize("eps", [0.5, -0.3, math.atanh(0.6)])
    def test_sectors_match_dense_expm(self, shape, eps):
        s = SpaceDescriptor(1, *shape)
        sq = build_squeeze_operator(s, eps).matrix
        np.testing.assert_allclose(sq, dense_squeeze_operator(s, eps), rtol=0, atol=1e-12)
        n1, n2 = np.indices(shape)
        sector = (n1 - n2).ravel()
        assert np.all(sq[sector[:, None] != sector[None, :]] == 0.0)
        assert np.max(np.abs(sq.conj().T @ sq - np.eye(s.dim))) <= 1e-12

    def test_high_squeezing_sectors_match_expm(self):
        # tanh(eps) = 0.8 at N = 40: the largest sector generator has norm
        # near 2 eps N = 88, so each block is checked against expm of its
        # own sector, not through a 1600-dim dense expm
        eps, n = math.atanh(0.8), 40
        s = SpaceDescriptor(1, n, n)
        sq = build_squeeze_operator(s, eps).matrix
        for k in range(1 - n, n):
            n2 = np.arange(max(0, -k), min(n, n - k))
            n1 = n2 + k
            lowering = np.diag(np.sqrt(n1[1:] * n2[1:]), 1)
            sector = n1 * n + n2
            np.testing.assert_allclose(sq[np.ix_(sector, sector)],
                                       scipy.linalg.expm(eps * (lowering - lowering.T)),
                                       rtol=0, atol=1e-12)
        assert np.max(np.abs(sq.conj().T @ sq - np.eye(s.dim))) <= 1e-12

    def test_atom_factor_embedding(self):
        eps = 0.3
        full = SpaceDescriptor(2, 6, 6)
        fields = SpaceDescriptor(1, 6, 6)
        b_full = b_mode_annihilation(full, eps, 2).matrix
        b_fields = b_mode_annihilation(fields, eps, 2).matrix
        np.testing.assert_allclose(b_full, np.kron(np.eye(2), b_fields), atol=1e-14)


class TestSelectiveHamiltonian:
    def test_zero_squeeze_recovers_bare_coupling(self):
        d = DerivedParams(
            theta1=1.0, theta2=0.0, r=0.0, epsilon=0.0, theta_b=1.0, gamma=0.0, channel="b1"
        )
        s = SpaceDescriptor(2, 5, 5)
        h = build_selective_hamiltonian(d, None, s).matrix
        a1 = annihilation_op(s, 1).matrix
        s_hg = atom_transition_op(s, "h", "g").matrix
        expected = -(a1 @ s_hg) - (a1 @ s_hg).conj().T
        np.testing.assert_allclose(h, expected, atol=1e-12)

    def test_matches_flip_term_of_rate_form(self):
        # the transformed-basis coupling is the same matrix as the two-mode
        # flip term, restricted to states away from the truncation edge
        s = SpaceDescriptor(2, 25, 25)
        p = canonical_params(1.0, math.tanh(0.6))
        d = derive_rates(p)
        h_b = build_selective_hamiltonian(d, None, s).matrix
        a1 = annihilation_op(s, 1).matrix
        a2 = annihilation_op(s, 2).matrix
        s_hg = atom_transition_op(s, "h", "g").matrix
        flip = (d.theta2 * a2.conj().T - d.theta1 * a1) @ s_hg
        h_a = flip + flip.conj().T
        interior = [
            s.index(a, n1, n2) for a in range(2) for n1 in range(3) for n2 in range(3)
        ]
        diff = (h_b - h_a)[np.ix_(interior, interior)]
        assert np.max(np.abs(diff)) < 1e-6 * d.theta_b

    def test_dark_state_channel_b1(self):
        s = SpaceDescriptor(2, 15, 15)
        p = canonical_params(1.0, 0.5)
        d = derive_rates(p)
        assert d.channel == "b1"
        h = build_selective_hamiltonian(d, stark_shifts(p), s).matrix
        fields = SpaceDescriptor(1, 15, 15)
        sq = build_squeeze_operator(fields, d.epsilon)
        vac_b = sq.dagger().matrix @ basis_state(fields, 0, 0, 0)
        dark = np.kron(np.array([1.0, 0.0]), vac_b)
        assert np.linalg.norm(h @ dark) < 1e-10 * d.theta_b

    def test_dark_state_channel_b2(self):
        s = SpaceDescriptor(2, 15, 15)
        p = canonical_params(0.5, 1.0)
        d = derive_rates(p)
        assert d.channel == "b2"
        h = build_selective_hamiltonian(d, stark_shifts(p), s).matrix
        fields = SpaceDescriptor(1, 15, 15)
        sq = build_squeeze_operator(fields, d.epsilon)
        vac_b = sq.dagger().matrix @ basis_state(fields, 0, 0, 0)
        dark = np.kron(np.array([0.0, 1.0]), vac_b)
        assert np.linalg.norm(h @ dark) < 1e-10 * d.theta_b

    def test_flip_oscillation_between_dressed_levels(self):
        # the single-channel Hamiltonian couples exactly two dressed states:
        # atom g with no transformed quanta, and atom h with one quantum in
        # transformed mode 2.  Population returns with period pi/theta_b.
        s = SpaceDescriptor(2, 8, 8)
        fields = SpaceDescriptor(1, 8, 8)
        d = derive_rates(canonical_params(0.3, 0.5))
        assert d.channel == "b2"
        h = build_selective_hamiltonian(d, None, s).matrix
        vac = build_squeeze_operator(fields, d.epsilon).dagger().matrix @ basis_state(fields, 0, 0, 0)
        one = b_mode_annihilation(fields, d.epsilon, 2).dagger().matrix @ vac
        one /= np.linalg.norm(one)
        start = np.kron(np.array([1.0, 0.0]), vac)
        target = np.kron(np.array([0.0, 1.0]), one)

        half = scipy.linalg.expm(-1j * (math.pi / (2.0 * d.theta_b)) * h) @ start
        assert abs(abs(np.vdot(target, half)) ** 2 - 1.0) < 1e-9

        full = scipy.linalg.expm(-1j * (math.pi / d.theta_b) * h) @ start
        assert abs(abs(np.vdot(start, full)) ** 2 - 1.0) < 1e-9

    def test_hermitian(self):
        s = SpaceDescriptor(2, 10, 10)
        p = canonical_params(0.8, 0.3)
        d = derive_rates(p)
        for stark in (None, stark_shifts(p)):
            h = build_selective_hamiltonian(d, stark, s).matrix
            np.testing.assert_allclose(h, h.conj().T, atol=1e-10)


class TestDisplacementOperator:
    def test_identity_at_zero(self):
        s = SpaceDescriptor(1, 5, 5)
        np.testing.assert_allclose(
            build_displacement_operator(s, 0.0, 0.0).matrix, np.eye(25), atol=1e-14
        )

    def test_poisson_statistics(self):
        s = SpaceDescriptor(1, 25, 1)
        alpha = 1.0
        dop = build_displacement_operator(s, alpha, 0.0)
        psi = dop.matrix @ basis_state(s, 0, 0, 0)
        for n in range(10):
            expected = math.exp(-abs(alpha) ** 2) * abs(alpha) ** (2 * n) / math.factorial(n)
            assert abs(psi[s.index(0, n, 0)]) ** 2 == pytest.approx(expected, abs=1e-6)

    def test_inverse_property(self):
        s = SpaceDescriptor(1, 20, 6)
        alpha = 0.7 + 0.2j
        d_plus = build_displacement_operator(s, alpha, 0.1)
        d_minus = build_displacement_operator(s, -alpha, -0.1)
        np.testing.assert_allclose((d_plus @ d_minus).matrix, np.eye(s.dim), atol=1e-8)

    def test_large_amplitude_warns(self):
        s = SpaceDescriptor(1, 25, 25)
        with pytest.warns(UserWarning, match="truncation"):
            build_displacement_operator(s, 3.0, 0.0)

    def test_nonfinite_rejected(self):
        s = SpaceDescriptor(1, 5, 5)
        with pytest.raises(ValueError, match="finite"):
            build_displacement_operator(s, math.nan, 0.0)


class TestDecayEstimate:
    def test_ratio_squared(self):
        p = PhysicalParams(0.04, 0.01, 0.01, 0.01, -1.0, 1.0, gamma_e=2.0)
        est = spontaneous_decay_estimate(p)
        assert est.occupation == pytest.approx(1.6e-3, rel=1e-12)
        assert est.rate == pytest.approx(3.2e-3, rel=1e-12)

    def test_zero_cases(self):
        p = PhysicalParams(0.0, 0.01, 0.01, 0.01, -1.0, 1.0, gamma_e=2.0)
        assert spontaneous_decay_estimate(p).rate == 0.0
        q = PhysicalParams(0.04, 0.01, 0.01, 0.01, -1.0, 1.0, gamma_e=0.0)
        assert spontaneous_decay_estimate(q).rate == 0.0
