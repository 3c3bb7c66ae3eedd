"""Physical model of the two-channel Raman scheme.

Builds the driven three-level Hamiltonian, its dispersive (adiabatically
eliminated) two-level form, the single-channel form in the Bogoliubov mode
basis, the squeeze unitary, and the derived coupling and dissipation rates.
The amplitude damping that pumps a transformed mode is ChargeBlocks.damped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hilbert import (Operator, SpaceDescriptor, annihilation_op, atom_transition_op, charge_sectors, elementwise,
                      number_op, plain)

TWO_PI = 2.0 * math.pi

DISPERSIVE_LIMIT = 0.1
# validity limits of theta_b*tau (transit phase) and r_a*tau (beam occupancy)
TRANSIT_LIMIT = 0.2
OCCUPANCY_LIMIT = 0.2
SQUEEZE_LEAK_LIMIT = 1e-3

_HZ_KEYS = {
    "omega1_hz": "omega1",
    "omega2_hz": "omega2",
    "g1_hz": "g1",
    "g2_hz": "g2",
    "delta1_hz": "delta1",
    "delta2_hz": "delta2",
    "gamma_e_hz": "gamma_e",
}


def number(key: str, value) -> float:
    """float(value) of the config value key, refused where float() fails and for true and false."""
    try:
        return float(None if isinstance(value, bool) else value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, got {value!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Lab-frame inputs.  All frequencies are angular (rad/s).

    omega1, omega2 are classical-drive Rabi frequencies; g1, g2 the cavity
    couplings; delta1, delta2 the signed one-photon detunings of the two
    Raman channels; gamma_e the excited-state linewidth; r_a the atomic
    arrival rate in atoms per second; tau the single-atom transit time in
    seconds.  A field may hold an array, one table per element (the
    weak drives of a sweep's grid), which derive_rates, mirror_to_b1 and
    validate_regime read per element.
    """

    omega1: float
    omega2: float
    g1: float
    g2: float
    delta1: float
    delta2: float
    gamma_e: float = 0.0
    r_a: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        for name in ("omega1", "omega2", "g1", "g2", "delta1", "delta2", "gamma_e", "r_a", "tau"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        for name in ("delta1", "delta2"):
            if np.any(getattr(self, name) == 0.0):
                raise ValueError(f"{name} must be nonzero")
        if np.any(self.delta1 == self.delta2):
            raise ValueError("delta1 and delta2 must differ: equal detunings collapse the two Raman channels")
        for name in ("gamma_e", "r_a", "tau"):
            if np.any(getattr(self, name) < 0.0):
                raise ValueError(f"{name} must be nonnegative")

    @property
    def dispersive_ratio(self) -> float:
        """max coupling over min detuning scale; small values justify elimination of the excited state."""
        num = functools.reduce(np.maximum, map(abs, (self.omega1, self.omega2, self.g1, self.g2)))
        den = functools.reduce(np.minimum, map(abs, (self.delta1, self.delta2, self.delta1 - self.delta2)))
        return num / den

    @classmethod
    def from_hz_dict(cls, data: dict) -> "PhysicalParams":
        """Build from a parameter mapping in linear-frequency units.

        Keys omega1_hz .. gamma_e_hz are in Hz and converted to rad/s;
        r_a_hz is an event rate in 1/s (no conversion); tau_s is in seconds.
        """
        known = set(_HZ_KEYS) | {"r_a_hz", "tau_s"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown parameter keys {sorted(unknown)}")
        values = {key: number(key, value) for key, value in data.items()}
        kwargs = {field: TWO_PI * values[key] for key, field in _HZ_KEYS.items() if key in values}
        missing = [k for k in ("omega1_hz", "omega2_hz", "g1_hz", "g2_hz", "delta1_hz", "delta2_hz") if k not in data]
        if missing:
            raise ValueError(f"missing parameter keys {missing}")
        kwargs["r_a"] = values.get("r_a_hz", 0.0)
        kwargs["tau"] = values.get("tau_s", 0.0)
        return cls(**kwargs)

    def to_hz_dict(self) -> dict:
        out = {key: getattr(self, field) / TWO_PI for key, field in _HZ_KEYS.items()}
        out["r_a_hz"] = self.r_a
        out["tau_s"] = self.tau
        return out


@dataclass(frozen=True)
class DerivedParams:
    """Two-photon rates and the Bogoliubov-channel quantities they fix.

    channel is 'b1' when theta1 > theta2 (transformed mode 1 couples) and
    'b2' when theta1 < theta2.  gamma is the pumping rate of the coupled
    transformed mode, r_a * theta_b**2 * tau**2.
    """

    theta1: float
    theta2: float
    r: float
    epsilon: float
    theta_b: float
    gamma: float
    channel: str

    @property
    def atom_state(self) -> str:
        """Level the pumping atoms enter in: g on channel b1, h on b2."""
        return "g" if self.channel == "b1" else "h"


def derive_rates(p: PhysicalParams) -> DerivedParams:
    """Two-photon Raman rates and the squeeze/dissipation parameters they imply; per point of a
    table of arrays, refused if any point is degenerate, with channel b1 if every point has it."""
    theta1 = abs(p.omega1 * p.g1 / p.delta1)
    theta2 = abs(p.omega2 * p.g2 / p.delta2)
    if np.any(theta1 == theta2):
        raise ValueError("degenerate channel: r = 1, epsilon diverges")
    r = np.minimum(theta1, theta2) / np.maximum(theta1, theta2)
    theta_b = (theta1 + theta2) * np.sqrt((1.0 - r) / (1.0 + r))
    gamma = p.r_a * elementwise(math.pow, theta_b, 2.0) * p.tau**2
    channel = "b1" if np.all(theta1 > theta2) else "b2"
    return DerivedParams(*map(plain, (theta1, theta2, r, elementwise(math.atanh, r), theta_b, gamma)), channel)


@dataclass(frozen=True)
class StarkShifts:
    """Signed dispersive light shifts (rad/s), the diagonal of
    build_effective_hamiltonian (James & Jerke, Can. J. Phys. 85, 625 (2007)).

    shift_g = omega2^2/delta2 and shift_h = omega1^2/delta1 are the drive
    shifts, per_photon_1 = g1^2/delta1 and per_photon_2 = g2^2/delta2 the
    cavity shifts per photon: level g sits at shift_g + per_photon_1 n1 and
    level h at shift_h + per_photon_2 n2, for either sign of each detuning;
    _stark_diagonal forms these levels.
    """

    shift_g: float
    shift_h: float
    per_photon_1: float
    per_photon_2: float


def stark_shifts(p: PhysicalParams) -> StarkShifts:
    return StarkShifts(
        shift_g=p.omega2**2 / p.delta2,
        shift_h=p.omega1**2 / p.delta1,
        per_photon_1=p.g1**2 / p.delta1,
        per_photon_2=p.g2**2 / p.delta2,
    )


@functools.lru_cache(maxsize=4)
def _full_couplings(s: SpaceDescriptor) -> tuple:
    """Sparsity pattern of build_full_hamiltonian, built once per space.

    Returns read-only arrays over the nonzero entries of the four raising
    terms s_eh, s_eg, a1 s_eg and a2 s_eh: their flat indices in H, the
    flat indices of the same entries in the adjoint, their values, and
    the term (0 to 3) each belongs to.  The four supports are disjoint
    from each other and from their transposes, since every raising entry
    has its row in the e block and its column in the g or h block.  On
    3 levels and N Fock states per mode there are about 4 N^2 entries
    against 9 N^4 in H.
    """
    a1 = annihilation_op(s, 1).matrix
    a2 = annihilation_op(s, 2).matrix
    s_eh = atom_transition_op(s, "e", "h").matrix
    s_eg = atom_transition_op(s, "e", "g").matrix
    terms = (s_eh, s_eg, a1 @ s_eg, a2 @ s_eh)
    rows, cols = np.concatenate([np.nonzero(m) for m in terms], axis=1)
    values = np.concatenate([m[m != 0] for m in terms])
    term = np.repeat(np.arange(len(terms)), [np.count_nonzero(m) for m in terms])
    pattern = rows * s.dim + cols, cols * s.dim + rows, values, term
    for array in pattern:
        array.setflags(write=False)
    return pattern


def build_full_hamiltonian(p: PhysicalParams, s: SpaceDescriptor, t: float) -> Operator:
    """Interaction-picture Hamiltonian of the driven three-level atom at time t.

    Channel 1 couples drive 1 (h <-> e) with cavity mode 1 (g <-> e) at
    detuning delta1; channel 2 couples drive 2 (g <-> e) with cavity mode 2
    (h <-> e) at detuning delta2.  Raising terms carry e^{-i delta t}; this
    sign pairs with the +omega^2/delta shift convention of
    build_effective_hamiltonian, so the second-order reduction of this
    Hamiltonian is that one (checked dynamically in the tests).

    Only the four coefficients omega1 e^{-i delta1 t}, omega2 e^{-i delta2 t},
    g1 e^{-i delta1 t} and g2 e^{-i delta2 t} change with t.  The positions
    and values of the entries they multiply are cached per space by
    _full_couplings, so a call costs O(nonzeros) arithmetic plus filling
    one zero dim x dim matrix: each stored entry is multiplied by its
    coefficient and scattered, and its conjugate into the adjoint position.
    propagate_state calls this twice per RK4 step (at the midpoint and the
    end, which is the next step's start), plus once at the start of the span.
    """
    if s.atom_levels != 3:
        raise ValueError(f"full model needs 3 atom levels, space has {s.atom_levels}")
    flat, adjoint, values, term = _full_couplings(s)
    phase1 = np.exp(-1j * p.delta1 * t)
    phase2 = np.exp(-1j * p.delta2 * t)
    coefficients = np.array([p.omega1 * phase1, p.omega2 * phase2, p.g1 * phase1, p.g2 * phase2])
    raising = coefficients[term] * values
    h = np.zeros(s.dim * s.dim, dtype=complex)
    h[flat] = raising
    h[adjoint] = raising.conj()
    return Operator._adopt(s, h.reshape(s.dim, s.dim))


def build_effective_hamiltonian(p: PhysicalParams, s: SpaceDescriptor) -> Operator:
    """Dispersive two-level Hamiltonian after elimination of the excited state.

    Diagonal light shifts on g and h plus the two two-photon flip terms,
    with signed detunings entering exactly as given.
    """
    if s.atom_levels < 2:
        raise ValueError("effective model needs at least the two ground levels g, h")
    a1 = annihilation_op(s, 1).matrix
    a2 = annihilation_op(s, 2).matrix
    s_gh = atom_transition_op(s, "g", "h").matrix
    flip = (p.omega1 * p.g1 / p.delta1) * a1.conj().T + (p.omega2 * p.g2 / p.delta2) * a2
    h0 = _stark_diagonal(stark_shifts(p), number_op(s, 1).matrix, number_op(s, 2).matrix, s)
    return Operator._adopt(s, h0 + flip @ s_gh + (flip @ s_gh).conj().T)


def _stark_diagonal(stark: StarkShifts, n1_like: np.ndarray, n2_like: np.ndarray, s: SpaceDescriptor) -> np.ndarray:
    """Light-shift Hamiltonian with the given number operators substituted in."""
    one = np.eye(s.dim)
    e_g = stark.shift_g * one + stark.per_photon_1 * n1_like
    e_h = stark.shift_h * one + stark.per_photon_2 * n2_like
    return e_h @ atom_transition_op(s, "h", "h").matrix + e_g @ atom_transition_op(s, "g", "g").matrix


def refuse_tail(s: SpaceDescriptor, epsilon: float, limit: float = SQUEEZE_LEAK_LIMIT) -> None:
    """Refuse a truncation whose squeezed-vacuum tail tanh(epsilon)**(2N)
    past N = min(n1_trunc, n2_trunc) Fock states per mode exceeds limit."""
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    n_min = min(s.n1_trunc, s.n2_trunc)
    t = abs(math.tanh(epsilon))
    tail = t ** (2 * n_min)
    if tail > limit:
        needed = math.ceil(math.log(limit) / (2.0 * math.log(t)))
        raise ValueError(
            f"truncation {n_min} too small for epsilon={epsilon:.4g}: squeezed-vacuum tail "
            f"{tail:.2e} exceeds {limit:g}; use at least {needed} Fock states per mode"
        )


def squeeze_sectors(s: SpaceDescriptor, epsilon: float) -> list:
    """The (n1 - n2) sectors of the field squeeze unitary S of
    build_squeeze_operator, which refuses the same truncations.

    One (n1, n2, block) per sector k = n1 - n2, from k = 1 - n2_trunc up:
    its Fock states |n1[j], n2[j]> by rising n2, the last on the boundary
    layers, and the real block with S|n1[j], n2[j]> = sum_i block[i, j]
    |n1[i], n2[i]>, read-only and shared by the sectors of equal couplings.
    On a sector the generator is a real tridiagonal G = L - L^T; with D =
    diag(i^j), D G D^-1 = -i T for the real symmetric T = L + L^T, so
    exp(G) = D^-1 Q exp(-i Lambda) Q^T D from one eigh of T.
    """
    refuse_tail(s, epsilon)
    sectors, blocks = [], {}
    for n1, n2 in charge_sectors(s.n1_trunc, s.n2_trunc):
        # <n1 - 1, n2 - 1| a1 a2 |n1, n2> = sqrt(n1 n2), and a1+ a2+ is its transpose;
        # sectors k and -k of one length have equal products n1 n2, so one block serves both
        coupling = epsilon * np.sqrt(n1[1:] * n2[1:])
        key = coupling.tobytes()
        if key not in blocks:
            lam, q = np.linalg.eigh(np.diag(coupling, 1) + np.diag(coupling, -1))
            phase = np.array([1, 1j, -1, -1j])[np.arange(n1.size) % 4]
            blocks[key] = (phase.conj()[:, None] * ((q * np.exp(-1j * lam)) @ q.T) * phase).real.copy()
            blocks[key].flags.writeable = False
        sectors.append((n1, n2, blocks[key]))
    return sectors


def build_squeeze_operator(s: SpaceDescriptor, epsilon: float) -> Operator:
    """Two-mode squeeze unitary exp(epsilon*(a1 a2 - a1+ a2+)) on the truncated space.

    The generator is anti-Hermitian even after truncation, so the result is
    always unitary; what truncation does break is the action on Fock states
    whose squeezed image S|n1,n2> reaches the photon-number cutoff.  A Fock
    state is interior when that image stays inside the truncation, as
    measured by ``analysis.truncation_leak`` of the column S|n1,n2>.  This
    is not the same as n well below N: at epsilon = 0.5 and N = 25 the
    largest leak of S|n1,n2> over n1, n2 <= 8 is already 3.6e-2.  The leak
    of the transformed vacuum past an N-photon cutoff is
    tanh(epsilon)**(2N), and construction is refused when that exceeds 1e-3.

    It is the scatter of squeeze_sectors, which the engines use directly;
    every entry between two sectors is exactly zero.
    """
    fields = np.zeros((s.n1_trunc * s.n2_trunc,) * 2)
    for n1, n2, block in squeeze_sectors(s, epsilon):
        sector = n1 * s.n2_trunc + n2
        fields[np.ix_(sector, sector)] = block
    return Operator._adopt(s, np.kron(np.eye(s.atom_levels), fields))


def b_mode_annihilation(s: SpaceDescriptor, epsilon: float, mode: int) -> Operator:
    """Annihilation operator of transformed (squeezed-basis) mode 1 or 2.

    Built by conjugating the bare operator with the squeeze unitary on the
    field factors; on interior Fock states this equals
    cosh(epsilon)*a_j - sinh(epsilon)*a_k+ with k the other mode.  Interior
    means the squeezed images S|n1,n2> of the states involved stay inside
    the truncation (see ``build_squeeze_operator``); while their largest
    ``truncation_leak`` is small, the matrix-element residual is about twice
    that leak.  At epsilon = 0.5 and N = 25 the residual is 5.2e-7 on
    n1, n2 <= 4 but 9.1e-2 on n1, n2 <= 8; on n1, n2 <= 12 it is 1.0e-8
    at N = 55.
    """
    fields = SpaceDescriptor(1, s.n1_trunc, s.n2_trunc)
    sq = build_squeeze_operator(fields, epsilon)
    a = annihilation_op(fields, mode)
    b = sq.dagger() @ a @ sq
    return Operator._adopt(s, np.kron(np.eye(s.atom_levels), b.matrix))


def build_selective_hamiltonian(
    d: DerivedParams, stark: Optional[StarkShifts], s: SpaceDescriptor
) -> Operator:
    """Single-channel Hamiltonian in the transformed mode basis.

    The flip term couples the effective two-level atom to exactly one
    transformed mode: -theta_b*(b1 sigma_hg + b1+ sigma_gh) on channel b1,
    +theta_b*(b2+ sigma_hg + b2 sigma_gh) on channel b2.  When stark is
    given, the light shifts are added with their number operators taken in
    the transformed basis, minus the constant energy of the pumping target
    sector, so the target state (atom g with transformed vacuum on channel
    b1, atom h on channel b2) is a zero-energy eigenstate.
    """
    if s.atom_levels < 2:
        raise ValueError("selective model needs at least the two ground levels g, h")
    b1 = b_mode_annihilation(s, d.epsilon, 1)
    b2 = b_mode_annihilation(s, d.epsilon, 2)
    s_hg = atom_transition_op(s, "h", "g")
    s_gh = atom_transition_op(s, "g", "h")
    if d.channel == "b1":
        h1 = -d.theta_b * (b1 @ s_hg + b1.dagger() @ s_gh)
    else:
        h1 = d.theta_b * (b2.dagger() @ s_hg + b2 @ s_gh)
    if stark is None:
        return h1
    nb1 = (b1.dagger() @ b1).matrix
    nb2 = (b2.dagger() @ b2).matrix
    # less the dark energy, the entry level's n = 0 shift
    h0 = _stark_diagonal(stark, nb1, nb2, s) - getattr(stark, "shift_" + d.atom_state) * np.eye(s.dim)
    return Operator._adopt(s, h0 + h1.matrix)


@dataclass(frozen=True)
class DecayEstimate:
    """Excited-state admixture of the drive-1 channel and the decay rate it implies."""

    occupation: float
    rate: float


def spontaneous_decay_estimate(p: PhysicalParams) -> DecayEstimate:
    """Effective spontaneous-emission rate from off-resonant excited-state occupation."""
    occupation = elementwise(math.pow, abs(p.omega1 / p.delta1), 2.0)
    return DecayEstimate(occupation=plain(occupation), rate=plain(occupation * p.gamma_e))
