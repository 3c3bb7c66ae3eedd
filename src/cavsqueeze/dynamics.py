"""Time evolution engines.

Every engine runs one driver, run_steps: a pumping step is the pair (times,
advance), and advance(state, read) returns the step's readings and its end
state.  The fock and collision engines enter through the squeezed frame they
share; its pump reads every sample of a fock step in closed form from the
state the step starts in and damps once, as gaussian_frame does on the moments.
The collision model steps from sample to sample by atom counts (stepwise), one
closed-form Kraus pair per atom of its Poisson stream.  Fourth-order
Runge-Kutta propagates state vectors of the three-level model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .analysis import BAND_LADDERS, band_moments, band_sums, moment_records, report_from_records, squeeze_moments
from .hilbert import ChargeBlocks, DensityMatrix, SpaceDescriptor, _occupied_pairs, charge_outer, is_integer
from .model import (
    OCCUPANCY_LIMIT,
    DerivedParams,
    PhysicalParams,
    StarkShifts,
    derive_rates,
    squeeze_sectors,
    stark_shifts,
)

COUPLING_ERROR_LIMIT = 0.5
BOUNDARY_ERROR_LIMIT = 1e-3
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class Trajectory:
    """Sampled time evolution: times, named observable series, optional final state.

    It holds its runner's float arrays as built; the runners check a caller's clock.
    final_state holds whatever state representation the producing engine
    uses (the squeezed-frame ChargeBlocks rho_b for the Fock engines,
    GaussianState for the covariance engine)."""

    times: np.ndarray
    records: dict
    final_state: Optional[object] = None
    diagnostics: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        write_csv(path, ["t", *self.records], zip(self.times, *self.records.values()))


def write_csv(path, columns: Sequence[str], rows) -> None:
    """The CSV of every command: a header of the column names, then one
    line of ,-joined %.17g numbers per row, which round-trip exactly."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


@dataclass(frozen=True)
class ArrivalProcess:
    """Poisson atom arrivals at the given rate, reproducible from the seed.

    The collision runner drops an arrival while an earlier atom is still
    inside the cavity and counts it; the cavity takes the next arrival after
    that atom has left.  A zero rate means no atoms ever arrive.
    """

    rate: float
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.rate) or self.rate < 0.0:
            raise ValueError(f"rate must be finite and nonnegative, got {self.rate!r}")
        if not is_integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")

    def sample(self, duration: float) -> np.ndarray:
        """Arrival times in [0, duration), strictly increasing."""
        check_duration(duration)
        if self.rate == 0.0 or duration == 0.0:
            return np.empty(0)
        rng = np.random.default_rng(self.seed)
        # draw in blocks until past the horizon; add.accumulate adds each
        # block's gaps to the last time one by one, as a running total does
        blocks = [np.zeros(1)]
        while blocks[-1][-1] < duration:
            gaps = rng.exponential(1.0 / self.rate, size=256)
            blocks.append(np.add.accumulate(np.append(blocks[-1][-1], gaps))[1:])
        times = np.concatenate(blocks[1:])
        return times[: np.searchsorted(times, duration)]


def propagate_state(
    h_of_t: Callable[[float], np.ndarray],
    psi0: np.ndarray,
    t_span: tuple,
    dt: float,
) -> np.ndarray:
    """Classical fourth-order Runge-Kutta on a state vector, renormalized
    each step.  Cheap path for pure-state runs on large spaces, where a
    dense propagator or density matrix is too expensive.

    h_of_t is a callable returning H(t) as an array.  The span, dt and
    psi0 are checked once, before the first step: all must be finite,
    psi0 nonzero and as long as H is wide.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got ({t0!r}, {t1!r})")
    if t1 < t0:
        raise ValueError("t_span must be ordered")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    psi = np.array(psi0, dtype=complex)
    if not np.all(np.isfinite(psi)):
        raise ValueError("psi0 must be finite")
    if not np.any(psi):
        raise ValueError("psi0 must be nonzero")
    h_start = h_of_t(t0)
    if psi.shape != h_start.shape[-1:]:
        raise ValueError(f"psi0 has shape {psi.shape} but H has dimension {h_start.shape[-1]}")
    span = t1 - t0
    if span == 0.0:
        return psi
    n_steps = max(1, math.ceil(span / dt))
    if n_steps > MAX_STEPS:
        raise ValueError(f"span {span:g} at dt {dt:g} needs {n_steps} steps; refusing")
    h = span / n_steps
    # -i h and -i h/2 scale the products H psi, so the k below are H psi without the -i
    full, half = -1j * h, -0.5j * h
    t = t0
    # H(t + h) of one step is H(t) of the next: t += h gives the same t
    for _ in range(n_steps):
        k1 = h_start @ psi
        h_mid = h_of_t(t + 0.5 * h)
        k2 = h_mid @ (psi + half * k1)
        k3 = h_mid @ (psi + half * k2)
        h_start = h_of_t(t + h)
        k4 = h_start @ (psi + full * k3)
        # k1 + 2 (k2 + k3) + k4, accumulated in place
        k2 += k3
        k2 *= 2.0
        k1 += k2
        k1 += k4
        k1 *= full / 6.0
        psi += k1
        psi /= math.sqrt(np.vdot(psi, psi).real)
        t += h
    return psi


def run_schedule(state, steps: Sequence, read: Callable) -> tuple:
    """Run pumping steps back to back and read the state at every sample.

    steps holds (times, advance) pairs: times from 0, and advance(state,
    read) returns the tuples read gives at each of times and the state at
    the end of the step.  A later step's first sample repeats the previous
    step's last; its reading is dropped.  Returns (times, readings, final
    state): the sample clock and each part of the readings, stacked over
    the samples and, last, the final state.
    """
    clock, rows, offset = [], [], 0.0
    for times, advance in steps:
        readings, state = advance(state, read)
        rows.extend(readings[bool(clock):])
        clock.extend(t + offset for t in times[bool(clock):])
        offset += float(times[-1]) if len(times) else 0.0
    rows.append(read(state))
    return np.array(clock), tuple(map(np.array, zip(*rows))), state


def stepwise(times, amounts: Sequence, apply: Callable) -> tuple:
    """run_schedule step in which apply(state, amounts[i]) carries the state to sample i, then
    amounts[len(times)], where given, past the last sample; a zero amount is skipped."""
    def advance(state, read):
        rows = []
        for i, amount in enumerate(amounts):
            state = apply(state, amount) if amount else state
            if i < len(times):
                rows.append(read(state))
        return rows, state

    return times, advance


def _charge0_block(shape: tuple, sectors: Sequence, column: int) -> np.ndarray:
    """sum_k c_k c_k^T for c_k = block_k[:, column] over the given
    squeeze_sectors, as a charge-0 block of ChargeBlocks on the field grid
    shape: its entry for the sector's rows j and j' has d = n2[j'] - n2[j]."""
    out = np.zeros((2 * shape[1] - 1, *shape))
    for n1, n2, block in sectors:
        c = block[:, column]
        out[n2 - n2[:, None] + shape[1] - 1, n1[:, None], n2[:, None]] = np.outer(c, c)
    return out


def squeezed_frame(rho0: Union[DensityMatrix, SpaceDescriptor], epsilon: float) -> tuple:
    """(entry, pump): the entry (rho_b, read, tabulate, report) of run_steps
    in the squeezed frame rho_b = S rho S+, from the DensityMatrix rho0 or
    the vacuum of a SpaceDescriptor, and the frame's pump step.

    b_j = S+ a_j S exactly on the truncated space, so there the transformed
    modes are bare and every pumping map acts on rho_b without S.  Those
    maps keep the charge of every entry, so rho_b is carried as the
    ChargeBlocks of the charges it occupies.  S is built once, as its
    (n1 - n2) sector blocks; a given rho0 enters on the sector pairs it
    occupies only, through _rotate_charges, and the vacuum is
    written straight into its one block.  No N^2 x N^2 array is made beyond
    a given rho0, which is read, never copied.  read(rho_b) is
    its band_sums, through one band table per run, and its a-frame boundary
    population truncation_leak(S+ rho_b S); tabulate takes the stacked
    band_sums to the bare modes by symplectic_squeeze(epsilon) and to their
    records in one pass.  pump(d, duration, times) is the run_schedule step
    that pumps the transformed mode of d's channel at d.gamma, here
    ChargeBlocks.damped of the bare mode: it reads every sample in closed
    form from the state the step starts in, and damps that state once.
    """
    space = rho0 if isinstance(rho0, SpaceDescriptor) else rho0.space
    if space.atom_levels != 1:
        raise ValueError("the squeezed frame expects a field-only initial state")
    sectors = squeeze_sectors(space, epsilon)
    # tr(S P S+ rho_b) = vdot(S P S+, rho_b) for the projector P on the
    # boundary layers; S keeps n1 - n2, so S P S+ has charge 0 only, and
    # on each sector it is c c^T for the S column c of its last state
    boundary = _charge0_block(space.shape[1:], sectors, -1)
    # rounding can take the trace of an empty boundary a little below 0
    leak = lambda rho: max(0.0, float(np.einsum("ijk,ijk->", boundary, rho.block(0).real)))
    read = lambda rho: (band_sums(rho), leak(rho))

    def pump(d, duration, times):
        mode = 1 if d.channel == "b1" else 2
        etas = np.exp(-d.gamma * times)

        def advance(rho, read):
            # damping scales a band by sqrt(eta) per ladder operator of the mode that it holds
            bands = band_sums(rho) * np.sqrt(etas)[:, None] ** BAND_LADDERS[:, mode - 1]
            rows = list(zip(bands, np.maximum(rho.damped_overlaps(boundary, mode, etas), 0.0)))
            end = rho.damped(mode, math.exp(-d.gamma * duration))
            if times[-1] == duration:
                rows[-1] = read(end)  # a sample at the step's end reads the state there, as the report does
            return rows, end

        return times, advance

    tabulate = lambda bands: moment_records(*squeeze_moments(*band_moments(bands), epsilon), epsilon)
    # the squeezed vacuum S+|0,0> has fidelity <0,0|rho_b|0,0>, in the charge-0 block at [N2 - 1, 0, 0]
    fidelity = lambda rho: float(rho.block(0)[space.n2_trunc - 1, 0, 0].real)
    report = lambda row, rho, final_leak: report_from_records(row, epsilon, fidelity(rho), final_leak)

    if isinstance(rho0, SpaceDescriptor):
        # S|0,0> is the first column of sector 0, so rho_b has charge 0 only
        vacuum = _charge0_block(space.shape[1:], [sectors[space.n2_trunc - 1]], 0)
        return (ChargeBlocks(np.zeros(1, int), vacuum[None] + 0j), read, tabulate, report), pump
    return (_rotate_charges(rho0.matrix, space.shape[1:], sectors), read, tabulate, report), pump


def _rotate_charges(rho: np.ndarray, shape: tuple, sectors: Sequence) -> ChargeBlocks:
    """The ChargeBlocks of S rho S+ for the N1 N2 x N1 N2 rho and the
    squeeze_sectors of S, with rho read in place, never copied.

    S keeps n1 - n2, so the part of rho in the rows of sector k and the
    columns of sector k' turns alone, S_k rho_kk' S_k'^T, and stays zero
    where rho_kk' is zero: only the sector pairs of _occupied_pairs turn,
    and their charges k - k' are those of rho.  As in the dense rotation,
    each S_k acts as a real product on float views, first on the rows of
    sector k, across the columns of the sectors it meets in a pair,
    gathered from rho and written into the blocks; then on the columns of
    sector k, across the rows it meets, gathered from the blocks and
    written back.  A sector in no pair makes no product."""
    n2_trunc, dim = shape[1], rho.shape[0]
    pairs, charges = _occupied_pairs(rho.reshape(shape * 2))
    blocks = np.zeros((charges.size, 2 * n2_trunc - 1, *shape), complex)
    flat = blocks.reshape(-1)
    # entry (n1, n2; m1, m2) of charge q is flat[start[q + span] + row[n1, n2] + column[m1, m2]]
    n1, n2 = np.indices(shape).reshape(2, -1)
    row, column = n1 * n2_trunc + n2 + (n2_trunc - 1 - n2) * dim, n2 * dim
    span, home = sum(shape) - 2, n1 - n2 + n2_trunc - 1  # home: the index of a state's sector
    start = np.zeros(2 * span + 1, int)
    start[charges + span] = np.arange(charges.size) * (2 * n2_trunc - 1) * dim
    states = [s1 * n2_trunc + s2 for s1, s2, _ in sectors]
    for across_columns, own, other, meets in ((True, row, column, pairs), (False, column, row, pairs.T)):
        for k in np.flatnonzero(meets.any(1)):
            state, met = states[k], np.flatnonzero(meets[k, home])
            charge = k - home[met] if across_columns else home[met] - k
            at = own[state][:, None] + (start[charge + span] + other[met])
            entries = rho[state[:, None], met] if across_columns else flat[at]
            flat[at] = (sectors[k][2] @ entries.view(float)).view(complex)
    return ChargeBlocks(charges, blocks)


def _refuse_overflow(leak: float, t: float) -> None:
    if leak > BOUNDARY_ERROR_LIMIT:
        raise ValueError(f"truncation overflow at t={t:g}: boundary population {leak:.2e} > "
                         f"{BOUNDARY_ERROR_LIMIT:g}; increase the Fock truncation")


def run_steps(entry: tuple, steps: Sequence) -> tuple:
    """Run run_schedule's (times, advance) steps from entry = (state, read,
    tabulate, report), the squeezed_frame of the fock and collision engines
    or the moments of the gaussian one.  A reading ends with the boundary leak;
    tabulate makes the records of the rest, stacked, in one pass, and
    report(row, state, leak) the SqueezingReport from the final state's
    row, whose leak must not exceed BOUNDARY_ERROR_LIMIT.  Returns (times,
    records, final state, SqueezingReport, max_truncation_leak)."""
    state, read, tabulate, report = entry
    times, (*readings, leaks), state = run_schedule(state, steps, read)
    table = tabulate(*readings)
    _refuse_overflow(leaks[-1], times[-1] if times.size else 0.0)
    final = report({key: series[-1] for key, series in table.items()}, state, leaks[-1])
    return times, {key: series[:-1] for key, series in table.items()}, state, final, float(leaks.max())


def transit_kraus_pair(d: DerivedParams, stark: Optional[StarkShifts], tau: float, shape: tuple):
    """Closed-form Kraus pair of one atom transit, in the squeezed frame.

    There the pumped mode j is bare, so the transit couples only |i, n>
    (i = g on channel b1, h on b2) with |o, n - e_j> (o the other level),
    under [[E_i, c], [c, E_o]] with c = -theta_b sqrt(n1) on b1 and
    +theta_b sqrt(n2) on b2 and E the light shifts of
    build_selective_hamiltonian (zero without stark).  Returns (stay, jump)
    on the Fock grid (N1, N2): <i|U|i> is diagonal with entries stay[n];
    <o|U|i> takes |n> to |n - e_j> with amplitude jump[n].
    """
    n1, n2 = np.indices(shape, dtype=float)
    e_g = e_h = dark = 0.0
    if stark is not None:
        e_g, e_h = stark.levels(n1, n2)
        dark = getattr(stark, "shift_" + d.atom_state)  # the entry level's n = 0 shift
    if d.channel == "b1":
        c, e_in, e_out = -d.theta_b * np.sqrt(n1), e_g, e_h
    else:
        c, e_in, e_out = d.theta_b * np.sqrt(n2), e_h, e_g
    half = 0.5 * (e_in - e_out)
    omega = np.sqrt(half**2 + c**2)
    phase = np.exp(-1j * tau * (0.5 * (e_in + e_out) - dark))
    sin_over = tau * np.sinc(omega * tau / math.pi)  # sin(omega tau) / omega
    stay = phase * (np.cos(omega * tau) - 1j * half * sin_over)
    jump = -1j * phase * c * sin_over
    return stay, jump


def check_duration(duration) -> None:
    """Refuse a duration, or any element of an array of them, that is not finite and nonnegative."""
    bad = [t for t in np.ravel(duration).tolist() if not 0.0 <= t < math.inf]
    if bad:
        raise ValueError(f"duration must be finite and nonnegative, got {bad[0]!r}")


def sample_clock(duration: float, sample_times: Optional[Sequence[float]] = None, samples: int = 101) -> np.ndarray:
    """The sample clock of a run or step over [0, duration]: the caller's
    sample_times, one-dimensional, strictly increasing and inside [0,
    duration], or samples evenly spaced points (one, at 0, when duration is 0)."""
    check_duration(duration)
    if sample_times is None:
        return np.linspace(0.0, duration, samples if duration else 1)
    times = np.asarray(sample_times, float)
    if times.ndim != 1 or not np.all(np.diff(times) > 0):
        raise ValueError("sample_times must be one-dimensional and strictly increasing")
    if times.size and not 0.0 <= times[0] <= times[-1] <= duration:
        raise ValueError("sample_times must lie in [0, duration]")
    return times


def _accepted_counts(params: PhysicalParams, duration: float, arrivals: ArrivalProcess, sample_times):
    """(counts, dropped) of one drawn arrival stream under the drop rule:
    counts[i] atoms are accepted up to sample i, counts[-1] in the whole
    duration."""
    occupancy = arrivals.rate * params.tau
    if occupancy > OCCUPANCY_LIMIT:
        raise ValueError(
            f"arrival rate violates the one-atom regime: r_a*tau = {occupancy:.3g} > "
            f"{OCCUPANCY_LIMIT}"
        )
    accepted, dropped, busy_until = [], 0, -math.inf
    for t in arrivals.sample(duration):
        if t >= busy_until:
            accepted.append(t)
            busy_until = t + params.tau
        else:
            dropped += 1
    return np.append(np.searchsorted(accepted, sample_times, side="right"), len(accepted)), dropped


def transit_map(shape, params: PhysicalParams, include_stark: bool) -> Callable:
    """apply(rho_b, k) of a collision step: k atom transits, each the Kraus
    pair of transit_kraus_pair on the charge blocks of rho_b."""
    d = derive_rates(params)
    x = d.theta_b * params.tau
    if x >= COUPLING_ERROR_LIMIT:
        raise ValueError(f"theta_b*tau = {x:.3g} is outside the perturbative regime (< 0.5)")

    stark = stark_shifts(params) if include_stark else None
    stay, jump = transit_kraus_pair(d, stark, params.tau, shape)
    # the jump lowers n_j and m_j of the pumped mode together, which keeps
    # each block entry's charge and d: entries with n_j >= 1 move one down
    # the n_j axis of the blocks
    axis = 2 if d.channel == "b1" else 3
    src = (slice(None),) * axis + (slice(1, None),)
    dst = (slice(None),) * axis + (slice(None, -1),)
    gathered = {}

    def apply(rho, k):
        # the charges are conserved, so a run gathers the pair into block shape once per step
        key = rho.charges.tobytes()
        if key not in gathered:
            gathered[key] = charge_outer(rho.charges, stay, stay), charge_outer(rho.charges, jump, jump)[src]
        stay_pair, jump_pair = gathered[key]
        blocks = rho.blocks
        for _ in range(k):
            new = stay_pair * blocks
            new[dst] += jump_pair * blocks[src]
            blocks = new
        return replace(rho, blocks=blocks)

    return apply


def collision_step(shape, params: PhysicalParams, duration: float, arrivals: ArrivalProcess, times,
                   include_stark: bool = False) -> tuple:
    """(step, accepted, dropped) of one collision run over duration: the
    stepwise step of transit_map by the atom counts of the arrivals the
    drop rule accepts, and how many it accepts and drops."""
    counts, dropped = _accepted_counts(params, duration, arrivals, times)
    step = stepwise(times, np.diff(counts, prepend=0), transit_map(shape, params, include_stark))
    return step, int(counts[-1]), dropped


def run_collision_model(
    rho0: DensityMatrix,
    params: PhysicalParams,
    duration: float,
    arrivals: ArrivalProcess,
    include_stark: bool = False,
    sample_times: Optional[Sequence[float]] = None,
) -> Trajectory:
    """Stochastic single-run collision simulation of the pumping step.

    Atoms arrive as a Poisson stream, each enters in the ground level of the
    selected channel (g for channel b1, h for channel b2), interacts for
    params.tau under the single-channel Hamiltonian, and is discarded.
    Arrivals while an atom is still inside are dropped and counted.  By
    default the light-shift part of the Hamiltonian is absorbed into the
    frame (include_stark=False); setting it true keeps the shifts explicit.
    Each accepted atom applies the closed-form Kraus pair of
    transit_kraus_pair in the squeezed frame.

    Records bare and transformed occupations plus joint-quadrature variances
    on sample_clock(duration, sample_times), checked before any arrival is
    drawn: 101 points by default, one (t = 0) when duration is 0.
    """
    sample_times = sample_clock(duration, sample_times)
    step, accepted, dropped = collision_step(rho0.space.shape[1:], params, duration, arrivals, sample_times,
                                             include_stark)
    d = derive_rates(params)
    times, records, state, _, leak = run_steps(squeezed_frame(rho0, d.epsilon)[0], [step])
    diagnostics = {"accepted_arrivals": accepted, "dropped_arrivals": dropped, "channel": d.channel,
                   "atom_state": d.atom_state, "seed": arrivals.seed, "max_truncation_leak": leak}
    return Trajectory(times, records, state, diagnostics)


def _worker_count(requested: Optional[int]) -> int:
    """Worker count of every command, whatever is requested: 1, since none
    starts a pool."""
    return 1


def run_collision_ensemble(
    rho0: DensityMatrix,
    params: PhysicalParams,
    duration: float,
    n_trajectories: int,
    master_seed: int,
    sample_times: Optional[Sequence[float]] = None,
) -> Trajectory:
    """Mean records of independent collision runs, read off one orbit.

    Trajectory i is run_collision_model's with ArrivalProcess(params.r_a,
    master_seed ^ i).  In the squeezed frame every accepted atom applies the
    same Kraus map Phi, so at a sample where trajectory i has accepted k
    atoms its state is Phi^k(rho_b).  The orbit is run once, over the
    distinct counts of all trajectories, and each trajectory's records and
    boundary leaks are read off it at its counts.  Records are the ensemble
    means; final_state is None.  A trajectory that ends above
    BOUNDARY_ERROR_LIMIT raises, as in run_collision_model.
    """
    if not is_integer(n_trajectories) or n_trajectories < 1:
        raise ValueError(f"n_trajectories must be an integer of at least 1, got {n_trajectories!r}")
    if not is_integer(master_seed):
        raise ValueError(f"master_seed must be an integer, got {master_seed!r}")
    if master_seed < 0:
        raise ValueError(f"master_seed must be nonnegative, got {master_seed!r}")
    sample_times = sample_clock(duration, sample_times)
    drawn = [_accepted_counts(params, duration, ArrivalProcess(params.r_a, master_seed ^ i), sample_times)
             for i in range(n_trajectories)]
    counts = np.array([c for c, _ in drawn])
    levels = np.flatnonzero(np.bincount(counts.ravel()))  # the distinct counts
    at = np.searchsorted(levels, counts)
    d = derive_rates(params)
    apply = transit_map(rho0.space.shape[1:], params, False)
    (rho_b, read, tabulate, _), _ = squeezed_frame(rho0, d.epsilon)
    # the last level is the orbit's final state, which run_schedule reads last
    *readings, leaks = run_schedule(rho_b, [stepwise(levels[:-1], np.diff(levels, prepend=0), apply)], read)[1]
    orbit, leaks = tabulate(*readings), leaks[at]
    for leak in leaks[:, -1]:
        _refuse_overflow(leak, sample_times[-1] if sample_times.size else 0.0)
    records = {key: np.mean(series[at[:, :-1]], axis=0) for key, series in orbit.items()}
    diagnostics = {
        "n_trajectories": n_trajectories,
        "accepted_arrivals": int(counts[:, -1].sum()),
        "dropped_arrivals": sum(int(dropped) for _, dropped in drawn),
        "max_truncation_leak": float(leaks.max()),
        "channel": d.channel,
        "master_seed": master_seed,
    }
    return Trajectory(times=sample_times, records=records, diagnostics=diagnostics)
